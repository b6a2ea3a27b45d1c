package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cbi/internal/report"
)

func walSampleReports() []*report.Report {
	return []*report.Report{
		{Failed: true, ObservedSites: []int32{0, 2}, TruePreds: []int32{1, 4}},
		{Failed: false, ObservedSites: []int32{1}, TruePreds: []int32{3}},
		{Failed: false, ObservedSites: []int32{0, 1, 2}, TruePreds: nil},
	}
}

func walSampleRecords() []*WALRecord {
	snap := sampleSnap()
	snap.Logged = 1
	return []*WALRecord{
		{Kind: WALBatch, Seq: 1, BatchID: "batch-a", Reports: walSampleReports()},
		{Kind: WALBatch, Seq: 2, Reports: nil}, // empty batch, empty id
		{Kind: WALMerge, Seq: 3, BatchID: "merge-7", Snap: snap,
			Recs: report.EncodeRecords(walSampleReports()[:1])},
		{Kind: WALRevoke, Seq: 4, IDs: []string{"batch-a", "batch-zz"}},
		{Kind: WALRevoke, Seq: 5, IDs: nil},
	}
}

// sameWALRecord compares semantically: the merge snapshot is compared
// through its counters (the codec may normalize Logged).
func sameWALRecord(t *testing.T, want, got *WALRecord) {
	t.Helper()
	if got.Kind != want.Kind || got.Seq != want.Seq || got.BatchID != want.BatchID {
		t.Fatalf("record envelope mismatch: want %c/%d/%q, got %c/%d/%q",
			want.Kind, want.Seq, want.BatchID, got.Kind, got.Seq, got.BatchID)
	}
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("record %d: %d reports, want %d", want.Seq, len(got.Reports), len(want.Reports))
	}
	for i := range want.Reports {
		if !reflect.DeepEqual(normReport(want.Reports[i]), normReport(got.Reports[i])) {
			t.Fatalf("record %d report %d mismatch:\nwant %+v\ngot  %+v",
				want.Seq, i, want.Reports[i], got.Reports[i])
		}
	}
	if want.Recs != nil && !reflect.DeepEqual(want.Recs, got.Recs) {
		t.Fatalf("record %d records: want %x, got %x", want.Seq, want.Recs, got.Recs)
	}
	if !reflect.DeepEqual(want.IDs, got.IDs) && !(len(want.IDs) == 0 && len(got.IDs) == 0) {
		t.Fatalf("record %d ids: want %v, got %v", want.Seq, want.IDs, got.IDs)
	}
	if (want.Snap == nil) != (got.Snap == nil) {
		t.Fatalf("record %d snap presence: want %v, got %v", want.Seq, want.Snap != nil, got.Snap != nil)
	}
	if want.Snap != nil {
		w, g := *want.Snap, *got.Snap
		w.Logged, g.Logged = 0, 0
		w.WALSeq, g.WALSeq = 0, 0
		w.WALIslands, g.WALIslands = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("record %d snapshot mismatch:\nwant %+v\ngot  %+v", want.Seq, w, g)
		}
	}
}

// normReport maps nil and empty slices together for comparison.
func normReport(r *report.Report) *report.Report {
	out := &report.Report{Failed: r.Failed,
		ObservedSites: append([]int32{}, r.ObservedSites...),
		TruePreds:     append([]int32{}, r.TruePreds...)}
	return out
}

func TestWALRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := walSampleRecords()
	for _, rec := range recs {
		var err error
		buf, err = AppendWALRecord(buf, rec, 3, 5)
		if err != nil {
			t.Fatalf("append seq %d: %v", rec.Seq, err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for _, want := range recs {
		got, err := ReadWALRecord(br, 3, 5)
		if err != nil {
			t.Fatalf("read seq %d: %v", want.Seq, err)
		}
		sameWALRecord(t, want, got)
	}
	if _, err := ReadWALRecord(br, 3, 5); err != io.EOF {
		t.Fatalf("after last record: got %v, want io.EOF", err)
	}
}

// TestWALRecordPreEncoded pins the fast path the collector's ingest
// uses: a batch record built from pre-encoded Recs must be
// byte-identical to one built from the Reports themselves.
func TestWALRecordPreEncoded(t *testing.T) {
	reports := walSampleReports()
	slow, err := AppendWALRecord(nil, &WALRecord{
		Kind: WALBatch, Seq: 7, BatchID: "batch-7", Reports: reports,
	}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, len(reports))
	for i, r := range reports {
		recs[i] = report.AppendRecord(nil, r)
	}
	fast, err := AppendWALRecord(nil, &WALRecord{
		Kind: WALBatch, Seq: 7, BatchID: "batch-7", Recs: recs,
	}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slow, fast) {
		t.Fatalf("pre-encoded batch record diverges:\nreports %x\nrecs    %x", slow, fast)
	}
}

// TestWALRecordReadBackCarriesRecords pins what replay leans on: a
// batch record read back carries each run's canonical record beside
// its decoded report, so the collector re-applies it without encoding
// anything — and a payload whose varints were padded (accepted, but not
// what AppendRecord writes) still yields canonical records, never the
// padded bytes.
func TestWALRecordReadBackCarriesRecords(t *testing.T) {
	reports := walSampleReports()
	padded := []byte{0x01, 0x81, 0x00, 0x02, 0x80, 0x00} // failing, sites {2}, no preds
	recs := [][]byte{padded}
	for _, r := range reports {
		recs = append(recs, report.AppendRecord(nil, r))
	}
	for _, kind := range []byte{WALBatch, WALKeyedBatch, WALEvict} {
		enc, err := AppendWALRecord(nil, &WALRecord{Kind: kind, Seq: 3, Key: 99, Recs: recs}, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadWALRecord(bufio.NewReader(bytes.NewReader(enc)), 3, 5)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if len(got.Recs) != len(recs) || len(got.Reports) != len(recs) {
			t.Fatalf("kind %q: %d records, %d reports, want %d", kind, len(got.Recs), len(got.Reports), len(recs))
		}
		for i, r := range got.Reports {
			if want := report.AppendRecord(nil, r); !bytes.Equal(got.Recs[i], want) {
				t.Errorf("kind %q: record %d = %x, want %x", kind, i, got.Recs[i], want)
			}
		}
		if r := got.Reports[0]; !r.Failed || !reflect.DeepEqual(r.ObservedSites, []int32{2}) || len(r.TruePreds) != 0 {
			t.Errorf("kind %q: padded record decoded to %+v", kind, r)
		}
	}
}

func TestWALSegmentReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "collector.wal.00000001")
	w, err := CreateWALSegment(path, 3, 5, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	recs := walSampleRecords()
	for _, rec := range recs {
		if err := w.Append(rec, 3, 5); err != nil {
			t.Fatalf("append seq %d: %v", rec.Seq, err)
		}
	}
	if w.Empty() {
		t.Fatal("segment with records reports Empty")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayWALFile(path, 3, 5, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Fatal("clean segment reported torn")
	}
	if rep.MaxSeq != recs[len(recs)-1].Seq {
		t.Fatalf("MaxSeq = %d, want %d", rep.MaxSeq, recs[len(recs)-1].Seq)
	}
	if len(rep.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), len(recs))
	}
	for i, want := range recs {
		sameWALRecord(t, want, rep.Records[i])
	}
	fi, _ := os.Stat(path)
	if rep.ValidBytes != fi.Size() {
		t.Fatalf("ValidBytes = %d, file is %d", rep.ValidBytes, fi.Size())
	}
}

// TestWALTornTails truncates a clean segment at every byte offset and
// replays each prefix: the result must be some intact record prefix,
// flagged torn whenever bytes were cut mid-record, and never an error
// or a panic. This is the crash-mid-write model: a torn tail is data
// the collector never acked, so dropping it is correct.
func TestWALTornTails(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal.00000001")
	w, err := CreateWALSegment(full, 3, 5, 77)
	if err != nil {
		t.Fatal(err)
	}
	recs := walSampleRecords()
	// Record the valid prefix length after the header and after each append.
	offsets := []int64{w.Size()}
	for _, rec := range recs {
		if err := w.Append(rec, 3, 5); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, w.Size())
	}
	w.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.wal.00000001")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ReplayWALFile(path, 3, 5, 77)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		// The intact prefix is the records wholly inside the cut.
		whole := 0
		for whole < len(recs) && offsets[whole+1] <= int64(cut) {
			whole++
		}
		if len(rep.Records) != whole {
			t.Fatalf("cut at %d: %d records survived, want %d", cut, len(rep.Records), whole)
		}
		for i := 0; i < whole; i++ {
			sameWALRecord(t, recs[i], rep.Records[i])
		}
		atBoundary := int64(cut) == offsets[whole]
		if rep.Torn == atBoundary && cut > 0 {
			// cut==0 (empty file) parses as an un-torn empty segment.
			t.Fatalf("cut at %d: Torn=%v, boundary=%v", cut, rep.Torn, atBoundary)
		}
		// A cut inside the header leaves ValidBytes at zero; past it,
		// the valid prefix is exactly the intact records.
		if rep.Torn && int64(cut) >= offsets[0] && rep.ValidBytes != offsets[whole] {
			t.Fatalf("cut at %d: ValidBytes=%d, want %d", cut, rep.ValidBytes, offsets[whole])
		}
	}
}

// TestWALCorruptMiddle flips one byte inside the first record: replay
// must stop before it — corruption is indistinguishable from a torn
// tail at that point — and surface only the empty prefix.
func TestWALCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal.00000001")
	w, err := CreateWALSegment(path, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := w.Size()
	recs := walSampleRecords()
	for _, rec := range recs {
		w.Append(rec, 3, 5)
	}
	w.Close()
	data, _ := os.ReadFile(path)
	data[hdr+5] ^= 0x40
	os.WriteFile(path, data, 0o644)

	rep, err := ReplayWALFile(path, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || len(rep.Records) != 0 || rep.ValidBytes != hdr {
		t.Fatalf("corrupt first record: torn=%v records=%d valid=%d, want true/0/%d",
			rep.Torn, len(rep.Records), rep.ValidBytes, hdr)
	}
}

func TestWALHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.wal.00000001")
	w, _ := CreateWALSegment(good, 3, 5, 42)
	w.Append(&WALRecord{Kind: WALBatch, Seq: 1}, 3, 5)
	w.Close()

	if _, err := ReplayWALFile(good, 4, 5, 42); err == nil {
		t.Fatal("dimension mismatch replayed without error")
	}
	if _, err := ReplayWALFile(good, 3, 5, 43); err == nil {
		t.Fatal("fingerprint mismatch replayed without error")
	}
	// Fingerprint 0 on either side means "unknown" and is accepted.
	if _, err := ReplayWALFile(good, 3, 5, 0); err != nil {
		t.Fatalf("zero fingerprint rejected: %v", err)
	}

	junk := filepath.Join(dir, "junk.wal.00000001")
	os.WriteFile(junk, []byte("not a wal segment\nmore\n"), 0o644)
	if _, err := ReplayWALFile(junk, 3, 5, 0); err == nil {
		t.Fatal("non-WAL file replayed without error")
	}

	if rep, err := ReplayWALFile(filepath.Join(dir, "missing"), 3, 5, 0); rep != nil || err != nil {
		t.Fatalf("missing file: got %v, %v; want nil, nil", rep, err)
	}
}

// TestWALSeqRegression doctors a second record with a non-increasing
// sequence; replay must treat the log as torn there rather than apply
// a record out of order.
func TestWALSeqRegression(t *testing.T) {
	var buf []byte
	buf, _ = AppendWALRecord(buf, &WALRecord{Kind: WALBatch, Seq: 5}, 3, 5)
	buf, _ = AppendWALRecord(buf, &WALRecord{Kind: WALBatch, Seq: 5}, 3, 5)
	path := filepath.Join(t.TempDir(), "seq.wal.00000001")
	hdr := walHeader(3, 5, 0)
	os.WriteFile(path, append([]byte(hdr), buf...), 0o644)
	rep, err := ReplayWALFile(path, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || len(rep.Records) != 1 {
		t.Fatalf("seq regression: torn=%v records=%d, want true/1", rep.Torn, len(rep.Records))
	}
}

func TestWALOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal.00000001")
	w, err := CreateWALSegment(path, 3, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&WALRecord{Kind: WALBatch, Seq: 1, Reports: walSampleReports()}, 3, 5)
	valid := w.Size()
	w.Append(&WALRecord{Kind: WALBatch, Seq: 2, Reports: walSampleReports()}, 3, 5)
	w.Close()
	// Tear the second record.
	os.Truncate(path, valid+3)

	rep, err := ReplayWALFile(path, 3, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || rep.ValidBytes != valid {
		t.Fatalf("torn=%v valid=%d, want true/%d", rep.Torn, rep.ValidBytes, valid)
	}
	w2, err := OpenWALSegment(path, 3, 5, 9, rep.ValidBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(&WALRecord{Kind: WALBatch, Seq: 2, Reports: walSampleReports()[:1]}, 3, 5); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	rep2, err := ReplayWALFile(path, 3, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Torn || len(rep2.Records) != 2 || rep2.MaxSeq != 2 {
		t.Fatalf("after reopen+append: torn=%v records=%d max=%d", rep2.Torn, len(rep2.Records), rep2.MaxSeq)
	}

	// validBytes below the header length rewrites the segment fresh.
	w3, err := OpenWALSegment(path, 3, 5, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !w3.Empty() {
		t.Fatal("reopen with tiny validBytes kept records")
	}
	w3.Close()
}

func TestWALTruncateTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tr.wal.00000001")
	w, err := CreateWALSegment(path, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := w.Size()
	w.Append(&WALRecord{Kind: WALBatch, Seq: 1}, 3, 5)
	mid := w.Size()
	w.Append(&WALRecord{Kind: WALBatch, Seq: 2}, 3, 5)
	if err := w.TruncateTo(mid); err != nil {
		t.Fatal(err)
	}
	if w.Size() != mid {
		t.Fatalf("size after TruncateTo = %d, want %d", w.Size(), mid)
	}
	// Appends continue cleanly at the truncation point.
	w.Append(&WALRecord{Kind: WALBatch, Seq: 2}, 3, 5)
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != hdr || !w.Empty() {
		t.Fatalf("size after Truncate = %d, want header %d", w.Size(), hdr)
	}
	// TruncateTo floors at the header.
	w.Append(&WALRecord{Kind: WALBatch, Seq: 3}, 3, 5)
	if err := w.TruncateTo(0); err != nil {
		t.Fatal(err)
	}
	if w.Size() != hdr {
		t.Fatalf("TruncateTo(0) size = %d, want %d", w.Size(), hdr)
	}
	w.Close()
	rep, err := ReplayWALFile(path, 3, 5, 0)
	if err != nil || rep.Torn || len(rep.Records) != 0 {
		t.Fatalf("truncated segment: %v torn=%v records=%d", err, rep.Torn, len(rep.Records))
	}
}

func TestListWALSegments(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "collector.wal")
	for _, idx := range []uint64{3, 1, 12} {
		os.WriteFile(WALSegmentName(base, idx), []byte("x"), 0o644)
	}
	// Distractors that must not match.
	os.WriteFile(base+".tmp", nil, 0o644)
	os.WriteFile(base+".0000000x", nil, 0o644)
	segs, err := ListWALSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	var idxs []uint64
	for _, s := range segs {
		idxs = append(idxs, s.Index)
	}
	if !reflect.DeepEqual(idxs, []uint64{1, 3, 12}) {
		t.Fatalf("segment indexes %v, want [1 3 12]", idxs)
	}
}

func TestWALRecordEncodeErrors(t *testing.T) {
	long := string(make([]byte, maxWALBatchID+1))
	cases := []*WALRecord{
		{Kind: WALBatch, Seq: 1, BatchID: long},
		{Kind: WALMerge, Seq: 1}, // merge without snapshot
		{Kind: WALRevoke, Seq: 1, IDs: []string{long}},
		{Kind: 'Z', Seq: 1},
	}
	for i, rec := range cases {
		if _, err := AppendWALRecord(nil, rec, 3, 5); err == nil {
			t.Errorf("case %d: encode accepted invalid record", i)
		}
	}
}

// FuzzWALRoundTrip feeds arbitrary bytes to the record reader. The
// invariants: never panic, only clean EOF at a boundary, and any
// record that decodes must survive encode∘decode with the same
// semantic content (byte identity is not required — the reader accepts
// whitespace variants a canonical writer would not emit).
func FuzzWALRoundTrip(f *testing.F) {
	var seed []byte
	for _, rec := range walSampleRecords() {
		seed, _ = AppendWALRecord(seed, rec, 3, 5)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{WALBatch, 0x01, 0x00, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			rec, err := ReadWALRecord(br, 3, 5)
			if err != nil {
				return // torn, corrupt, or clean EOF — all fine, no panic
			}
			reenc, err := AppendWALRecord(nil, rec, 3, 5)
			if err != nil {
				t.Fatalf("decoded record failed to re-encode: %v", err)
			}
			rec2, err := ReadWALRecord(bufio.NewReader(bytes.NewReader(reenc)), 3, 5)
			if err != nil {
				t.Fatalf("re-encoded record failed to decode: %v", err)
			}
			if rec.Kind != rec2.Kind || rec.Seq != rec2.Seq || rec.BatchID != rec2.BatchID ||
				len(rec.Reports) != len(rec2.Reports) || len(rec.Recs) != len(rec2.Recs) || len(rec.IDs) != len(rec2.IDs) {
				t.Fatalf("round trip drift: %+v vs %+v", rec, rec2)
			}
		}
	})
}

// TestWALMergePayloadReadToTheEnd: a merge record's payload is exactly
// one merge segment. A byte after the segment's key list fails the
// record as torn even though its checksum holds, so replay never
// applies a merge whose payload it did not fully understand.
func TestWALMergePayloadReadToTheEnd(t *testing.T) {
	snap := sampleSnap()
	rec := &WALRecord{Kind: WALMerge, Seq: 9, Snap: snap,
		Recs: report.EncodeRecords(walSampleReports()[:2]), Keys: []uint64{KeyHash("a"), KeyHash("b")}}
	want, err := AppendWALRecord(nil, rec, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var seg bytes.Buffer
	if err := WriteMergeSegmentRecords(&seg, snap, 3, 5, rec.Recs, rec.Keys); err != nil {
		t.Fatal(err)
	}
	frame := func(payload []byte) []byte {
		raw := []byte{WALMerge}
		raw = binary.AppendUvarint(raw, rec.Seq)
		raw = binary.AppendUvarint(raw, 0)
		raw = binary.AppendUvarint(raw, uint64(len(payload)))
		raw = append(raw, payload...)
		return binary.LittleEndian.AppendUint32(raw, crc32.Checksum(raw, walCRCTable))
	}
	if !bytes.Equal(frame(seg.Bytes()), want) {
		t.Fatal("hand-framed merge record differs from AppendWALRecord's")
	}
	got, err := ReadWALRecord(bufio.NewReader(bytes.NewReader(want)), 3, 5)
	if err != nil || !reflect.DeepEqual(got.Recs, rec.Recs) || !reflect.DeepEqual(got.Keys, rec.Keys) {
		t.Fatalf("merge record read back as %+v (err %v)", got, err)
	}
	junk := frame(append(seg.Bytes(), 0x00))
	if _, err := ReadWALRecord(bufio.NewReader(bytes.NewReader(junk)), 3, 5); err == nil || err == io.EOF {
		t.Fatalf("merge payload with a trailing byte: err %v, want a torn record", err)
	}
}
