package corpus

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"cbi/internal/report"
)

func TestMergeAggSnapshot(t *testing.T) {
	dst := NewAggSnapshot(3, 5)
	a := sampleSnap()
	b := sampleSnap()
	b.NumF, b.NumS = 2, 3
	b.FPred = []int64{10, 10, 10, 10, 10}

	if err := MergeAggSnapshot(dst, a); err != nil {
		t.Fatal(err)
	}
	// A zero-fingerprint destination adopts the source's.
	if dst.Fingerprint != a.Fingerprint {
		t.Fatalf("dst fingerprint %x, want adopted %x", dst.Fingerprint, a.Fingerprint)
	}
	if err := MergeAggSnapshot(dst, b); err != nil {
		t.Fatal(err)
	}
	if dst.NumF != a.NumF+2 || dst.NumS != a.NumS+3 {
		t.Fatalf("run counts = %d/%d, want %d/%d", dst.NumF, dst.NumS, a.NumF+2, a.NumS+3)
	}
	for i := range dst.FPred {
		if dst.FPred[i] != a.FPred[i]+10 {
			t.Fatalf("FPred[%d] = %d, want %d", i, dst.FPred[i], a.FPred[i]+10)
		}
	}
	for i := range dst.FobsSite {
		if dst.FobsSite[i] != a.FobsSite[i]+b.FobsSite[i] {
			t.Fatalf("FobsSite[%d] = %d", i, dst.FobsSite[i])
		}
	}

	// Dimension mismatch refuses.
	if err := MergeAggSnapshot(dst, NewAggSnapshot(3, 6)); err == nil {
		t.Fatal("merging mismatched dimensions succeeded")
	}
	// Conflicting nonzero fingerprints refuse.
	c := sampleSnap()
	c.Fingerprint = 0x1234
	if err := MergeAggSnapshot(dst, c); err == nil {
		t.Fatal("merging conflicting fingerprints succeeded")
	}
	// A zero-fingerprint source merges into a stamped destination.
	d := sampleSnap()
	d.Fingerprint = 0
	if err := MergeAggSnapshot(dst, d); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSegmentRoundTrip(t *testing.T) {
	snap := sampleSnap()
	recs := report.EncodeRecords([]*report.Report{
		{Failed: true, ObservedSites: []int32{0, 2}, TruePreds: []int32{1, 4}},
		{Failed: false, ObservedSites: []int32{1}, TruePreds: []int32{3}},
	})
	var buf bytes.Buffer
	if err := WriteMergeSegmentRecords(&buf, snap, snap.NumSites, snap.NumPreds, recs, nil); err != nil {
		t.Fatal(err)
	}
	gotSnap, gotRecs, gotKeys, err := ReadMergeSegmentKeyed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnap, snap) {
		t.Fatalf("snapshot round trip mismatch:\nin:  %+v\nout: %+v", snap, gotSnap)
	}
	if !reflect.DeepEqual(gotRecs, recs) || gotKeys != nil {
		t.Fatalf("window round trip mismatch:\nin:  %x\nout: %x (keys %v)", recs, gotRecs, gotKeys)
	}
}

func TestMergeSegmentErrors(t *testing.T) {
	snap := sampleSnap()

	// Mismatched dimensions refuse at write time.
	if err := WriteMergeSegmentRecords(&bytes.Buffer{}, snap, 9, 9, nil, nil); err == nil {
		t.Fatal("writing mismatched segment succeeded")
	}

	// More logged reports than the counters claim refuse at read time.
	var over [][]byte
	for i := int64(0); i < snap.NumF+snap.NumS+1; i++ {
		over = append(over, report.AppendRecord(nil, &report.Report{ObservedSites: []int32{0}}))
	}
	var buf bytes.Buffer
	if err := WriteMergeSegmentRecords(&buf, snap, snap.NumSites, snap.NumPreds, over, nil); err == nil {
		if _, _, _, err := ReadMergeSegmentKeyed(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("segment logging more runs than counted was accepted")
		}
	}

	for _, bad := range []string{
		"",
		"cbi-merge\n",
		"cbi-merge 99 10\n",
		"cbi-merge 1 -5\n",
		"cbi-merge 1 999999999999\n",
		"cbi-merge 1 3\nabc", // snapshot bytes are not an aggsnap
	} {
		if _, _, _, err := ReadMergeSegmentKeyed(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadMergeSegmentKeyed(%q) succeeded", bad)
		}
	}

	// Truncated stream: a valid header whose body was cut off.
	var full bytes.Buffer
	if err := WriteMergeSegmentRecords(&full, snap, snap.NumSites, snap.NumPreds, nil, nil); err != nil {
		t.Fatal(err)
	}
	cut := full.Bytes()[:full.Len()/2]
	if _, _, _, err := ReadMergeSegmentKeyed(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated segment was accepted")
	}
}

// TestAggSnapshotV1Compat: only version 3 is written, but merge
// segments travel between binaries, so a version-2 file (no WALSEQ
// line) and a version-1 file (no LOGGED line either; Logged reports -1,
// unknown) must still parse to the same counters.
func TestAggSnapshotV1Compat(t *testing.T) {
	snap := sampleSnap()
	snap.Logged = 4
	var buf bytes.Buffer
	if err := SaveAggSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for version, cut := range map[string]string{"2": "WALSEQ ", "1": "LOGGED "} {
		old := strings.Replace(text, "cbi-aggsnap 3 ", "cbi-aggsnap "+version+" ", 1)
		old = old[:strings.Index(old, cut)]
		got, err := LoadAggSnapshot(strings.NewReader(old))
		if err != nil {
			t.Fatalf("loading v%s snapshot: %v", version, err)
		}
		if version == "1" {
			if got.Logged != -1 {
				t.Fatalf("v1 snapshot Logged = %d, want -1", got.Logged)
			}
			got.Logged = snap.Logged
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("v%s snapshot mismatch:\nin:  %+v\nout: %+v", version, snap, got)
		}
	}

	// Future versions refuse.
	v9 := strings.Replace(text, "cbi-aggsnap 3 ", "cbi-aggsnap 9 ", 1)
	if _, err := LoadAggSnapshot(strings.NewReader(v9)); err == nil {
		t.Fatal("version-9 snapshot was accepted")
	}
}

// padRecord returns rec with its site-list length re-encoded one byte
// longer (a trailing zero continuation group): a record every decoder
// accepts, but not the canonical AppendRecord bytes.
func padRecord(rec []byte) []byte {
	v, n := binary.Uvarint(rec[1:])
	pad := binary.AppendUvarint([]byte{rec[0]}, v)
	pad[len(pad)-1] |= 0x80
	pad = append(pad, 0x00)
	return append(pad, rec[1+n:]...)
}

// FuzzMergeSegment feeds arbitrary bytes to the merge-segment reader.
// It must never panic, and every segment it accepts must hold
// canonical records (each exactly AppendRecord over its decoding), keys
// aligned with them, no more logged runs than counted runs, and nothing
// after the segment: the same bytes plus one more are refused.
func FuzzMergeSegment(f *testing.F) {
	snap := sampleSnap()
	reports := []*report.Report{
		{Failed: true, ObservedSites: []int32{0, 2}, TruePreds: []int32{1, 4}},
		{Failed: false, ObservedSites: []int32{1}, TruePreds: []int32{3}},
		{Failed: false},
	}
	recs := report.EncodeRecords(reports)
	var padded [][]byte
	for _, rec := range recs {
		padded = append(padded, padRecord(rec))
	}
	keys := []uint64{KeyHash("a"), NoKey, KeyHash("b")}
	for _, seed := range []struct {
		recs [][]byte
		keys []uint64
	}{{recs, nil}, {recs, keys}, {padded, nil}, {padded, keys}, {nil, nil}} {
		var buf bytes.Buffer
		if err := WriteMergeSegmentRecords(&buf, snap, snap.NumSites, snap.NumPreds, seed.recs, seed.keys); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(append(buf.Bytes(), 0x00))
	}
	f.Add([]byte("cbi-merge 1 3\nabc"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, recs, keys, err := ReadMergeSegmentKeyed(bytes.NewReader(data))
		if err != nil {
			return
		}
		if int64(len(recs)) > snap.NumF+snap.NumS {
			t.Fatalf("%d records for %d counted runs", len(recs), snap.NumF+snap.NumS)
		}
		if keys != nil && len(keys) != len(recs) {
			t.Fatalf("%d keys for %d records", len(keys), len(recs))
		}
		for i, rec := range recs {
			r, walked, err := report.DecodeRecord(rec, snap.NumSites, snap.NumPreds)
			if err != nil || walked.Len != len(rec) || !bytes.Equal(rec, report.AppendRecord(nil, r)) {
				t.Fatalf("record %d = %x is not canonical (err %v)", i, rec, err)
			}
		}
		if _, _, _, err := ReadMergeSegmentKeyed(bytes.NewReader(append(data[:len(data):len(data)], 0x00))); err == nil {
			t.Fatal("segment followed by a junk byte was accepted")
		}
	})
}
