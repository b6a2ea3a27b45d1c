package report

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The reference decoder: the bufio stream decoder the walker replaced,
// kept verbatim as the fuzz targets' oracle. It stops at a set's last
// record; unmarshalWhole adds the production rule that nothing may
// follow it.

// Preallocation caps for length headers. A hostile header can claim up
// to maxDim entries before a single payload byte arrives, so initial
// make() sizes are clamped well below what the claim alone would
// justify: 4096 report pointers (32 KiB) and 4096 ids (16 KiB).
// Legitimate batches larger than the cap still decode in amortized
// linear time — append grows geometrically, so re-growth past the hint
// costs O(n) total, never quadratic.
const (
	maxReportPrealloc = 1 << 12
	maxListPrealloc   = 1 << 12
)

// readRecordReference decodes one record written by AppendRecord, validating the
// same invariants as unmarshalReference: known flags, strictly ascending
// id lists, every id inside [0, numSites) / [0, numPreds). It is safe
// on arbitrary input — it returns an error rather than panicking, and
// allocation is bounded by the input size (fuzz-verified by
// FuzzRunLogRoundTrip).
func readRecordReference(br io.ByteReader, numSites, numPreds int) (*Report, error) {
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("report: record flags: %v", err)
	}
	if flags > 1 {
		return nil, fmt.Errorf("report: record: unknown flags %#x", flags)
	}
	rep := &Report{Failed: flags&1 != 0}
	if rep.ObservedSites, err = readDeltaList(br, numSites); err != nil {
		return nil, fmt.Errorf("report: record sites: %v", err)
	}
	if rep.TruePreds, err = readDeltaList(br, numPreds); err != nil {
		return nil, fmt.Errorf("report: record preds: %v", err)
	}
	return rep, nil
}

// unmarshalReference parses a set written by MarshalBinary. It is safe on
// arbitrary (malformed, truncated, hostile) input: it returns an error
// rather than panicking, and allocation is bounded by the input size.
func unmarshalReference(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("report: binary magic: %v", err)
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("report: bad binary magic %q, want %q", magic[:], binaryMagic)
	}
	numSites, err := readDim(br, "numSites")
	if err != nil {
		return nil, err
	}
	numPreds, err := readDim(br, "numPreds")
	if err != nil {
		return nil, err
	}
	numReports, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("report: binary numReports: %v", err)
	}
	// Each report needs at least 3 bytes on the wire; cap the
	// preallocation so a lying header cannot force OOM or even a
	// noticeable over-allocation before the body disproves the claim.
	// Compared as uint64: a count past MaxInt64 converts to a negative
	// int, which would slip under the cap and panic make.
	capHint := maxReportPrealloc
	if numReports < maxReportPrealloc {
		capHint = int(numReports)
	}
	set := &Set{NumSites: numSites, NumPreds: numPreds,
		Reports: make([]*Report, 0, capHint)}
	for i := uint64(0); i < numReports; i++ {
		rep, err := readRecordReference(br, numSites, numPreds)
		if err != nil {
			return nil, fmt.Errorf("report: binary report %d: %v", i, err)
		}
		set.Reports = append(set.Reports, rep)
	}
	return set, nil
}

func readDim(br *bufio.Reader, what string) (int, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("report: binary %s: %v", what, err)
	}
	if v > maxDim {
		return 0, fmt.Errorf("report: binary %s %d exceeds limit", what, v)
	}
	return int(v), nil
}

// readDeltaList decodes a strictly ascending id list with ids in
// [0, dim). The length is implicitly bounded by dim: an ascending list
// cannot hold more distinct values than the index space.
func readDeltaList(br io.ByteReader, dim int) ([]int32, error) {
	n, err := readListLen(br, dim)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Preallocate conservatively: every entry costs at least one wire
	// byte, so a lying length (up to dim = 2^30) must not be able to
	// force a large allocation before any list bytes are read.
	capHint := n
	if capHint > maxListPrealloc {
		capHint = maxListPrealloc
	}
	return appendDeltaList(br, dim, n, make([]int32, 0, capHint))
}

// readListLen reads a list length header and validates it against dim.
func readListLen(br io.ByteReader, dim int) (int, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > uint64(dim) {
		return 0, fmt.Errorf("list length %d exceeds dimension %d", n, dim)
	}
	return int(n), nil
}

// appendDeltaList decodes n delta-encoded entries onto dst, validating
// ascending order and range. Allocation tracks bytes actually read —
// append growth, never the claimed length — so the arena decoder can
// feed it a shared id slab.
func appendDeltaList(br io.ByteReader, dim, n int, dst []int32) ([]int32, error) {
	prev := int64(-1)
	for i := 0; i < n; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return dst, err
		}
		if d > uint64(dim) {
			return dst, fmt.Errorf("id delta %d out of range [0,%d)", d, dim)
		}
		var v int64
		if prev < 0 {
			v = int64(d)
		} else {
			if d == 0 {
				return dst, fmt.Errorf("non-ascending entry at index %d", i)
			}
			v = prev + int64(d)
		}
		if v >= int64(dim) {
			return dst, fmt.Errorf("id %d out of range [0,%d)", v, dim)
		}
		dst = append(dst, int32(v))
		prev = v
	}
	return dst, nil
}

// unmarshalWhole decodes data with the reference decoder and refuses
// it, as every production decoder does, when bytes follow the set.
func unmarshalWhole(data []byte) (*Set, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	set, err := unmarshalReference(br)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errors.New("trailing bytes after the set")
	}
	return set, nil
}

// fuzzSeeds returns a few valid sets whose encodings seed both fuzzers.
func fuzzSeeds() []*Set {
	return []*Set{
		{NumSites: 0, NumPreds: 0},
		{NumSites: 3, NumPreds: 6, Reports: []*Report{
			{Failed: true, ObservedSites: []int32{0, 2}, TruePreds: []int32{1, 4, 5}},
			{Failed: false},
		}},
		{NumSites: 1000, NumPreds: 4000, Reports: []*Report{
			{Failed: false, ObservedSites: []int32{999}, TruePreds: []int32{0, 3999}},
		}},
	}
}

// hostileBinarySeeds are binary bodies built to split a careless pair of
// decoders: overlong varints (accepted, but not canonical) in every
// position, and lengths that claim more than the body holds.
func hostileBinarySeeds() [][]byte {
	head := []byte("CBR1\x03\x06") // 3 sites, 6 preds
	body := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{head}, parts...), nil) }
	return [][]byte{
		// One failing report, sites {0,2}, preds {1}: list lengths, a
		// first id and a gap each padded with a zero continuation group.
		body([]byte{0x01}, []byte{0x01, 0x82, 0x00, 0x80, 0x00, 0x82, 0x00, 0x81, 0x00, 0x81, 0x00}),
		// Overlong report count and dimension.
		[]byte("CBR1\x83\x00\x06\x81\x80\x00\x00\x00\x00"),
		// A canonical report followed by an overlong one.
		body([]byte{0x02}, []byte{0x00, 0x01, 0x01, 0x00}, []byte{0x00, 0x81, 0x00, 0x01, 0x00}),
		// Report count far beyond the body — past MaxInt64, where the
		// stream decoder's preallocation hint once went negative and
		// panicked — and count one beyond it.
		body([]byte{0xf1, 0xf1, 0xf1, 0xf1, 0xf1, 0xf1, 0xf1, 0xf1, 0xf1, 0x01}),
		body([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, []byte{0x00, 0x00, 0x00}),
		body([]byte{0x02}, []byte{0x00, 0x00, 0x00}),
		// List length within the dimension but beyond the bytes left.
		body([]byte{0x01}, []byte{0x00, 0x03, 0x00, 0x01}),
		body([]byte{0x01}, []byte{0x00, 0x01, 0x00, 0x06, 0x00, 0x01}),
		// An eleven-byte varint (overflow) and a varint cut short.
		body([]byte{0x01}, []byte{0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}),
		body([]byte{0x01}, []byte{0x00, 0x01, 0x80}),
	}
}

// FuzzReportRoundTripBinary checks the binary codec: arbitrary input
// never panics, UnmarshalBinary accepts exactly what the reference
// decoder accepts with nothing after the set and decodes the same set,
// and any input that decodes re-encodes to a set that decodes
// identically (decode∘encode is the identity on valid data).
func FuzzReportRoundTripBinary(f *testing.F) {
	for _, set := range fuzzSeeds() {
		var buf bytes.Buffer
		if err := set.MarshalBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(append(buf.Bytes(), 0x00))
	}
	f.Add([]byte("CBR1"))
	f.Add([]byte("cbi-reports 1 0 0 0\n"))
	for _, seed := range hostileBinarySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := UnmarshalBinary(bytes.NewReader(data))
		want, wantErr := unmarshalWhole(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalBinary err=%v, reference err=%v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(canonSet(set), canonSet(want)) {
			t.Fatalf("decode differs from the reference:\nreference: %+v\ngot:       %+v", want, set)
		}
		var buf bytes.Buffer
		if err := set.MarshalBinary(&buf); err != nil {
			t.Fatalf("re-encode of decoded set failed: %v", err)
		}
		again, err := UnmarshalBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(canonSet(set), canonSet(again)) {
			t.Fatalf("round trip mismatch:\nfirst:  %+v\nsecond: %+v", set, again)
		}
	})
}

// FuzzRunLogRoundTrip checks the per-report record codec the
// collector's run log is built on: arbitrary input never panics and
// never allocates unboundedly, decoded records obey the package
// invariants (strictly ascending, in-range id lists), and any record
// that decodes re-encodes to the identical byte string — so a run log
// replay is bit-for-bit faithful to what was ingested.
func FuzzRunLogRoundTrip(f *testing.F) {
	for _, set := range fuzzSeeds() {
		for _, r := range set.Reports {
			f.Add(uint32(set.NumSites), uint32(set.NumPreds), AppendRecord(nil, r))
		}
	}
	f.Add(uint32(10), uint32(10), []byte{0x01, 0x02, 0x00, 0x03, 0x01, 0x04})
	f.Add(uint32(0), uint32(0), []byte{0x00, 0x00, 0x00})
	f.Add(uint32(1<<30), uint32(1<<30), []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, numSites, numPreds uint32, data []byte) {
		if numSites > maxDim || numPreds > maxDim {
			t.Skip()
		}
		rec, err := readRecordReference(bytes.NewReader(data), int(numSites), int(numPreds))
		// The slice walker must make the same decision on the same
		// bytes as the reference, decode the same report, and call the
		// bytes canonical exactly when re-encoding reproduces them.
		sliced, walked, sliceErr := DecodeRecord(data, int(numSites), int(numPreds))
		if (err == nil) != (sliceErr == nil) {
			t.Fatalf("stream err=%v, slice err=%v", err, sliceErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(canonReport(rec), canonReport(sliced)) {
			t.Fatalf("slice decode differs:\nstream: %+v\nslice:  %+v", rec, sliced)
		}
		if canon := bytes.Equal(data[:walked.Len], AppendRecord(nil, rec)); canon != walked.Canonical {
			t.Fatalf("record %x: Canonical=%v but re-encoding equal=%v", data[:walked.Len], walked.Canonical, canon)
		}
		if got := CanonicalRecord(data, walked, sliced); !bytes.Equal(got, AppendRecord(nil, rec)) {
			t.Fatalf("canonical record %x, want %x", got, AppendRecord(nil, rec))
		}
		ids, nSites, failed, idsErr := AppendRecordIDs([]int32{-7}, data, int(numSites), int(numPreds))
		if idsErr != nil || failed != rec.Failed || ids[0] != -7 ||
			!reflect.DeepEqual(canonReport(&Report{Failed: failed, ObservedSites: ids[1 : 1+nSites], TruePreds: ids[1+nSites:]}), canonReport(rec)) {
			t.Fatalf("AppendRecordIDs = %v (sites %d, failed %v, err %v), want %+v", ids, nSites, failed, idsErr, rec)
		}
		checkAscending := func(what string, ids []int32, dim uint32) {
			prev := int32(-1)
			for _, id := range ids {
				if id <= prev || id < 0 || uint32(id) >= dim {
					t.Fatalf("decoded %s list violates invariants: %v (dim %d)", what, ids, dim)
				}
				prev = id
			}
		}
		checkAscending("site", rec.ObservedSites, numSites)
		checkAscending("pred", rec.TruePreds, numPreds)

		enc := AppendRecord(nil, rec)
		again, _, err := DecodeRecord(enc, int(numSites), int(numPreds))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(AppendRecord(nil, again), enc) {
			t.Fatalf("record round trip not stable:\nfirst:  %x\nsecond: %x", enc, AppendRecord(nil, again))
		}
	})
}

// FuzzReportRoundTripText does the same for the line-oriented text
// codec, which enforces the same invariants as the binary one (bounded
// dimensions, ascending in-range ids), so any input that decodes obeys
// the decode∘encode identity.
func FuzzReportRoundTripText(f *testing.F) {
	for _, set := range fuzzSeeds() {
		var buf bytes.Buffer
		if err := set.Marshal(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("cbi-reports 1 2 2 1\nF | 0 | 1\n")
	f.Add("cbi-reports 9 0 0 0\n")
	f.Fuzz(func(t *testing.T, text string) {
		set, err := Unmarshal(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := set.Marshal(&buf); err != nil {
			t.Fatalf("re-encode of decoded set failed: %v", err)
		}
		again, err := Unmarshal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(canonSet(set), canonSet(again)) {
			t.Fatalf("round trip mismatch:\nfirst:  %+v\nsecond: %+v", set, again)
		}
	})
}

// FuzzReportRoundTripBinaryArena checks that the pooled arena decoder
// agrees byte-for-byte with the reference decoder on every input: same
// accept/reject decision (nothing may follow the set), same decoded set
// on success. Runs each
// input through one shared arena twice so recycled workspaces are
// exercised inside a single fuzz execution.
func FuzzReportRoundTripBinaryArena(f *testing.F) {
	for _, set := range fuzzSeeds() {
		var buf bytes.Buffer
		if err := set.MarshalBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(append(buf.Bytes(), 0x00))
	}
	f.Add([]byte("CBR1"))
	for _, seed := range hostileBinarySeeds() {
		f.Add(seed)
	}
	var arena Arena
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := unmarshalWhole(data)
		for pass := 0; pass < 2; pass++ {
			got, lease, err := arena.Decode(bytes.NewReader(data))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("pass %d: arena err=%v, reference err=%v", pass, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(canonSet(want), canonSet(got)) {
				t.Fatalf("pass %d: arena decode differs:\nreference: %+v\narena:     %+v", pass, want, got)
			}
			// Whatever the sender's varints looked like, the record a
			// collector retains for report i is AppendRecord's.
			recs := lease.Records()
			if len(recs) != len(want.Reports) {
				t.Fatalf("pass %d: %d records for %d reports", pass, len(recs), len(want.Reports))
			}
			for i, r := range want.Reports {
				if !bytes.Equal(recs[i], AppendRecord(nil, r)) {
					t.Fatalf("pass %d: record %d = %x, want %x", pass, i, recs[i], AppendRecord(nil, r))
				}
			}
			lease.Release()
			if got.NumSites != 0 || got.NumPreds != 0 || len(got.Reports) != 0 {
				t.Fatalf("pass %d: released set still shows data: %+v", pass, got)
			}
		}
	})
}

// canonReport normalizes nil and empty id lists for DeepEqual.
func canonReport(r *Report) *Report {
	return canonSet(&Set{Reports: []*Report{r}}).Reports[0]
}
