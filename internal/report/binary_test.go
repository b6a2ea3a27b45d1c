package report

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func randomSet(rng *rand.Rand, numSites, numPreds, numReports int) *Set {
	set := &Set{NumSites: numSites, NumPreds: numPreds}
	for i := 0; i < numReports; i++ {
		r := &Report{Failed: rng.Intn(2) == 0}
		r.ObservedSites = randomAscending(rng, numSites)
		r.TruePreds = randomAscending(rng, numPreds)
		set.Reports = append(set.Reports, r)
	}
	return set
}

func randomAscending(rng *rand.Rand, dim int) []int32 {
	if dim == 0 {
		return nil
	}
	var out []int32
	for v := rng.Intn(4); v < dim; v += 1 + rng.Intn(5) {
		out = append(out, int32(v))
	}
	if rng.Intn(4) == 0 {
		return nil
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		set := randomSet(rng, 1+rng.Intn(200), 1+rng.Intn(600), rng.Intn(30))
		var buf bytes.Buffer
		if err := set.MarshalBinary(&buf); err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := UnmarshalBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(canonSet(set), canonSet(got)) {
			t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", set, got)
		}
	}
}

// canonSet normalizes nil vs empty slices so DeepEqual compares
// membership, which is what the codec promises to preserve.
func canonSet(s *Set) *Set {
	out := &Set{NumSites: s.NumSites, NumPreds: s.NumPreds}
	for _, r := range s.Reports {
		cr := &Report{Failed: r.Failed}
		cr.ObservedSites = append([]int32{}, r.ObservedSites...)
		cr.TruePreds = append([]int32{}, r.TruePreds...)
		out.Reports = append(out.Reports, cr)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		numSites, numPreds := 1+rng.Intn(300), 1+rng.Intn(900)
		want := &Report{Failed: rng.Intn(2) == 0}
		want.ObservedSites = randomAscending(rng, numSites)
		want.TruePreds = randomAscending(rng, numPreds)

		rec := AppendRecord(nil, want)
		got, _, err := DecodeRecord(rec, numSites, numPreds)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Failed != want.Failed ||
			!reflect.DeepEqual(append([]int32{}, got.ObservedSites...), append([]int32{}, want.ObservedSites...)) ||
			!reflect.DeepEqual(append([]int32{}, got.TruePreds...), append([]int32{}, want.TruePreds...)) {
			t.Fatalf("record round trip mismatch:\nin:  %+v\nout: %+v", want, got)
		}
	}
}

// TestRecordMatchesSetEncoding pins the promise the run log relies on:
// a set's binary body is exactly the concatenation of its reports'
// records, so records written by either path decode with the other.
func TestRecordMatchesSetEncoding(t *testing.T) {
	set := randomSet(rand.New(rand.NewSource(23)), 40, 90, 12)
	var buf bytes.Buffer
	if err := set.MarshalBinary(&buf); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range set.Reports {
		want = AppendRecord(want, r)
	}
	full := buf.Bytes()
	if !bytes.HasSuffix(full, want) {
		t.Fatal("set encoding body is not the concatenation of AppendRecord outputs")
	}
}

func TestRecordMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"bad flags":     {0x7f},
		"truncated":     {0x01, 0x02, 0x00},
		"huge list len": {0x00, 0xff, 0xff, 0xff, 0x7f},
		"zero delta":    {0x00, 0x02, 0x01, 0x00, 0x00},
		"out of range":  {0x00, 0x01, 0x63, 0x00},
	}
	for name, data := range cases {
		if _, _, err := DecodeRecord(data, 10, 10); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set := randomSet(rng, 500, 2000, 200)
	var bin, txt bytes.Buffer
	if err := set.MarshalBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := set.Marshal(&txt); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bin.Len(), txt.Len())
	}
}

func TestBinaryMalformed(t *testing.T) {
	var buf bytes.Buffer
	set := randomSet(rand.New(rand.NewSource(3)), 50, 120, 5)
	if err := set.MarshalBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"empty":          {},
		"short magic":    []byte("CB"),
		"wrong magic":    []byte("XXXX\x01\x01\x00"),
		"truncated body": valid[:len(valid)-3],
		"header only":    valid[:7],
	}
	for name, data := range cases {
		if _, err := UnmarshalBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}

	// Flipping bytes must never panic; errors are fine, and a byte flip
	// that still decodes is acceptable (e.g. a flipped failure flag).
	for i := range valid {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0xff
		UnmarshalBinary(bytes.NewReader(mut))
	}
}

func TestBinaryRejectsHugeHeader(t *testing.T) {
	// numSites = 2^40 must be rejected before any allocation.
	data := []byte("CBR1\x80\x80\x80\x80\x80\x80\x80\x80\x01")
	if _, err := UnmarshalBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("huge numSites: got %v, want limit error", err)
	}
}

func TestBinaryHugeListLengthBoundedAlloc(t *testing.T) {
	// A tiny payload declaring a 2^30-entry site list (legal against
	// dim = 2^30, but with no list bytes following) must fail on EOF
	// without first allocating a ~4 GiB slice for the declared length.
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { n := binary.PutUvarint(tmp[:], v); buf.Write(tmp[:n]) }
	put(1 << 30) // numSites
	put(1 << 30) // numPreds
	put(1)       // numReports
	buf.WriteByte(0)
	put(1 << 30) // claimed sites list length, then EOF
	payload := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalBinary(bytes.NewReader(payload))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated huge list decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("decoding a %d-byte hostile payload allocated %d bytes", len(payload), grew)
	}
}

func TestBinaryLyingLengthAtPreallocCap(t *testing.T) {
	// A batch of reports each declaring a list length at or just past
	// the preallocation cap — legal against the declared dims, but with
	// no list bytes following — must fail on EOF with total allocation
	// bounded by a handful of capped hints, not reports × declared
	// length. This pins the walker's bytes-left bound on list and
	// report counts at the reference decoder's old cap boundary.
	for _, claim := range []uint64{maxListPrealloc, maxListPrealloc + 1, 1 << 20} {
		var buf bytes.Buffer
		buf.WriteString(binaryMagic)
		var tmp [binary.MaxVarintLen64]byte
		put := func(v uint64) { n := binary.PutUvarint(tmp[:], v); buf.Write(tmp[:n]) }
		put(1 << 21) // numSites
		put(1 << 21) // numPreds
		put(1 << 20) // numReports: also stresses the report-slice capHint
		buf.WriteByte(0)
		put(claim) // claimed sites list length, then EOF
		payload := buf.Bytes()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalBinary(bytes.NewReader(payload))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("claim=%d: truncated payload decoded without error", claim)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("claim=%d: %d-byte hostile payload allocated %d bytes", claim, len(payload), grew)
		}
	}
}

func TestBinaryListLongerThanPreallocCapRoundTrips(t *testing.T) {
	// The preallocation cap bounds the initial hint, not the list
	// length: a legitimate list twice the cap must round-trip exactly.
	const dim = 10000
	const n = 2 * maxListPrealloc // 8192 > maxListPrealloc
	r := &Report{Failed: true}
	for i := 0; i < n; i++ {
		r.ObservedSites = append(r.ObservedSites, int32(i))
		r.TruePreds = append(r.TruePreds, int32(i))
	}
	set := &Set{NumSites: dim, NumPreds: dim, Reports: []*Report{r}}
	var buf bytes.Buffer
	if err := set.MarshalBinary(&buf); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(canonSet(set), canonSet(got)) {
		t.Fatal("round trip mismatch for list longer than prealloc cap")
	}
}
