package report

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
)

func encodeSet(t testing.TB, set *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.MarshalBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArenaDecodeMatchesUnmarshal: the arena decoder and the
// allocating decoder agree on a spread of random sets, including
// repeated decodes through the same recycled workspace.
func TestArenaDecodeMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var arena Arena
	for trial := 0; trial < 60; trial++ {
		set := randomSet(rng, 1+rng.Intn(200), 1+rng.Intn(600), rng.Intn(30))
		data := encodeSet(t, set)
		want, err := UnmarshalBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got, lease, err := arena.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: arena decode: %v", trial, err)
		}
		if !setsEqual(canonSet(want), canonSet(got)) {
			t.Fatalf("trial %d: arena decode differs from UnmarshalBinary", trial)
		}
		lease.Release()
		lease.Release() // idempotent
	}
	st := arena.Stats()
	if st.ActiveLeases != 0 {
		t.Fatalf("active leases = %d after releasing everything", st.ActiveLeases)
	}
	if st.Decodes != 60 {
		t.Fatalf("decodes = %d, want 60", st.Decodes)
	}
	if st.PoolMisses < 1 || st.PoolMisses > 60 {
		t.Fatalf("pool misses = %d, want within [1, 60]", st.PoolMisses)
	}
}

func setsEqual(a, b *Set) bool {
	if a.NumSites != b.NumSites || a.NumPreds != b.NumPreds || len(a.Reports) != len(b.Reports) {
		return false
	}
	for i := range a.Reports {
		ra, rb := a.Reports[i], b.Reports[i]
		if ra.Failed != rb.Failed || !int32sEqual(ra.ObservedSites, rb.ObservedSites) || !int32sEqual(ra.TruePreds, rb.TruePreds) {
			return false
		}
	}
	return true
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestArenaDecodeErrorReturnsNoLease: a failed decode must not leak an
// active lease, and the workspace must go straight back to the pool.
func TestArenaDecodeErrorReturnsNoLease(t *testing.T) {
	var arena Arena
	for _, data := range [][]byte{nil, []byte("CBR"), []byte("CBR1"), []byte("garbage")} {
		set, lease, err := arena.Decode(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("decode of %q succeeded", data)
		}
		if set != nil || lease != nil {
			t.Fatalf("decode of %q returned set=%v lease=%v alongside error", data, set, lease)
		}
	}
	if st := arena.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("active leases = %d after failed decodes", st.ActiveLeases)
	}
}

// TestArenaReleasedSetNeverShowsRecycledData pins the lease contract
// under the race detector: once a lease is released, the *Set it
// produced reads as permanently empty — a stale holder can never
// observe the next batch's data through it, even while other
// goroutines churn decodes through the same recycled workspaces.
func TestArenaReleasedSetNeverShowsRecycledData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var arena Arena

	// Decode and release a first batch, keeping its (now severed) Set.
	first := encodeSet(t, randomSet(rng, 100, 150, 20))
	stale, lease, err := arena.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if stale.NumSites != 0 || stale.NumPreds != 0 || len(stale.Reports) != 0 {
		t.Fatalf("released set still shows data: %+v", stale)
	}

	// Churn decodes through the arena from several goroutines while
	// concurrently re-reading the stale set. Any aliasing between the
	// severed header and a recycled workspace shows up as a data race
	// or as the stale set going non-empty.
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = encodeSet(t, randomSet(rng, 100, 150, 10+i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				data := payloads[(g*200+i)%len(payloads)]
				set, l, err := arena.Decode(bytes.NewReader(data))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				// Walk the decoded data as a consumer would.
				n := 0
				for _, r := range set.Reports {
					n += len(r.ObservedSites) + len(r.TruePreds)
				}
				if n == 0 {
					t.Errorf("goroutine %d: decoded batch is empty", g)
				}
				l.Release()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if stale.NumSites != 0 || stale.NumPreds != 0 || len(stale.Reports) != 0 {
				t.Errorf("stale set observed recycled data on read %d", i)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if st := arena.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("active leases = %d after churn", st.ActiveLeases)
	}
}

// TestArenaRecordsAreWireSpans: a body written by MarshalBinary is the
// concatenation of its reports' canonical records, so the records a
// lease hands out are views of the body it read, clipped so an append
// cannot run into the next record; an overlong body falls back to
// encoding.
func TestArenaRecordsAreWireSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set := randomSet(rng, 120, 400, 25)
	data := encodeSet(t, set)
	var arena Arena
	_, lease, err := arena.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs := lease.Records()
	off := len(data)
	for i := len(set.Reports) - 1; i >= 0; i-- {
		want := AppendRecord(nil, set.Reports[i])
		off -= len(want)
		if !bytes.Equal(recs[i], want) {
			t.Fatalf("record %d = %x, want %x", i, recs[i], want)
		}
		if &recs[i][0] != &lease.body.Bytes()[off] || cap(recs[i]) != len(want) {
			t.Fatalf("record %d is not the clipped span body[%d:%d]", i, off, off+len(want))
		}
	}
	lease.Release()

	got, lease, err := arena.Decode(bytes.NewReader(hostileBinarySeeds()[0]))
	if err != nil {
		t.Fatalf("overlong body: %v", err)
	}
	want := AppendRecord(nil, &Report{Failed: true, ObservedSites: []int32{0, 2}, TruePreds: []int32{1}})
	if recs := lease.Records(); len(got.Reports) != 1 || len(recs) != 1 || !bytes.Equal(recs[0], want) {
		t.Errorf("overlong body: records %x, want [%x]", recs, want)
	}
	lease.Release()
	if recs := (*Lease)(nil).Records(); recs != nil {
		t.Errorf("nil lease has records %x", recs)
	}
}

// failingReader yields data, then err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestArenaDecodeRejectsReadError: the body is read whole before it is
// decoded, so a source that fails after delivering every record — a
// gzip stream with a bad trailer — rejects the batch instead of
// slipping through.
func TestArenaDecodeRejectsReadError(t *testing.T) {
	data := encodeSet(t, randomSet(rand.New(rand.NewSource(5)), 50, 90, 8))
	var arena Arena
	_, lease, err := arena.Decode(&failingReader{data: data, err: io.ErrUnexpectedEOF})
	if err == nil {
		lease.Release()
		t.Fatal("decode succeeded over a failing reader")
	}
	if st := arena.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("active leases = %d after a failed decode", st.ActiveLeases)
	}
}
