// Arena decoding for the binary wire codec: a sync.Pool-backed
// workspace that reuses Set/Report/id buffers across batches, so the
// collector's steady-state decode path stops allocating per report.
//
// The contract is lease-based. Arena.Decode returns the decoded *Set
// together with a *Lease that owns every buffer backing it. When the
// caller is done with the Set it calls Lease.Release, which severs the
// returned Set (dims zeroed, Reports nil) before recycling the buffers
// — a stale reader holding the old *Set observes an empty set, never
// another batch's recycled data. Holding interior slices (a Report's
// id lists) past Release is a contract violation; the -race tests in
// arena_test.go pin the Set-level guarantee.
//
// Decoding is the set walker's (walk.go) — bounded dims, strictly
// ascending lists, allocation tracking bytes read rather than claimed
// lengths — over the whole body, which must hold exactly one set
// (fuzz-verified by FuzzReportRoundTripBinaryArena against the
// reference stream decoder in fuzz_test.go).
package report

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Arena hands out pooled decode workspaces. The zero value is ready to
// use; one Arena is meant to be shared by all decoders in a process
// (the collector keeps one per server).
type Arena struct {
	pool    sync.Pool
	active  atomic.Int64
	decodes atomic.Int64
	misses  atomic.Int64
}

// ArenaStats is a point-in-time view of pool behaviour, exported as
// collector gauges.
type ArenaStats struct {
	// ActiveLeases counts Sets decoded but not yet released.
	ActiveLeases int64
	// Decodes counts Decode calls.
	Decodes int64
	// PoolMisses counts Decode calls that had to build a fresh
	// workspace instead of reusing a pooled one.
	PoolMisses int64
}

// Stats reports pool counters. Counts are monotonic except
// ActiveLeases; all may lag in-flight decodes by a moment.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{
		ActiveLeases: a.active.Load(),
		Decodes:      a.decodes.Load(),
		PoolMisses:   a.misses.Load(),
	}
}

// Lease owns the buffers backing one arena-decoded Set.
type Lease struct {
	arena *Arena
	// body is the whole encoded batch, read in before decoding so the
	// walker indexes bytes instead of pulling them through a reader,
	// and so each record's wire bytes stay addressable (Records).
	body bytes.Buffer
	// out is the Set handed to the caller; Release severs it so the
	// caller's pointer can never observe recycled contents.
	out *Set
	// walk holds the walked body's id slab and record extents; reports
	// alias its slab.
	walk     setWalk
	reports  []Report
	ptrs     []*Report
	recs     [][]byte
	released bool
}

// leaseBodySize is a fresh lease's body buffer: room for a typical
// 64-report batch, so most bodies are read without growing it.
const leaseBodySize = 1 << 15

// Decode parses a binary-format batch using pooled buffers. On success
// the returned Lease must be Released exactly once when the Set is no
// longer needed; on error the workspace is recycled internally and the
// lease is nil. r is read to EOF before anything is decoded, so a read
// error anywhere in the body (a truncated gzip stream, say) rejects the
// batch, and so does any byte after the set's last record.
func (a *Arena) Decode(r io.Reader) (*Set, *Lease, error) {
	a.decodes.Add(1)
	var l *Lease
	if v := a.pool.Get(); v != nil {
		l = v.(*Lease)
	} else {
		a.misses.Add(1)
		l = &Lease{}
		l.body.Grow(leaseBodySize)
	}
	l.arena = a
	l.released = false
	a.active.Add(1)
	set, err := l.decode(r)
	if err != nil {
		l.Release()
		return nil, nil, err
	}
	return set, l, nil
}

func (l *Lease) decode(r io.Reader) (*Set, error) {
	l.body.Reset()
	if _, err := l.body.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("report: binary body: %v", err)
	}
	body := l.body.Bytes()
	if err := l.walk.walk(body); err != nil {
		return nil, err
	}
	if rest := len(body) - l.walk.end; rest != 0 {
		return nil, fmt.Errorf("report: binary set followed by %d trailing bytes", rest)
	}
	l.reports = l.reports[:0]
	for i := range l.walk.spans {
		l.reports = append(l.reports, l.walk.report(i))
	}
	// Pointers only now that the reports slice has stopped growing.
	l.ptrs = l.ptrs[:0]
	for i := range l.reports {
		l.ptrs = append(l.ptrs, &l.reports[i])
	}
	l.out = &Set{NumSites: l.walk.numSites, NumPreds: l.walk.numPreds, Reports: l.ptrs}
	return l.out, nil
}

// Records returns the canonical record (the AppendRecord encoding) of
// each decoded report, aligned with the Set's Reports: the report's own
// wire bytes when those are canonical, a fresh encoding otherwise. The
// slices alias the lease's buffers — like the Set, they are valid only
// until Release, and a holder that retains one must copy it. A nil
// lease has no records.
func (l *Lease) Records() [][]byte {
	if l == nil {
		return nil
	}
	l.recs = l.recs[:0]
	for i := range l.walk.spans {
		l.recs = append(l.recs, l.walk.record(l.body.Bytes(), i))
	}
	return l.recs
}

// Release severs the Set returned by Decode and recycles the lease's
// buffers. The Set header is the one per-decode allocation precisely so
// it can be zeroed here: a caller that erroneously reads it after
// Release sees an empty set, never a later batch's data. Safe to call
// more than once; extra calls are no-ops.
func (l *Lease) Release() {
	if l == nil || l.released {
		return
	}
	l.released = true
	if l.out != nil {
		*l.out = Set{}
		l.out = nil
	}
	for i := range l.reports {
		l.reports[i] = Report{}
	}
	// Non-canonical records are separate allocations; drop them.
	clear(l.recs)
	a := l.arena
	a.active.Add(-1)
	a.pool.Put(l)
}
