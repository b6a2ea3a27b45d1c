package collector

import "cbi/internal/corpus"

// defaultRunLogCap is the default run-log retention cap: enough to hold
// every run of any realistic single-collector experiment, while
// bounding memory to the window a deployment actually analyzes.
const defaultRunLogCap = 1 << 18

// runLog is the collector's run-level predicate membership log: one
// compact binary record per retained run (report.AppendRecord — the
// wire format's per-report encoding), in arrival order, bounded by a
// retention cap with oldest-run eviction. Each record carries its
// arrival time so an age cap can evict stale runs alongside the count
// cap. It is what elevates the collector from aggregate counters
// (enough for Importance ranking) to full cause isolation:
// core.Eliminate discards *runs*, not counters, so it needs to know
// which predicates each retained run observed true.
//
// The log is not itself goroutine-safe; shardedAgg serializes access
// under its own locks so that counters and log always describe the
// same run set.
type runLog struct {
	cap int
	// maxBytes, when positive, additionally caps the summed encoded size
	// of retained records; bytes tracks the current sum. The newest run
	// is never evicted by the byte cap, so the window always holds at
	// least one run.
	maxBytes int64
	bytes    int64
	// Circular buffer: recs/times/keys/seqs share indices, len(recs) is
	// the allocated ring size (grows amortized up to cap), head the
	// oldest entry, n the live count. keys holds each run's routing-key
	// hash (corpus.NoKey when unknown) so a migration can select runs by
	// ring range; seqs holds a per-boot, strictly increasing append
	// sequence so an export can cut over on a watermark. Sequences are
	// only meaningful within one boot epoch — a restart renumbers.
	recs  [][]byte
	times []int64 // arrival UnixNano, same order as recs
	keys  []uint64
	seqs  []uint64
	head  int
	n     int
	// lastSeq is the most recently assigned append sequence.
	lastSeq uint64
	// version increments on every mutation; /v1/predictors caches are
	// keyed on it so repeated polls between ingests never rescan.
	version uint64
	// evicted counts runs dropped by retention (count, age, or byte cap)
	// since startup.
	evicted int64
	// interned dedups identical membership vectors behind refcounts:
	// many runs of the same subject observe the same sites and
	// predicates, so their encoded records are byte-identical. Each ring
	// slot holds exactly one reference to its canonical record; byte
	// accounting stays logical (len(rec) per retained slot), so caps and
	// stats describe the window, not the dedup. Canonical bytes are
	// immutable, and records returned from the log (evictions, exports)
	// stay valid after their entry is released — release only drops the
	// map entry, never reuses the bytes.
	interned map[string]*internEntry
}

// internEntry is one canonical encoded membership vector plus how many
// ring slots currently reference it.
type internEntry struct {
	rec  []byte
	refs int
}

func newRunLog(capRuns int, maxBytes int64) *runLog {
	return &runLog{cap: capRuns, maxBytes: maxBytes,
		interned: make(map[string]*internEntry)}
}

// intern returns the canonical copy of rec, adding one reference. A
// first-seen rec is copied into one allocation of exactly its size, so
// callers pass views into buffers they go on to reuse — a request
// body, a WAL payload, an encode scratch. The map lookup on the hit
// path allocates nothing.
func (l *runLog) intern(rec []byte) []byte {
	if e := l.interned[string(rec)]; e != nil {
		e.refs++
		return e.rec
	}
	canon := append([]byte(nil), rec...)
	l.interned[string(canon)] = &internEntry{rec: canon, refs: 1}
	return canon
}

// release drops one ring-slot reference to a canonical record, deleting
// the map entry when the last reference goes. The bytes themselves stay
// valid — outstanding copies handed out by records()/append() keep
// working.
func (l *runLog) release(rec []byte) {
	if e := l.interned[string(rec)]; e != nil {
		if e.refs--; e.refs == 0 {
			delete(l.interned, string(rec))
		}
	}
}

// internedCount returns the number of distinct membership vectors
// currently retained.
func (l *runLog) internedCount() int { return len(l.interned) }

// grow doubles the ring allocation (up to cap), relinearizing at 0.
func (l *runLog) grow() {
	size := 2 * len(l.recs)
	if size == 0 {
		size = 64
	}
	if size > l.cap {
		size = l.cap
	}
	recs := make([][]byte, size)
	times := make([]int64, size)
	keys := make([]uint64, size)
	seqs := make([]uint64, size)
	for i := 0; i < l.n; i++ {
		j := (l.head + i) % len(l.recs)
		recs[i], times[i], keys[i], seqs[i] = l.recs[j], l.times[j], l.keys[j], l.seqs[j]
	}
	l.recs, l.times, l.keys, l.seqs, l.head = recs, times, keys, seqs, 0
}

// append interns and stores one encoded record stamped with its arrival
// time. It returns the canonical (interned) record — callers that log
// or stash the batch must hold the canonical bytes, not the scratch
// they encoded into — plus the evicted records the retention caps force
// out, oldest first (nil when under cap): at most one for the count
// cap, plus as many oldest runs as it takes to get back under the byte
// cap. The returned slices are immutable: rings swap record pointers,
// never reuse their bytes.
func (l *runLog) append(rec []byte, key uint64, now int64) (canon []byte, evicted [][]byte) {
	if l.n == l.cap {
		evicted = append(evicted, l.evictOldest())
	} else if l.n == len(l.recs) {
		l.grow()
	}
	rec = l.intern(rec)
	i := (l.head + l.n) % len(l.recs)
	l.lastSeq++
	l.recs[i], l.times[i], l.keys[i], l.seqs[i] = rec, now, key, l.lastSeq
	l.n++
	l.bytes += int64(len(rec))
	l.version++
	if l.maxBytes > 0 {
		for l.bytes > l.maxBytes && l.n > 1 {
			evicted = append(evicted, l.evictOldest())
		}
	}
	return rec, evicted
}

// evictOldest pops and returns the oldest record, dropping its intern
// reference (the returned bytes remain valid).
func (l *runLog) evictOldest() []byte {
	rec := l.recs[l.head]
	l.recs[l.head] = nil
	l.head = (l.head + 1) % len(l.recs)
	l.n--
	l.bytes -= int64(len(rec))
	l.evicted++
	l.version++
	l.release(rec)
	return rec
}

// evictExpired pops every record that arrived before cutoff (UnixNano),
// oldest first, and returns them so the caller can un-count each. Runs
// arrive in time order, so the expired set is always a prefix.
func (l *runLog) evictExpired(cutoff int64) (evicted [][]byte) {
	for l.n > 0 && l.times[l.head] < cutoff {
		evicted = append(evicted, l.evictOldest())
	}
	return evicted
}

// len returns the number of retained runs.
func (l *runLog) len() int { return l.n }

// records returns the retained records in arrival order. The returned
// slice is a fresh header but shares the (immutable) record bytes, so
// callers may decode it without holding the aggregate's locks.
func (l *runLog) records() [][]byte {
	out := make([][]byte, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.recs[(l.head+i)%len(l.recs)])
	}
	return out
}

// recordsKeyed returns the retained records and their routing-key
// hashes, aligned, in arrival order.
func (l *runLog) recordsKeyed() ([][]byte, []uint64) {
	recs := make([][]byte, 0, l.n)
	keys := make([]uint64, 0, l.n)
	for i := 0; i < l.n; i++ {
		j := (l.head + i) % len(l.recs)
		recs = append(recs, l.recs[j])
		keys = append(keys, l.keys[j])
	}
	return recs, keys
}

// matchRange reports whether a record with the given key matches a
// migration selector: nil ranges is a full drain and matches every
// record; otherwise the key must fall in one of the arcs (unkeyed
// records never do).
func matchRange(key uint64, ranges []corpus.KeyRange) bool {
	if ranges == nil {
		return true
	}
	return corpus.InRanges(key, ranges)
}

// selectRange collects up to max retained records whose key matches
// ranges and whose append sequence is > sinceSeq, in arrival order.
// It returns the records, their keys, the highest sequence included
// (the export watermark; sinceSeq when nothing matched), whether more
// matching records remain past the watermark, and how many.
func (l *runLog) selectRange(ranges []corpus.KeyRange, sinceSeq uint64, max int) (recs [][]byte, keys []uint64, watermark uint64, remaining int) {
	watermark = sinceSeq
	for i := 0; i < l.n; i++ {
		j := (l.head + i) % len(l.recs)
		if l.seqs[j] <= sinceSeq || !matchRange(l.keys[j], ranges) {
			continue
		}
		if max > 0 && len(recs) >= max {
			remaining++
			continue
		}
		recs = append(recs, l.recs[j])
		keys = append(keys, l.keys[j])
		watermark = l.seqs[j]
	}
	return recs, keys, watermark, remaining
}

// remove drops up to one retained occurrence per given encoded record,
// matching by exact bytes, preserving arrival order of the survivors.
// It returns the removed records (for the caller to un-count); the
// eviction counter is untouched — removal is revocation, not
// retention.
func (l *runLog) remove(recs [][]byte) (removed [][]byte) {
	if l.n == 0 || len(recs) == 0 {
		return nil
	}
	want := make(map[string]int, len(recs))
	for _, rec := range recs {
		want[string(rec)]++
	}
	kept := make([][]byte, 0, l.n)
	times := make([]int64, 0, l.n)
	keys := make([]uint64, 0, l.n)
	seqs := make([]uint64, 0, l.n)
	for i := 0; i < l.n; i++ {
		j := (l.head + i) % len(l.recs)
		rec := l.recs[j]
		if c := want[string(rec)]; c > 0 {
			want[string(rec)] = c - 1
			removed = append(removed, rec)
			continue
		}
		kept = append(kept, rec)
		times = append(times, l.times[j])
		keys = append(keys, l.keys[j])
		seqs = append(seqs, l.seqs[j])
	}
	if len(removed) == 0 {
		return nil
	}
	for _, rec := range removed {
		l.release(rec)
	}
	l.recs, l.times, l.keys, l.seqs, l.head, l.n = kept, times, keys, seqs, 0, len(kept)
	l.bytes = 0
	for _, rec := range kept {
		l.bytes += int64(len(rec))
	}
	l.version++
	return removed
}

// restore refills the log from canonical records (oldest first),
// interning a copy of each, so none aliases the caller's buffer (a
// checkpoint body). It keeps only the newest cap runs (count and byte
// caps both apply), all stamped with the restore time (the at-rest
// format carries no per-run clock, so ages restart conservatively). It
// returns how many runs were retained so the caller can detect a trim.
// Counters are the caller's business.
func (l *runLog) restore(recs [][]byte, keys []uint64, now int64) (retained int) {
	if len(keys) != 0 && len(keys) != len(recs) {
		keys = nil
	}
	if len(recs) > l.cap {
		if keys != nil {
			keys = keys[len(recs)-l.cap:]
		}
		recs = recs[len(recs)-l.cap:]
	}
	l.interned = make(map[string]*internEntry)
	l.recs = make([][]byte, len(recs))
	l.times = make([]int64, len(recs))
	l.keys = make([]uint64, len(recs))
	l.seqs = make([]uint64, len(recs))
	l.head, l.n, l.bytes = 0, len(recs), 0
	for i, rec := range recs {
		l.recs[i] = l.intern(rec)
		l.times[i] = now
		if keys != nil {
			l.keys[i] = keys[i]
		}
		l.lastSeq++
		l.seqs[i] = l.lastSeq
		l.bytes += int64(len(l.recs[i]))
	}
	if l.maxBytes > 0 {
		for l.bytes > l.maxBytes && l.n > 1 {
			l.bytes -= int64(len(l.recs[l.head]))
			l.release(l.recs[l.head])
			l.recs[l.head] = nil
			l.head++
			l.n--
		}
	}
	l.version++
	return l.n
}
