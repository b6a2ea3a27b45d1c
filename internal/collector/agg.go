// Package collector implements the paper's deployment model as a
// networked system: thousands of instrumented clients ship feedback
// reports to a central server, which aggregates them incrementally and
// serves live rankings (§2's "central database" made concrete). The
// server keeps two complementary representations of the stream: sharded
// aggregate counters whose totals are exactly what core.Aggregate would
// compute over the same report set (serving the pre-elimination
// /v1/scores ranking), and a compact run-level membership log that
// records which predicates each retained run observed true (serving the
// full /v1/predictors cause-isolation ranking — elimination discards
// runs, so counters alone cannot drive it). The log is bounded by a
// retention cap; when a run is evicted, its contribution is subtracted
// from the counters, so counters and log always describe exactly the
// retained window.
//
// The server's counters live in an internal/obs registry exported at
// GET /metrics (Prometheus text format, documented in METRICS.md);
// the /v1/stats JSON reads the same registry objects, so the two
// surfaces cannot disagree.
package collector

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/core"
	"cbi/internal/corpus"
	"cbi/internal/report"
)

// shardedAgg maintains the per-site and per-predicate tallies of
// core.AggregateSubset under concurrent ingestion, plus the run-level
// membership log. Per-id counters are bumped with *plain* adds under
// contiguous-range stripe locks: a report's id lists are ascending, so
// each list crosses each stripe at most once — one lock acquisition
// per stripe touched, then branch-free in-cache adds. Plain adds beat
// per-id atomics decisively on the hot path (a dense report can carry
// thousands of ids, and a LOCK-prefixed add costs several times a
// plain one), and the stripe count keeps parallel appliers from
// convoying. Run totals stripe across cache-line padded cells (see
// runCounts) since every report hits one of only two of them.
//
// A top-level RWMutex makes whole reports atomic with respect to
// readers: appliers hold the read side for the duration of one report
// (counter bumps, log append, and eviction decrement together), while
// snapshots and score queries take the write side, so they never
// observe a half-applied report or a log/counter mismatch — and, since
// readers exclude every applier, they read the counter arrays without
// touching the stripe locks at all.
type shardedAgg struct {
	numSites, numPreds int

	gate sync.RWMutex

	// Written with plain adds under gate.RLock + the covering stripe
	// lock; read plainly under gate.Lock.
	fObsSite, sObsSite []int64
	fPred, sPred       []int64

	// Counter stripe locks: stripe s covers ids [s*block, (s+1)*block).
	siteMu, predMu       []stripeMutex
	siteBlock, predBlock int

	// Run counts, striped to keep parallel appliers off one cache line.
	runs *runCounts

	// foldPool recycles batched-fold workspaces (*foldScratch).
	foldPool sync.Pool

	// logMu guards log; nil log means run-level retention is disabled
	// (counters only, /v1/predictors unavailable).
	logMu sync.Mutex
	log   *runLog

	// Delta-sync state, guarded by logMu alongside the log it describes.
	// epoch is a random per-boot scope for state versions; stateVer
	// counts every state mutation; hist retains the recent mutations as
	// delta events so GET /v1/snapshot?since= can replay just the
	// changes. nil hist disables delta serving.
	epoch    uint64
	stateVer uint64
	hist     *deltaHist

	// maxAge, when positive, additionally evicts retained runs older
	// than the cap; now is the retention clock (time.Now outside tests).
	maxAge time.Duration
	now    func() time.Time
}

// defaultDeltaHistory is the default delta-event retention: enough to
// cover many polling intervals of heavy ingest while bounding memory
// (events are tiny except merge folds, which the byte cap bounds).
const defaultDeltaHistory = 1 << 16

// deltaHist retains the most recent state-mutation events. The event at
// offset i (from the oldest) advanced the state from version base+i to
// base+i+1, where base = stateVer - len(history).
type deltaHist struct {
	maxEvents int
	maxBytes  int64
	evs       []corpus.DeltaEvent
	head      int // index of the oldest retained event
	bytes     int64
}

func (h *deltaHist) add(ev corpus.DeltaEvent) {
	h.evs = append(h.evs, ev)
	h.bytes += int64(len(ev.Data))
	for (h.maxEvents > 0 && len(h.evs)-h.head > h.maxEvents) ||
		(h.maxBytes > 0 && h.bytes > h.maxBytes && len(h.evs)-h.head > 1) {
		h.bytes -= int64(len(h.evs[h.head].Data))
		h.evs[h.head] = corpus.DeltaEvent{}
		h.head++
	}
	// Compact the dead prefix once it dominates the backing array.
	if h.head > 1024 && h.head*2 >= len(h.evs) {
		h.evs = append([]corpus.DeltaEvent(nil), h.evs[h.head:]...)
		h.head = 0
	}
}

func (h *deltaHist) len() int { return len(h.evs) - h.head }

// since returns a copy of the events from the given offset (0 = oldest
// retained) onward; the copies share the immutable Data bytes.
func (h *deltaHist) since(offset int) []corpus.DeltaEvent {
	return append([]corpus.DeltaEvent(nil), h.evs[h.head+offset:]...)
}

func (h *deltaHist) reset() {
	h.evs, h.head, h.bytes = nil, 0, 0
}

func newShardedAgg(numSites, numPreds, shards, runLogCap int, runLogMaxBytes int64, maxAge time.Duration, now func() time.Time) *shardedAgg {
	if shards < 1 {
		shards = 1
	}
	if now == nil {
		now = time.Now
	}
	a := &shardedAgg{
		numSites:  numSites,
		numPreds:  numPreds,
		fObsSite:  make([]int64, numSites),
		sObsSite:  make([]int64, numSites),
		fPred:     make([]int64, numPreds),
		sPred:     make([]int64, numPreds),
		siteMu:    make([]stripeMutex, shards),
		predMu:    make([]stripeMutex, shards),
		siteBlock: blockFor(numSites, shards),
		predBlock: blockFor(numPreds, shards),
		runs:      newRunCounts(shards),
		maxAge:    maxAge,
		now:       now,
	}
	if runLogCap > 0 {
		a.log = newRunLog(runLogCap, runLogMaxBytes)
	}
	// Every boot gets a fresh random epoch even when delta serving is
	// off: range exports and evicts scope their sequence watermarks to
	// it, so a migration controller can tell a restarted source (whose
	// sequences renumbered) from a live one.
	a.epoch = newEpoch()
	return a
}

// stripeMutex is a cache-line padded mutex guarding one contiguous
// range of a counter array.
type stripeMutex struct {
	sync.Mutex
	_ [56]byte
}

// blockFor sizes a stripe's id range so `stripes` stripes cover `dim`.
func blockFor(dim, stripes int) int {
	b := (dim + stripes - 1) / stripes
	if b < 1 {
		b = 1
	}
	return b
}

// addStriped lands delta onto dst[id] for every id in the ascending
// list, taking each covering stripe lock exactly once. blockFor
// guarantees stripes*block >= dim, so id/block always indexes a stripe.
func addStriped(dst []int64, ids []int32, delta int64, mus []stripeMutex, block int) {
	i := 0
	for i < len(ids) {
		s := int(ids[i]) / block
		hi := int32((s + 1) * block)
		mus[s].Lock()
		for i < len(ids) && ids[i] < hi {
			dst[ids[i]] += delta
			i++
		}
		mus[s].Unlock()
	}
}

// runCounts holds the failing/successful run totals striped across
// cache-line padded cells. Every report increments exactly one of two
// counters, so a single atomic pair would serialize all appliers on one
// line; cells plus a sync.Pool for P-local cell affinity spread that
// traffic. Readers sum the cells.
type runCounts struct {
	cells []runCountCell
	pool  sync.Pool // *runCountCell, P-local affinity
	next  atomic.Uint32
}

type runCountCell struct {
	f, s atomic.Int64
	_    [48]byte // pad to a 64-byte cache line
}

func newRunCounts(stripes int) *runCounts {
	if stripes < 1 {
		stripes = 1
	}
	return &runCounts{cells: make([]runCountCell, stripes)}
}

// BumpN adds batch totals through the calling goroutine's pooled cell.
// Callers must hold gate.RLock (concurrent with other bumps) or
// stronger.
func (c *runCounts) BumpN(f, s int64) {
	v := c.pool.Get()
	if v == nil {
		v = &c.cells[int(c.next.Add(1))%len(c.cells)]
	}
	cell := v.(*runCountCell)
	if f != 0 {
		cell.f.Add(f)
	}
	if s != 0 {
		cell.s.Add(s)
	}
	c.pool.Put(v)
}

// Add folds totals into the first cell — for exclusive-hold paths
// (merge, subtract) where striping buys nothing.
func (c *runCounts) Add(f, s int64) {
	c.cells[0].f.Add(f)
	c.cells[0].s.Add(s)
}

// Load sums the cells: exact under gate.Lock; a lock-free reader gets a
// momentary view, same as the single atomic pair this replaces.
func (c *runCounts) Load() (f, s int64) {
	for i := range c.cells {
		f += c.cells[i].f.Load()
		s += c.cells[i].s.Load()
	}
	return f, s
}

// Store resets every cell and sets the totals. Callers must exclude
// concurrent bumps.
func (c *runCounts) Store(f, s int64) {
	for i := range c.cells {
		c.cells[i].f.Store(0)
		c.cells[i].s.Store(0)
	}
	c.cells[0].f.Store(f)
	c.cells[0].s.Store(s)
}

// enableDeltaHistory turns on delta serving: state mutations are
// recorded as delta events under the given per-boot epoch. maxEvents 0
// picks the default; callers must invoke this before ingestion starts.
// No-op when run-level retention is disabled (deltas replay the run
// window, so there is nothing to serve without one).
func (a *shardedAgg) enableDeltaHistory(maxEvents int, maxBytes int64, epoch uint64) {
	if a.log == nil {
		return
	}
	if maxEvents == 0 {
		maxEvents = defaultDeltaHistory
	}
	a.hist = &deltaHist{maxEvents: maxEvents, maxBytes: maxBytes}
	a.epoch = epoch
}

// noteLocked records one state mutation; callers hold logMu (plus gate,
// either side) and only call when hist is enabled.
func (a *shardedAgg) noteLocked(kind byte, data []byte) {
	a.stateVer++
	a.hist.add(corpus.DeltaEvent{Kind: kind, Data: data})
}

// ApplyBatch folds a whole batch atomically with respect to snapshots
// and queries, evicting (and un-counting) runs the retention caps no
// longer cover — the oldest runs when the log is at its count
// capacity, plus any runs older than the age cap. The gate is held
// across every report, and after (when non-nil) runs under the same
// hold with the batch's interned run-log records — the point where
// callers mark the batch's WAL sequence applied and stash the records
// for revoke reversal, so a concurrent snapshot can never capture half
// a batch or a mark without its state. encoded holds each report's
// canonical record (index-aligned with reports): the wire spans of an
// arena-decoded body, a replayed WAL payload, or an encoding made once
// for an in-process batch. The log copies a record it has not seen
// before, so encoded may alias buffers the caller reuses after the
// call. key is the batch's routing-key hash (corpus.NoKey when
// unknown); every run in a batch shares one submitting client and
// hence one key. The returned records are nil when retention is
// disabled. Safe for concurrent use.
func (a *shardedAgg) ApplyBatch(reports []*report.Report, encoded [][]byte, key uint64, after func(recs [][]byte)) [][]byte {
	a.gate.RLock()
	defer a.gate.RUnlock()
	var recs, evicted [][]byte
	if a.log != nil {
		recs = make([][]byte, 0, len(reports))
		now := a.now().UnixNano()
		a.logMu.Lock()
		if a.maxAge > 0 {
			// One age sweep covers the whole batch: every append below is
			// stamped with this same now, so nothing can expire mid-batch
			// — the per-report sweeps this replaces would all be no-ops.
			evicted = a.log.evictExpired(now - int64(a.maxAge))
			if a.hist != nil {
				for range evicted {
					a.noteLocked(corpus.DeltaEvict, nil)
				}
			}
		}
		for _, pre := range encoded {
			rec, ev := a.log.append(pre, key, now)
			if a.hist != nil {
				for range ev {
					a.noteLocked(corpus.DeltaEvict, nil)
				}
				a.noteLocked(corpus.DeltaAppend, rec)
			}
			evicted = append(evicted, ev...)
			recs = append(recs, rec)
		}
		a.logMu.Unlock()
	}
	a.bumpBatch(reports)
	a.uncount(evicted)
	if after != nil {
		after(recs)
	}
	return recs
}

// foldScratch is the batched fold's workspace: dense per-id delta
// arrays (sized to the aggregate's dims) plus the lists of ids a batch
// actually touched, so flushing is proportional to the batch, not the
// dims. Deltas are always back to zero when the scratch returns to the
// pool.
type foldScratch struct {
	fSite, sSite, fPred, sPred []int64
	tfSite, tsSite             []int32
	tfPred, tsPred             []int32
	// nf and ns are the signed run totals accumulated so far.
	nf, ns int64
	// ids is the slab uncount decodes each evicted record into.
	ids []int32
}

// getFold fetches a pooled fold workspace sized to the aggregate.
func (a *shardedAgg) getFold() *foldScratch {
	sc, _ := a.foldPool.Get().(*foldScratch)
	if sc == nil {
		sc = &foldScratch{}
	}
	if len(sc.fSite) < a.numSites {
		sc.fSite = make([]int64, a.numSites)
		sc.sSite = make([]int64, a.numSites)
	}
	if len(sc.fPred) < a.numPreds {
		sc.fPred = make([]int64, a.numPreds)
		sc.sPred = make([]int64, a.numPreds)
	}
	return sc
}

// add accumulates one run's delta (+1 or -1) into the workspace. Every
// delta of one fold carries the same sign, so a slot is first-touched
// exactly when it is still zero.
func (sc *foldScratch) add(failed bool, sites, preds []int32, delta int64) {
	site, pred := sc.sSite, sc.sPred
	touchedS, touchedP := &sc.tsSite, &sc.tsPred
	if failed {
		site, pred = sc.fSite, sc.fPred
		touchedS, touchedP = &sc.tfSite, &sc.tfPred
		sc.nf += delta
	} else {
		sc.ns += delta
	}
	for _, id := range sites {
		if site[id] == 0 {
			*touchedS = append(*touchedS, id)
		}
		site[id] += delta
	}
	for _, id := range preds {
		if pred[id] == 0 {
			*touchedP = append(*touchedP, id)
		}
		pred[id] += delta
	}
}

// putFold lands what sc.add accumulated on the counters — one add per
// distinct (id, outcome) touched and one stripe-lock acquisition per
// stripe touched, instead of one per occurrence — and returns the
// workspace to the pool. Callers hold gate (either side).
func (a *shardedAgg) putFold(sc *foldScratch) {
	flushFold(a.fObsSite, sc.fSite, sc.tfSite, a.siteMu, a.siteBlock)
	flushFold(a.sObsSite, sc.sSite, sc.tsSite, a.siteMu, a.siteBlock)
	flushFold(a.fPred, sc.fPred, sc.tfPred, a.predMu, a.predBlock)
	flushFold(a.sPred, sc.sPred, sc.tsPred, a.predMu, a.predBlock)
	sc.tfSite, sc.tsSite = sc.tfSite[:0], sc.tsSite[:0]
	sc.tfPred, sc.tsPred = sc.tfPred[:0], sc.tsPred[:0]
	if sc.nf != 0 || sc.ns != 0 {
		a.runs.BumpN(sc.nf, sc.ns)
		sc.nf, sc.ns = 0, 0
	}
	a.foldPool.Put(sc)
}

// bumpBatch folds a whole batch of +1 reports into the counters.
// Callers hold gate.RLock.
func (a *shardedAgg) bumpBatch(reports []*report.Report) {
	if len(reports) == 1 {
		a.bump(reports[0], +1)
		return
	}
	sc := a.getFold()
	for _, r := range reports {
		sc.add(r.Failed, r.ObservedSites, r.TruePreds, +1)
	}
	a.putFold(sc)
}

// flushFold lands accumulated deltas with one plain add per touched
// id under the covering stripe locks, re-zeroing the dense array as it
// goes. Sorting the touched list first makes the walk take each stripe
// lock once and touch dst in ascending (cache-friendly) order.
func flushFold(dst, deltas []int64, touched []int32, mus []stripeMutex, block int) {
	slices.Sort(touched)
	i := 0
	for i < len(touched) {
		s := int(touched[i]) / block
		hi := int32((s + 1) * block)
		mus[s].Lock()
		for i < len(touched) && touched[i] < hi {
			id := touched[i]
			dst[id] += deltas[id]
			deltas[id] = 0
			i++
		}
		mus[s].Unlock()
	}
}

// uncount subtracts evicted run-log records from the counters.
// Callers must hold gate (either side).
func (a *shardedAgg) uncount(evicted [][]byte) {
	a.foldRecords(evicted, -1)
}

// foldRecords adds delta (+1 or -1) to the counters for every run-log
// record, walking each record's bytes into one reused id slab — no
// report is materialized per run. Callers must hold gate (either side).
func (a *shardedAgg) foldRecords(recs [][]byte, delta int64) {
	if len(recs) == 0 {
		return
	}
	sc := a.getFold()
	for _, rec := range recs {
		ids, n, failed, err := report.AppendRecordIDs(sc.ids[:0], rec, a.numSites, a.numPreds)
		if err != nil {
			// The records are canonical encodings of already-validated
			// reports, so walking them cannot fail; a corrupted record
			// would mean memory corruption, and dropping it silently
			// would desync the counters from the log.
			panic(fmt.Errorf("collector: run-log record: %v", err))
		}
		sc.ids = ids
		if len(recs) == 1 {
			a.bumpIDs(failed, ids[:n], ids[n:], delta)
		} else {
			sc.add(failed, ids[:n], ids[n:], delta)
		}
	}
	a.putFold(sc)
}

// EvictExpired evicts (and un-counts) runs older than the age cap, so
// retention holds even across idle stretches with no ingest. No-op
// when the log or the age cap is disabled. Safe for concurrent use.
func (a *shardedAgg) EvictExpired() {
	if a.log == nil || a.maxAge <= 0 {
		return
	}
	a.gate.RLock()
	defer a.gate.RUnlock()
	cutoff := a.now().UnixNano() - int64(a.maxAge)
	a.logMu.Lock()
	evicted := a.log.evictExpired(cutoff)
	if a.hist != nil {
		for range evicted {
			a.noteLocked(corpus.DeltaEvict, nil)
		}
	}
	a.logMu.Unlock()
	a.uncount(evicted)
}

// MergeSegment folds a peer collector's exported state in: the peer's
// counters add onto ours (exact, since every counter is a sum over
// independent runs), and its retained runs join the log *without*
// re-counting — the snapshot already includes them — while retention
// caps apply to them as usual. The whole merge is atomic with respect
// to snapshots and score queries; after (when non-nil) runs under the
// same hold with the joined runs' encoded records (nil when retention
// is disabled) — where the caller marks the merge's WAL sequence
// applied and stashes the records so the merge is revocable (a
// migration chunk whose source crashed mid-handoff is un-applied by
// exactly these bytes). recs are the peer's canonical run-log records,
// interned as they join (so they may alias a request body). keys, when
// non-nil, carries the peer's per-record routing-key hashes (aligned
// with recs) so migrated runs stay addressable by range on this shard;
// nil keys joins the runs unkeyed.
func (a *shardedAgg) MergeSegment(snap *corpus.AggSnapshot, recs [][]byte, keys []uint64, after func(recs [][]byte)) {
	a.gate.Lock()
	defer a.gate.Unlock()
	for i, v := range snap.FobsSite {
		a.fObsSite[i] += v
	}
	for i, v := range snap.SobsSite {
		a.sObsSite[i] += v
	}
	for i, v := range snap.FPred {
		a.fPred[i] += v
	}
	for i, v := range snap.SPred {
		a.sPred[i] += v
	}
	a.runs.Add(snap.NumF, snap.NumS)

	var evicted, joined [][]byte
	if a.log != nil {
		joined = make([][]byte, 0, len(recs))
		now := a.now().UnixNano()
		a.logMu.Lock()
		if a.hist != nil {
			// The counter fold becomes one 'M' event carrying the peer
			// snapshot; the joined runs follow as uncounted 'J' appends.
			clean := *snap
			clean.WALSeq, clean.WALIslands = 0, nil
			var buf bytes.Buffer
			if err := corpus.SaveAggSnapshot(&buf, &clean); err == nil {
				a.noteLocked(corpus.DeltaMerge, buf.Bytes())
			} else {
				// An unencodable snapshot cannot reach warm views; force
				// them to full-resync rather than serve a gap.
				a.stateVer++
				a.hist.reset()
			}
		}
		if a.maxAge > 0 {
			ev := a.log.evictExpired(now - int64(a.maxAge))
			if a.hist != nil {
				for range ev {
					a.noteLocked(corpus.DeltaEvict, nil)
				}
			}
			evicted = append(evicted, ev...)
		}
		for i, pre := range recs {
			key := corpus.NoKey
			if keys != nil {
				key = keys[i]
			}
			rec, ev := a.log.append(pre, key, now)
			joined = append(joined, rec)
			if a.hist != nil {
				for range ev {
					a.noteLocked(corpus.DeltaEvict, nil)
				}
				a.noteLocked(corpus.DeltaJoin, rec)
			}
			evicted = append(evicted, ev...)
		}
		a.logMu.Unlock()
	}
	a.uncount(evicted)
	if after != nil {
		after(joined)
	}
}

// bump adds delta to every counter the report touches, with plain adds
// under the stripe locks. Callers must hold gate.RLock (or stronger).
func (a *shardedAgg) bump(r *report.Report, delta int64) {
	a.bumpIDs(r.Failed, r.ObservedSites, r.TruePreds, delta)
}

// bumpIDs is bump over a run's bare outcome and id lists.
func (a *shardedAgg) bumpIDs(failed bool, sites, preds []int32, delta int64) {
	siteCounts, predCounts := a.sObsSite, a.sPred
	if failed {
		siteCounts, predCounts = a.fObsSite, a.fPred
	}
	addStriped(siteCounts, sites, delta, a.siteMu, a.siteBlock)
	addStriped(predCounts, preds, delta, a.predMu, a.predBlock)

	if failed {
		a.runs.BumpN(delta, 0)
	} else {
		a.runs.BumpN(0, delta)
	}
}

// Runs returns the (failing, successful) run counts currently retained.
func (a *shardedAgg) Runs() (numF, numS int64) {
	return a.runs.Load()
}

// Snapshot captures a consistent copy of all counters together with the
// run-log records they describe (nil when retention is disabled). The
// record slices are immutable and safe to decode without locks.
func (a *shardedAgg) Snapshot(fingerprint uint64) (*corpus.AggSnapshot, [][]byte) {
	snap, recs, _, _, _ := a.SnapshotState(fingerprint, nil)
	return snap, recs
}

// SnapshotState is Snapshot plus the delta-sync coordinates the state
// was captured at: the per-boot epoch and the state version the
// returned counters+window correspond to (both zero when delta serving
// is disabled). capture, when non-nil, runs on the snapshot under the
// same exclusive hold — the point where the server stamps the WAL
// watermark, so checkpoint state and WAL coverage cannot tear.
func (a *shardedAgg) SnapshotState(fingerprint uint64, capture func(*corpus.AggSnapshot)) (*corpus.AggSnapshot, [][]byte, []uint64, uint64, uint64) {
	a.gate.Lock()
	defer a.gate.Unlock()
	numF, numS := a.runs.Load()
	snap := &corpus.AggSnapshot{
		NumSites:    a.numSites,
		NumPreds:    a.numPreds,
		Fingerprint: fingerprint,
		NumF:        numF,
		NumS:        numS,
		FobsSite:    append([]int64{}, a.fObsSite...),
		SobsSite:    append([]int64{}, a.sObsSite...),
		FPred:       append([]int64{}, a.fPred...),
		SPred:       append([]int64{}, a.sPred...),
	}
	var recs [][]byte
	var keys []uint64
	if a.log != nil {
		recs, keys = a.log.recordsKeyed()
	}
	snap.Logged = int64(len(recs))
	var epoch, ver uint64
	if a.hist != nil {
		// No mutator can be active under gate.Lock, so the version is
		// exactly the one the captured counters correspond to.
		epoch, ver = a.epoch, a.stateVer
	}
	if capture != nil {
		capture(snap)
	}
	return snap, recs, keys, epoch, ver
}

// DeltaCapable reports whether delta serving is enabled.
func (a *shardedAgg) DeltaCapable() bool {
	if a.log == nil {
		return false
	}
	a.logMu.Lock()
	defer a.logMu.Unlock()
	return a.hist != nil
}

// DeltaSince returns the state-mutation events that advance a copy of
// this collector's state at version since (within the given epoch) to
// the current version. ok is false when the request cannot be served
// incrementally — delta serving disabled, a different epoch (the
// collector restarted), or since outside the retained history — in
// which case the caller falls back to a full snapshot. The returned
// events share immutable Data bytes and are safe to encode without
// locks.
func (a *shardedAgg) DeltaSince(epoch, since uint64) (events []corpus.DeltaEvent, from, to uint64, ok bool) {
	if a.log == nil {
		return nil, 0, 0, false
	}
	a.logMu.Lock()
	defer a.logMu.Unlock()
	if a.hist == nil || epoch != a.epoch || since > a.stateVer {
		return nil, 0, 0, false
	}
	base := a.stateVer - uint64(a.hist.len())
	if since < base {
		return nil, 0, 0, false
	}
	return a.hist.since(int(since - base)), since, a.stateVer, true
}

// RemoveRecords removes up to one log occurrence per given encoded
// record (matching by exact bytes — the canonical AppendRecord
// encoding) and subtracts the removed runs from the counters. It
// serves both revocation (un-applying a batch that a router failover
// caused to land on two shards) and migration handoff eviction
// (removing the runs a delivered export chunk carried). Records the
// retention caps already evicted are simply not found (they were
// un-counted at eviction), which makes a retry of the same removal a
// no-op — the property the migration controller's crash repair leans
// on. Removal has no incremental delta representation, so the event
// history resets and warm views full-resync. Returns the removed
// records (for WAL logging); len() of it is the removed-run count.
func (a *shardedAgg) RemoveRecords(recs [][]byte) [][]byte {
	if a.log == nil || len(recs) == 0 {
		return nil
	}
	a.gate.Lock()
	defer a.gate.Unlock()
	a.logMu.Lock()
	removed := a.log.remove(recs)
	if a.hist != nil && len(removed) > 0 {
		a.stateVer++
		a.hist.reset()
	}
	a.logMu.Unlock()
	a.uncount(removed)
	return removed
}

// Restore overwrites the counters from a snapshot. Callers must ensure
// no concurrent ApplyBatch (it is used before a server starts ingesting).
func (a *shardedAgg) Restore(snap *corpus.AggSnapshot) {
	a.gate.Lock()
	defer a.gate.Unlock()
	copy(a.fObsSite, snap.FobsSite)
	copy(a.sObsSite, snap.SobsSite)
	copy(a.fPred, snap.FPred)
	copy(a.sPred, snap.SPred)
	a.runs.Store(snap.NumF, snap.NumS)
}

// RestoreLog refills the run log from canonical records (oldest
// first), interning a copy of each, without touching the counters, and
// returns how many runs the retention caps let it keep. No-op
// (returning 0) when retention is disabled.
func (a *shardedAgg) RestoreLog(recs [][]byte, keys []uint64) (retained int) {
	if a.log == nil {
		return 0
	}
	a.gate.Lock()
	defer a.gate.Unlock()
	return a.log.restore(recs, keys, a.now().UnixNano())
}

// RecountFromLog rebuilds every counter from the retained run log —
// the log is the source of truth when a restart's retention caps kept
// less of the window than the restored counters describe. Callers must
// ensure no concurrent ApplyBatch.
func (a *shardedAgg) RecountFromLog() {
	a.gate.Lock()
	defer a.gate.Unlock()
	for _, xs := range [][]int64{a.fObsSite, a.sObsSite, a.fPred, a.sPred} {
		for i := range xs {
			xs[i] = 0
		}
	}
	a.runs.Store(0, 0)
	if a.log != nil {
		a.foldRecords(a.log.records(), +1)
	}
}

// LogView returns the retained run-log records in arrival order; the
// run log must be enabled. The records are immutable and may be decoded
// without holding any lock; a view taken concurrently with ingestion is
// a consistent prefix of the stream as the log saw it.
func (a *shardedAgg) LogView() [][]byte {
	a.logMu.Lock()
	defer a.logMu.Unlock()
	return a.log.records()
}

// LogVersion returns the current run-log version (0 when disabled).
func (a *shardedAgg) LogVersion() uint64 {
	if a.log == nil {
		return 0
	}
	a.logMu.Lock()
	defer a.logMu.Unlock()
	return a.log.version
}

// runLogStats is a consistent read of the run log's retention state.
type runLogStats struct {
	retained int   // runs currently retained
	evicted  int64 // runs evicted by any retention cap since startup
	capRuns  int   // configured count cap (0 = retention disabled)
	bytes    int64 // summed (logical) encoded size of retained records
	maxBytes int64 // configured byte cap (0 = no byte cap)
	interned int   // distinct membership vectors behind the retained runs
}

// LogStats returns the run log's retention state (zero when retention
// is disabled).
func (a *shardedAgg) LogStats() runLogStats {
	if a.log == nil {
		return runLogStats{}
	}
	a.logMu.Lock()
	defer a.logMu.Unlock()
	return runLogStats{
		retained: a.log.len(),
		evicted:  a.log.evicted,
		capRuns:  a.log.cap,
		bytes:    a.log.bytes,
		maxBytes: a.log.maxBytes,
		interned: a.log.internedCount(),
	}
}

// SiteObservedRuns returns, under one consistent capture, the number of
// retained runs that observed each site (failing + successful) and the
// total retained run count — the planner's raw input.
func (a *shardedAgg) SiteObservedRuns() (observed []int64, runs int64) {
	a.gate.Lock()
	defer a.gate.Unlock()
	observed = make([]int64, a.numSites)
	for i := range observed {
		observed[i] = a.fObsSite[i] + a.sObsSite[i]
	}
	numF, numS := a.runs.Load()
	return observed, numF + numS
}

// Epoch returns the per-boot random epoch scoping this aggregate's
// append sequences (and delta-sync versions).
func (a *shardedAgg) Epoch() uint64 { return a.epoch }

// exportChunk is one bounded slice of a shard's migratable state: up
// to max retained runs matching ranges past sinceSeq, their keys, the
// counters those exact runs contribute (a chunk merged elsewhere and
// then evicted here nets to zero), and the watermark to resume from.
type exportChunk struct {
	snap      *corpus.AggSnapshot
	recs      [][]byte
	keys      []uint64
	watermark uint64
	remaining int // matching runs left past the watermark
	epoch     uint64
}

// ExportChunk selects the next chunk of a range migration. nil ranges
// is a full drain (every retained run matches, keyed or not). The
// chunk counters are computed from the selected records themselves, so
// chunk.snap is exactly the runs' contribution regardless of what else
// the counters hold. Returns an error only on a corrupt log record.
func (a *shardedAgg) ExportChunk(ranges []corpus.KeyRange, sinceSeq uint64, max int) (*exportChunk, error) {
	if a.log == nil {
		return &exportChunk{snap: corpus.NewAggSnapshot(a.numSites, a.numPreds), watermark: sinceSeq, epoch: a.epoch}, nil
	}
	a.logMu.Lock()
	recs, keys, watermark, remaining := a.log.selectRange(ranges, sinceSeq, max)
	a.logMu.Unlock()
	snap := corpus.NewAggSnapshot(a.numSites, a.numPreds)
	if err := snap.ApplyRecords(recs, +1); err != nil {
		return nil, err
	}
	snap.Logged = int64(len(recs))
	return &exportChunk{snap: snap, recs: recs, keys: keys, watermark: watermark, remaining: remaining, epoch: a.epoch}, nil
}

// ComputeResidual returns the counters not explained by the retained
// run window — merged-in state whose own windows had already evicted
// runs, or imported counters that came without a log. It is read-only:
// a drain controller fetches the residual, delivers it to a successor as a
// counters-only merge (idempotent under a deterministic batch id), and
// only then commits the subtraction here via SubtractSnapshot — so a
// crash at any point re-computes the identical residual (the shard is
// quiesced during a drain) and the retry converges. Returns nil when
// there is no residual.
func (a *shardedAgg) ComputeResidual() (*corpus.AggSnapshot, error) {
	a.gate.Lock()
	defer a.gate.Unlock()
	numF, numS := a.runs.Load()
	residual := &corpus.AggSnapshot{
		NumSites: a.numSites,
		NumPreds: a.numPreds,
		NumF:     numF,
		NumS:     numS,
		FobsSite: append([]int64{}, a.fObsSite...),
		SobsSite: append([]int64{}, a.sObsSite...),
		FPred:    append([]int64{}, a.fPred...),
		SPred:    append([]int64{}, a.sPred...),
	}
	var recs [][]byte
	if a.log != nil {
		a.logMu.Lock()
		recs = a.log.records()
		a.logMu.Unlock()
	}
	if err := residual.ApplyRecords(recs, -1); err != nil {
		return nil, err
	}
	zero := residual.NumF == 0 && residual.NumS == 0
	for _, xs := range [][]int64{residual.FobsSite, residual.SobsSite, residual.FPred, residual.SPred} {
		for _, v := range xs {
			if v != 0 {
				zero = false
			}
		}
	}
	if zero {
		return nil, nil
	}
	return residual, nil
}

// SubtractSnapshot subtracts a residual snapshot from the counters —
// the commit step of a drain handoff, and its WAL 'D' replay. It
// refuses (changing nothing) if any counter would go negative, which
// catches a double-commit that slipped past batch-id dedup. after,
// when non-nil, runs under the same exclusive hold, where the caller
// marks the commit's WAL sequence applied so a concurrent checkpoint
// can never capture the subtraction without its coverage mark. The
// subtraction has no incremental delta representation, so warm views
// full-resync.
func (a *shardedAgg) SubtractSnapshot(snap *corpus.AggSnapshot, after func()) error {
	a.gate.Lock()
	defer a.gate.Unlock()
	if numF, numS := a.runs.Load(); numF < snap.NumF || numS < snap.NumS {
		return fmt.Errorf("collector: residual subtraction would make run counts negative")
	}
	for i, v := range snap.FobsSite {
		if a.fObsSite[i] < v {
			return fmt.Errorf("collector: residual subtraction would make site %d counters negative", i)
		}
	}
	for i, v := range snap.SobsSite {
		if a.sObsSite[i] < v {
			return fmt.Errorf("collector: residual subtraction would make site %d counters negative", i)
		}
	}
	for i, v := range snap.FPred {
		if a.fPred[i] < v {
			return fmt.Errorf("collector: residual subtraction would make predicate %d counters negative", i)
		}
	}
	for i, v := range snap.SPred {
		if a.sPred[i] < v {
			return fmt.Errorf("collector: residual subtraction would make predicate %d counters negative", i)
		}
	}
	for i, v := range snap.FobsSite {
		a.fObsSite[i] -= v
	}
	for i, v := range snap.SobsSite {
		a.sObsSite[i] -= v
	}
	for i, v := range snap.FPred {
		a.fPred[i] -= v
	}
	for i, v := range snap.SPred {
		a.sPred[i] -= v
	}
	a.runs.Add(-snap.NumF, -snap.NumS)
	a.logMu.Lock()
	if a.hist != nil {
		a.stateVer++
		a.hist.reset()
	}
	a.logMu.Unlock()
	if after != nil {
		after()
	}
	return nil
}

// ToAgg converts the live counters into a core.Agg, attaching each
// predicate's site-observation counts via siteOf — the exact shape
// core.Aggregate produces, so all of core's scoring applies unchanged.
func (a *shardedAgg) ToAgg(siteOf []int32) *core.Agg {
	a.gate.Lock()
	defer a.gate.Unlock()
	numF, numS := a.runs.Load()
	agg := &core.Agg{
		Stats: make([]core.Stats, a.numPreds),
		NumF:  int(numF),
		NumS:  int(numS),
	}
	for p := 0; p < a.numPreds; p++ {
		site := siteOf[p]
		agg.Stats[p] = core.Stats{
			F:    int(a.fPred[p]),
			S:    int(a.sPred[p]),
			Fobs: int(a.fObsSite[site]),
			Sobs: int(a.sObsSite[site]),
		}
	}
	return agg
}
