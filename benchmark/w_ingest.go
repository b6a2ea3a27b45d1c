package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"time"

	"cbi/internal/collector"
	wal "cbi/internal/corpus"
	"cbi/internal/report"
)

// ingest is a write-path workload: a ring (or one bare collector) and
// the load generator feeding it.
type ingest struct {
	o    *options
	c    *corpus
	ring *ring
	gen  *loadgen
	// window is how many runs the shards retain once full.
	window int

	// set by measure
	sent  int64
	lagMS float64
	pre   []collector.Stats // per-shard stats when all was applied
	// set by verify
	internedShare float64
	recoverMS     float64
}

// getCorpus builds the corpus, or returns the traced run's shared one.
func getCorpus(o *options) (*corpus, error) {
	if o.reuseCorpus && o.cached != nil {
		return o.cached, nil
	}
	c, err := buildCorpus(o.seed, o.sc.templates)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	o.cached = c
	return c, nil
}

func setupIngestRing(o *options, tr *tracer) (instance, error) {
	c, err := getCorpus(o)
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(o.dir, "ring-")
	if err != nil {
		return nil, err
	}
	const shards = 3
	r, err := startRing(c, ringConfig{
		shards: shards, runLogSize: o.sc.ringWindow, router: true,
		walDir: walDir, checkpointEvery: o.sc.checkpointGap,
	}, tr)
	if err != nil {
		return nil, err
	}
	return &ingest{o: o, c: c, ring: r, window: shards * o.sc.ringWindow,
		gen: newLoadgen(c, tr, r.ingestURL, 2, o.sc.identities, o.sc.ringBatch, false)}, nil
}

func setupIngestBulk(o *options, tr *tracer) (instance, error) {
	c, err := getCorpus(o)
	if err != nil {
		return nil, err
	}
	r, err := startRing(c, ringConfig{shards: 1, runLogSize: o.sc.bulkWindow}, tr)
	if err != nil {
		return nil, err
	}
	return &ingest{o: o, c: c, ring: r, window: o.sc.bulkWindow,
		gen: newLoadgen(c, tr, r.ingestURL, 1, 1, o.sc.bulkBatch, true)}, nil
}

// measure ships ops batches, and in any case three windows' worth of
// reports — so every shard's window is full whatever share of the
// client identities it drew, and most of the run is steady-state
// evict-and-decrement. The clock stops when every acked report is
// applied.
func (g *ingest) measure(ops int) (*measurement, error) {
	n := len(g.gen.senders)
	perSender := (max(ops, 3*g.window/g.gen.batch) + n - 1) / n
	start := time.Now()
	acks, failed := g.gen.run(context.Background(), perSender)
	lastAck := time.Now()
	g.sent = g.gen.acked()
	if err := g.ring.waitApplied(g.sent, time.Minute); err != nil {
		return nil, err
	}
	end := time.Now()
	if g.ring.router != nil {
		if err := g.ring.router.Drain(10 * time.Second); err != nil {
			return nil, err
		}
	}
	g.lagMS = ms(end.Sub(lastAck))
	g.pre = g.pre[:0]
	for _, s := range g.ring.shards {
		g.pre = append(g.pre, s.StatsNow())
	}
	return &measurement{
		opsMS: acks, units: float64(g.sent), wall: end.Sub(start),
		attempted: int64(len(acks)), failed: failed,
	}, nil
}

var internedRE = regexp.MustCompile(`(?m)^cbi_runlog_interned_vectors(?:\{[^}]*\})? (\S+)$`)

// internedVectors scrapes a shard's count of distinct retained run
// vectors from its GET /metrics.
func internedVectors(url string) (float64, error) {
	body, err := httpGet(context.Background(), http.DefaultClient, url+"/metrics")
	if err != nil {
		return 0, err
	}
	m := internedRE.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("GET %s/metrics has no cbi_runlog_interned_vectors", url)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

func (g *ingest) verify(_ *measurement, res *result) {
	runs, applied := g.ring.totals()
	res.check(applied == g.sent, "shards applied %d reports, senders were acked %d", applied, g.sent)
	res.check(runs == int64(g.window), "shards retain %d runs, want the full window of %d", runs, g.window)

	// The share of retained runs whose vector another retained run also
	// has must not exceed the templates' own: the stream did not replay.
	distinct := 0.0
	for i, url := range g.ring.urls {
		v, err := internedVectors(url)
		res.check(err == nil, "shard %d: %v", i, err)
		distinct += v
	}
	g.internedShare = 1 - distinct/float64(runs)
	res.check(g.internedShare <= g.c.dupShare+1e-9,
		"collectors interned %.4f of the window, the templates repeat only %.4f", g.internedShare, g.c.dupShare)

	if g.ring.cfg.walDir != "" {
		g.recover(res)
	}
}

// recover hard-stops every shard (the kill -9 equivalent), boots new
// ones from the same paths, and checks they hold what the old ones
// held. The ring keeps the new shards, unserved.
func (g *ingest) recover(res *result) {
	r := g.ring
	for _, l := range r.listeners {
		l.Close()
	}
	r.listeners = nil
	start := time.Now()
	for i, old := range r.shards {
		old.Close()
		srv, err := collector.New(r.shardConfig(i))
		if err != nil {
			res.check(false, "shard %d did not recover: %v", i, err)
			continue
		}
		r.shards[i] = srv
	}
	// Run counts are compared, not failing counts: a shard's apply
	// workers may fold two concurrent batches in the other order than the
	// WAL logged them (ROADMAP item 1 leaves that order open), and then
	// the replayed window ends one batch off the live one.
	for i, s := range r.shards {
		got, want := s.StatsNow(), g.pre[i]
		res.check(got.Runs == want.Runs && got.RunLogRuns == want.RunLogRuns,
			"shard %d recovered %d runs (%d logged), held %d (%d logged)",
			i, got.Runs, got.RunLogRuns, want.Runs, want.RunLogRuns)
	}
	g.recoverMS = ms(time.Since(start))
}

func (g *ingest) layers(m *measurement, ss *spanSet, res *result) {
	mt := res.metrics
	mt["harness.runs_per_s"] = float64(len(g.c.templates)) / g.c.buildTime.Seconds()
	mt["instrument.sites_per_report"], mt["instrument.true_preds_per_report"] = g.c.meanListLens()

	// stats
	var applied []float64
	var logBytes, logRuns, rejected, checkpoints float64
	for _, st := range g.pre {
		applied = append(applied, float64(st.ReportsApplied))
		logBytes += float64(st.RunLogBytes)
		logRuns += float64(st.RunLogRuns)
		rejected += float64(st.BatchesRejected)
		checkpoints += float64(st.Snapshots)
	}
	mt["client.retries"] = float64(g.gen.retries())
	mt["collector.rejected_batches"] = rejected
	mt["collector.runlog_bytes_per_run"] = logBytes / logRuns
	mt["collector.interned_share"] = g.internedShare
	mt["collector.apply_lag_ms"] = g.lagMS

	// spans
	batch := float64(g.gen.batch)
	var postBytes float64
	ss.each(spanPost, func(s span, _ []span) { postBytes += float64(s.Bytes) })
	posts := ss.durationsMS(spanPost)
	mt["client.gzip_bytes_per_report"] = postBytes / (float64(len(posts)) * batch)
	mt["client.flush_self_us_per_report"] = 1e3 * sum(ss.selfMS(spanFlush)) / (float64(len(m.opsMS)) * batch)
	mt["client.post_p50_ms"] = percentile(posts, 0.5)
	mt["collector.handle_p50_ms"] = percentile(ss.durationsMS(spanIngest), 0.5)

	// probes
	body := g.encodeProbe(res)
	mt["report.wire_bytes_per_report"] = float64(len(body)) / batch
	fold, walCost := g.foldProbe(res)
	mt["collector.fold_us_per_report"] = fold
	if g.gen.bulk {
		g.decodeProbe(res, body, "report.decode_bulk_us_per_report")
		return
	}
	g.decodeProbe(res, body, "report.decode_us_per_report")
	mt["collector.wal_us_per_report"] = walCost

	mt["client.ack_p99_ms"] = percentile(m.opsMS, 0.99)
	mt["router.handle_p50_ms"] = percentile(ss.durationsMS(spanRouter), 0.5)
	var waits []float64
	ss.each(spanRouter, func(rs span, children []span) {
		for _, c := range children {
			waits = append(waits, float64(c.Start-rs.End)/1e6)
		}
	})
	mt["router.forward_wait_p50_ms"] = percentile(waits, 0.5)
	rst := g.ring.router.StatsNow()
	mt["router.shed"] = float64(rst.Shed)
	for _, b := range rst.Backends {
		mt["router.rerouted"] += float64(b.Rerouted)
	}
	mt["router.shard_skew"] = slices.Max(applied) / (sum(applied) / float64(len(applied)))
	mt["collector.checkpoints"] = checkpoints
	mt["collector.recover_ms"] = g.recoverMS

	// Checkpoints are timed on the recovered shards, after the recovery
	// they would otherwise have shortened.
	var ckptMS []float64
	var ckptBytes, ckptRuns float64
	for i, s := range g.ring.shards {
		start := time.Now()
		err := s.SnapshotNow()
		ckptMS = append(ckptMS, ms(time.Since(start)))
		res.check(err == nil, "shard %d checkpoint: %v", i, err)
		if fi, err := os.Stat(g.ring.shardConfig(i).SnapshotPath); err == nil {
			ckptBytes += float64(fi.Size())
			ckptRuns += float64(s.StatsNow().RunLogRuns)
		}
	}
	mt["collector.checkpoint_ms"] = median(ckptMS)
	mt["corpus.checkpoint_bytes_per_run"] = ckptBytes / ckptRuns
	g.walProbe(res)
}

// probeSet is n stream reports from past the templates, so the probes
// see thinned reports like most of the run does.
func (g *ingest) probeSet(n int) *report.Set {
	lo := len(g.c.templates)
	return &report.Set{NumSites: g.c.numSites, NumPreds: g.c.numPreds, Reports: g.c.reports(lo, lo+n)}
}

// encodeProbe times Set.MarshalBinary of one batch of the workload's
// size and returns the encoding.
func (g *ingest) encodeProbe(res *result) []byte {
	n := g.gen.batch
	set := g.probeSet(n)
	var buf bytes.Buffer
	var perr error
	res.metrics["report.encode_us_per_report"] = 1e3 / float64(n) * median(timeReps(g.o.sc.probeReps, func() {
		buf.Reset()
		if err := set.MarshalBinary(&buf); err != nil {
			perr = err
		}
	}))
	res.check(perr == nil, "encode probe: %v", perr)
	return buf.Bytes()
}

// decodeProbe times Arena.Decode + Release of that encoding.
func (g *ingest) decodeProbe(res *result, body []byte, metric string) {
	n := g.gen.batch
	var arena report.Arena
	var perr error
	res.metrics[metric] = 1e3 / float64(n) * median(timeReps(g.o.sc.probeReps, func() {
		set, lease, err := arena.Decode(bytes.NewReader(body))
		if err != nil || len(set.Reports) != n {
			perr = fmt.Errorf("decoded %v reports, err %v", set, err)
			return
		}
		lease.Release()
	}))
	res.check(perr == nil, "decode probe: %v", perr)
}

// foldProbe feeds two fresh collectors, one without and one with a WAL,
// the same 64-report batches through Server.IngestBatch in interleaved
// pairs, and returns the per-report cost without the WAL and the extra
// cost with it.
func (g *ingest) foldProbe(res *result) (foldUS, walUS float64) {
	const batch = 64
	r := &ring{c: g.c, cfg: ringConfig{runLogSize: g.o.sc.ringWindow}}
	plain, err := collector.New(r.shardConfig(0))
	if err != nil {
		res.check(false, "fold probe: %v", err)
		return 0, 0
	}
	defer plain.Close()
	dir, err := os.MkdirTemp(g.o.dir, "foldprobe-")
	if err != nil {
		res.check(false, "fold probe: %v", err)
		return 0, 0
	}
	r.cfg.walDir, r.cfg.checkpointEvery = dir, time.Hour
	logged, err := collector.New(r.shardConfig(0))
	if err != nil {
		res.check(false, "fold probe: %v", err)
		return 0, 0
	}
	defer logged.Close()

	th := g.c.newThinner()
	reports := make([]*report.Report, batch)
	for i := range reports {
		reports[i] = &report.Report{}
	}
	var plainT, loggedT time.Duration
	n := max(g.o.sc.foldReports/batch, 1)
	for b := 0; b < n; b++ {
		for i, rp := range reports {
			th.thin(b*batch+i, rp)
		}
		id := fmt.Sprintf("probe-%d", b)
		t0 := time.Now()
		err1 := plain.IngestBatch(id, reports)
		t1 := time.Now()
		err2 := logged.IngestBatch(id, reports)
		t2 := time.Now()
		plainT += t1.Sub(t0)
		loggedT += t2.Sub(t1)
		res.check(err1 == nil && err2 == nil, "fold probe batch %d: %v, %v", b, err1, err2)
	}
	per := float64(n * batch)
	return us(plainT) / per, us(loggedT-plainT) / per
}

// walProbe times WAL.Append + Sync of one 64-report record on a fresh
// segment, and the bytes it adds.
func (g *ingest) walProbe(res *result) {
	const batch = 64
	path := filepath.Join(g.o.dir, "walprobe.wal")
	w, err := wal.CreateWALSegment(path, g.c.numSites, g.c.numPreds, g.c.fingerprint)
	if err != nil {
		res.check(false, "wal probe: %v", err)
		return
	}
	defer w.Close()
	set := g.probeSet(batch)
	before := w.Size()
	seq := uint64(0)
	var perr error
	reps := max(g.o.sc.probeReps, 2)
	res.metrics["corpus.wal_append_us_per_batch"] = 1e3 * median(timeReps(reps, func() {
		seq++
		rec := &wal.WALRecord{Kind: wal.WALBatch, Seq: seq, BatchID: "probe", Reports: set.Reports}
		if err := w.Append(rec, g.c.numSites, g.c.numPreds); err != nil {
			perr = err
		}
		if err := w.Sync(); err != nil {
			perr = err
		}
	}))
	res.check(perr == nil, "wal probe: %v", perr)
	res.metrics["corpus.wal_bytes_per_report"] = float64(w.Size()-before) / float64(reps*batch)
}

func (g *ingest) close() {
	g.gen.close()
	g.ring.close()
	if g.ring.cfg.walDir != "" {
		os.RemoveAll(g.ring.cfg.walDir)
	}
}
