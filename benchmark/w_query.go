package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"cbi/internal/collector"
	"cbi/internal/core"
	"cbi/internal/report"
)

const (
	predictorsK = 12
	affinityK   = 3
	scoresK     = 30
)

var (
	predictorsQuery = fmt.Sprintf("/v1/predictors?k=%d&affinity=%d", predictorsK, affinityK)
	scoresQuery     = fmt.Sprintf("/v1/scores?k=%d", scoresK)
)

// query is a read-path workload: three collectors behind a router, a
// gateway beside them, the window preloaded through the router (no
// eviction), and one closed-loop reader at the gateway.
type query struct {
	o     *options
	c     *corpus
	ring  *ring
	fresh bool     // ingest one batch before every query round
	feed  *loadgen // ships the fresh batches, one sender
	hc    *http.Client
	// loaded is how many stream reports the shards hold: [0, loaded).
	loaded int
	coldMS float64

	// set by measure: the last answers and the loaded count they saw
	lastPredictors, lastScores []byte
	scoresMS                   []float64
}

func setupQueryRepeat(o *options, tr *tracer) (instance, error) { return newQuery(o, tr, false) }
func setupQueryFresh(o *options, tr *tracer) (instance, error)  { return newQuery(o, tr, true) }

func newQuery(o *options, tr *tracer, fresh bool) (*query, error) {
	c, err := getCorpus(o)
	if err != nil {
		return nil, err
	}
	r, err := startRing(c, ringConfig{shards: 3, router: true, gateway: true}, tr)
	if err != nil {
		return nil, err
	}
	q := &query{o: o, c: c, ring: r, fresh: fresh,
		hc: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone(), Timeout: time.Minute}}
	fail := func(err error) (*query, error) {
		q.close()
		return nil, err
	}

	// Preload through the router with the ring's own senders, spans off:
	// it is set-up, not the traced work.
	was := tr.on.Swap(false)
	pre := newLoadgen(c, tr, r.ingestURL, 2, o.sc.identities, o.sc.ringBatch, false)
	_, failed := pre.run(context.Background(), o.sc.queryWindow/(2*o.sc.ringBatch))
	pre.close()
	q.loaded = pre.next
	if failed > 0 {
		return fail(fmt.Errorf("preload: %d batches failed", failed))
	}
	if err := r.waitApplied(int64(q.loaded), time.Minute); err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	// The first query pulls every shard's full state; later ones pull deltas.
	start := time.Now()
	if _, err := q.get(predictorsQuery); err != nil {
		return fail(err)
	}
	q.coldMS = ms(time.Since(start))
	tr.on.Store(was)

	q.feed = newLoadgen(c, tr, r.ingestURL, 1, o.sc.identities, o.sc.freshBatch, false)
	q.feed.next = q.loaded
	return q, nil
}

func (q *query) get(pathAndQuery string) ([]byte, error) {
	return httpGet(context.Background(), q.hc, q.ring.gatewayURL+pathAndQuery)
}

func (q *query) measure(ops int) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if q.fresh {
			_, failed := q.feed.run(context.Background(), 1)
			q.loaded = q.feed.next
			m.attempted++
			m.failed += failed
			if err := q.ring.waitApplied(int64(q.loaded), time.Minute); err != nil {
				return nil, err
			}
			t0 := time.Now()
			body, err := q.get(scoresQuery)
			q.scoresMS = append(q.scoresMS, ms(time.Since(t0)))
			m.attempted++
			if err != nil {
				m.failed++
			}
			q.lastScores = body
		}
		t0 := time.Now()
		body, err := q.get(predictorsQuery)
		m.opsMS = append(m.opsMS, ms(time.Since(t0)))
		m.attempted++
		if err != nil {
			m.failed++
		}
		q.lastPredictors = body
	}
	m.wall = time.Since(start)
	m.units = float64(len(m.opsMS))
	return m, nil
}

// input is the batch pipeline's view of what the shards hold.
func (q *query) input() core.Input {
	return core.Input{
		Set:    &report.Set{NumSites: q.c.numSites, NumPreds: q.c.numPreds, Reports: q.c.reports(0, q.loaded)},
		SiteOf: q.c.siteOf,
	}
}

// verify holds the gateway's last answers, byte for byte, against the
// batch core pipeline on the same reports.
func (q *query) verify(_ *measurement, res *result) {
	in := q.input()
	want, _ := json.Marshal(collector.BuildPredictors(in, predictorsK, affinityK))
	res.check(bytes.Equal(bytes.TrimSpace(q.lastPredictors), want),
		"gateway %s differs from collector.BuildPredictors on the same %d reports", predictorsQuery, q.loaded)
	if q.fresh {
		want, _ = json.Marshal(collector.ScoreEntries(core.TopKImportance(core.Aggregate(in), scoresK)))
		res.check(bytes.Equal(bytes.TrimSpace(q.lastScores), want),
			"gateway %s differs from core.TopKImportance on the same %d reports", scoresQuery, q.loaded)
	}
}

func (q *query) layers(_ *measurement, ss *spanSet, res *result) {
	mt := res.metrics
	mt["harness.runs_per_s"] = float64(len(q.c.templates)) / q.c.buildTime.Seconds()
	mt["instrument.sites_per_report"], mt["instrument.true_preds_per_report"] = q.c.meanListLens()
	mt["gateway.predictors_cold_ms"] = q.coldMS

	var pulls, deltaBytes []float64
	self := map[string][]float64{}
	ss.each(spanGateway, func(s span, children []span) {
		var pull, n float64
		for _, c := range children {
			pull += c.durMS()
			n += float64(c.Bytes)
		}
		pulls = append(pulls, pull)
		deltaBytes = append(deltaBytes, n)
		self[s.Path] = append(self[s.Path], float64(selfNS(s, children))/1e6)
	})
	mt["gateway.pull_p50_ms"] = percentile(pulls, 0.5)
	mt["collector.delta_bytes_per_query"] = sum(deltaBytes) / float64(max(len(deltaBytes), 1))
	mt["gateway.predictors_self_p50_ms"] = percentile(self["/v1/predictors"], 0.5)
	if q.fresh {
		mt["gateway.scores_self_p50_ms"] = percentile(self["/v1/scores"], 0.5)
		mt["gateway.scores_fresh_p50_ms"] = percentile(q.scoresMS, 0.5)
	}

	in := q.input()
	reps := q.o.sc.probeReps
	var agg *core.Agg
	mt["core.aggregate_ms"] = median(timeReps(reps, func() { agg = core.Aggregate(in) }))
	mt["core.topk_ms"] = median(timeReps(reps, func() { core.TopKImportance(agg, scoresK) }))
	mt["core.eliminate_ms"] = median(timeReps(reps, func() { core.Eliminate(in, core.ElimOptions{MaxPredictors: predictorsK}) }))

	// A collector answers a repeated query from its predictor cache, and
	// any ingest invalidates it.
	ctx := context.Background()
	cl := collector.NewClient(q.ring.urls[0], q.c.numSites, q.c.numPreds)
	var perr error
	predictors := func() {
		if _, err := cl.Predictors(ctx, predictorsK, affinityK); err != nil {
			perr = err
		}
	}
	predictors()
	mt["collector.predictors_hit_ms"] = median(timeReps(reps, predictors))
	one := q.c.reports(q.loaded, q.loaded+reps)
	var missMS []float64
	for _, r := range one {
		if err := q.ring.shards[0].IngestBatch("", []*report.Report{r}); err != nil {
			perr = err
		}
		missMS = append(missMS, timeReps(1, predictors)...)
	}
	mt["collector.predictors_miss_ms"] = median(missMS)
	res.check(perr == nil, "collector predictors probe: %v", perr)
}

func (q *query) close() {
	if q.feed != nil {
		q.feed.close()
	}
	q.hc.CloseIdleConnections()
	q.ring.close()
}
