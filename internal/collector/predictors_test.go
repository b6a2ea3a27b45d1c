package collector

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cbi/internal/core"
	"cbi/internal/harness"
	"cbi/internal/report"
	"cbi/internal/subjects"
)

// TestLiveBatchEquivalence is the cause-isolation analogue of the
// /v1/scores equivalence test: a full subject corpus is streamed over
// HTTP by concurrent clients (arrival order nondeterministic, batch
// boundaries all different), and the /v1/predictors output must be
// element-for-element identical — predicate ids, elimination order,
// Increase, confidence intervals, Importance, thermometers, and
// affinity lists — to the batch pipeline run over the same corpus.
// CI runs it under -race with -count=2.
func TestLiveBatchEquivalence(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()

	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	const numClients = 8
	var wg sync.WaitGroup
	errs := make(chan error, numClients)
	clients := make([]*Client, numClients)
	for w := 0; w < numClients; w++ {
		clients[w] = NewClient(base, in.Set.NumSites, in.Set.NumPreds,
			WithBatchSize(5+w*7))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := w; i < len(in.Set.Reports); i += numClients {
				if err := clients[w].Add(ctx, in.Set.Reports[i]); err != nil {
					errs <- err
					return
				}
			}
			errs <- clients[w].Flush(ctx)
		}(w)
	}
	wg.Wait()
	for w := 0; w < numClients; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, srv, int64(len(in.Set.Reports)))

	ctx := context.Background()
	const k, affinityK = 25, 4
	got, err := clients[0].Predictors(ctx, k, affinityK)
	if err != nil {
		t.Fatal(err)
	}
	want := BuildPredictors(in, k, affinityK)
	if len(want) == 0 {
		t.Fatal("batch cause isolation selected no predictors; test is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("live selected %d predictors, batch %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("predictor %d diverges between live and batch:\nlive:  %+v\nbatch: %+v",
				i, got[i], want[i])
		}
	}

	// The retained window covers the whole corpus (no eviction at the
	// default cap), and nothing was double-counted.
	st := srv.StatsNow()
	if st.RunLogRuns != len(in.Set.Reports) || st.RunLogEvicted != 0 {
		t.Fatalf("run log retained %d runs with %d evictions, want %d and 0",
			st.RunLogRuns, st.RunLogEvicted, len(in.Set.Reports))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestBuildPredictorsMatchesEliminate pins the shared builder to
// core.Eliminate itself: same predicates, same order, same initial and
// effective scores — so the endpoint's equivalence to the builder is
// transitively an equivalence to the paper's algorithm.
func TestBuildPredictorsMatchesEliminate(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()

	const k = 25
	entries := BuildPredictors(in, k, 0)
	ranked := core.Eliminate(in, core.ElimOptions{MaxPredictors: k})
	if len(entries) != len(ranked) {
		t.Fatalf("builder selected %d predictors, Eliminate %d", len(entries), len(ranked))
	}
	for i, rk := range ranked {
		e := entries[i]
		if e.Pred != rk.Pred || e.Round != rk.Round {
			t.Fatalf("rank %d: builder pred %d round %d, Eliminate pred %d round %d",
				i, e.Pred, e.Round, rk.Pred, rk.Round)
		}
		if e.Initial.Importance != rk.InitialScores.Importance ||
			e.Initial.Increase != rk.InitialScores.Increase ||
			e.Initial.IncreaseCI != rk.InitialScores.IncreaseCI ||
			e.Effective.Importance != rk.EffectiveScores.Importance ||
			e.Effective.F != rk.Effective.F {
			t.Fatalf("rank %d: builder scores diverge from Eliminate", i)
		}
	}
}

// TestBuildPredictorsMatchesReference pins BuildPredictors on a real
// subject corpus to the builder as it was before elimination and
// affinity moved onto one projection: a full re-aggregation per
// elimination round and per affinity list. A gateway answer compared
// with BuildPredictors cannot catch a drift in the shared code; this
// can. Every predictor ccrypt's corpus yields has S = 0, so a small
// MOSS corpus, whose predictors are true in successful runs too, rides
// along.
func TestBuildPredictorsMatchesReference(t *testing.T) {
	moss := harness.Run(harness.Config{Subject: subjects.Moss(), Runs: 250, Mode: harness.SampleUniform, Workers: 2})
	for name, in := range map[string]core.Input{"ccrypt": testCorpus(t).CoreInput(), "moss": moss.CoreInput()} {
		for _, c := range []struct{ k, affinityK int }{{0, 0}, {12, 3}, {25, 5}} {
			got := BuildPredictors(in, c.k, c.affinityK)
			want := buildPredictorsReference(in, c.k, c.affinityK)
			if len(want) == 0 {
				t.Fatalf("%s k=%d: reference selected no predictors; test is vacuous", name, c.k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d affinity=%d: BuildPredictors diverges from the reference:\ngot:  %+v\nwant: %+v",
					name, c.k, c.affinityK, got, want)
			}
		}
	}
}

// buildPredictorsReference is BuildPredictors over per-round
// definitions of elimination (discard proposal 1) and affinity.
func buildPredictorsReference(in core.Input, maxPredictors, affinityK int) []PredictorEntry {
	full := core.Aggregate(in)
	candidates := core.FilterByIncrease(full, core.Z95)
	ranked := eliminateReference(in, full, candidates, maxPredictors)
	maxObs := full.NumF + full.NumS

	out := make([]PredictorEntry, 0, len(ranked))
	for _, rk := range ranked {
		e := PredictorEntry{
			Pred:      rk.Pred,
			Round:     rk.Round,
			Initial:   toPredictorScores(rk.Initial, rk.InitialScores, maxObs),
			Effective: toPredictorScores(rk.Effective, rk.EffectiveScores, maxObs),
		}
		if affinityK > 0 {
			aff := affinityReference(in, full, rk.Pred, candidates)
			if len(aff) > affinityK {
				aff = aff[:affinityK]
			}
			for _, a := range aff {
				e.Affinity = append(e.Affinity, AffinityItem{
					Pred: a.Pred, Before: a.Before, After: a.After, Drop: a.Drop})
			}
		}
		out = append(out, e)
	}
	return out
}

// eliminateReference re-aggregates the active runs every round and
// discards every run where the selected predicate is true.
func eliminateReference(in core.Input, full *core.Agg, candidates []int, maxPredictors int) []core.Ranked {
	inCand := make([]bool, in.Set.NumPreds)
	for _, p := range candidates {
		inCand[p] = true
	}
	active := make([]bool, len(in.Set.Reports))
	for i := range active {
		active[i] = true
	}
	var out []core.Ranked
	for round := 0; maxPredictors <= 0 || len(out) < maxPredictors; round++ {
		agg := core.AggregateSubset(in, active, nil)
		if agg.NumF == 0 {
			break
		}
		best, bestImp := -1, 0.0
		for p := 0; p < in.Set.NumPreds; p++ {
			if !inCand[p] {
				continue
			}
			if imp := core.Importance(agg.Stats[p], agg.NumF); imp > bestImp {
				best, bestImp = p, imp
			}
		}
		if best < 0 {
			break
		}
		out = append(out, core.Ranked{
			Pred:            best,
			Round:           round,
			Initial:         full.Stats[best],
			InitialScores:   core.ComputeScores(full.Stats[best], full.NumF),
			Effective:       agg.Stats[best],
			EffectiveScores: core.ComputeScores(agg.Stats[best], agg.NumF),
		})
		inCand[best] = false
		for i, r := range in.Set.Reports {
			if r.True(int32(best)) {
				active[i] = false
			}
		}
	}
	return out
}

// affinityReference re-aggregates the runs where p is not true.
func affinityReference(in core.Input, full *core.Agg, p int, candidates []int) []core.AffinityEntry {
	active := make([]bool, len(in.Set.Reports))
	for i, r := range in.Set.Reports {
		active[i] = !r.True(int32(p))
	}
	after := core.AggregateSubset(in, active, nil)
	out := make([]core.AffinityEntry, 0, len(candidates))
	for _, q := range candidates {
		if q == p {
			continue
		}
		b := core.Importance(full.Stats[q], full.NumF)
		a := core.Importance(after.Stats[q], after.NumF)
		out = append(out, core.AffinityEntry{Pred: q, Before: b, After: a, Drop: b - a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Drop != out[j].Drop {
			return out[i].Drop > out[j].Drop
		}
		return out[i].Pred < out[j].Pred
	})
	return out
}

// TestRunLogEviction fills the run log far past its retention cap and
// checks the collector's whole surface stays consistent with a batch
// run over only the retained runs: run counts, scores, and predictors
// all describe exactly the newest cap runs — no double-count from the
// evicted prefix, no stale membership in the log.
func TestRunLogEviction(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()

	const capRuns = 350
	cfg := serverConfig(t)
	cfg.RunLogSize = capRuns
	cfg.Workers = 1 // serialize application so the retained window is deterministic
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL, in.Set.NumSites, in.Set.NumPreds, WithBatchSize(32))
	ctx := context.Background()
	if err := client.SubmitSet(ctx, in.Set); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, srv, int64(len(in.Set.Reports)))

	retained := in.Set.Reports[len(in.Set.Reports)-capRuns:]
	retIn := core.Input{
		Set: &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds,
			Reports: retained},
		SiteOf: in.SiteOf,
	}
	wantAgg := core.Aggregate(retIn)

	st := srv.StatsNow()
	if st.RunLogRuns != capRuns || int(st.RunLogEvicted) != len(in.Set.Reports)-capRuns {
		t.Fatalf("run log retained %d, evicted %d; want %d and %d",
			st.RunLogRuns, st.RunLogEvicted, capRuns, len(in.Set.Reports)-capRuns)
	}
	if int(st.Runs) != capRuns || int(st.Failing) != wantAgg.NumF || int(st.Successful) != wantAgg.NumS {
		t.Fatalf("stats (%d runs, %d failing, %d successful) disagree with retained window (%d, %d, %d)",
			st.Runs, st.Failing, st.Successful, capRuns, wantAgg.NumF, wantAgg.NumS)
	}
	if int(st.ReportsApplied) != len(in.Set.Reports) {
		t.Fatalf("ReportsApplied = %d, want %d (eviction must not rewrite ingest totals)",
			st.ReportsApplied, len(in.Set.Reports))
	}

	const k, affinityK = 25, 4
	scores, err := client.Scores(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if wantScores := wantTopK(in, retained, k); !reflect.DeepEqual(scores, wantScores) {
		t.Fatal("live /v1/scores diverges from batch pipeline over the retained window")
	}

	preds, err := client.Predictors(ctx, k, affinityK)
	if err != nil {
		t.Fatal(err)
	}
	want := BuildPredictors(retIn, k, affinityK)
	if len(want) == 0 {
		t.Fatal("batch over retained window selected no predictors; test is vacuous")
	}
	if !reflect.DeepEqual(preds, want) {
		t.Fatalf("live /v1/predictors diverges from batch over the retained window:\nlive:  %+v\nbatch: %+v",
			preds, want)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPredictorsCacheInvalidation: repeated polls between ingests are
// served from cache; any ingested run invalidates it.
func TestPredictorsCacheInvalidation(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, r := range in.Set.Reports[:200] {
		srv.Ingest(r)
	}
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/predictors?k=10&affinity=2")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/predictors = %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	first := get()
	second := get()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached poll returned different bytes")
	}
	st := srv.StatsNow()
	if st.PredictorsComputed != 1 || st.PredictorsCacheHits != 1 {
		t.Fatalf("computed=%d hits=%d after two identical polls, want 1 and 1",
			st.PredictorsComputed, st.PredictorsCacheHits)
	}

	// A new run invalidates; a different query shape also recomputes.
	srv.Ingest(in.Set.Reports[200])
	get()
	if st := srv.StatsNow(); st.PredictorsComputed != 2 {
		t.Fatalf("computed=%d after post-ingest poll, want 2", st.PredictorsComputed)
	}
	resp, err := http.Get(ts.URL + "/v1/predictors?k=5&affinity=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := srv.StatsNow(); st.PredictorsComputed != 3 {
		t.Fatalf("computed=%d after changed-shape poll, want 3", st.PredictorsComputed)
	}
}

// TestPredictorsDisabledAndBadParams: a counters-only collector has no
// window to rank. (The bad-parameter rejections are rows of
// shard.TestQueryParity, which holds them for every tier at once.)
func TestPredictorsDisabledAndBadParams(t *testing.T) {
	cfg := serverConfig(t)
	cfg.RunLogSize = -1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/v1/predictors"); got != http.StatusNotImplemented {
		t.Errorf("predictors with run log disabled = %d, want 501", got)
	}
	if st := srv.StatsNow(); st.RunLogCap != 0 || st.RunLogRuns != 0 {
		t.Errorf("disabled run log reports cap=%d runs=%d, want 0/0", st.RunLogCap, st.RunLogRuns)
	}
}
