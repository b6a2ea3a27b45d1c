package collector

import (
	"reflect"
	"sync"
	"testing"

	"cbi/internal/core"
	"cbi/internal/corpus"
	"cbi/internal/harness"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/progen"
	"cbi/internal/report"
	"cbi/internal/sampling"
	"cbi/internal/subjects"
)

var (
	corpusOnce sync.Once
	corpusRes  *harness.Result
)

// testCorpus runs one shared ccrypt experiment — a full subject corpus
// with real failures — used by every equivalence test in the package.
func testCorpus(t *testing.T) *harness.Result {
	t.Helper()
	corpusOnce.Do(func() {
		corpusRes = harness.Run(harness.Config{
			Subject: subjects.Ccrypt(),
			Runs:    1000,
			Mode:    harness.SampleUniform,
			Workers: 4,
		})
	})
	if corpusRes.NumFailing() == 0 {
		t.Fatal("test corpus has no failing runs; equivalence tests are vacuous")
	}
	return corpusRes
}

// apply folds one report the way Server.Ingest does.
func apply(a *shardedAgg, r *report.Report) {
	reports := []*report.Report{r}
	a.ApplyBatch(reports, report.EncodeRecords(reports), corpus.NoKey, nil)
}

// TestShardedAggMatchesBatchAggregate is the core streaming-equivalence
// property: folding reports one at a time into the sharded counters,
// from many goroutines in arbitrary order, must produce exactly the
// aggregate core.Aggregate computes over the same set.
func TestShardedAggMatchesBatchAggregate(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()

	for _, shards := range []int{1, 3, 16} {
		agg := newShardedAgg(in.Set.NumSites, in.Set.NumPreds, shards, defaultRunLogCap, 0, 0, nil)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(in.Set.Reports); i += 8 {
					apply(agg, in.Set.Reports[i])
				}
			}(w)
		}
		wg.Wait()

		got := agg.ToAgg(in.SiteOf)
		want := core.Aggregate(in)
		if got.NumF != want.NumF || got.NumS != want.NumS {
			t.Fatalf("shards=%d: run counts (%d,%d), want (%d,%d)",
				shards, got.NumF, got.NumS, want.NumF, want.NumS)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("shards=%d: per-predicate stats diverge from batch aggregate", shards)
		}
	}
}

func TestShardedAggSnapshotRestore(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()

	agg := newShardedAgg(in.Set.NumSites, in.Set.NumPreds, 8, defaultRunLogCap, 0, 0, nil)
	for _, r := range in.Set.Reports {
		apply(agg, r)
	}
	snap, recs := agg.Snapshot(12345)
	if snap.Fingerprint != 12345 {
		t.Errorf("snapshot fingerprint = %d", snap.Fingerprint)
	}
	if len(recs) != len(in.Set.Reports) {
		t.Errorf("snapshot captured %d run-log records, want %d", len(recs), len(in.Set.Reports))
	}

	fresh := newShardedAgg(in.Set.NumSites, in.Set.NumPreds, 8, defaultRunLogCap, 0, 0, nil)
	fresh.Restore(snap)
	if !reflect.DeepEqual(fresh.ToAgg(in.SiteOf), agg.ToAgg(in.SiteOf)) {
		t.Fatal("restored aggregate differs from original")
	}
	numF, numS := fresh.Runs()
	if int(numF) != res.NumFailing() || int(numF+numS) != len(in.Set.Reports) {
		t.Fatalf("restored run counts (%d,%d) wrong", numF, numS)
	}

	// Snapshot must be a copy: further ingestion into the original must
	// not alias the snapshot's slices.
	savedFobs := append([]int64{}, snap.FobsSite...)
	savedFPred := append([]int64{}, snap.FPred...)
	for _, r := range in.Set.Reports {
		apply(agg, r)
	}
	if !reflect.DeepEqual(snap.FobsSite, savedFobs) || !reflect.DeepEqual(snap.FPred, savedFPred) {
		t.Fatal("snapshot aliases live counters")
	}
}

// progenReports runs one random program (internal/progen) under full
// instrumentation on a spread of inputs and returns its feedback
// reports with their dimensions — corpora whose shapes nobody picked.
// Every other run gets a step budget too small to finish, so each
// corpus mixes successful runs with failing ones cut off part-way.
func progenReports(seed int64, runs int) (numSites, numPreds int, reports []*report.Report) {
	cfg := progen.DefaultConfig
	cfg.Risky = false
	prog := progen.Generate(seed, cfg)
	plan := instrument.BuildPlan(prog)
	rt := instrument.NewRuntime(plan, sampling.Always{})
	eng := interp.New(prog, rt)
	for i := 0; i < runs; i++ {
		limit := int64(20_000)
		if i%2 == 1 {
			limit = int64(20 + 13*i)
		}
		eng.SetLimits(interp.Limits{Steps: limit})
		rt.BeginRun(seed*1000 + int64(i))
		out := eng.Run(progen.Input(seed*1000 + int64(i)))
		reports = append(reports, rt.Snapshot(out.Crashed))
	}
	return plan.NumSites(), plan.NumPreds(), reports
}

// TestUncountMatchesBump pins the fold from record bytes to the fold
// from reports it replaced: un-counting runs by walking their run-log
// records — one at a time and batched through the fold scratch —
// leaves exactly the counters that bump(r, -1) leaves, which are
// exactly those of an aggregate that never saw the runs.
func TestUncountMatchesBump(t *testing.T) {
	counters := func(a *shardedAgg) [][]int64 {
		f, s := a.Runs()
		return [][]int64{{f, s}, a.fObsSite, a.sObsSite, a.fPred, a.sPred}
	}
	for seed := int64(1); seed <= 24; seed++ {
		numSites, numPreds, reports := progenReports(seed, 40)
		keep := len(reports) / 3
		build := func(n int) *shardedAgg {
			a := newShardedAgg(numSites, numPreds, 3, defaultRunLogCap, 0, 0, nil)
			a.ApplyBatch(reports[:n], report.EncodeRecords(reports[:n]), corpus.NoKey, nil)
			return a
		}
		want := build(keep)
		// Recounting folds the log's records through the same walk with
		// +1, and must land on the counters ApplyBatch built.
		recounted := build(len(reports))
		recounted.RecountFromLog()
		if full := build(len(reports)); !reflect.DeepEqual(counters(recounted), counters(full)) {
			t.Fatalf("seed %d: counters after RecountFromLog differ from the applied ones", seed)
		}

		bumped := build(len(reports))
		for _, r := range reports[keep:] {
			bumped.bump(r, -1)
		}
		batched := build(len(reports))
		batched.uncount(report.EncodeRecords(reports[keep:]))
		single := build(len(reports))
		for _, rec := range report.EncodeRecords(reports[keep:]) {
			single.uncount([][]byte{rec})
		}
		for name, got := range map[string]*shardedAgg{"bump": bumped, "batched uncount": batched, "single uncount": single} {
			if !reflect.DeepEqual(counters(got), counters(want)) {
				t.Fatalf("seed %d (%d sites, %d preds): counters after %s differ from never having counted the runs",
					seed, numSites, numPreds, name)
			}
		}
	}
}
