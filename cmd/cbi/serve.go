package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"cbi/internal/collector"
	"cbi/internal/core"
	"cbi/internal/harness"
	"cbi/internal/instrument"
	"cbi/internal/report"
	"cbi/internal/subjects"
	"cbi/internal/thermo"
)

// planFor derives the instrumentation plan for -subject or -program,
// which fixes the collector's site/predicate dimensions.
func planFor(subject, program string) (*instrument.Plan, string, error) {
	switch {
	case subject != "" && program != "":
		return nil, "", fmt.Errorf("use -subject or -program, not both")
	case subject != "":
		subj := subjects.ByName(subject)
		if subj == nil {
			return nil, "", fmt.Errorf("unknown subject %q", subject)
		}
		return instrument.BuildPlan(subj.Program(true)), subject, nil
	case program != "":
		prog, err := loadProgram(program)
		if err != nil {
			return nil, "", err
		}
		return instrument.BuildPlan(prog), program, nil
	default:
		return nil, "", fmt.Errorf("one of -subject or -program is required")
	}
}

func siteOf(plan *instrument.Plan) []int32 {
	out := make([]int32, plan.NumPreds())
	for i, p := range plan.Preds {
		out[i] = int32(p.Site)
	}
	return out
}

// cmdServe runs a collector: a report-ingestion server with streaming
// aggregation, live /v1/scores ranking, and snapshot persistence.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7575", "listen address")
	subject := fs.String("subject", "", "built-in subject fixing the predicate universe")
	program := fs.String("program", "", "MiniC source file fixing the predicate universe")
	snapshot := fs.String("snapshot", "", "state file: one checkpoint (restored on start, rewritten every -checkpoint-every and on shutdown)")
	wal := fs.String("wal", "", "write-ahead log base path (segments at <base>.NNNNNNNN; requires -snapshot)")
	checkpointEvery := fs.Duration("checkpoint-every", 30*time.Second, "checkpoint interval; with -wal each checkpoint prunes the log it covers")
	queueSize := fs.Int("queue", 256, "ingest queue bound in batches (backpressure beyond)")
	shards := fs.Int("shards", 16, "aggregate counter stripes")
	runlog := fs.Int("runlog", 0, "run-log retention cap in runs (0 = default 262144, negative disables /v1/predictors)")
	runlogMaxAge := fs.Duration("runlog-max-age", 0, "evict retained runs older than this (0 = no age cap)")
	runlogMaxBytes := fs.Int64("runlog-max-bytes", 0, "run-log retention cap in encoded bytes (0 = no byte cap; the newest run is never evicted)")
	apiKeysPath := fs.String("api-keys", "", "file of accepted API keys, one per line; write endpoints require Authorization: Bearer")
	rateLimit := fs.Float64("rate-limit", 0, "per-key write rate limit in requests per second (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "write rate-limit burst allowance (0 = 2x -rate-limit)")
	apiKeysFile := fs.String("api-keys-file", "", "like -api-keys, but re-read on SIGHUP for zero-downtime key rotation")
	planEvery := fs.Duration("plan-every", 0, "re-plan per-site sampling rates from the live aggregate at this interval (0 = planner off)")
	planTarget := fs.Float64("plan-target", 0, "expected samples per site per run the planner aims for (0 = default 100)")
	planMinRate := fs.Float64("plan-min-rate", 0, "floor for planned sampling rates (0 = default 1/100)")
	planMinRuns := fs.Int64("plan-min-runs", 0, "minimum runs in the window before the planner publishes (0 = default 100)")
	planBoostRadius := fs.Int("plan-boost-radius", 0, "half-width of the top-predictor site neighborhood boosted to rate 1 (0 = no boosting)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	slowMs := fs.Int("slow-request-ms", 0, "log any HTTP request slower than this many milliseconds (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, name, err := planFor(*subject, *program)
	if err != nil {
		return err
	}
	if *apiKeysPath != "" && *apiKeysFile != "" {
		return fmt.Errorf("use -api-keys or -api-keys-file, not both")
	}
	keysPath := *apiKeysPath
	if *apiKeysFile != "" {
		keysPath = *apiKeysFile
	}
	keys, err := loadAPIKeys(keysPath)
	if err != nil {
		return err
	}
	srv, err := collector.New(collector.Config{
		NumSites:        plan.NumSites(),
		NumPreds:        plan.NumPreds(),
		SiteOf:          siteOf(plan),
		Fingerprint:     plan.Fingerprint(),
		QueueSize:       *queueSize,
		Shards:          *shards,
		RunLogSize:      *runlog,
		RunLogMaxAge:    *runlogMaxAge,
		RunLogMaxBytes:  *runlogMaxBytes,
		APIKeys:         keys,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
		SnapshotPath:    *snapshot,
		WALPath:         *wal,
		CheckpointEvery: *checkpointEvery,
		PlanEvery:       *planEvery,
		PlanTarget:      *planTarget,
		PlanMinRate:     *planMinRate,
		PlanMinRuns:     *planMinRuns,
		PlanBoostRadius: *planBoostRadius,
		EnablePprof:     *pprofFlag,
		SlowRequest:     time.Duration(*slowMs) * time.Millisecond,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	fmt.Printf("collector for %s: %d sites, %d predicates, fingerprint %d\n",
		name, plan.NumSites(), plan.NumPreds(), plan.Fingerprint())

	// SIGHUP rotates API keys in place when -api-keys-file is used: the
	// file is re-read and swapped atomically; a bad reload keeps the
	// current keys so a typo cannot lock the fleet out.
	if *apiKeysFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				next, err := loadAPIKeys(*apiKeysFile)
				if err != nil {
					log.Printf("serve: SIGHUP key reload failed, keeping current keys: %v", err)
					continue
				}
				srv.SetAPIKeys(next)
			}
		}()
	}

	// Drain gracefully on SIGINT/SIGTERM: stop accepting, apply the
	// queue, persist a final snapshot, then close the listener.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	if err := srv.ListenAndServe(*addr); err != nil {
		return err
	}
	return <-done
}

// loadAPIKeys reads one key per line from path, skipping blanks and
// '#' comments. An empty path means no auth.
func loadAPIKeys(path string) ([]string, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		keys = append(keys, line)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("api-keys file %s holds no keys", path)
	}
	return keys, nil
}

// cmdSubmit streams reports to a collector: either a saved report set
// (-reports) or a fresh experiment run live through the harness
// streaming hook (-subject -runs).
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7575", "collector base URL")
	subject := fs.String("subject", "", "run this built-in subject and stream its reports")
	runs := fs.Int("runs", 2000, "number of runs (with -subject)")
	mode := fs.String("mode", "uniform", "sampling: always, uniform, or nonuniform (with -subject)")
	reportsFile := fs.String("reports", "", "stream a report set saved by `cbi run -save` instead of running")
	batch := fs.Int("batch", 64, "reports per batch")
	top := fs.Int("top", 0, "print the server's top-K ranking after submitting")
	key := fs.String("key", "", "API key for collectors that require one")
	planFollow := fs.Duration("plan-follow", 0, "poll GET /v1/plan at this interval and sample under the served plan (with -subject; 0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()

	var set *report.Set
	switch {
	case *reportsFile != "" && *subject != "":
		return fmt.Errorf("use -subject or -reports, not both")
	case *reportsFile != "":
		f, err := os.Open(*reportsFile)
		if err != nil {
			return err
		}
		set, err = report.Unmarshal(f)
		f.Close()
		if err != nil {
			return err
		}
	case *subject != "":
		// Resolved below; the harness streams as it runs.
	default:
		return fmt.Errorf("one of -subject or -reports is required")
	}

	if set != nil {
		client := collector.NewClient(*addr, set.NumSites, set.NumPreds,
			collector.WithBatchSize(*batch), collector.WithAPIKey(*key))
		if err := client.SubmitSet(ctx, set); err != nil {
			return err
		}
		fmt.Printf("submitted %d reports (%d retries)\n", client.Submitted(), client.Retries())
		return finishSubmit(ctx, client, *top)
	}

	subj := subjects.ByName(*subject)
	if subj == nil {
		return fmt.Errorf("unknown subject %q", *subject)
	}
	var m harness.Mode
	switch *mode {
	case "always":
		m = harness.SampleAlways
	case "uniform":
		m = harness.SampleUniform
	case "nonuniform":
		m = harness.SampleNonuniform
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	plan := instrument.BuildPlan(subj.Program(true))
	client := collector.NewClient(*addr, plan.NumSites(), plan.NumPreds(),
		collector.WithBatchSize(*batch), collector.WithAPIKey(*key))
	var planHook func() (uint64, []float64)
	if *planFollow > 0 {
		if _, _, err := client.FetchPlan(ctx); err != nil {
			return fmt.Errorf("fetching initial sampling plan: %v", err)
		}
		stop := client.FollowPlan(ctx, *planFollow)
		defer stop()
		planHook = client.PlanFunc()
		fmt.Printf("following sampling plan v%d from %s\n", client.CurrentPlan().Version, *addr)
	}
	var streamMu sync.Mutex
	var streamErr error
	res := harness.Run(harness.Config{
		Subject: subj,
		Runs:    *runs,
		Mode:    m,
		Plan:    planHook,
		Stream: func(run int, rep *report.Report, meta harness.RunMeta) {
			if err := client.Add(ctx, rep); err != nil {
				streamMu.Lock()
				if streamErr == nil {
					streamErr = err
				}
				streamMu.Unlock()
			}
		},
	})
	if streamErr != nil {
		return streamErr
	}
	if err := client.Flush(ctx); err != nil {
		return err
	}
	fmt.Printf("%s: streamed %d runs (%d failing) to %s (%d retries)\n",
		subj.Name, len(res.Set.Reports), res.NumFailing(), *addr, client.Retries())
	return finishSubmit(ctx, client, *top)
}

// cmdPredictors fetches a collector's live cause-isolation ranking —
// the /v1/predictors view of the retained run window: elimination
// order, initial and effective thermometers, and affinity lists.
func cmdPredictors(args []string) error {
	fs := flag.NewFlagSet("predictors", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7575", "collector base URL")
	top := fs.Int("top", 12, "max predictors to fetch (0 = no cap)")
	affinityK := fs.Int("affinity", 3, "affinity entries per predictor (0 = none)")
	engine := fs.String("engine", "", "scoring engine (see ENGINES.md; default: the paper's iterative elimination)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	// Dimensions are only needed for submitting; stats carries them.
	client := collector.NewClient(*addr, 0, 0)
	stats, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("collector: %d retained runs of %d ingested (%d failing), run-log cap %d, %d evicted\n",
		stats.RunLogRuns, stats.ReportsApplied, stats.Failing, stats.RunLogCap, stats.RunLogEvicted)
	if *engine != "" && *engine != core.DefaultEngineName {
		rows, err := client.EnginePredictors(ctx, *engine, *top)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			fmt.Printf("engine %q selected no predictors (no failing runs in the retained window?)\n", *engine)
			return nil
		}
		fmt.Printf("live ranked bug predictors (engine %s):\n", *engine)
		for _, e := range rows {
			fmt.Printf("%2d. pred %5d  score=%.4f  F=%d S=%d  Fobs=%d Sobs=%d\n",
				e.Rank, e.Pred, e.Score, e.F, e.S, e.Fobs, e.Sobs)
		}
		return nil
	}
	preds, err := client.Predictors(ctx, *top, *affinityK)
	if err != nil {
		return err
	}
	if len(preds) == 0 {
		fmt.Println("elimination selected no predictors (no failing runs in the retained window?)")
		return nil
	}
	fmt.Println("live ranked bug predictors (initial | effective thermometers):")
	for i, e := range preds {
		ti := thermo.Thermometer{Len01: e.Initial.Thermo.Len01, Black: e.Initial.Thermo.Black,
			Dark: e.Initial.Thermo.Dark, Light: e.Initial.Thermo.Light,
			White: e.Initial.Thermo.White, Obs: e.Initial.Thermo.Obs}
		te := thermo.Thermometer{Len01: e.Effective.Thermo.Len01, Black: e.Effective.Thermo.Black,
			Dark: e.Effective.Thermo.Dark, Light: e.Effective.Thermo.Light,
			White: e.Effective.Thermo.White, Obs: e.Effective.Thermo.Obs}
		fmt.Printf("%2d. %s %s  pred %5d  Imp=%.3f Inc=%.3f±%.3f F=%d S=%d\n",
			i+1, ti.Text(16), te.Text(16), e.Pred,
			e.Effective.Importance, e.Initial.Increase, e.Initial.IncreaseCI,
			e.Initial.F, e.Initial.S)
		for _, a := range e.Affinity {
			fmt.Printf("      affinity: pred %5d  drop %.3f (%.3f -> %.3f)\n",
				a.Pred, a.Drop, a.Before, a.After)
		}
	}
	return nil
}

// finishSubmit prints the server's view: stats, plus the live top-K
// ranking when requested. Ingestion is asynchronous — acked batches
// may still be draining through the queue — so it first waits
// (bounded) for the applied count to catch up with the enqueued count
// rather than print an undercount of what was just submitted.
func finishSubmit(ctx context.Context, client *collector.Client, top int) error {
	stats, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	if stats.NumPreds == 0 {
		// A shard router answers /v1/stats with routing counters, not
		// collector counters; per-shard totals live on the shards and
		// the merged view on the gateway.
		fmt.Println("server: submitted via a shard router; query a gateway or shard /v1/stats for applied counts")
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for stats.ReportsApplied < stats.ReportsEnqueued && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if stats, err = client.Stats(ctx); err != nil {
			return err
		}
	}
	if stats.ReportsApplied < stats.ReportsEnqueued {
		fmt.Printf("server: still draining (%d of %d enqueued reports applied)\n",
			stats.ReportsApplied, stats.ReportsEnqueued)
	}
	fmt.Printf("server: %d runs applied (%d failing, %d successful), queue depth %d\n",
		stats.ReportsApplied, stats.Failing, stats.Successful, stats.QueueDepth)
	if top <= 0 {
		return nil
	}
	scores, err := client.Scores(ctx, top)
	if err != nil {
		return err
	}
	fmt.Printf("live top-%d predictors by Importance:\n", top)
	for i, e := range scores {
		fmt.Printf("%2d. pred %5d  Imp=%.3f Inc=%.3f±%.3f F=%d S=%d\n",
			i+1, e.Pred, e.Importance, e.Increase, e.IncreaseCI, e.F, e.S)
	}
	return nil
}
