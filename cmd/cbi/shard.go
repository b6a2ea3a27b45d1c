package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cbi/internal/collector"
	"cbi/internal/corpus"
	"cbi/internal/report"
	"cbi/internal/shard"
)

// cmdRoute runs the sharded tier's write-path front: a router that
// consistent-hashes each submitting client onto one of the backend
// collectors and forwards its report batches there, with failover when
// a backend is down.
func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", ":7570", "listen address")
	backends := fs.String("backends", "", "comma-separated collector base URLs (required)")
	queue := fs.Int("queue", 256, "pending-forward queue bound per backend, in batches")
	workers := fs.Int("workers", 4, "forwarder goroutines per backend")
	health := fs.Duration("health-every", 2*time.Second, "backend health-probe interval")
	migBuffer := fs.Int("migration-buffer", 1024, "writes parked per migration while its key ranges are paused for cutover")
	planFrom := fs.String("plan-from", "", "base URL GET /v1/plan is forwarded to (default: first live backend; point at the gateway in planner deployments)")
	readFrom := fs.String("read-from", "", "base URL GET /v1/predictors and /v1/compare are relayed to (default: first live backend; point at the gateway for merged fleet-wide rankings)")
	key := fs.String("key", "", "API key presented on router-originated /v1/revoke calls to backends, and required on POST /v1/ring topology changes")
	rateLimit := fs.Float64("rate-limit", 0, "per-key write rate limit on /v1/reports in requests per second (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "write rate-limit burst allowance (0 = 2x -rate-limit)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	slowMs := fs.Int("slow-request-ms", 0, "log any HTTP request slower than this many milliseconds (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := splitURLs(*backends)
	if len(urls) == 0 {
		return fmt.Errorf("route: -backends is required (comma-separated collector URLs)")
	}
	r, err := shard.NewRouter(shard.RouterConfig{
		Backends:        urls,
		QueueSize:       *queue,
		Workers:         *workers,
		MigrationBuffer: *migBuffer,
		HealthInterval:  *health,
		PlanFrom:        strings.TrimSuffix(strings.TrimSpace(*planFrom), "/"),
		ReadFrom:        strings.TrimSuffix(strings.TrimSpace(*readFrom), "/"),
		APIKey:          *key,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
		EnablePprof:     *pprofFlag,
		SlowRequest:     time.Duration(*slowMs) * time.Millisecond,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Printf("router on %s over %d backends\n", *addr, len(urls))
	return serveUntilSignal(*addr, r.Handler(), func() { r.Drain(10 * time.Second) })
}

// cmdGateway runs the sharded tier's read-path front: a gateway that
// fans queries out to every shard and serves the merged /v1/scores,
// /v1/stats and /v1/predictors — the same responses one unsharded
// collector over all the runs would give.
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", ":7580", "listen address")
	shardsFlag := fs.String("shards", "", "comma-separated collector base URLs (required unless -ring-from is set)")
	ringFrom := fs.String("ring-from", "", "router base URL whose GET /v1/ring supplies the live shard set (survives elastic resizes)")
	ringRefresh := fs.Duration("ring-refresh", 5*time.Second, "ring polling interval with -ring-from")
	subject := fs.String("subject", "", "built-in subject fixing the predicate universe")
	program := fs.String("program", "", "MiniC source file fixing the predicate universe")
	timeout := fs.Duration("timeout", 15*time.Second, "per-shard fetch timeout")
	planEvery := fs.Duration("plan-every", 0, "re-plan fleet sampling rates from the merged shard view at this interval (0 = proxy plans from shards instead)")
	planTarget := fs.Float64("plan-target", 0, "expected samples per site per run the planner aims for (0 = default 100)")
	planMinRate := fs.Float64("plan-min-rate", 0, "floor for planned sampling rates (0 = default 1/100)")
	planMinRuns := fs.Int64("plan-min-runs", 0, "minimum merged runs before the planner publishes (0 = default 100)")
	planBoostRadius := fs.Int("plan-boost-radius", 0, "half-width of the top-predictor site neighborhood boosted to rate 1 (0 = no boosting)")
	planPushKey := fs.String("plan-push-key", "", "API key presented when pushing plans to shards that require one")
	noDelta := fs.Bool("no-delta", false, "disable warm delta sync; fetch a full snapshot from every shard per query")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	slowMs := fs.Int("slow-request-ms", 0, "log any HTTP request slower than this many milliseconds (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := splitURLs(*shardsFlag)
	ring := strings.TrimSuffix(strings.TrimSpace(*ringFrom), "/")
	if len(urls) == 0 && ring == "" {
		return fmt.Errorf("gateway: -shards or -ring-from is required")
	}
	plan, name, err := planFor(*subject, *program)
	if err != nil {
		return err
	}
	g, err := shard.NewGateway(shard.GatewayConfig{
		Shards:           urls,
		RingFrom:         ring,
		RingRefresh:      *ringRefresh,
		NumSites:         plan.NumSites(),
		NumPreds:         plan.NumPreds(),
		SiteOf:           siteOf(plan),
		Fingerprint:      plan.Fingerprint(),
		Timeout:          *timeout,
		PlanEvery:        *planEvery,
		PlanTarget:       *planTarget,
		PlanMinRate:      *planMinRate,
		PlanMinRuns:      *planMinRuns,
		PlanBoostRadius:  *planBoostRadius,
		PlanPushKey:      *planPushKey,
		DisableDeltaSync: *noDelta,
		EnablePprof:      *pprofFlag,
		SlowRequest:      time.Duration(*slowMs) * time.Millisecond,
		Logf:             log.Printf,
	})
	if err != nil {
		return err
	}
	defer g.Close()
	if ring != "" {
		fmt.Printf("gateway for %s on %s over ring %s (%d seed shards)\n", name, *addr, ring, len(urls))
	} else {
		fmt.Printf("gateway for %s on %s over %d shards\n", name, *addr, len(urls))
	}
	return serveUntilSignal(*addr, g.Handler(), nil)
}

// shardState is one collector's saved state as cbi merge reads it:
// counters, retained window as canonical records, and the window's
// routing keys (nil when the file carries none).
type shardState struct {
	snap *corpus.AggSnapshot
	recs [][]byte
	keys []uint64
}

// readShardState loads one cbi merge input: a checkpoint, or the
// pre-checkpoint snapshot + .runs pair this command imports. The WAL
// watermark is dropped either way — a merged or pushed state anchors no
// log.
func readShardState(path string) (shardState, error) {
	snap, recs, keys, err := corpus.ReadCheckpointFile(path)
	if errors.Is(err, gzip.ErrHeader) {
		snap, recs, err = readLegacyPair(path)
	}
	if err != nil {
		return shardState{}, err
	}
	if snap == nil {
		return shardState{}, fmt.Errorf("%s: no such state file", path)
	}
	snap.WALSeq, snap.WALIslands = 0, nil
	return shardState{snap, recs, keys}, nil
}

// readLegacyPair loads the on-disk format collectors wrote before the
// checkpoint: a plain-text counter snapshot and, beside it, the run
// window as a gzip'd report set at <path>.runs (absent when retention
// was off — the counters then import with an empty window). The two
// files were written one after the other, so a crash between them left
// a torn pair; the log is the source of truth then. The snapshot's
// LOGGED line (a version-1 file has none: its run total stands in)
// says how many runs its companion log held, and when that is not the
// sidecar's length the counters are recounted from the log.
func readLegacyPair(path string) (*corpus.AggSnapshot, [][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	snap, err := corpus.LoadAggSnapshot(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	runs := path + ".runs"
	rf, err := os.Open(runs)
	if os.IsNotExist(err) {
		return snap, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer rf.Close()
	gz, err := report.Gunzip(bufio.NewReader(rf))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", runs, err)
	}
	defer gz.Close()
	set, err := report.UnmarshalBinary(gz)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", runs, err)
	}
	if set.NumSites != snap.NumSites || set.NumPreds != snap.NumPreds {
		return nil, nil, fmt.Errorf("%s: run log dimensions %dx%d do not match snapshot %dx%d",
			runs, set.NumSites, set.NumPreds, snap.NumSites, snap.NumPreds)
	}
	logged := snap.Logged
	if logged < 0 {
		logged = snap.NumF + snap.NumS
	}
	if logged != int64(len(set.Reports)) {
		log.Printf("merge: %s claims %d logged runs but %s holds %d; recounting the counters from the log",
			path, logged, runs, len(set.Reports))
		recount := corpus.NewAggSnapshot(snap.NumSites, snap.NumPreds)
		recount.Fingerprint = snap.Fingerprint
		for _, r := range set.Reports {
			recount.ApplyReport(r, +1)
		}
		snap = recount
	}
	return snap, report.EncodeRecords(set.Reports), nil
}

// cmdMerge folds collector state files together offline into one
// checkpoint, or pushes each saved state into a live peer's /v1/merge —
// the reducer step of a sharded deployment. Inputs are checkpoints or
// legacy snapshot + .runs pairs, so `cbi merge -o new old` is also the
// one-shot importer for state written before the checkpoint format.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "", "write the merged checkpoint to this path")
	push := fs.String("push", "", "POST each input as a merge segment to this collector base URL")
	key := fs.String("key", "", "API key for -push against collectors that require one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("usage: cbi merge [-o merged.snap | -push URL] <state file>...")
	}
	if (*out == "") == (*push == "") {
		return fmt.Errorf("merge: exactly one of -o or -push is required")
	}

	var states []shardState
	for _, p := range paths {
		st, err := readShardState(p)
		if err != nil {
			return fmt.Errorf("merge: %v", err)
		}
		states = append(states, st)
	}

	if *push != "" {
		ctx := context.Background()
		first := states[0].snap
		client := collector.NewClient(*push, first.NumSites, first.NumPreds,
			collector.WithAPIKey(*key))
		total := 0
		for i, st := range states {
			if err := client.PushMerge(ctx, st.snap, st.recs, st.keys); err != nil {
				return fmt.Errorf("merge: pushing %s: %v", paths[i], err)
			}
			total += len(st.recs)
			fmt.Printf("pushed %s: %d runs of counters, %d logged runs\n",
				paths[i], st.snap.NumF+st.snap.NumS, len(st.recs))
		}
		fmt.Printf("pushed %d segments (%d logged runs) to %s\n", len(states), total, *push)
		return nil
	}

	merged := corpus.NewAggSnapshot(states[0].snap.NumSites, states[0].snap.NumPreds)
	var recs [][]byte
	var keys []uint64
	for i, st := range states {
		if err := corpus.MergeAggSnapshot(merged, st.snap); err != nil {
			return fmt.Errorf("merge: %s: %v", paths[i], err)
		}
		recs = append(recs, st.recs...)
		if st.keys == nil {
			st.keys = make([]uint64, len(st.recs)) // corpus.NoKey each
		}
		keys = append(keys, st.keys...)
	}
	merged.Logged = int64(len(recs))
	if err := corpus.WriteCheckpointFileRecords(*out, merged, merged.NumSites, merged.NumPreds, recs, keys); err != nil {
		return err
	}
	fmt.Printf("merged %d state files: %d runs of counters (%d failing), %d logged runs -> %s\n",
		len(states), merged.NumF+merged.NumS, merged.NumF, len(recs), *out)
	return nil
}

func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(u), "/"))
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}

// serveUntilSignal serves handler on addr until SIGINT/SIGTERM, then
// shuts the HTTP server down gracefully and runs drain (when set)
// before returning.
func serveUntilSignal(addr string, handler http.Handler, drain func()) error {
	srv := &http.Server{Addr: addr, Handler: handler}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if drain != nil {
			drain()
		}
		done <- err
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return <-done
}
