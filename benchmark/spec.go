package main

// This file is the benchmark's contract: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics.
// BENCHMARK.json at the repository root lists the same names;
// TestBenchmarkJSONMatchesSpec keeps the two from drifting.

const (
	wClientRun   = "client-run"
	wClientShort = "client-short"
	wIngestRing  = "ingest-ring"
	wIngestBulk  = "ingest-bulk"
	wQueryRepeat = "query-repeat"
	wQueryFresh  = "query-fresh"
)

type workloadSpec struct {
	name, why string
	// op is the workload's unit operation: op_p50_ms and op_tail_ms are
	// percentiles of its latency.
	op string
	// tailP is the percentile op_tail_ms reports.
	tailP float64
	// rate is how many operations per second the reference box
	// completes, rounded down. A run does seconds*rate operations: the
	// work is fixed by --seconds, not cut off by a clock, so two commits
	// are compared on equal work, equal sample counts and equal retained
	// state, and a faster commit simply finishes sooner.
	rate float64
	// unit is what throughput_per_s counts.
	unit string
	// setupReps is how many times one run sets up; setup_s is the median.
	setupReps int
	setup     func(o *options, tr *tracer) (instance, error)
}

var workloads = []workloadSpec{
	{
		name: wClientRun,
		why:  "MOSS run back to back bare, never-sampled and 1/100-sampled on the VM: the paper's headline client cost; no server runs, so server-side changes must not move it",
		op:   "one 1/100-sampled MOSS run (BeginRun + Run + Snapshot)", tailP: 0.90, rate: 150, unit: "sampled runs",
		setupReps: 15, setup: setupClientRun,
	},
	{
		name: wClientShort,
		why:  "40 us CCRYPT runs, 1/100-sampled: the same client layers, but per-run set-up (BeginRun/Snapshot clears) dominates instead of per-reach checks",
		op:   "one 1/100-sampled CCRYPT run", tailP: 0.90, rate: 30000, unit: "sampled runs",
		setupReps: 15, setup: setupClientShort,
	},
	{
		name: wIngestRing,
		why:  "2 closed-loop senders ship 64-report gzip batches through the router into 3 WAL+checkpoint collectors with full windows: the production write path, where per-batch costs dominate",
		op:   "one 64-report batch shipped (encode + gzip + POST + 202)", tailP: 0.90, rate: 100, unit: "reports applied",
		setupReps: 3, setup: setupIngestRing,
	},
	{
		name: wIngestBulk,
		why:  "1 sender ships 1024-report batches straight into 1 collector, no router, no WAL: per-report decode + fold + run log dominate; a router/WAL/transport gain must not move it",
		op:   "one 1024-report batch shipped by SubmitSet", tailP: 0.75, rate: 5, unit: "reports applied",
		setupReps: 3, setup: setupIngestBulk,
	},
	{
		name: wQueryRepeat,
		why:  "identical gateway /v1/predictors queries with no ingest between: the dashboard refresh, which a predictor cache should turn into a hit",
		op:   "one gateway GET /v1/predictors?k=12&affinity=3", tailP: 0.75, rate: 6, unit: "queries",
		setupReps: 3, setup: setupQueryRepeat,
	},
	{
		name: wQueryFresh,
		why:  "gateway /v1/scores and /v1/predictors after every ingested batch: always a cache miss, so Eliminate and the delta pull do the work",
		op:   "one gateway GET /v1/predictors?k=12&affinity=3 after an ingest", tailP: 0.75, rate: 4, unit: "ingest+query rounds",
		setupReps: 3, setup: setupQueryFresh,
	},
}

// ops is how many operations a run of the given length makes: never
// fewer than the tail percentile needs to have ten samples beyond it.
func (w *workloadSpec) ops(seconds float64) int {
	return max(minSamples(w.tailP), int(seconds*w.rate))
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen (0 for per-layer metrics, which have none).
	bound float64
	// on lists the workloads that measure a per-layer metric; the others
	// report 0 for it. Empty means every workload.
	on  []string
	doc string
}

const (
	lower  = "lower"
	higher = "higher"
)

// Every workload reports every end-to-end metric, so the names are
// generic and the workload says what the operation is.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25,
		doc: "inputs from the seed (corpus / parse + compile) + server boot + preload, before the clock starts; median of the run's set-ups"},
	{name: "op_p50_ms", unit: "ms", better: lower, bound: 0.20,
		doc: "median latency of the workload's operation"},
	{name: "op_tail_ms", unit: "ms", better: lower, bound: 0.25,
		doc: "the workload's tail percentile of the same (p90 or p75); with samples enough for several blocks of ten-beyond, the median of the blocks' percentiles"},
	{name: "throughput_per_s", unit: "1/s", better: higher, bound: 0.20,
		doc: "work units completed per second of measured wall time (ingest: first send until all applied)"},
	{name: "heap_mb", unit: "MB", better: lower, bound: 0.05,
		doc: "HeapAlloc after runtime.GC() once the run is done, minus the reading before set-up: what the system retains (window, caches, runtime)"},
}

var (
	onClient = []string{wClientRun, wClientShort}
	onIngest = []string{wIngestRing, wIngestBulk}
	onQuery  = []string{wQueryRepeat, wQueryFresh}
	onServer = []string{wIngestRing, wIngestBulk, wQueryRepeat, wQueryFresh}
)

func on(names ...string) []string { return names }

// perLayer metrics are named layer.metric, layer being the module under
// internal/. Probe = a timed direct call into the layer; span = taken
// from the traced run's spans; stat = read from the layer's own stats.
var perLayer = []metricSpec{
	// client side
	{name: "vm.bare_run_ms", unit: "ms", better: lower, on: on(wClientRun), doc: "median uninstrumented MOSS run (paired timing)"},
	{name: "vm.never_run_ms", unit: "ms", better: lower, on: on(wClientRun), doc: "median instrumented, never-sampled MOSS run (paired timing)"},
	{name: "vm.always_run_ms", unit: "ms", better: lower, on: on(wClientRun), doc: "probe: median always-sampled MOSS run on the check subset"},
	{name: "interp.bare_run_ms", unit: "ms", better: lower, on: on(wClientRun), doc: "probe: median uninstrumented tree-walker run on the check subset"},
	{name: "client.overhead_never", unit: "ratio", better: lower, on: on(wClientRun), doc: "sum never / sum bare over the paired inputs"},
	{name: "client.overhead_sampled", unit: "ratio", better: lower, on: on(wClientRun), doc: "sum sampled / sum bare over the paired inputs"},
	{name: "vm.compile_ms", unit: "ms", better: lower, on: onClient, doc: "probe: vm.Compile"},
	{name: "lang.parse_resolve_ms", unit: "ms", better: lower, on: onClient, doc: "probe: lang.Parse + lang.Resolve"},
	{name: "instrument.build_plan_ms", unit: "ms", better: lower, on: onClient, doc: "probe: instrument.BuildPlan"},
	{name: "instrument.begin_snapshot_us", unit: "us", better: lower, on: onClient, doc: "probe: BeginRun + Snapshot with no run between"},
	{name: "sampling.uniform_decision_ns", unit: "ns", better: lower, on: onClient, doc: "probe: one Uniform.Sample call"},
	{name: "sampling.sample_share", unit: "ratio", better: lower, on: on(wClientRun), doc: "samples taken / site reaches on the check subset; must stay 0.01 within 3 sigma"},

	// corpus and wire format
	{name: "harness.runs_per_s", unit: "1/s", better: higher, on: onServer, doc: "corpus build rate"},
	{name: "instrument.sites_per_report", unit: "count", better: lower, on: onServer, doc: "mean observed sites per template"},
	{name: "instrument.true_preds_per_report", unit: "count", better: lower, on: onServer, doc: "mean true predicates per template"},
	{name: "report.encode_us_per_report", unit: "us", better: lower, on: onIngest, doc: "probe: Set.MarshalBinary of one batch of the workload's size"},
	{name: "report.decode_us_per_report", unit: "us", better: lower, on: on(wIngestRing), doc: "probe: Arena.Decode + Release of a 64-report body"},
	{name: "report.decode_bulk_us_per_report", unit: "us", better: lower, on: on(wIngestBulk), doc: "probe: the same on a bulk-batch body"},
	{name: "report.wire_bytes_per_report", unit: "B", better: lower, on: onIngest, doc: "binary encoded size before gzip"},

	// write path
	{name: "client.gzip_bytes_per_report", unit: "B", better: lower, on: onIngest, doc: "span: POST body bytes seen by the RoundTripper"},
	{name: "client.flush_self_us_per_report", unit: "us", better: lower, on: onIngest, doc: "span: client.flush minus its client.post child = encode + gzip"},
	{name: "client.post_p50_ms", unit: "ms", better: lower, on: onIngest, doc: "span: median client.post"},
	{name: "client.ack_p99_ms", unit: "ms", better: lower, on: on(wIngestRing), doc: "p99 of the batch acks"},
	{name: "client.retries", unit: "count", better: lower, on: onIngest, doc: "stat: Client.Retries() summed"},
	{name: "router.handle_p50_ms", unit: "ms", better: lower, on: on(wIngestRing), doc: "span: median router.handle"},
	{name: "router.forward_wait_p50_ms", unit: "ms", better: lower, on: on(wIngestRing), doc: "span: router.handle end -> collector.handle start (queue wait + forward)"},
	{name: "router.shed", unit: "count", better: lower, on: on(wIngestRing), doc: "stat: batches shed with 429"},
	{name: "router.rerouted", unit: "count", better: lower, on: on(wIngestRing), doc: "stat: batches failed over"},
	{name: "router.shard_skew", unit: "ratio", better: lower, on: on(wIngestRing), doc: "stat: max / mean reports applied per shard"},
	{name: "collector.handle_p50_ms", unit: "ms", better: lower, on: onIngest, doc: "span: median collector.handle (gunzip + decode + dedup + WAL + enqueue)"},
	{name: "collector.apply_lag_ms", unit: "ms", better: lower, on: onIngest, doc: "last ack -> all reports applied"},
	{name: "collector.fold_us_per_report", unit: "us", better: lower, on: onIngest, doc: "probe: Server.IngestBatch, 64-report batches, no WAL"},
	{name: "collector.wal_us_per_report", unit: "us", better: lower, on: on(wIngestRing), doc: "probe: the same with WAL on minus WAL off, interleaved pairs"},
	{name: "collector.rejected_batches", unit: "count", better: lower, on: onIngest, doc: "stat: BatchesRejected summed"},
	{name: "collector.runlog_bytes_per_run", unit: "B", better: lower, on: onIngest, doc: "stat: RunLogBytes / RunLogRuns"},
	{name: "collector.interned_share", unit: "ratio", better: lower, on: onIngest, doc: "1 - cbi_runlog_interned_vectors / runs from GET /metrics; near 0 shows the corpus did not replay duplicates"},
	{name: "collector.checkpoint_ms", unit: "ms", better: lower, on: on(wIngestRing), doc: "median SnapshotNow() per shard after the run"},
	{name: "collector.checkpoints", unit: "count", better: higher, on: on(wIngestRing), doc: "stat: checkpoints completed during the run"},
	{name: "collector.recover_ms", unit: "ms", better: lower, on: on(wIngestRing), doc: "Close() every shard -> New from the same paths -> totals equal"},
	{name: "corpus.wal_append_us_per_batch", unit: "us", better: lower, on: on(wIngestRing), doc: "probe: WAL.Append + Sync of one 64-report record"},
	{name: "corpus.wal_bytes_per_report", unit: "B", better: lower, on: on(wIngestRing), doc: "probe: WAL segment growth per report"},
	{name: "corpus.checkpoint_bytes_per_run", unit: "B", better: lower, on: on(wIngestRing), doc: "checkpoint file size / retained runs"},

	// read path
	{name: "gateway.predictors_cold_ms", unit: "ms", better: lower, on: onQuery, doc: "first gateway /v1/predictors (full pull), made during set-up"},
	{name: "gateway.pull_p50_ms", unit: "ms", better: lower, on: onQuery, doc: "span: sum of child collector.snapshot spans per gateway query"},
	{name: "gateway.predictors_self_p50_ms", unit: "ms", better: lower, on: onQuery, doc: "span: gateway.handle minus what its shard spans cover, /v1/predictors"},
	{name: "gateway.scores_self_p50_ms", unit: "ms", better: lower, on: on(wQueryFresh), doc: "span: the same for /v1/scores"},
	{name: "gateway.scores_fresh_p50_ms", unit: "ms", better: lower, on: on(wQueryFresh), doc: "median gateway /v1/scores?k=30 after an ingest (warm-delta path)"},
	{name: "collector.delta_bytes_per_query", unit: "B", better: lower, on: onQuery, doc: "span: /v1/snapshot?since= response bytes per gateway query"},
	{name: "collector.predictors_miss_ms", unit: "ms", better: lower, on: onQuery, doc: "probe: Client.Predictors on shard 0 right after an ingest"},
	{name: "collector.predictors_hit_ms", unit: "ms", better: lower, on: onQuery, doc: "probe: the same with no ingest between"},
	{name: "core.eliminate_ms", unit: "ms", better: lower, on: onQuery, doc: "probe: core.Eliminate(MaxPredictors 12) on the preloaded window"},
	{name: "core.aggregate_ms", unit: "ms", better: lower, on: onQuery, doc: "probe: core.Aggregate on the same"},
	{name: "core.topk_ms", unit: "ms", better: lower, on: onQuery, doc: "probe: core.TopKImportance(k=30) on the same"},

	{name: "trace.overhead_share", unit: "ratio", better: lower, on: onServer, doc: "1 - traced / untraced throughput_per_s, both measured in the traced run"},
}
