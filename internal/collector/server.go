package collector

import (
	"bufio"
	"context"
	"crypto/subtle"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/corpus"
	"cbi/internal/obs"
	"cbi/internal/plan"
	"cbi/internal/ratelimit"
	"cbi/internal/report"
	"cbi/internal/sampling"
)

// Config configures a collector server.
type Config struct {
	// NumSites and NumPreds fix the index spaces; batches with other
	// dimensions are rejected with 400.
	NumSites, NumPreds int
	// SiteOf maps each predicate to its site (len NumPreds), needed to
	// attach site-observation counts when scoring.
	SiteOf []int32
	// Fingerprint identifies the instrumentation plan (0 = unchecked).
	// Snapshots record it and a restart refuses a mismatched snapshot.
	Fingerprint uint64
	// QueueSize bounds the ingest queue in batches (default 256). When
	// the queue is full, POST /v1/reports sheds load with 429.
	QueueSize int
	// RunLogSize caps the run-level membership log in runs (default
	// 262144; negative disables it). The log is what powers the full
	// cause-isolation ranking: when it is at capacity the oldest run is
	// evicted and un-counted, so /v1/scores, /v1/stats, and
	// /v1/predictors all describe exactly the retained window. Negative
	// means counters-only operation (/v1/predictors returns 501).
	RunLogSize int
	// RunLogMaxAge, when positive, additionally evicts retained runs
	// older than the cap — with the same evict-and-decrement counter
	// consistency as the count cap. A background sweep enforces it even
	// when no new reports arrive.
	RunLogMaxAge time.Duration
	// RunLogMaxBytes, when positive, additionally caps the retained
	// window by summed encoded record size — the operator-facing knob
	// when memory, not run count, is the scarce resource. Eviction has
	// the same evict-and-decrement counter consistency as the other
	// caps; the newest run is never evicted.
	RunLogMaxBytes int64
	// APIKeys, when non-empty, gates the write endpoints: POST
	// /v1/reports, /v1/merge, and /v1/plan must carry "Authorization:
	// Bearer <key>" matching one of the keys (constant-time compare) or
	// they are rejected with 401 and counted in the auth_rejected stat.
	// Read endpoints — including GET /v1/plan, so key rollover never
	// blinds the fleet's rate control — stay open. Keys can be rotated
	// live with SetAPIKeys.
	APIKeys []string
	// RateLimit, when positive, rate-limits the write endpoints
	// (/v1/reports and /v1/merge) per API key (per client address when
	// auth is off) with a token bucket of RateLimit requests per second.
	// Limited requests get 429 with a Retry-After naming when the next
	// token accrues.
	RateLimit float64
	// RateBurst is the token-bucket burst size (default 2*RateLimit).
	RateBurst int
	// PlanEvery, when positive, runs the closed-loop sampling planner:
	// every period the live aggregate's observation counts are re-planned
	// into a new versioned sampling plan (see internal/plan) served at
	// GET /v1/plan. Zero disables the loop; the endpoint still serves the
	// bootstrap (or restored / pushed) plan, and Replan can be driven
	// manually.
	PlanEvery time.Duration
	// PlanTarget is the per-run expected sample count each site is
	// planned toward (default sampling.DefaultTargetSamples).
	PlanTarget float64
	// PlanMinRate floors planned rates (default sampling.DefaultRate).
	PlanMinRate float64
	// PlanMinRuns gates re-planning until the retained window holds at
	// least this many runs (default plan.DefaultMinRuns).
	PlanMinRuns int64
	// PlanBoostRadius, when positive, boosts the site neighborhood of
	// the current top predictor (±radius sites) to rate 1 in each new
	// plan — the targeted-deployment hook that confirms or kills the
	// leading cause faster. Zero disables boosting.
	PlanBoostRadius int
	// Workers is the number of apply workers (default GOMAXPROCS).
	Workers int
	// Shards is the number of counter stripes (default 16).
	Shards int
	// SnapshotPath, when set, is the collector's one state file: a
	// checkpoint (counters + retained window + routing keys + WAL
	// watermark in a single atomically renamed file) written every
	// CheckpointEvery and on Shutdown, and restored on startup.
	SnapshotPath string
	// WALPath, when set, enables the write-ahead log: every accepted
	// batch, merge, and revoke is appended to the current WAL segment
	// (<WALPath>.<n>) before it is acked, shrinking the
	// acked-but-uncheckpointed loss window to ~zero. Requires
	// SnapshotPath: each checkpoint rotates and prunes the log it
	// covers, and boot replays the WAL records the checkpoint does not.
	WALPath string
	// CheckpointEvery is the checkpoint period (default 30s).
	CheckpointEvery time.Duration
	// DeltaHistory caps the in-memory state-mutation history backing
	// incremental GET /v1/snapshot?since= responses, in events (0 =
	// default 65536; negative disables delta serving). Only meaningful
	// when the run log is enabled.
	DeltaHistory int
	// Metrics, when set, is the registry the server's metrics register
	// into (shared registries let one process host several servers under
	// distinct names); nil creates a private registry. Either way the
	// registry is served at GET /metrics and is the single source of
	// truth for /v1/stats — the JSON view reads the same counters.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in:
	// profiling endpoints reveal heap contents and cost CPU).
	EnablePprof bool
	// SlowRequest, when positive, logs one structured line for every
	// HTTP request slower than this threshold.
	SlowRequest time.Duration
	// Logf receives server log lines (default: discard).
	Logf func(format string, args ...any)
	// applyHook, when set (tests only), runs before each report is
	// applied; it must be set before New so workers see it.
	applyHook func(*report.Report)
	// nowFn, when set (tests only), overrides the retention clock.
	nowFn func() time.Time
	// walHook, when set (tests only), runs around each WAL append
	// ("pre-append", "post-append") so crash tests can copy the state
	// directory at exact durability boundaries.
	walHook func(stage string)
	// checkpointHook, when set (tests only), runs at checkpoint stages
	// ("begin", "captured", "committed", "done").
	checkpointHook func(stage string)
}

// Stats is the GET /v1/stats response.
type Stats struct {
	NumSites        int    `json:"num_sites"`
	NumPreds        int    `json:"num_preds"`
	Fingerprint     uint64 `json:"fingerprint"`
	Runs            int64  `json:"runs"`
	Failing         int64  `json:"failing"`
	Successful      int64  `json:"successful"`
	QueueDepth      int    `json:"queue_depth"`
	BatchesAccepted int64  `json:"batches_accepted"`
	BatchesRejected int64  `json:"batches_rejected"`
	BatchesDeduped  int64  `json:"batches_deduped"`
	ReportsEnqueued int64  `json:"reports_enqueued"`
	ReportsApplied  int64  `json:"reports_applied"`
	Snapshots       int64  `json:"snapshots"`
	// Run-log retention: retained window size, configured caps, current
	// encoded byte footprint, and runs evicted (and un-counted) since
	// startup. All zero when the run log is disabled.
	RunLogRuns     int   `json:"runlog_runs"`
	RunLogCap      int   `json:"runlog_cap"`
	RunLogEvicted  int64 `json:"runlog_evicted"`
	RunLogBytes    int64 `json:"runlog_bytes"`
	RunLogMaxBytes int64 `json:"runlog_max_bytes"`
	// /v1/predictors cache behaviour: full eliminations computed vs
	// polls served from cache (no rescan between ingests).
	PredictorsComputed  int64 `json:"predictors_computed"`
	PredictorsCacheHits int64 `json:"predictors_cache_hits"`
	// Write-endpoint auth: requests rejected with 401 (only ever
	// non-zero when the server was configured with API keys).
	AuthRejected int64 `json:"auth_rejected"`
	// Shard-merge traffic on POST /v1/merge: segments folded in and the
	// total runs their counter snapshots carried.
	MergesAccepted int64 `json:"merges_accepted"`
	MergedRuns     int64 `json:"merged_runs"`
	// Closed-loop sampling plan state: the current plan version, how
	// many new versions this server published (locally re-planned or
	// accepted via POST /v1/plan push), /v1/plan fetch traffic, and how
	// many sites the current plan boosts to rate 1.
	PlanVersion      uint64 `json:"plan_version"`
	Replans          int64  `json:"replans"`
	PlanPushes       int64  `json:"plan_pushes"`
	PlanFetches      int64  `json:"plan_fetches"`
	PlanNotModified  int64  `json:"plan_not_modified"`
	PlanBoostedSites int    `json:"plan_boosted_sites"`
	// Report-batch plan attribution (X-CBI-Plan-Version): batches
	// produced under the currently served plan vs. an older one — the
	// operator's view of how far rate changes have propagated.
	PlanBatchesCurrent int64 `json:"plan_batches_current"`
	PlanBatchesStale   int64 `json:"plan_batches_stale"`
	// Live API-key rotations applied via SetAPIKeys (SIGHUP reload).
	APIKeyReloads int64 `json:"api_key_reloads"`
	// Write-ahead log state: records appended since startup, records
	// re-applied by boot replay, torn tails truncated, segments pruned
	// after a covering checkpoint, and the log's current on-disk
	// footprint. All zero when the WAL is disabled.
	WALAppends     int64 `json:"wal_appends"`
	WALReplayed    int64 `json:"wal_replayed"`
	WALTornTails   int64 `json:"wal_torn_tails"`
	WALTruncations int64 `json:"wal_truncations"`
	WALBytes       int64 `json:"wal_bytes"`
	WALSegments    int   `json:"wal_segments"`
	// Incremental snapshot serving: GET /v1/snapshot?since= requests
	// seen, and how many were answered with a delta segment instead of a
	// full state export.
	DeltaRequests int64 `json:"delta_requests"`
	DeltaServed   int64 `json:"delta_served"`
	// POST /v1/revoke traffic: batches whose retained runs were removed
	// and the total runs removed (the failover double-count repair path).
	RevokedBatches int64 `json:"revoked_batches"`
	RevokedRuns    int64 `json:"revoked_runs"`
}

// ScoreEntry is one row of the GET /v1/scores response.
type ScoreEntry struct {
	Pred         int     `json:"pred"`
	Importance   float64 `json:"importance"`
	ImportanceCI float64 `json:"importance_ci"`
	Increase     float64 `json:"increase"`
	IncreaseCI   float64 `json:"increase_ci"`
	Failure      float64 `json:"failure"`
	Context      float64 `json:"context"`
	F            int     `json:"f"`
	S            int     `json:"s"`
	Fobs         int     `json:"fobs"`
	Sobs         int     `json:"sobs"`
}

// Server ingests feedback-report batches and serves live rankings.
type Server struct {
	cfg Config
	agg *shardedAgg

	// apiKeys holds the live write-endpoint key set; SetAPIKeys swaps it
	// without a restart (SIGHUP rotation).
	apiKeys atomic.Pointer[[]string]

	// limiter rate-limits write endpoints per key (nil = no limiting).
	limiter *ratelimit.PerKey

	// planStore serves GET /v1/plan; planner computes successors from
	// the live aggregate (driven by planLoop or Replan).
	planStore *plan.Store
	planner   *plan.Planner
	// planMu serializes publication sources (local re-plans and POST
	// /v1/plan pushes) with their sidecar persistence.
	planMu sync.Mutex

	queue chan *ingestBatch
	// sem is the ingest admission semaphore (capacity == cap(queue)): a
	// handler acquires a slot *before* the WAL append so a batch is never
	// made durable and then shed with 429, and the subsequent queue send
	// can never block. Workers release the slot on dequeue.
	sem chan struct{}

	// acceptMu guards accepting and orders handler enqueues before the
	// queue close during drain.
	acceptMu  sync.RWMutex
	accepting bool

	// Write-ahead log state. walMu serializes sequence assignment,
	// appends, rotation, and pruning; seqs tracks which sequences the
	// aggregate has absorbed (watermark + out-of-order islands) so replay
	// and checkpoints agree on coverage.
	walMu     sync.Mutex
	wal       *corpus.WAL  // current segment; nil when the WAL is disabled
	walIndex  uint64       // current segment index
	walSeq    uint64       // last assigned sequence number
	walPrev   []walSegment // closed segments not yet covered by a checkpoint
	walBroken bool         // an un-repairable append failure poisoned the log
	seqs      seqTracker

	// ckptMu serializes checkpoints (capture → write → rename → prune);
	// see SnapshotNow.
	ckptMu sync.Mutex

	workers sync.WaitGroup
	bg      sync.WaitGroup
	die     chan struct{} // closed by Close (hard kill)
	stopped sync.Once

	// Operational counters live in the metrics registry; /v1/stats and
	// /metrics read the same objects, so the two views cannot disagree.
	metrics *obs.Registry
	handler http.Handler

	query *query // /v1/scores, /v1/predictors, /v1/compare (query.go)

	batchesAccepted *obs.Counter
	batchesRejected *obs.Counter
	batchesDeduped  *obs.Counter
	reportsEnqueued *obs.Counter
	reportsApplied  *obs.Counter
	snapshots       *obs.Counter
	authRejected    *obs.Counter
	mergesAccepted  *obs.Counter
	mergedRuns      *obs.Counter
	runlogSweeps    *obs.Counter
	snapshotSeconds *obs.Histogram

	replans            *obs.Counter
	planPushes         *obs.Counter
	planFetches        *obs.Counter
	planNotModified    *obs.Counter
	planBatchesCurrent *obs.Counter
	planBatchesStale   *obs.Counter
	apiKeyReloads      *obs.Counter

	walAppends     *obs.Counter
	walReplayed    *obs.Counter
	walTornTails   *obs.Counter
	walTruncations *obs.Counter
	deltaRequests  *obs.Counter
	deltaServed    *obs.Counter
	revokedBatches *obs.Counter
	revokedRuns    *obs.Counter
	rateLimited    *obs.Counter

	// Migration (elastic resharding) instrumentation: chunks, runs, and
	// bytes exported via /v1/export; runs evicted after handoff via
	// /v1/evict; residual handoffs committed via /v1/residual; and the
	// matching-runs-still-pending gauge the last export observed (the
	// operator's migration-lag signal).
	exportChunks    *obs.Counter
	exportRuns      *obs.Counter
	exportBytes     *obs.Counter
	migrateEvicted  *obs.Counter
	residualCommits *obs.Counter
	exportPending   *obs.Gauge

	// arena recycles binary-batch decode buffers across /v1/reports
	// requests; a batch's lease is released after the apply workers fold
	// it in.
	arena report.Arena

	// Recently enqueued client batch ids (X-CBI-Batch-ID), so a retry
	// of a batch whose ack was lost in transit is not ingested twice.
	// The value, once the batch has applied, is its runs' encoded
	// run-log records (nil before apply or after a revoke) — what POST
	// /v1/revoke uses to surgically remove a batch that a failover
	// re-routed to another shard.
	dedupMu   sync.Mutex
	dedupSeen map[string][][]byte
	dedupFIFO []string

	srvMu   sync.Mutex
	httpSrv *http.Server
}

// New builds a server, restoring state from cfg.SnapshotPath when a
// snapshot exists, and starts its apply workers.
func New(cfg Config) (*Server, error) {
	if cfg.NumSites < 0 || cfg.NumPreds <= 0 {
		return nil, fmt.Errorf("collector: bad dimensions %d sites, %d preds", cfg.NumSites, cfg.NumPreds)
	}
	if len(cfg.SiteOf) != cfg.NumPreds {
		return nil, fmt.Errorf("collector: SiteOf has %d entries, want %d", len(cfg.SiteOf), cfg.NumPreds)
	}
	for p, s := range cfg.SiteOf {
		if s < 0 || int(s) >= cfg.NumSites {
			return nil, fmt.Errorf("collector: SiteOf[%d] = %d out of range", p, s)
		}
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.RunLogSize == 0 {
		cfg.RunLogSize = defaultRunLogCap
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.PlanTarget <= 0 {
		cfg.PlanTarget = sampling.DefaultTargetSamples
	}
	if cfg.PlanMinRate <= 0 {
		cfg.PlanMinRate = sampling.DefaultRate
	}
	if cfg.PlanMinRuns <= 0 {
		cfg.PlanMinRuns = plan.DefaultMinRuns
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.WALPath != "" && cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("collector: WALPath requires SnapshotPath (checkpoints anchor WAL replay)")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 30 * time.Second
	}

	s := &Server{
		cfg:       cfg,
		agg:       newShardedAgg(cfg.NumSites, cfg.NumPreds, cfg.Shards, cfg.RunLogSize, cfg.RunLogMaxBytes, cfg.RunLogMaxAge, cfg.nowFn),
		queue:     make(chan *ingestBatch, cfg.QueueSize),
		sem:       make(chan struct{}, cfg.QueueSize),
		accepting: true,
		die:       make(chan struct{}),
		dedupSeen: make(map[string][][]byte),
	}
	if cfg.RunLogSize > 0 && cfg.DeltaHistory >= 0 {
		// Per-boot epoch: a restarted collector's version counter resets,
		// so versions are only comparable within one epoch. Random and
		// nonzero so no two boots (or two shards) ever collide.
		s.agg.enableDeltaHistory(cfg.DeltaHistory, maxDeltaHistBytes, newEpoch())
	}
	keys := append([]string(nil), cfg.APIKeys...)
	s.apiKeys.Store(&keys)
	s.limiter = ratelimit.New(cfg.RateLimit, cfg.RateBurst)
	s.planStore = plan.NewStore(plan.Bootstrap(cfg.NumSites, cfg.Fingerprint, cfg.PlanTarget, cfg.PlanMinRate))
	s.planner = plan.NewPlanner(s.planStore, plan.PlannerConfig{
		Source:      s.planInput,
		Target:      cfg.PlanTarget,
		MinRate:     cfg.PlanMinRate,
		MinRuns:     cfg.PlanMinRuns,
		BoostRadius: cfg.PlanBoostRadius,
		Fingerprint: cfg.Fingerprint,
		SourceName:  "collector",
		Now:         cfg.nowFn,
	})
	s.initMetrics()
	s.initRoutes()

	if cfg.SnapshotPath != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.applyLoop()
	}
	if cfg.SnapshotPath != "" {
		s.bg.Add(1)
		go s.snapshotLoop()
	}
	if cfg.RunLogMaxAge > 0 && cfg.RunLogSize > 0 {
		s.bg.Add(1)
		go s.sweepLoop()
	}
	if cfg.PlanEvery > 0 {
		s.bg.Add(1)
		go s.planLoop()
	}
	return s, nil
}

// initMetrics registers every collector metric (documented in
// METRICS.md) on the configured registry. Counters on the ingest hot
// path are registry objects directly — one atomic add, no extra
// bookkeeping — and instantaneous state (queue depth, retained window)
// is read from the aggregate at scrape time, so /metrics, /v1/stats,
// and the actual server state are always the same numbers.
func (s *Server) initMetrics() {
	m := s.cfg.Metrics
	if m == nil {
		m = obs.NewRegistry()
		s.cfg.Metrics = m
	}
	s.metrics = m

	s.batchesAccepted = m.Counter("cbi_collector_batches_accepted_total",
		"Report batches accepted onto the ingest queue (202).")
	s.batchesRejected = m.Counter("cbi_collector_batches_rejected_total",
		"Report batches shed with 429 because the ingest queue was full.")
	s.batchesDeduped = m.Counter("cbi_collector_batches_deduped_total",
		"Retried batches recognized by X-CBI-Batch-ID and acked without re-ingesting.")
	s.reportsEnqueued = m.Counter("cbi_collector_reports_enqueued_total",
		"Individual run reports enqueued for aggregation.")
	s.reportsApplied = m.Counter("cbi_collector_reports_applied_total",
		"Individual run reports folded into the aggregate counters.")
	s.snapshots = m.Counter("cbi_collector_snapshots_total",
		"Checkpoints persisted to disk.")
	s.authRejected = m.Counter("cbi_collector_auth_rejected_total",
		"Write requests rejected with 401 (missing or invalid API key).")
	s.mergesAccepted = m.Counter("cbi_collector_merges_accepted_total",
		"Peer merge segments folded in via POST /v1/merge.")
	s.mergedRuns = m.Counter("cbi_collector_merged_runs_total",
		"Runs carried by accepted merge segments' counter snapshots.")
	s.runlogSweeps = m.Counter("cbi_collector_runlog_age_sweeps_total",
		"Background age-retention sweeps over the run log.")
	s.replans = m.Counter("cbi_collector_replans_total",
		"Sampling plans published by the local closed-loop planner.")
	s.planPushes = m.Counter("cbi_collector_plan_pushes_total",
		"Newer sampling plans accepted via POST /v1/plan (gateway pushes).")
	s.planFetches = m.Counter("cbi_collector_plan_fetches_total",
		"GET /v1/plan responses that carried a full plan body.")
	s.planNotModified = m.Counter("cbi_collector_plan_not_modified_total",
		"GET /v1/plan polls answered 304 (client already current).")
	s.planBatchesCurrent = m.Counter("cbi_collector_plan_batches_current_total",
		"Accepted report batches stamped with the currently served plan version.")
	s.planBatchesStale = m.Counter("cbi_collector_plan_batches_stale_total",
		"Accepted report batches stamped with an older plan version (rates still propagating).")
	s.apiKeyReloads = m.Counter("cbi_collector_api_key_reloads_total",
		"Live API-key set swaps applied via SetAPIKeys (SIGHUP rotation).")
	s.walAppends = m.Counter("cbi_collector_wal_appends_total",
		"Batch, merge, and revoke records appended to the write-ahead log.")
	s.walReplayed = m.Counter("cbi_collector_wal_replayed_total",
		"WAL records re-applied during boot replay (not covered by the checkpoint).")
	s.walTornTails = m.Counter("cbi_collector_wal_torn_tails_total",
		"Torn WAL tails truncated at boot (partial final record from a crash).")
	s.walTruncations = m.Counter("cbi_collector_wal_truncations_total",
		"WAL segments truncated or deleted after a covering checkpoint.")
	s.deltaRequests = m.Counter("cbi_collector_delta_requests_total",
		"GET /v1/snapshot requests that asked for an incremental delta (since=).")
	s.deltaServed = m.Counter("cbi_collector_delta_served_total",
		"Snapshot requests answered with a delta segment instead of a full export.")
	s.revokedBatches = m.Counter("cbi_collector_revoked_batches_total",
		"Batches whose retained runs were removed via POST /v1/revoke.")
	s.revokedRuns = m.Counter("cbi_collector_revoked_runs_total",
		"Individual runs removed (and un-counted) via POST /v1/revoke.")
	s.rateLimited = m.Counter("cbi_auth_rate_limited_total",
		"Write requests shed with 429 by the per-key rate limiter.")
	s.exportChunks = m.Counter("cbi_collector_export_chunks_total",
		"Migration chunks served via POST /v1/export.")
	s.exportRuns = m.Counter("cbi_collector_export_runs_total",
		"Retained runs exported in migration chunks.")
	s.exportBytes = m.Counter("cbi_collector_export_bytes_total",
		"Compressed bytes of migration chunks served via POST /v1/export.")
	s.migrateEvicted = m.Counter("cbi_collector_migrate_evicted_runs_total",
		"Runs removed (and un-counted) after a migration handoff via POST /v1/evict.")
	s.residualCommits = m.Counter("cbi_collector_residual_commits_total",
		"Drain residual subtractions committed via POST /v1/residual.")
	s.exportPending = m.Gauge("cbi_collector_export_pending_runs",
		"Matching runs still awaiting export past the watermark, as of the last /v1/export — the migration-lag signal.")
	s.snapshotSeconds = m.Histogram("cbi_collector_snapshot_write_seconds",
		"Wall time to persist one checkpoint, in seconds.", nil)

	m.GaugeFunc("cbi_collector_queue_depth",
		"Report batches waiting on the ingest queue.",
		func() float64 { return float64(len(s.queue)) })
	m.GaugeFunc("cbi_collector_queue_capacity",
		"Ingest queue bound in batches; 429s begin when depth reaches it.",
		func() float64 { return float64(cap(s.queue)) })
	m.GaugeFunc("cbi_collector_runs_failing",
		"Failing runs in the retained window (falls on eviction).",
		func() float64 { f, _ := s.agg.Runs(); return float64(f) })
	m.GaugeFunc("cbi_collector_runs_successful",
		"Successful runs in the retained window (falls on eviction).",
		func() float64 { _, ns := s.agg.Runs(); return float64(ns) })
	m.GaugeFunc("cbi_collector_runlog_runs",
		"Runs currently retained in the run-level membership log.",
		func() float64 { return float64(s.agg.LogStats().retained) })
	m.GaugeFunc("cbi_collector_runlog_cap",
		"Run-log retention cap in runs (0 when retention is disabled).",
		func() float64 { return float64(s.agg.LogStats().capRuns) })
	m.CounterFunc("cbi_collector_runlog_evicted_total",
		"Runs evicted (and un-counted) by the count, age, or byte retention cap.",
		func() float64 { return float64(s.agg.LogStats().evicted) })
	m.GaugeFunc("cbi_collector_runlog_bytes",
		"Encoded bytes currently retained in the run-level membership log.",
		func() float64 { return float64(s.agg.LogStats().bytes) })
	m.GaugeFunc("cbi_collector_runlog_max_bytes",
		"Run-log retention cap in encoded bytes (0 when no byte cap is set).",
		func() float64 { return float64(s.agg.LogStats().maxBytes) })
	m.GaugeFunc("cbi_runlog_interned_vectors",
		"Distinct interned membership vectors behind the retained runs (runlog_runs minus this is the dedup win).",
		func() float64 { return float64(s.agg.LogStats().interned) })
	m.GaugeFunc("cbi_collector_arena_leases_active",
		"Arena-decoded report batches currently leased (decoded but not yet folded in).",
		func() float64 { return float64(s.arena.Stats().ActiveLeases) })
	m.CounterFunc("cbi_collector_arena_decodes_total",
		"Binary report batches decoded through the pooled arena.",
		func() float64 { return float64(s.arena.Stats().Decodes) })
	m.CounterFunc("cbi_collector_arena_pool_misses_total",
		"Arena decodes that built a fresh workspace instead of reusing a pooled one.",
		func() float64 { return float64(s.arena.Stats().PoolMisses) })
	m.GaugeFunc("cbi_collector_wal_bytes",
		"On-disk bytes across all live write-ahead-log segments (0 when disabled).",
		func() float64 { b, _ := s.walUsage(); return float64(b) })
	m.GaugeFunc("cbi_collector_wal_segments",
		"Live write-ahead-log segment files (0 when the WAL is disabled).",
		func() float64 { _, n := s.walUsage(); return float64(n) })
	m.GaugeFunc("cbi_collector_plan_version",
		"Version of the sampling plan currently served at /v1/plan.",
		func() float64 { return float64(s.planStore.Version()) })
	m.GaugeFunc("cbi_collector_plan_boosted_sites",
		"Sites boosted to rate 1 by the current plan's targeted-deployment hook.",
		func() float64 {
			if p := s.planStore.Current(); p != nil {
				return float64(len(p.Boosts))
			}
			return 0
		})
}

// initRoutes builds the HTTP API: the collector's own endpoints plus the
// shared read endpoints (query.go) over the live aggregate.
func (s *Server) initRoutes() {
	m := s.metrics
	rt := obs.NewRoutes(obs.HTTPConfig{Registry: m, SlowRequest: s.cfg.SlowRequest, Logf: s.cfg.Logf})
	rt.HandleFunc("/v1/reports", s.handleReports)
	rt.HandleFunc("/v1/merge", s.handleMerge)
	rt.HandleFunc("/v1/revoke", s.handleRevoke)
	rt.HandleFunc("/v1/export", s.handleExport)
	rt.HandleFunc("/v1/evict", s.handleEvict)
	rt.HandleFunc("/v1/residual", s.handleResidual)
	rt.HandleFunc("/v1/snapshot", s.handleSnapshot)
	rt.HandleFunc("/v1/stats", s.handleStats)
	rt.HandleFunc("/v1/plan", s.handlePlan)
	rt.HandleFunc("/healthz", s.handleHealthz)
	s.query = mountQuery(rt, m, serverSource{s})
	s.handler = rt.Handler(s.cfg.EnablePprof)
	m.CounterFunc("cbi_collector_predictors_computed_total",
		"Rankings computed for /v1/predictors (cache misses, all engines).",
		func() float64 { return float64(s.query.computed.Load()) })
	m.CounterFunc("cbi_collector_predictors_cache_hits_total",
		"/v1/predictors polls served from the version-keyed cache.",
		func() float64 { return float64(s.query.hits.Load()) })
}

// sweepLoop periodically evicts runs older than the age cap, so the
// retained window shrinks on schedule even when no reports arrive.
func (s *Server) sweepLoop() {
	defer s.bg.Done()
	period := s.cfg.RunLogMaxAge / 10
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.die:
			return
		case <-t.C:
			s.agg.EvictExpired()
			s.runlogSweeps.Inc()
		}
	}
}

// planLoop periodically re-plans sampling rates from the live
// aggregate, publishing (and persisting) a new plan version whenever
// the rates actually change.
func (s *Server) planLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.PlanEvery)
	defer t.Stop()
	for {
		select {
		case <-s.die:
			return
		case <-t.C:
			s.Replan()
		}
	}
}

// planInput captures the planner's view of the aggregate: per-site
// observed-run counts, the window size, and (when boosting is on) the
// site of the current top predictor.
func (s *Server) planInput() plan.Input {
	observed, runs := s.agg.SiteObservedRuns()
	in := plan.Input{Observed: observed, Runs: runs, TopSite: -1}
	if s.cfg.PlanBoostRadius > 0 {
		in.TopSite = TopSite(s.agg.ToAgg(s.cfg.SiteOf), s.cfg.SiteOf)
	}
	return in
}

// Replan runs one planning pass over the live aggregate, publishing a
// new plan version if the window is large enough and the rates changed.
// It returns the plan now being served and whether a new version was
// published. The periodic loop (Config.PlanEvery) calls this; tests and
// operators can drive it directly.
func (s *Server) Replan() (*plan.Plan, bool) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	p, published := s.planner.Replan()
	if published {
		s.replans.Add(1)
		s.persistPlanLocked(p)
		s.cfg.Logf("collector: published sampling plan v%d (%d runs, %d boosted sites)",
			p.Version, p.Runs, len(p.Boosts))
	}
	return p, published
}

// persistPlanLocked writes the current plan's sidecar file (best
// effort; the plan is already live). Callers hold planMu.
func (s *Server) persistPlanLocked(p *plan.Plan) {
	if s.cfg.SnapshotPath == "" {
		return
	}
	if err := plan.WriteFile(plan.Path(s.cfg.SnapshotPath), p); err != nil {
		s.cfg.Logf("collector: persisting sampling plan v%d: %v", p.Version, err)
	}
}

// Plan returns the sampling plan currently served at GET /v1/plan.
func (s *Server) Plan() *plan.Plan { return s.planStore.Current() }

// SetAPIKeys swaps the write-endpoint API-key set live — the SIGHUP
// rotation path. An empty set disables auth (matching Config.APIKeys
// semantics). In-flight requests finish against whichever set they
// loaded; new requests see the new set.
func (s *Server) SetAPIKeys(keys []string) {
	cp := append([]string(nil), keys...)
	s.apiKeys.Store(&cp)
	s.apiKeyReloads.Add(1)
	s.cfg.Logf("collector: API key set reloaded (%d keys)", len(cp))
}

// restore loads the checkpoint at cfg.SnapshotPath — counters and
// window were written atomically in one file, so they can only disagree
// if retention caps shrank across the restart — and then, when the WAL
// is enabled, replays every WAL record the checkpoint does not cover.
func (s *Server) restore() error {
	cfg := s.cfg
	snap, recs, keys, err := corpus.ReadCheckpointFile(cfg.SnapshotPath)
	if err != nil {
		return fmt.Errorf("collector: loading checkpoint: %v", err)
	}
	if snap != nil {
		if snap.NumSites != cfg.NumSites || snap.NumPreds != cfg.NumPreds {
			return fmt.Errorf("collector: snapshot dimensions %dx%d do not match server %dx%d",
				snap.NumSites, snap.NumPreds, cfg.NumSites, cfg.NumPreds)
		}
		if cfg.Fingerprint != 0 && snap.Fingerprint != 0 && snap.Fingerprint != cfg.Fingerprint {
			return fmt.Errorf("collector: snapshot fingerprint %d does not match plan %d",
				snap.Fingerprint, cfg.Fingerprint)
		}
		s.agg.Restore(snap)
		s.seqs.restoreState(snap.WALSeq, snap.WALIslands)
		// The window is adopted as the file's record bytes: the counters
		// came with it, so nothing is folded unless the caps trimmed it.
		if cfg.RunLogSize > 0 && len(recs) > 0 {
			if retained := s.agg.RestoreLog(recs, keys); retained != len(recs) {
				cfg.Logf("collector: retention caps trimmed the checkpoint window (%d runs checkpointed, %d retained); recounting",
					len(recs), retained)
				s.agg.RecountFromLog()
			}
		}
	}

	if cfg.WALPath != "" {
		if err := s.replayWAL(); err != nil {
			return err
		}
	}

	// The sampling plan persists beside the snapshot; restoring it keeps
	// the fleet's rates (and the version clients resume polling from)
	// across a restart. A missing sidecar just leaves the bootstrap plan.
	p, err := plan.ReadFile(plan.Path(cfg.SnapshotPath), cfg.NumSites)
	if err != nil {
		return fmt.Errorf("collector: loading sampling plan: %v", err)
	}
	if p != nil {
		if cfg.Fingerprint != 0 && p.Fingerprint != 0 && p.Fingerprint != cfg.Fingerprint {
			return fmt.Errorf("collector: sampling plan fingerprint %d does not match plan %d",
				p.Fingerprint, cfg.Fingerprint)
		}
		s.planStore.Publish(p)
		cfg.Logf("collector: restored sampling plan v%d", p.Version)
	}

	numF, numS := s.agg.Runs()
	restored := numF + numS
	if restored > 0 || snap != nil {
		s.reportsEnqueued.Store(restored)
		s.reportsApplied.Store(restored)
		s.cfg.Logf("collector: restored snapshot %s (%d runs)", cfg.SnapshotPath, restored)
	}
	return nil
}

func (s *Server) applyLoop() {
	defer s.workers.Done()
	for {
		select {
		case <-s.die:
			return
		case b, ok := <-s.queue:
			if !ok {
				return
			}
			// Release the admission slot taken by the handler: the batch
			// has left the queue, so a new one may enter. Every queued
			// batch holds exactly one slot, so this never blocks.
			<-s.sem
			// Hooks run before the aggregate lock is touched — test hooks
			// may block on channels.
			if s.cfg.applyHook != nil {
				for _, r := range b.reports {
					s.cfg.applyHook(r)
				}
			}
			s.agg.ApplyBatch(b.reports, b.recs, b.key, func(recs [][]byte) {
				s.seqs.markApplied(b.seq)
				if b.id != "" {
					s.storeBatchRecs(b.id, recs)
				}
			})
			s.reportsApplied.Add(int64(len(b.reports)))
			// Nothing downstream retains the decoded reports — the log
			// holds interned record bytes, revoke state holds recs — so
			// the arena buffers can recycle.
			b.lease.Release()
		}
	}
}

func (s *Server) snapshotLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.die:
			return
		case <-t.C:
			if err := s.SnapshotNow(); err != nil {
				s.cfg.Logf("collector: periodic checkpoint: %v", err)
			}
		}
	}
}

// Ingest folds one report into the live aggregate synchronously,
// bypassing the HTTP path and queue — for in-process feeding (a harness
// and collector sharing a process) and ingestion benchmarks. Safe for
// concurrent use with itself and with HTTP ingestion.
func (s *Server) Ingest(r *report.Report) {
	s.reportsEnqueued.Add(1)
	reports := []*report.Report{r}
	s.agg.ApplyBatch(reports, report.EncodeRecords(reports), corpus.NoKey, nil)
	s.reportsApplied.Add(1)
}

// SnapshotNow checkpoints the current aggregate to cfg.SnapshotPath:
// counters, window, routing keys, and the WAL coverage watermark are
// captured under one aggregate hold and land in a single atomically
// renamed file, after which the WAL segments the checkpoint covers (if
// there is a WAL) are pruned. ckptMu is held from capture through
// prune: were two checkpoints to overlap, the later capture could
// rename and prune first and the earlier one then overwrite it with a
// watermark whose log is already gone.
func (s *Server) SnapshotNow() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("collector: no snapshot path configured")
	}
	hook := s.cfg.checkpointHook
	if hook == nil {
		hook = func(string) {}
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()
	defer func() { s.snapshotSeconds.ObserveDuration(time.Since(start)) }()
	hook("begin")
	snap, recs, keys, _, _ := s.agg.SnapshotState(s.cfg.Fingerprint, func(sn *corpus.AggSnapshot) {
		sn.WALSeq, sn.WALIslands = s.seqs.capture()
	})
	hook("captured")
	// The retained records are already canonical wire encodings, so the
	// checkpoint streams them directly — no decode → re-encode.
	if err := corpus.WriteCheckpointFileRecords(s.cfg.SnapshotPath, snap, s.cfg.NumSites, s.cfg.NumPreds, recs, keys); err != nil {
		return err
	}
	s.snapshots.Add(1)
	hook("committed")
	s.pruneWAL(snap.WALSeq)
	hook("done")
	s.cfg.Logf("collector: checkpoint %s (%d runs, %d logged, WAL covered through %d)",
		s.cfg.SnapshotPath, snap.NumF+snap.NumS, len(recs), snap.WALSeq)
	return nil
}

// dedupWindow bounds how many recent batch ids the server remembers.
// It only needs to cover ids still inside some client's retry loop, so
// a small FIFO window suffices.
const dedupWindow = 8192

// rememberBatch records a client batch id and reports whether it was
// already seen — i.e. this POST is a retry of a batch the server
// enqueued but whose ack was lost. Old ids age out FIFO.
func (s *Server) rememberBatch(id string) (dup bool) {
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if _, ok := s.dedupSeen[id]; ok {
		return true
	}
	s.dedupSeen[id] = nil
	s.dedupFIFO = append(s.dedupFIFO, id)
	if len(s.dedupFIFO) > dedupWindow {
		delete(s.dedupSeen, s.dedupFIFO[0])
		s.dedupFIFO = s.dedupFIFO[1:]
	}
	return false
}

// storeBatchRecs attaches a just-applied batch's encoded run records to
// its remembered id, making the batch revocable (POST /v1/revoke). A
// no-op if the id has already aged out of the dedup window.
func (s *Server) storeBatchRecs(id string, recs [][]byte) {
	s.dedupMu.Lock()
	if _, ok := s.dedupSeen[id]; ok {
		s.dedupSeen[id] = recs
	}
	s.dedupMu.Unlock()
}

// takeBatchRecs detaches and returns a batch's stored run records (nil
// if unknown or already revoked). It only touches dedupMu — callers
// remove the runs from the aggregate afterwards, never while holding
// it, so the worker's aggregate-then-dedup lock order can't deadlock.
func (s *Server) takeBatchRecs(id string) [][]byte {
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	recs := s.dedupSeen[id]
	if recs != nil {
		s.dedupSeen[id] = nil
	}
	return recs
}

// forgetBatch drops an id recorded by rememberBatch when the batch was
// not actually enqueued (queue full, draining), so the client's retry
// is not mistaken for a duplicate.
func (s *Server) forgetBatch(id string) {
	s.dedupMu.Lock()
	delete(s.dedupSeen, id)
	s.dedupMu.Unlock()
}

// Handler returns the server's HTTP API behind the per-endpoint metrics
// middleware. /metrics serves the same registry /v1/stats reads;
// /debug/pprof/ appears only when cfg.EnablePprof is set.
func (s *Server) Handler() http.Handler { return s.handler }

// CheckBearer enforces API-key auth on one request: when keys is
// non-empty, r must present "Authorization: Bearer <key>" for one of
// them. The scheme matches in any case (RFC 7235); every key is compared
// on every request, in constant time, so response timing leaks neither
// key contents nor which key matched. On rejection it writes the 401,
// with WWW-Authenticate, itself and returns false.
func CheckBearer(w http.ResponseWriter, r *http.Request, keys []string) bool {
	if len(keys) == 0 {
		return true
	}
	const scheme = "Bearer "
	auth := r.Header.Get("Authorization")
	presented := ""
	if len(auth) > len(scheme) && strings.EqualFold(auth[:len(scheme)], scheme) {
		presented = auth[len(scheme):]
	}
	ok := false
	for _, key := range keys {
		// No early exit: match position must not be observable either.
		if subtle.ConstantTimeCompare([]byte(presented), []byte(key)) == 1 {
			ok = true
		}
	}
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="cbi"`)
		http.Error(w, "missing or invalid API key", http.StatusUnauthorized)
	}
	return ok
}

// writeGate admits one request to a rate-limited write endpoint:
// API-key auth, then the per-key token bucket (no-op when
// Config.RateLimit is unset). Either refusal is written and counted.
func (s *Server) writeGate(w http.ResponseWriter, r *http.Request) bool {
	if !s.authorize(w, r) {
		return false
	}
	if !s.limiter.AllowRequest(w, r) {
		s.rateLimited.Add(1)
		return false
	}
	return true
}

// authorize enforces API-key auth on a write endpoint against the live
// key set, counting rejections.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	ok := CheckBearer(w, r, *s.apiKeys.Load())
	if !ok {
		s.authRejected.Add(1)
	}
	return ok
}

// batchKey derives the routing-key hash a batch's runs are stamped
// with. A shard router forwards the hash it placed the batch by
// (X-CBI-Routing-Key); a direct client is keyed exactly as the router
// would key it — client id first, then batch id — so records land in
// the same ring ranges either way. Unkeyed batches get corpus.NoKey
// and are only ever moved by a full drain.
func batchKey(r *http.Request, batchID string) uint64 {
	if v := r.Header.Get("X-CBI-Routing-Key"); v != "" {
		if h, err := strconv.ParseUint(v, 10, 64); err == nil {
			return h
		}
	}
	if cid := r.Header.Get("X-CBI-Client-ID"); cid != "" {
		return corpus.KeyHash(cid)
	}
	if batchID != "" {
		return corpus.KeyHash(batchID)
	}
	return corpus.NoKey
}

// maxBatchBytes bounds one POST body (decompressed input is further
// bounded by the codec's own validation).
const maxBatchBytes = 64 << 20

// postBodyReader wraps a write-endpoint request body: size-bounded,
// transparently gunzipped per Content-Encoding. On a bad gzip header it
// writes the 400 itself and returns ok=false. closer, when non-nil, is
// a pooled gzip reader: the caller must close it on every path, and
// only once nothing reads from reader any more.
func (s *Server) postBodyReader(w http.ResponseWriter, r *http.Request) (reader *bufio.Reader, closer io.Closer, ok bool) {
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
	reader = bufio.NewReader(body)
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := report.Gunzip(reader)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad gzip body: %v", err), http.StatusBadRequest)
			return nil, nil, false
		}
		// Bound the decompressed size too, so a gzip bomb cannot smuggle
		// an oversized batch past MaxBytesReader; a truncated stream
		// fails decoding with 400.
		return bufio.NewReader(io.LimitReader(gz, maxBatchBytes)), gz, true
	}
	return reader, nil, true
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.writeGate(w, r) {
		return
	}
	reader, closer, ok := s.postBodyReader(w, r)
	if !ok {
		return
	}
	if closer != nil {
		defer closer.Close()
	}
	// The wire format is the binary one only (anything else fails the
	// decoder's magic check). Batches decode through the pooled arena; the
	// lease travels with the batch and is released once the apply workers
	// have folded it in. Every pre-enqueue exit must release it instead.
	set, lease, err := s.arena.Decode(reader)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
		return
	}
	if set.NumSites != s.cfg.NumSites || set.NumPreds != s.cfg.NumPreds {
		http.Error(w, fmt.Sprintf("batch dimensions %dx%d do not match collector %dx%d",
			set.NumSites, set.NumPreds, s.cfg.NumSites, s.cfg.NumPreds), http.StatusBadRequest)
		lease.Release()
		return
	}
	if len(set.Reports) == 0 {
		w.WriteHeader(http.StatusOK)
		lease.Release()
		return
	}

	// Delivery is at-least-once: a batch can be enqueued while the ack
	// is lost in transit, and the client then retries it. The batch id
	// makes the retry idempotent — ack it again without re-ingesting.
	batchID := r.Header.Get("X-CBI-Batch-ID")
	if batchID != "" && s.rememberBatch(batchID) {
		s.batchesDeduped.Add(1)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"accepted":%d,"duplicate":true}`+"\n", len(set.Reports))
		lease.Release()
		return
	}

	s.acceptMu.RLock()
	if !s.accepting {
		s.acceptMu.RUnlock()
		if batchID != "" {
			s.forgetBatch(batchID)
		}
		// A draining backend tells clients when to try again, so a
		// shard router's retry can land on whatever replaces it.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "collector is shutting down", http.StatusServiceUnavailable)
		lease.Release()
		return
	}
	// Admission before durability: take a queue slot first, so a batch
	// that would be shed with 429 is never written to the WAL, and a
	// batch that was written is always enqueued and acked.
	select {
	case s.sem <- struct{}{}:
	default:
		s.acceptMu.RUnlock()
		if batchID != "" {
			s.forgetBatch(batchID)
		}
		s.batchesRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		lease.Release()
		return
	}
	// An arena-decoded batch already holds every report's canonical
	// record as a span of the request body; the WAL payload and the run
	// log both take those bytes instead of encoding the reports again.
	b := &ingestBatch{id: batchID, key: batchKey(r, batchID), reports: set.Reports, recs: lease.Records(), lease: lease}
	if s.cfg.WALPath != "" {
		kind := byte(corpus.WALBatch)
		if b.key != corpus.NoKey {
			kind = corpus.WALKeyedBatch
		}
		seq, err := s.walAppend(&corpus.WALRecord{Kind: kind, BatchID: batchID, Key: b.key, Recs: b.recs})
		if err != nil {
			<-s.sem
			s.acceptMu.RUnlock()
			if batchID != "" {
				s.forgetBatch(batchID)
			}
			s.cfg.Logf("collector: WAL append: %v", err)
			http.Error(w, "write-ahead log append failed", http.StatusInternalServerError)
			lease.Release()
			return
		}
		b.seq = seq
	}
	// Capture the batch size before handing the batch off: the apply
	// loop releases the arena lease when it finishes, which severs the
	// decoded Set — reading set.Reports after the enqueue would race
	// with that release.
	accepted := len(set.Reports)
	// Cannot block: we hold an admission slot, and slots are only
	// released when a batch leaves the queue.
	s.queue <- b
	s.acceptMu.RUnlock()
	s.batchesAccepted.Add(1)
	s.reportsEnqueued.Add(int64(accepted))
	// Plan attribution: clients stamp batches with the plan version
	// their sampler ran under, so operators can see how much of the
	// stream is still producing counts under superseded rates.
	if pv := r.Header.Get("X-CBI-Plan-Version"); pv != "" {
		if v, err := strconv.ParseUint(pv, 10, 64); err == nil {
			if v >= s.planStore.Version() {
				s.planBatchesCurrent.Add(1)
			} else {
				s.planBatchesStale.Add(1)
			}
		}
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"accepted":%d}`+"\n", accepted)
}

// handleMerge folds a peer collector's exported state (counter
// snapshot + retained run-log segment, the WriteMergeSegmentRecords
// framing, read to its end)
// into this one. Counters add exactly; the peer's runs join the run
// log without re-counting. Merges are applied synchronously — they are
// rare reducer traffic, not the per-run hot path — and are idempotent
// under lost-ack retries via the same X-CBI-Batch-ID dedup as
// /v1/reports.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.writeGate(w, r) {
		return
	}
	reader, closer, ok := s.postBodyReader(w, r)
	if !ok {
		return
	}
	if closer != nil {
		defer closer.Close()
	}
	snap, recs, keys, err := corpus.ReadMergeSegmentKeyed(reader)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad merge segment: %v", err), http.StatusBadRequest)
		return
	}
	if snap.NumSites != s.cfg.NumSites || snap.NumPreds != s.cfg.NumPreds {
		http.Error(w, fmt.Sprintf("merge dimensions %dx%d do not match collector %dx%d",
			snap.NumSites, snap.NumPreds, s.cfg.NumSites, s.cfg.NumPreds), http.StatusBadRequest)
		return
	}
	if s.cfg.Fingerprint != 0 && snap.Fingerprint != 0 && snap.Fingerprint != s.cfg.Fingerprint {
		http.Error(w, fmt.Sprintf("merge fingerprint %d does not match plan %d",
			snap.Fingerprint, s.cfg.Fingerprint), http.StatusBadRequest)
		return
	}

	batchID := r.Header.Get("X-CBI-Batch-ID")
	if batchID != "" && s.rememberBatch(batchID) {
		s.batchesDeduped.Add(1)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"merged_runs":%d,"duplicate":true}`+"\n", snap.NumF+snap.NumS)
		return
	}

	s.acceptMu.RLock()
	if !s.accepting {
		s.acceptMu.RUnlock()
		if batchID != "" {
			s.forgetBatch(batchID)
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "collector is shutting down", http.StatusServiceUnavailable)
		return
	}
	var seq uint64
	if s.cfg.WALPath != "" {
		var werr error
		seq, werr = s.walAppend(&corpus.WALRecord{Kind: corpus.WALMerge, BatchID: batchID, Snap: snap, Recs: recs, Keys: keys})
		if werr != nil {
			s.acceptMu.RUnlock()
			if batchID != "" {
				s.forgetBatch(batchID)
			}
			s.cfg.Logf("collector: WAL append: %v", werr)
			http.Error(w, "write-ahead log append failed", http.StatusInternalServerError)
			return
		}
	}
	s.agg.MergeSegment(snap, recs, keys, func(joined [][]byte) {
		s.seqs.markApplied(seq)
		if batchID != "" {
			// Stash the joined records so the merge is revocable — the
			// repair path when a migration chunk's source crashes between
			// delivery and its evict confirmation.
			s.storeBatchRecs(batchID, joined)
		}
	})
	s.acceptMu.RUnlock()
	s.mergesAccepted.Add(1)
	s.mergedRuns.Add(snap.NumF + snap.NumS)
	s.cfg.Logf("collector: merged peer segment (%d runs counted, %d logged)",
		snap.NumF+snap.NumS, len(recs))
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"merged_runs":%d,"merged_logged":%d}`+"\n", snap.NumF+snap.NumS, len(recs))
}

// handleSnapshot exports the collector's live state for shard gateways
// and offline reducers (`cbi merge`).
//
// Without `since`, the response is the full state as a gzip'd merge
// segment — counter snapshot plus retained run-log window, captured
// atomically. When delta serving is on, the response carries
// X-CBI-State-Epoch / X-CBI-State-Version headers naming the exact
// state version exported.
//
// With `?since=<epoch>:<version>`, a client that already holds the
// state at that version asks for just the mutations after it. If the
// epoch matches this boot and the version is still inside the retained
// event history, the response is a gzip'd delta segment
// (application/x-cbi-delta+gzip) whose replay advances the client's
// copy bit-for-bit to the version in the response headers; otherwise
// the full export is returned and the client resyncs from it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	if since := r.URL.Query().Get("since"); since != "" && s.agg.DeltaCapable() {
		s.deltaRequests.Add(1)
		if epoch, ver, ok := parseSince(since); ok {
			if events, from, to, ok := s.agg.DeltaSince(epoch, ver); ok {
				seg := &corpus.DeltaSegment{
					NumSites:    s.cfg.NumSites,
					NumPreds:    s.cfg.NumPreds,
					Fingerprint: s.cfg.Fingerprint,
					Epoch:       epoch,
					From:        from,
					To:          to,
					Events:      events,
				}
				w.Header().Set("Content-Type", "application/x-cbi-delta+gzip")
				w.Header().Set("X-CBI-State-Epoch", strconv.FormatUint(epoch, 10))
				w.Header().Set("X-CBI-State-Version", strconv.FormatUint(to, 10))
				err := report.Gzip(w, func(gz io.Writer) error { return corpus.WriteDeltaSegment(gz, seg) })
				if err != nil {
					s.cfg.Logf("collector: delta export: %v", err)
					return
				}
				s.deltaServed.Add(1)
				return
			}
		}
	}
	snap, recs, keys, epoch, ver := s.agg.SnapshotState(s.cfg.Fingerprint, nil)
	w.Header().Set("Content-Type", "application/x-cbi-merge+gzip")
	if s.agg.DeltaCapable() {
		w.Header().Set("X-CBI-State-Epoch", strconv.FormatUint(epoch, 10))
		w.Header().Set("X-CBI-State-Version", strconv.FormatUint(ver, 10))
	}
	err := report.Gzip(w, func(gz io.Writer) error {
		return corpus.WriteMergeSegmentRecords(gz, snap, s.cfg.NumSites, s.cfg.NumPreds, recs, keys)
	})
	if err != nil {
		s.cfg.Logf("collector: snapshot export: %v", err)
	}
}

// parseSince parses the `since` query value: "<epoch>:<version>".
func parseSince(v string) (epoch, ver uint64, ok bool) {
	i := strings.IndexByte(v, ':')
	if i < 0 {
		return 0, 0, false
	}
	epoch, err1 := strconv.ParseUint(v[:i], 10, 64)
	ver, err2 := strconv.ParseUint(v[i+1:], 10, 64)
	return epoch, ver, err1 == nil && err2 == nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	writeJSON(w, s.StatsNow())
}

// StatsNow returns the server's current statistics.
func (s *Server) StatsNow() Stats {
	numF, numS := s.agg.Runs()
	ls := s.agg.LogStats()
	boosted := 0
	if p := s.planStore.Current(); p != nil {
		boosted = len(p.Boosts)
	}
	walBytes, walSegments := s.walUsage()
	return Stats{
		NumSites:            s.cfg.NumSites,
		NumPreds:            s.cfg.NumPreds,
		Fingerprint:         s.cfg.Fingerprint,
		Runs:                numF + numS,
		Failing:             numF,
		Successful:          numS,
		QueueDepth:          len(s.queue),
		BatchesAccepted:     s.batchesAccepted.Value(),
		BatchesRejected:     s.batchesRejected.Value(),
		BatchesDeduped:      s.batchesDeduped.Value(),
		ReportsEnqueued:     s.reportsEnqueued.Value(),
		ReportsApplied:      s.reportsApplied.Value(),
		Snapshots:           s.snapshots.Value(),
		RunLogRuns:          ls.retained,
		RunLogCap:           ls.capRuns,
		RunLogEvicted:       ls.evicted,
		RunLogBytes:         ls.bytes,
		RunLogMaxBytes:      ls.maxBytes,
		PredictorsComputed:  s.query.computed.Load(),
		PredictorsCacheHits: s.query.hits.Load(),
		AuthRejected:        s.authRejected.Value(),
		MergesAccepted:      s.mergesAccepted.Value(),
		MergedRuns:          s.mergedRuns.Value(),
		PlanVersion:         s.planStore.Version(),
		Replans:             s.replans.Value(),
		PlanPushes:          s.planPushes.Value(),
		PlanFetches:         s.planFetches.Value(),
		PlanNotModified:     s.planNotModified.Value(),
		PlanBoostedSites:    boosted,
		PlanBatchesCurrent:  s.planBatchesCurrent.Value(),
		PlanBatchesStale:    s.planBatchesStale.Value(),
		APIKeyReloads:       s.apiKeyReloads.Value(),
		WALAppends:          s.walAppends.Value(),
		WALReplayed:         s.walReplayed.Value(),
		WALTornTails:        s.walTornTails.Value(),
		WALTruncations:      s.walTruncations.Value(),
		WALBytes:            walBytes,
		WALSegments:         walSegments,
		DeltaRequests:       s.deltaRequests.Value(),
		DeltaServed:         s.deltaServed.Value(),
		RevokedBatches:      s.revokedBatches.Value(),
		RevokedRuns:         s.revokedRuns.Value(),
	}
}

// handlePlan serves the current sampling plan (GET, open: clients must
// always be able to learn their rates, even mid key-rotation) and
// accepts newer-version plan pushes (POST, authorized: a fleet gateway
// replacing per-shard plans with the fleet-wide one). GET honors
// `?since=<version>` and If-None-Match with 304, so steady-state
// polling costs no body bytes.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if plan.ServeGet(w, r, s.planStore) {
			s.planNotModified.Add(1)
		} else {
			s.planFetches.Add(1)
		}
	case http.MethodPost:
		if !s.authorize(w, r) {
			return
		}
		p, err := plan.Decode(http.MaxBytesReader(w, r.Body, plan.MaxEncodedBytes), s.cfg.NumSites)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.cfg.Fingerprint != 0 && p.Fingerprint != 0 && p.Fingerprint != s.cfg.Fingerprint {
			http.Error(w, fmt.Sprintf("plan fingerprint %d does not match %d",
				p.Fingerprint, s.cfg.Fingerprint), http.StatusBadRequest)
			return
		}
		s.planMu.Lock()
		accepted := s.planStore.Publish(p)
		if accepted {
			s.planPushes.Add(1)
			s.persistPlanLocked(p)
		}
		s.planMu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if accepted {
			s.cfg.Logf("collector: accepted pushed sampling plan v%d (%s)", p.Version, p.Source)
			w.WriteHeader(http.StatusAccepted)
		}
		fmt.Fprintf(w, `{"accepted":%v,"version":%d}`+"\n", accepted, s.planStore.Version())
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.acceptMu.RLock()
	ok := s.accepting
	s.acceptMu.RUnlock()
	if !ok {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// Serve accepts HTTP connections on l until Shutdown or Close.
func (s *Server) Serve(l net.Listener) error {
	s.srvMu.Lock()
	srv := &http.Server{Handler: s.Handler()}
	s.httpSrv = srv
	s.srvMu.Unlock()
	err := srv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// httpServer returns the HTTP server, if Serve was called.
func (s *Server) httpServer() *http.Server {
	s.srvMu.Lock()
	defer s.srvMu.Unlock()
	return s.httpSrv
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.cfg.Logf("collector: listening on %s", l.Addr())
	return s.Serve(l)
}

// stopAccepting flips the accepting flag; returns true on the first
// call. After it returns, no handler can enqueue to the queue.
func (s *Server) stopAccepting() bool {
	s.acceptMu.Lock()
	defer s.acceptMu.Unlock()
	was := s.accepting
	s.accepting = false
	return was
}

// Shutdown drains gracefully: it stops accepting new batches, waits for
// the queue to empty, persists a final snapshot (when configured), and
// closes the HTTP listener.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.stopAccepting() {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopped.Do(func() { close(s.die) })
	s.bg.Wait()

	var err error
	if s.cfg.SnapshotPath != "" {
		err = s.SnapshotNow()
	}
	s.closeWAL()
	if srv := s.httpServer(); srv != nil {
		if herr := srv.Shutdown(ctx); err == nil {
			err = herr
		}
	}
	s.cfg.Logf("collector: drained and stopped (%d reports applied)", s.reportsApplied.Value())
	return err
}

// closeWAL closes the current WAL segment file; later appends fail.
func (s *Server) closeWAL() {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
}

// Close hard-stops the server without draining the queue or writing a
// final snapshot — the moral equivalent of kill -9, used to test
// restart-from-snapshot behaviour.
func (s *Server) Close() error {
	s.stopAccepting()
	s.stopped.Do(func() { close(s.die) })
	s.workers.Wait()
	s.bg.Wait()
	s.closeWAL()
	if srv := s.httpServer(); srv != nil {
		return srv.Close()
	}
	return nil
}
