package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cbi/internal/collector"
	"cbi/internal/core"
	"cbi/internal/corpus"
	"cbi/internal/obs"
	"cbi/internal/plan"
	"cbi/internal/report"
	"cbi/internal/sampling"
)

// GatewayConfig configures a Gateway.
type GatewayConfig struct {
	// Shards are the collector base URLs, in the same order as the
	// router's Backends. Optional when RingFrom is set.
	Shards []string
	// RingFrom, when set, is a router base URL whose GET /v1/ring the
	// gateway polls for the current shard set — so an elastic resize
	// (backend added or drained) reaches the read path without a
	// gateway restart. Shards, if also set, seeds the list until the
	// first successful poll.
	RingFrom string
	// RingRefresh is the RingFrom polling period (default 5s).
	RingRefresh time.Duration
	// NumSites and NumPreds are the instrumentation-plan dimensions all
	// shards must agree on.
	NumSites, NumPreds int
	// SiteOf maps predicate id → site id; required for /v1/scores and
	// /v1/predictors.
	SiteOf []int32
	// Fingerprint, when nonzero, is enforced against every shard
	// snapshot.
	Fingerprint uint64
	// Timeout bounds one shard fetch during a fan-out (default 15s).
	Timeout time.Duration
	// DisableDeltaSync turns off warm per-shard views: every fan-out
	// re-fetches each shard's full state instead of asking for the
	// mutations since the version the gateway already holds. Mostly a
	// debugging/benchmarking knob — delta sync is semantically invisible
	// (responses are bit-for-bit identical) and much cheaper.
	DisableDeltaSync bool
	// Metrics, when set, is the registry the gateway's metrics register
	// into; nil creates a private one. Served at GET /metrics.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SlowRequest, when positive, logs every HTTP request slower than
	// this threshold.
	SlowRequest time.Duration
	// Logf receives gateway diagnostics (default log.Printf).
	Logf func(format string, args ...any)

	// PlanEvery, when positive, makes the gateway the fleet's planner: it
	// periodically merges every shard's reach counts, re-plans per-site
	// sampling rates from the fleet-wide view, and pushes each published
	// plan to all shards. When zero the gateway is a plan proxy: GET
	// /v1/plan refreshes from the shards and serves the newest version
	// the fleet knows.
	PlanEvery time.Duration
	// PlanTarget and PlanMinRate parameterize sampling.PlanRates
	// (defaults sampling.DefaultTargetSamples, sampling.DefaultRate).
	PlanTarget  float64
	PlanMinRate float64
	// PlanMinRuns gates re-planning until the merged window holds at
	// least this many runs (default plan.DefaultMinRuns).
	PlanMinRuns int64
	// PlanBoostRadius is the half-width of the top-predictor site
	// neighborhood boosted to rate 1; 0 disables boosting.
	PlanBoostRadius int
	// PlanPushKey is the API key presented when pushing plans to shards
	// whose write path requires one.
	PlanPushKey string
}

// Gateway is the read-path of a sharded collector deployment: it is a
// collector.QuerySource over the union of the shards, so /v1/scores,
// /v1/predictors and /v1/compare are the collector's own handlers and
// answer exactly as one unsharded collector would. Counters merge by
// addition (they are sums over disjoint run sets); run windows merge by
// concatenation, and because every core analysis step is
// order-independent with deterministic tie-breaking, the merged output
// is element-for-element identical to single-collector output over the
// same runs.
//
// The gateway holds one warm view per shard (counters + run window as
// of an epoch:version) and every query advances each view by a delta
// pull before answering; rendered /v1/predictors bodies are cached under
// the vector of the views' versions, so a poll that finds no shard
// changed costs the pulls and nothing else. Both are soft state — a
// restarted gateway refills them with one full pull — so it needs no
// recovery story and any number of gateways can front the same shards.
// A shard that fails to answer is skipped and counted in
// degraded_shards; the gateway serves the union of the live shards
// rather than failing the query.
type Gateway struct {
	cfg     GatewayConfig
	hc      *http.Client
	logf    func(string, ...any)
	handler http.Handler

	metrics           *obs.Registry
	fanoutSeconds     *obs.HistogramVec // per-shard snapshot fetch latency
	mergeSeconds      *obs.Histogram    // counter+run-log fold duration
	degradedShards    *obs.Gauge        // shards that failed the last fan-out
	degradedResponses *obs.Counter      // stats responses served from cache
	shardErrors       *obs.CounterVec   // failed fetches per shard

	replans         *obs.Counter // published fleet plans
	planFetches     *obs.Counter // /v1/plan bodies served
	planNotModified *obs.Counter // /v1/plan 304s served
	planPushes      *obs.Counter // plans accepted by shards
	planPushErrors  *obs.Counter // failed plan pushes to shards

	deltaPulls     *obs.Counter // shard fetches answered incrementally
	fullPulls      *obs.Counter // shard fetches that shipped full state
	deltaFallbacks *obs.Counter // warm views dropped (restart / stale since)
	ringReloads    *obs.Counter // shard-set changes adopted from the router's ring

	// shards is the live shard set: the URLs every fan-out queries plus
	// one warm cached state view per shard, advanced by delta pulls.
	// Static deployments fix it at cfg.Shards; with RingFrom set, the
	// ring loop replaces it as resizes commit.
	shards shardSet

	// planMu serializes re-planning, shard refresh, and pushes so
	// concurrent /v1/plan proxying and the planner ticker cannot
	// interleave version adoption.
	planMu    sync.Mutex
	planStore *plan.Store
	planner   *plan.Planner

	die       chan struct{}
	closeOnce sync.Once

	// statsMu guards the last fully- or partially-successful stats
	// response, served (marked stale) when every shard is down rather
	// than erroring with an all-zero body.
	statsMu   sync.Mutex
	lastStats *GatewayStats
}

// NewGateway builds a gateway over cfg.Shards and/or the shard set the
// router at cfg.RingFrom serves.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Shards) == 0 && cfg.RingFrom == "" {
		return nil, fmt.Errorf("shard: gateway needs at least one shard (or a router to discover them from)")
	}
	if cfg.NumSites <= 0 || cfg.NumPreds <= 0 {
		return nil, fmt.Errorf("shard: gateway needs positive dimensions, got %dx%d", cfg.NumSites, cfg.NumPreds)
	}
	if len(cfg.SiteOf) != cfg.NumPreds {
		return nil, fmt.Errorf("shard: gateway SiteOf has %d entries for %d predicates", len(cfg.SiteOf), cfg.NumPreds)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 15 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
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
	if cfg.RingRefresh <= 0 {
		cfg.RingRefresh = 5 * time.Second
	}
	g := &Gateway{
		cfg:  cfg,
		hc:   &http.Client{Timeout: cfg.Timeout},
		logf: cfg.Logf,
		die:  make(chan struct{}),
	}
	g.shards.replace(cfg.Shards)
	g.planStore = plan.NewStore(plan.Bootstrap(cfg.NumSites, cfg.Fingerprint, cfg.PlanTarget, cfg.PlanMinRate))
	g.planner = plan.NewPlanner(g.planStore, plan.PlannerConfig{
		Source:      g.planInput,
		Target:      cfg.PlanTarget,
		MinRate:     cfg.PlanMinRate,
		MinRuns:     cfg.PlanMinRuns,
		BoostRadius: cfg.PlanBoostRadius,
		Fingerprint: cfg.Fingerprint,
		SourceName:  "gateway",
	})
	m := cfg.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	g.metrics = m
	g.fanoutSeconds = m.HistogramVec("cbi_gateway_fanout_seconds",
		"Per-shard /v1/snapshot fetch latency during a fan-out, in seconds.", nil, "shard")
	g.mergeSeconds = m.Histogram("cbi_gateway_merge_seconds",
		"Time to fold fetched shard snapshots and run logs together, in seconds.", nil)
	g.degradedShards = m.Gauge("cbi_gateway_degraded_shards",
		"Shards that failed to answer the most recent fan-out.")
	g.degradedResponses = m.Counter("cbi_gateway_degraded_responses_total",
		"/v1/stats responses served from the cached totals because no shard answered.")
	g.shardErrors = m.CounterVec("cbi_gateway_shard_errors_total",
		"Failed snapshot fetches per shard.", "shard")
	g.replans = m.Counter("cbi_gateway_replans_total",
		"Fleet sampling plans published by the gateway planner.")
	g.planFetches = m.Counter("cbi_gateway_plan_fetches_total",
		"GET /v1/plan responses served with a plan body.")
	g.planNotModified = m.Counter("cbi_gateway_plan_not_modified_total",
		"GET /v1/plan responses answered 304 Not Modified.")
	g.planPushes = m.Counter("cbi_gateway_plan_pushes_total",
		"Sampling plans successfully pushed to shards.")
	g.planPushErrors = m.Counter("cbi_gateway_plan_push_errors_total",
		"Failed sampling-plan pushes to shards.")
	g.deltaPulls = m.Counter("cbi_gateway_delta_pulls_total",
		"Shard state fetches answered incrementally (delta applied to the warm view).")
	g.fullPulls = m.Counter("cbi_gateway_full_pulls_total",
		"Shard state fetches that shipped the shard's full state.")
	g.deltaFallbacks = m.Counter("cbi_gateway_delta_fallbacks_total",
		"Warm shard views dropped and resynced (shard restart or delta history too old).")
	g.ringReloads = m.Counter("cbi_gateway_ring_reloads_total",
		"Shard-set changes adopted from the router's ring.")
	m.GaugeFunc("cbi_gateway_shards",
		"Shards the gateway currently fans queries out to.", func() float64 {
			return float64(len(g.shards.list()))
		})
	m.GaugeFunc("cbi_gateway_warm_runs",
		"Runs held across the gateway's warm per-shard state views.", func() float64 {
			total := 0
			for _, ws := range g.shards.all() {
				ws.mu.Lock()
				if ws.valid {
					total += len(ws.window)
				}
				ws.mu.Unlock()
			}
			return float64(total)
		})
	m.GaugeFunc("cbi_gateway_plan_version",
		"Version of the sampling plan the gateway currently serves.", func() float64 {
			return float64(g.planStore.Version())
		})
	m.GaugeFunc("cbi_gateway_plan_boosted_sites",
		"Sites boosted to rate 1 in the current sampling plan.", func() float64 {
			if p := g.planStore.Current(); p != nil {
				return float64(len(p.Boosts))
			}
			return 0
		})
	rt := obs.NewRoutes(obs.HTTPConfig{Registry: m, SlowRequest: cfg.SlowRequest, Logf: cfg.Logf})
	collector.MountQuery(rt, m, gatewaySource{g})
	rt.HandleFunc("/v1/stats", g.handleStats)
	rt.HandleFunc("/v1/plan", g.handlePlan)
	rt.HandleFunc("/healthz", g.handleHealthz)
	g.handler = rt.Handler(cfg.EnablePprof)
	if cfg.PlanEvery > 0 {
		go g.planLoop()
	}
	if cfg.RingFrom != "" {
		// One synchronous best-effort refresh so a gateway started with
		// no static shard list can answer its first query; then poll.
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		g.refreshRing(ctx)
		cancel()
		go g.ringLoop()
	}
	return g, nil
}

// shardSet is the gateway's live shard set: one warm view per shard, in
// ring order. The slice is replaced, never written, so readers use it
// without a copy; a view survives ring reloads that leave its shard in
// place.
type shardSet struct {
	mu    sync.Mutex
	views []*warmShard
}

func (s *shardSet) all() []*warmShard {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.views
}

// list returns the current shard URLs.
func (s *shardSet) list() []string {
	views := s.all()
	urls := make([]string, len(views))
	for i, ws := range views {
		urls[i] = ws.url
	}
	return urls
}

// replace swaps in a new shard list, dropping warm views for departed
// shards. It reports whether the list changed.
func (s *shardSet) replace(urls []string) bool {
	old := s.all()
	if slices.EqualFunc(old, urls, func(ws *warmShard, u string) bool { return ws.url == u }) {
		return false
	}
	views := make([]*warmShard, len(urls))
	for i, u := range urls {
		if j := slices.IndexFunc(old, func(ws *warmShard) bool { return ws.url == u }); j >= 0 {
			views[i] = old[j]
		} else {
			views[i] = &warmShard{url: u}
		}
	}
	s.mu.Lock()
	s.views = views
	s.mu.Unlock()
	return true
}

// refreshRing pulls the router's GET /v1/ring once and adopts the
// active shard set. Best effort: any failure leaves the current set.
func (g *Gateway) refreshRing(ctx context.Context) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.cfg.RingFrom+"/v1/ring", nil)
	if err != nil {
		return
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		g.logf("shard: gateway: ring refresh: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		g.logf("shard: gateway: ring refresh: router answered %d", resp.StatusCode)
		return
	}
	var st RingStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		g.logf("shard: gateway: ring refresh: decoding: %v", err)
		return
	}
	urls := make([]string, 0, len(st.Backends))
	for _, b := range st.Backends {
		if b.Active {
			urls = append(urls, b.URL)
		}
	}
	if len(urls) == 0 {
		// A ring with no active backend is a router mid-bootstrap or
		// broken; keep serving the set we have.
		return
	}
	if g.shards.replace(urls) {
		g.ringReloads.Inc()
		g.logf("shard: gateway: adopted ring v%d shard set (%d shards)", st.Version, len(urls))
	}
}

// ringLoop keeps the shard set in sync with the router until Close.
func (g *Gateway) ringLoop() {
	t := time.NewTicker(g.cfg.RingRefresh)
	defer t.Stop()
	for {
		select {
		case <-g.die:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), g.cfg.Timeout)
			g.refreshRing(ctx)
			cancel()
		}
	}
}

// Close stops the gateway's planner loop (if any). Safe to call more
// than once.
func (g *Gateway) Close() { g.closeOnce.Do(func() { close(g.die) }) }

// Metrics returns the gateway's metrics registry (also served at
// GET /metrics).
func (g *Gateway) Metrics() *obs.Registry { return g.metrics }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// shardView is one shard's answer to a pull, the caller's to read
// without locks: snap is a private copy, and later delta pulls only
// append past a captured window or reslice it.
type shardView struct {
	snap   *corpus.AggSnapshot // counters; nil when a warm view was not asked for them
	window []*report.Report    // retained runs
	// state is the view's "epoch:version"; "" when the shard serves no
	// state version (or delta sync is off), so nothing names this state.
	state string
	err   error
}

// warmShard is one shard's cached state: the counter snapshot and run
// window as of (epoch, version), advanced in place by delta pulls.
type warmShard struct {
	url     string
	mu      sync.Mutex
	valid   bool
	epoch   uint64
	version uint64
	snap    *corpus.AggSnapshot
	window  []*report.Report
}

// view captures the warm state for one query; callers hold ws.mu. Later
// deltas mutate the snapshot in place, so a query that reads the
// counters gets a deep copy and one that does not gets none.
func (ws *warmShard) view(counters bool) shardView {
	v := shardView{window: ws.window, state: fmt.Sprintf("%d:%d", ws.epoch, ws.version)}
	if counters {
		v.snap = ws.snap.Clone()
	}
	return v
}

// pull brings every shard's state up to date concurrently —
// incrementally where a warm view exists, full otherwise — and returns
// one view per shard, with the counters only when asked. Failed shards
// come back with err set; the caller decides how degraded is too
// degraded.
func (g *Gateway) pull(ctx context.Context, counters bool) []shardView {
	shards := g.shards.all()
	out := make([]shardView, len(shards))
	var wg sync.WaitGroup
	for i, ws := range shards {
		wg.Add(1)
		go func(i int, ws *warmShard) {
			defer wg.Done()
			start := time.Now()
			out[i] = g.fetchShard(ctx, ws, counters)
			shard := strconv.Itoa(i)
			g.fanoutSeconds.With(shard).ObserveDuration(time.Since(start))
			if out[i].err != nil {
				g.shardErrors.With(shard).Inc()
				g.logf("shard: gateway: shard %d unavailable: %v", i, out[i].err)
			}
		}(i, ws)
	}
	wg.Wait()
	down := 0
	for _, v := range out {
		if v.err != nil {
			down++
		}
	}
	g.degradedShards.Set(float64(down))
	return out
}

// fetchShard obtains one shard's current state. With a valid warm view
// it asks the shard only for the mutations since the version it holds
// (`?since=<epoch>:<version>`) and replays them onto the cached copy —
// O(changes) instead of O(state). A full response (shard restarted, no
// delta support, history evicted) replaces the warm view wholesale. A
// network or HTTP failure degrades the shard for this query and leaves
// the warm view untouched, ready for the next delta.
func (g *Gateway) fetchShard(ctx context.Context, ws *warmShard, counters bool) shardView {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		since := ""
		if ws.valid {
			since = fmt.Sprintf("%d:%d", ws.epoch, ws.version)
		}
		res, err := g.fetchState(ctx, ws.url, since)
		if err != nil {
			return shardView{err: err}
		}
		if res.delta == nil {
			g.fullPulls.Inc()
			if res.hasState && !g.cfg.DisableDeltaSync {
				ws.valid, ws.epoch, ws.version = true, res.epoch, res.version
				ws.snap, ws.window = res.snap, res.window
				return ws.view(counters)
			}
			// No state version to resume from (delta sync is off, there or
			// here): nothing to keep warm, and nothing else holds res.
			ws.valid, ws.snap, ws.window = false, nil, nil
			return shardView{snap: res.snap, window: res.window}
		}
		seg := res.delta
		if ws.valid && seg.Epoch == ws.epoch && seg.From == ws.version {
			advanced, err := corpus.ApplyDelta(ws.snap, ws.window, seg)
			if err == nil {
				ws.window, ws.version = advanced, seg.To
				g.deltaPulls.Inc()
				return ws.view(counters)
			}
			g.logf("shard: gateway: delta apply failed for %s: %v; resyncing", ws.url, err)
		}
		// The delta does not continue the state we hold (or failed to
		// apply): drop the warm view and resync with a full fetch.
		ws.valid, ws.snap, ws.window = false, nil, nil
		g.deltaFallbacks.Inc()
	}
	return shardView{err: fmt.Errorf("shard answered an unconditional snapshot request with a delta")}
}

// shardResponse is one decoded /v1/snapshot response: either a full
// state export (snap+set) or a delta segment, plus the state version
// headers when the shard serves them.
type shardResponse struct {
	snap           *corpus.AggSnapshot
	window         []*report.Report
	delta          *corpus.DeltaSegment
	epoch, version uint64
	hasState       bool
}

// fetchState performs one GET /v1/snapshot (optionally conditional on
// since) and decodes whichever body the shard chose to send, validating
// dimensions and fingerprint against the gateway's plan.
func (g *Gateway) fetchState(ctx context.Context, url, since string) (*shardResponse, error) {
	target := url + "/v1/snapshot"
	if since != "" {
		target += "?since=" + since
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("GET /v1/snapshot: %d: %s", resp.StatusCode, body)
	}
	out := &shardResponse{}
	if eh, vh := resp.Header.Get("X-CBI-State-Epoch"), resp.Header.Get("X-CBI-State-Version"); eh != "" && vh != "" {
		e, err1 := strconv.ParseUint(eh, 10, 64)
		v, err2 := strconv.ParseUint(vh, 10, 64)
		if err1 == nil && err2 == nil && e != 0 {
			out.epoch, out.version, out.hasState = e, v, true
		}
	}
	gz, err := report.Gunzip(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("snapshot gzip: %v", err)
	}
	defer gz.Close()
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-cbi-delta") {
		seg, err := corpus.ReadDeltaSegment(gz)
		if err != nil {
			return nil, fmt.Errorf("delta segment: %v", err)
		}
		out.delta = seg
		return out, g.checkPlan("delta", seg.NumSites, seg.NumPreds, seg.Fingerprint)
	}
	snap, recs, _, err := corpus.ReadMergeSegmentKeyed(gz)
	if err != nil {
		return nil, err
	}
	// The warm window holds ids, so the records are decoded here, as
	// delta events are.
	if out.window, err = report.DecodeRecords(recs, snap.NumSites, snap.NumPreds); err != nil {
		return nil, err
	}
	out.snap = snap
	return out, g.checkPlan("snapshot", snap.NumSites, snap.NumPreds, snap.Fingerprint)
}

// checkPlan refuses shard state built under another instrumentation
// plan than the gateway's.
func (g *Gateway) checkPlan(what string, numSites, numPreds int, fingerprint uint64) error {
	if numSites != g.cfg.NumSites || numPreds != g.cfg.NumPreds {
		return fmt.Errorf("shard %s dimensions %dx%d do not match gateway %dx%d",
			what, numSites, numPreds, g.cfg.NumSites, g.cfg.NumPreds)
	}
	if g.cfg.Fingerprint != 0 && fingerprint != 0 && fingerprint != g.cfg.Fingerprint {
		return fmt.Errorf("shard %s fingerprint %016x does not match gateway %016x",
			what, fingerprint, g.cfg.Fingerprint)
	}
	return nil
}

var errNoShard = errors.New("no shard answered")

// mergeCounters adds up the answering shards' counters (views pulled
// with counters); an error only when no shard answered.
func (g *Gateway) mergeCounters(views []shardView) (*corpus.AggSnapshot, error) {
	start := time.Now()
	defer func() { g.mergeSeconds.ObserveDuration(time.Since(start)) }()
	merged := corpus.NewAggSnapshot(g.cfg.NumSites, g.cfg.NumPreds)
	merged.Fingerprint = g.cfg.Fingerprint
	live := 0
	for i, v := range views {
		if v.err != nil {
			continue
		}
		if err := corpus.MergeAggSnapshot(merged, v.snap); err != nil {
			g.logf("shard: gateway: shard %d snapshot rejected: %v", i, err)
			continue
		}
		live++
	}
	if live == 0 {
		return nil, errNoShard
	}
	return merged, nil
}

// gatewaySource is the gateway's collector.QuerySource: the shards'
// warm views as of one pull.
type gatewaySource struct{ g *Gateway }

func (src gatewaySource) Counters(ctx context.Context) (*core.Agg, error) {
	g := src.g
	merged, err := g.mergeCounters(g.pull(ctx, true))
	if err != nil {
		return nil, err
	}
	return merged.ToAgg(g.cfg.SiteOf), nil
}

// Window's token is the ordered vector of the answering shards'
// epoch:version with a marker in each degraded shard's place — so a
// degraded union never shares a cache slot with the full one — and
// empty when any answering shard's state has no version to name it.
func (src gatewaySource) Window(ctx context.Context) (string, func() (core.Input, error), error) {
	g := src.g
	views := g.pull(ctx, false)
	var token strings.Builder
	live, versioned := 0, true
	for _, v := range views {
		switch {
		case v.err != nil:
			token.WriteString("down,")
		case v.state == "":
			live++
			versioned = false
		default:
			live++
			token.WriteString(v.state + ",")
		}
	}
	if live == 0 {
		return "", nil, errNoShard
	}
	if !versioned {
		token.Reset()
	}
	return token.String(), func() (core.Input, error) {
		start := time.Now()
		defer func() { g.mergeSeconds.ObserveDuration(time.Since(start)) }()
		set := &report.Set{NumSites: g.cfg.NumSites, NumPreds: g.cfg.NumPreds}
		for _, v := range views {
			set.Reports = append(set.Reports, v.window...)
		}
		return core.Input{Set: set, SiteOf: g.cfg.SiteOf}, nil
	}, nil
}

// GatewayStats is the gateway's GET /v1/stats response: the merged
// run/counter totals plus per-shard health. Stale marks a response
// whose totals were served from the gateway's cache because no shard
// answered the fan-out (degraded_shards tells the current health).
type GatewayStats struct {
	NumSites       int      `json:"num_sites"`
	NumPreds       int      `json:"num_preds"`
	Fingerprint    uint64   `json:"fingerprint"`
	Runs           int64    `json:"runs"`
	Failing        int64    `json:"failing"`
	Successful     int64    `json:"successful"`
	RunLogRuns     int      `json:"runlog_runs"`
	PlanVersion    uint64   `json:"plan_version"`
	Shards         int      `json:"shards"`
	DegradedShards int      `json:"degraded_shards"`
	Stale          bool     `json:"stale,omitempty"`
	ShardErrors    []string `json:"shard_errors,omitempty"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	states := g.pull(req.Context(), true)
	st := GatewayStats{
		NumSites:    g.cfg.NumSites,
		NumPreds:    g.cfg.NumPreds,
		Fingerprint: g.cfg.Fingerprint,
		PlanVersion: g.planStore.Version(),
		Shards:      len(states),
	}
	for i, s := range states {
		if s.err != nil {
			st.DegradedShards++
			st.ShardErrors = append(st.ShardErrors, fmt.Sprintf("shard %d: %v", i, s.err))
			continue
		}
		st.Runs += s.snap.NumF + s.snap.NumS
		st.Failing += s.snap.NumF
		st.Successful += s.snap.NumS
		st.RunLogRuns += len(s.window)
	}
	status := http.StatusOK
	if st.DegradedShards == len(states) {
		// Every shard is down: the freshly computed totals are all
		// zeros, which an operator's dashboard would read as "the data
		// vanished". Serve the last known totals instead, marked stale
		// with the current shard errors attached, and count the
		// degradation. Only when there has never been a successful
		// fan-out is an all-zero 503 the honest answer.
		g.degradedResponses.Inc()
		g.statsMu.Lock()
		cached := g.lastStats
		g.statsMu.Unlock()
		if cached != nil {
			errs := st.ShardErrors
			st = *cached
			st.DegradedShards, st.Stale, st.ShardErrors = len(states), true, errs
		} else {
			status = http.StatusServiceUnavailable
		}
	} else {
		snapshot := st
		snapshot.ShardErrors = nil
		g.statsMu.Lock()
		g.lastStats = &snapshot
		g.statsMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(st)
}

// handleHealthz reports 200 while at least one shard answers its own
// health check.
func (g *Gateway) handleHealthz(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := context.WithTimeout(req.Context(), g.cfg.Timeout)
	defer cancel()
	shards := g.shards.list()
	ch := make(chan bool, len(shards))
	for _, url := range shards {
		go func(url string) {
			r, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
			if err != nil {
				ch <- false
				return
			}
			resp, err := g.hc.Do(r)
			if err != nil {
				ch <- false
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ch <- resp.StatusCode == http.StatusOK
		}(url)
	}
	for range shards {
		if <-ch {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n")
			return
		}
	}
	http.Error(w, "no live shard", http.StatusServiceUnavailable)
}
