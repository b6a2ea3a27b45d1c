package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/corpus"
	"cbi/internal/obs"
	"cbi/internal/ratelimit"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Backends are the collector base URLs (e.g. "http://host:7575"),
	// one per shard. Order is the shard numbering; it must match the
	// gateway's. Backends added later via POST /v1/ring take the next
	// slot numbers; slots are never reused.
	Backends []string
	// QueueSize bounds each backend's pending-forward queue in batches
	// (default 256). A full queue sheds with 429 instead of buffering
	// unboundedly — the client's retry/backoff absorbs the pressure.
	QueueSize int
	// Workers is the forwarder count per backend (default 4).
	Workers int
	// Vnodes is the virtual-node count per backend on the hash ring
	// (default 64).
	Vnodes int
	// MigrationBuffer bounds, in batches, the writes parked per
	// migration while its key ranges are paused for cutover (default
	// 1024). A full buffer sheds with 429 + Retry-After; nothing acked
	// is ever dropped.
	MigrationBuffer int
	// HealthInterval is the backend /healthz polling period (default
	// 2s). Health checks both detect outages and bring failed backends
	// back into rotation.
	HealthInterval time.Duration
	// ForwardTimeout bounds one forwarded POST (default 30s).
	ForwardTimeout time.Duration
	// PlanFrom, when set, is the base URL GET /v1/plan is forwarded to —
	// in a planning deployment, the gateway (the fleet-wide planner).
	// Empty forwards to the first live backend, which serves the
	// single-shard case and gateway-push deployments (every shard holds
	// the fleet plan) alike.
	PlanFrom string
	// ReadFrom, when set, is the base URL GET /v1/predictors and
	// GET /v1/compare are relayed to — in a sharded deployment, the
	// gateway, whose merged ranking covers every shard. Empty relays to
	// the first live backend, which answers the single-shard case with
	// exactly the collector's own ranking.
	ReadFrom string
	// APIKey, when set, is presented (Bearer) on router-originated
	// write requests to backends — today the POST /v1/revoke repair
	// calls — and required (Bearer) on POST /v1/ring topology changes.
	// Forwarded client batches carry the client's own Authorization
	// header instead.
	APIKey string
	// RateLimit, when positive, caps each API key's sustained write rate
	// on POST /v1/reports in requests per second (the bucket key falls
	// back to the client address when no Authorization header is
	// presented). Limited requests get 429 with a Retry-After.
	RateLimit float64
	// RateBurst is the rate limiter's burst allowance (default
	// 2*RateLimit).
	RateBurst int
	// Metrics, when set, is the registry the router's metrics register
	// into; nil creates a private one. Served at GET /metrics, and the
	// source /v1/stats reads from.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SlowRequest, when positive, logs every HTTP request slower than
	// this threshold.
	SlowRequest time.Duration
	// Logf receives router diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// backend is one collector shard as the router sees it: its URL, a
// liveness flag flipped by forward errors and health probes, and a
// bounded queue drained by forward workers.
type backend struct {
	slot int
	url  string
	up   atomic.Bool
	// active is false once a resize has removed this slot from the
	// topology: no new writes route here, but the workers keep draining
	// whatever is still queued.
	active   atomic.Bool
	queue    chan *job
	inflight atomic.Int64 // jobs dequeued whose forward hasn't finished

	// revoked holds batch ids that were possibly applied here before the
	// backend went dark and were then re-routed (so a second shard also
	// applied them). When the backend recovers, the router POSTs
	// /v1/revoke with these ids so the fleet total converges to exactly
	// one copy of each batch (see DESIGN.md on failover double-counts).
	revMu   sync.Mutex
	revoked []string

	routed      *obs.Counter // batches enqueued to this backend
	failed      *obs.Counter // forward attempts that errored
	rerouted    *obs.Counter // batches this backend took over from a down peer
	transitions *obs.Counter // up<->down health flips
}

// maxPendingRevokes bounds one backend's pending-revoke list; beyond it
// the oldest ids are dropped (with a log line) — the residual
// double-count is bounded and visible rather than the memory unbounded.
const maxPendingRevokes = 4096

// addRevoke records one batch id to revoke when the backend recovers.
func (b *backend) addRevoke(id string, logf func(string, ...any)) {
	b.revMu.Lock()
	defer b.revMu.Unlock()
	if len(b.revoked) >= maxPendingRevokes {
		drop := len(b.revoked) - maxPendingRevokes + 1
		logf("shard: router: pending revokes for %s overflowed; dropping %d oldest (double-counts may persist)", b.url, drop)
		b.revoked = append(b.revoked[:0], b.revoked[drop:]...)
	}
	b.revoked = append(b.revoked, id)
}

// takeRevokes detaches the pending-revoke list for delivery.
func (b *backend) takeRevokes() []string {
	b.revMu.Lock()
	defer b.revMu.Unlock()
	ids := b.revoked
	b.revoked = nil
	return ids
}

// requeueRevokes puts undelivered ids back (in front) after a failed
// delivery.
func (b *backend) requeueRevokes(ids []string) {
	b.revMu.Lock()
	b.revoked = append(ids, b.revoked...)
	if len(b.revoked) > maxPendingRevokes {
		b.revoked = b.revoked[:maxPendingRevokes]
	}
	b.revMu.Unlock()
}

// job is one client batch in flight: the opaque body plus the header
// subset the collector cares about, the routing key it was placed by,
// and the failover order to walk if the preferred backend is down.
type job struct {
	body    []byte
	header  http.Header
	key     string
	order   []int // failover order; order[0] is the consistent-hash owner
	attempt int   // index into order currently being tried
}

// Migration states. A migration covers the key ranges one resize moves
// from one backend to another; writes into those ranges route by state:
//
//	forwarding — still to the old owner, whose run log retains them for
//	             export (the streaming phase);
//	buffering  — parked in a bounded router-side buffer while the
//	             controller drains the source and ships the final chunk
//	             (the brief pause before cutover);
//	done       — to the new owner; the cutover flushed the buffer there.
const (
	migForwarding = int32(iota)
	migBuffering
	migDone
)

func migStateName(s int32) string {
	switch s {
	case migForwarding:
		return "forwarding"
	case migBuffering:
		return "buffering"
	case migDone:
		return "done"
	}
	return "unknown"
}

// migration is the router's routing state for one (from, to) backend
// pair of an in-flight resize.
type migration struct {
	id     string
	from   int
	to     int
	ranges []corpus.KeyRange
	state  atomic.Int32

	mu  sync.Mutex
	buf []*job
}

// resizeOp is one in-flight topology change: the slot being added or
// removed and the per-pair migrations that carry its key ranges.
type resizeOp struct {
	action string // "add" or "remove"
	slot   int
	migs   []*migration
}

// Router is the write-path front of a sharded collector deployment. It
// terminates POST /v1/reports, picks the owning shard by consistent
// hashing on the client id, and forwards the batch opaquely — the
// router never decodes report payloads, so it stays cheap and
// version-agnostic. When a shard is down, batches re-route to the next
// backend in the key's failover order; the collector-side batch-id
// dedup keeps retries across that transition from double-counting on
// any single shard.
//
// The topology is elastic: POST /v1/ring stages a resize, the
// migration controller (internal/migrate) streams the moving state
// shard-to-shard, and per-range migration states route writes so that
// nothing is lost or double-counted while ownership moves.
type Router struct {
	cfg     RouterConfig
	hc      *http.Client
	logf    func(string, ...any)
	limiter *ratelimit.PerKey

	// topoMu guards the serving topology: the ring, the backend list
	// (append-only; slots are stable), and the in-flight resize. The
	// hot path takes it shared for one ring lookup per request.
	topoMu      sync.RWMutex
	ring        *ring
	next        *ring // target ring while resize != nil
	resize      *resizeOp
	backends    []*backend
	ringVersion uint64

	// Counters are registry metrics: /v1/stats and /metrics read the
	// same objects (see METRICS.md for the exported names).
	metrics       *obs.Registry
	accepted      *obs.Counter // batches accepted (202)
	shed          *obs.Counter // batches shed with 429 (queue full)
	noShards      *obs.Counter // batches refused with 503 (all backends down)
	dropped       *obs.Counter // batches that exhausted every backend and were lost
	planForwarded *obs.Counter // GET /v1/plan requests relayed to the plan source
	planErrors    *obs.Counter // GET /v1/plan relays that failed (502/503)
	readForwarded *obs.Counter // predictor/compare reads relayed to the read source
	readErrors    *obs.Counter // predictor/compare relays that failed (502/503)
	revokesSent   *obs.Counter // batch ids delivered to recovered backends' /v1/revoke
	revokeErrors  *obs.Counter // failed revoke deliveries (ids requeued)
	rateLimited   *obs.Counter // writes refused by the per-key rate limit
	bufferedTotal *obs.Counter // writes parked in a migration buffer
	bufferRejects *obs.Counter // writes shed because a migration buffer was full
	cutovers      *obs.Counter // migrations cut over to their new owner

	routedVec   *obs.CounterVec
	failedVec   *obs.CounterVec
	reroutedVec *obs.CounterVec
	transVec    *obs.CounterVec
	depthVec    *obs.GaugeVec
	upVec       *obs.GaugeVec
	inflightVec *obs.GaugeVec

	handler http.Handler
	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
	closed  sync.Once
}

// NewRouter builds a router over cfg.Backends. At least one backend is
// required.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one backend")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MigrationBuffer <= 0 {
		cfg.MigrationBuffer = 1024
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:         cfg,
		ring:        newRing(len(cfg.Backends), cfg.Vnodes),
		hc:          &http.Client{Timeout: cfg.ForwardTimeout},
		logf:        cfg.Logf,
		limiter:     ratelimit.New(cfg.RateLimit, cfg.RateBurst),
		ringVersion: 1,
		ctx:         ctx,
		cancel:      cancel,
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	r.metrics = m
	r.accepted = m.Counter("cbi_router_accepted_total",
		"Batches accepted (202) and queued for forwarding.")
	r.shed = m.Counter("cbi_router_shed_total",
		"Batches shed with 429 because the owning backend's queue was full.")
	r.noShards = m.Counter("cbi_router_no_shard_total",
		"Batches refused with 503 because no backend was live.")
	r.dropped = m.Counter("cbi_router_dropped_total",
		"Acked batches lost after exhausting every backend (client retry redelivers).")
	r.planForwarded = m.Counter("cbi_router_plan_forwarded_total",
		"GET /v1/plan requests relayed to the plan source.")
	r.planErrors = m.Counter("cbi_router_plan_errors_total",
		"GET /v1/plan relays that failed (no live source or relay error).")
	r.readForwarded = m.Counter("cbi_router_reads_forwarded_total",
		"GET /v1/predictors and /v1/compare requests relayed to the read source.")
	r.readErrors = m.Counter("cbi_router_read_errors_total",
		"Predictor/compare relays that failed (no live source or relay error).")
	r.revokesSent = m.Counter("cbi_router_revokes_sent_total",
		"Re-routed batch ids delivered to a recovered backend's /v1/revoke.")
	r.revokeErrors = m.Counter("cbi_router_revoke_errors_total",
		"Failed /v1/revoke deliveries to recovered backends (ids requeued).")
	r.rateLimited = m.Counter("cbi_auth_rate_limited_total",
		"Write requests refused with 429 by the per-key rate limit.")
	r.bufferedTotal = m.Counter("cbi_router_migration_buffered_total",
		"Writes parked in a migration buffer while their key range was paused for cutover.")
	r.bufferRejects = m.Counter("cbi_router_migration_buffer_rejects_total",
		"Writes shed with 429 because a paused migration's buffer was full.")
	r.cutovers = m.Counter("cbi_router_migration_cutovers_total",
		"Migrations cut over: buffered writes flushed to the new owner.")
	m.GaugeFunc("cbi_router_ring_version",
		"Version of the topology the router currently serves (bumped per committed resize).", func() float64 {
			r.topoMu.RLock()
			defer r.topoMu.RUnlock()
			return float64(r.ringVersion)
		})
	m.GaugeFunc("cbi_router_migrations_active",
		"Per-pair migrations of the in-flight resize not yet cut over.", func() float64 {
			r.topoMu.RLock()
			defer r.topoMu.RUnlock()
			if r.resize == nil {
				return 0
			}
			n := 0
			for _, mg := range r.resize.migs {
				if mg.state.Load() != migDone {
					n++
				}
			}
			return float64(n)
		})
	m.GaugeFunc("cbi_router_migration_buffered",
		"Writes currently parked in migration buffers awaiting cutover.", func() float64 {
			r.topoMu.RLock()
			defer r.topoMu.RUnlock()
			if r.resize == nil {
				return 0
			}
			n := 0
			for _, mg := range r.resize.migs {
				mg.mu.Lock()
				n += len(mg.buf)
				mg.mu.Unlock()
			}
			return float64(n)
		})
	r.routedVec = m.CounterVec("cbi_router_backend_routed_total",
		"Batches enqueued to this backend.", "backend")
	r.failedVec = m.CounterVec("cbi_router_backend_failed_total",
		"Forward attempts to this backend that errored or were refused.", "backend")
	r.reroutedVec = m.CounterVec("cbi_router_backend_rerouted_total",
		"Failover batches this backend took over from a down peer.", "backend")
	r.transVec = m.CounterVec("cbi_router_backend_health_transitions_total",
		"Times this backend flipped between up and down.", "backend")
	r.depthVec = m.GaugeVec("cbi_router_backend_queue_depth",
		"Batches waiting on this backend's forward queue.", "backend")
	r.upVec = m.GaugeVec("cbi_router_backend_up",
		"1 while this backend is considered live, else 0.", "backend")
	r.inflightVec = m.GaugeVec("cbi_router_backend_inflight",
		"Batches dequeued for this backend whose forward has not finished.", "backend")
	for _, u := range cfg.Backends {
		r.addBackendLocked(u)
	}
	rt := obs.NewRoutes(obs.HTTPConfig{Registry: m, SlowRequest: cfg.SlowRequest, Logf: cfg.Logf})
	rt.HandleFunc("/v1/reports", r.handleReports)
	rt.HandleFunc("/v1/stats", r.handleStats)
	rt.HandleFunc("/v1/plan", r.handlePlan)
	rt.HandleFunc("/v1/predictors", r.handleRead)
	rt.HandleFunc("/v1/compare", r.handleRead)
	rt.HandleFunc("/v1/ring", r.handleRing)
	rt.HandleFunc("/healthz", r.handleHealthz)
	r.handler = rt.Handler(cfg.EnablePprof)
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// addBackendLocked appends a backend at the next slot and starts its
// forward workers. Callers hold topoMu (or are still inside NewRouter,
// before the handler is reachable).
func (r *Router) addBackendLocked(url string) *backend {
	slot := len(r.backends)
	bi := strconv.Itoa(slot)
	b := &backend{
		slot:        slot,
		url:         url,
		queue:       make(chan *job, r.cfg.QueueSize),
		routed:      r.routedVec.With(bi),
		failed:      r.failedVec.With(bi),
		rerouted:    r.reroutedVec.With(bi),
		transitions: r.transVec.With(bi),
	}
	b.up.Store(true) // optimistic: the first failed forward flips it
	b.active.Store(true)
	r.depthVec.WithFunc(func() float64 { return float64(len(b.queue)) }, bi)
	r.upVec.WithFunc(func() float64 {
		if b.up.Load() {
			return 1
		}
		return 0
	}, bi)
	r.inflightVec.WithFunc(func() float64 { return float64(b.inflight.Load()) }, bi)
	r.backends = append(r.backends, b)
	for w := 0; w < r.cfg.Workers; w++ {
		r.wg.Add(1)
		go r.forwardLoop(slot, b)
	}
	return b
}

// backendSnapshot returns the current backend list. The slice is
// append-only under topoMu, so a length-capped shallow copy is a
// consistent view.
func (r *Router) backendSnapshot() []*backend {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	return r.backends[:len(r.backends):len(r.backends)]
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.handler }

// routingKey picks the partition key for a request: the client's
// stable identity when it sends one, else the batch id (stable across
// retries of one batch, so a retried batch at least stays on one
// shard), else the peer address.
func routingKey(req *http.Request) string {
	if id := req.Header.Get("X-CBI-Client-ID"); id != "" {
		return id
	}
	if id := req.Header.Get("X-CBI-Batch-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(req.RemoteAddr)
	if err != nil {
		return req.RemoteAddr
	}
	return host
}

// forwardedHeaders is the header subset relayed to the backend.
// X-CBI-Plan-Version rides along so the owning collector can attribute
// batches to the sampling plan that produced them.
var forwardedHeaders = []string{
	"Content-Type", "Content-Encoding", "X-CBI-Batch-ID", "X-CBI-Client-ID",
	"X-CBI-Plan-Version", "Authorization",
}

// maxForwardBody bounds one relayed batch (matches the collector's own
// request cap).
const maxForwardBody = 64 << 20

func (r *Router) handleReports(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !r.limiter.AllowRequest(w, req) {
		r.rateLimited.Add(1)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxForwardBody))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := routingKey(req)
	h := hashKey(key)
	hdr := make(http.Header, len(forwardedHeaders)+1)
	for _, k := range forwardedHeaders {
		if v := req.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	// Stamp the routing-key hash so the owning collector tags the
	// batch's runs with exactly the circle position the router placed
	// them by — the tag a later migration selects runs by.
	hdr.Set("X-CBI-Routing-Key", strconv.FormatUint(h, 10))
	j := &job{body: body, header: hdr, key: key}

	r.topoMu.RLock()
	mg := r.lookupMigrationLocked(h)
	var order []int
	switch {
	case mg != nil && mg.state.Load() == migBuffering:
		r.topoMu.RUnlock()
		// The range is paused for cutover: park the write (bounded) so
		// the controller can drain the source and ship the final chunk
		// without a moving target. Acked now, delivered to the new
		// owner at cutover — exactly one ack, exactly one delivery.
		mg.mu.Lock()
		if mg.state.Load() != migBuffering {
			// Cutover raced us between the state read and the lock; the
			// flush already drained the buffer, so route normally below.
			mg.mu.Unlock()
		} else {
			if len(mg.buf) >= r.cfg.MigrationBuffer {
				mg.mu.Unlock()
				r.bufferRejects.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "migration buffer full", http.StatusTooManyRequests)
				return
			}
			mg.buf = append(mg.buf, j)
			mg.mu.Unlock()
			r.bufferedTotal.Add(1)
			r.accepted.Add(1)
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"buffered":true}`)
			return
		}
		r.topoMu.RLock()
		order = r.routeOrderLocked(key, h)
		r.topoMu.RUnlock()
	case mg != nil && mg.state.Load() == migDone:
		// Cut over: the new owner serves this range even though the
		// serving ring still names the old one until commit.
		order = orderVia(r.next, key, mg.to)
		r.topoMu.RUnlock()
	default:
		// No resize in flight for this key, or its migration is still
		// forwarding — the serving ring's owner is the range's source,
		// whose run log retains what the export will stream.
		order = r.ring.order(key)
		r.topoMu.RUnlock()
	}

	// Enqueue on the first *live* backend in the key's failover order.
	// A full queue on the owner sheds with 429 rather than spilling to
	// the next shard: overload is not an outage, and spilling would
	// smear a client's runs across shards every load spike.
	backends := r.backendSnapshot()
	for _, bi := range order {
		b := backends[bi]
		if !b.up.Load() || !b.active.Load() {
			continue
		}
		j.attempt = indexOf(order, bi)
		j.order = order
		select {
		case b.queue <- j:
			b.routed.Add(1)
			if bi != order[0] {
				b.rerouted.Add(1)
			}
			r.accepted.Add(1)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"routed_to":%d}`, bi)
			return
		default:
			r.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shard queue full", http.StatusTooManyRequests)
			return
		}
	}
	r.noShards.Add(1)
	w.Header().Set("Retry-After", "2")
	http.Error(w, "no live shard", http.StatusServiceUnavailable)
}

// routeOrderLocked computes the failover order for a key under topoMu,
// honoring a done migration covering its hash (post-cutover keys go to
// the new owner before commit).
func (r *Router) routeOrderLocked(key string, h uint64) []int {
	if mg := r.lookupMigrationLocked(h); mg != nil && mg.state.Load() == migDone {
		return orderVia(r.next, key, mg.to)
	}
	return r.ring.order(key)
}

// lookupMigrationLocked returns the in-flight migration covering the
// key hash, or nil. Callers hold topoMu. Migrations of one resize
// cover disjoint arcs, so at most one matches.
func (r *Router) lookupMigrationLocked(h uint64) *migration {
	if r.resize == nil {
		return nil
	}
	for _, mg := range r.resize.migs {
		if corpus.InRanges(h, mg.ranges) {
			return mg
		}
	}
	return nil
}

// orderVia builds a failover order for key from the given ring,
// guaranteeing `first` leads it. The migration's destination owns the
// key on the target ring by construction; pinning it first keeps that
// true even at the boundary hash of a coalesced arc.
func orderVia(rg *ring, key string, first int) []int {
	order := rg.order(key)
	out := make([]int, 0, len(order)+1)
	out = append(out, first)
	for _, bi := range order {
		if bi != first {
			out = append(out, bi)
		}
	}
	return out
}

func indexOf(order []int, b int) int {
	for i, v := range order {
		if v == b {
			return i
		}
	}
	return 0
}

// handlePlan relays GET /v1/plan so fleet clients keep one endpoint for
// both report submission and rate discovery. The relay is conditional
// end to end: the client's ?since= and If-None-Match pass through, and
// the source's status (200/304), ETag, and plan version headers pass
// back, so steady-state polling through the router still costs no body
// bytes.
func (r *Router) handlePlan(w http.ResponseWriter, req *http.Request) {
	r.relay(w, req, r.cfg.PlanFrom, "plan",
		[]string{"If-None-Match", "X-CBI-Client-ID"},
		[]string{"ETag", "X-CBI-Plan-Version", "Cache-Control", "Content-Type"},
		r.planForwarded, r.planErrors)
}

// handleRead relays GET /v1/predictors and GET /v1/compare so fleet
// operators keep one endpoint for writes and analysis queries alike.
// The query string — including ?engine= / ?engines= — passes through
// verbatim, and the source's status passes back, so a 400 naming the
// registered engines reaches the caller unchanged. The source is
// cfg.ReadFrom (the gateway, for merged fleet-wide rankings) or else
// the first live backend.
func (r *Router) handleRead(w http.ResponseWriter, req *http.Request) {
	r.relay(w, req, r.cfg.ReadFrom, "read", nil, []string{"Content-Type"},
		r.readForwarded, r.readErrors)
}

// relay answers a GET by asking source — or, when none is configured,
// the first live backend — the same path and query, passing the named
// request headers on and the status, the named response headers and the
// body back. what names the source in error bodies.
func (r *Router) relay(w http.ResponseWriter, req *http.Request, source, what string,
	reqHeaders, respHeaders []string, forwarded, errs *obs.Counter) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if source == "" {
		for _, b := range r.backendSnapshot() {
			if b.up.Load() && b.active.Load() {
				source = b.url
				break
			}
		}
	}
	if source == "" {
		errs.Add(1)
		w.Header().Set("Retry-After", "2")
		http.Error(w, "no live "+what+" source", http.StatusServiceUnavailable)
		return
	}
	url := source + req.URL.Path
	if req.URL.RawQuery != "" {
		url += "?" + req.URL.RawQuery
	}
	fwd, err := http.NewRequestWithContext(req.Context(), http.MethodGet, url, nil)
	if err != nil {
		errs.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, k := range reqHeaders {
		if v := req.Header.Get(k); v != "" {
			fwd.Header.Set(k, v)
		}
	}
	resp, err := r.hc.Do(fwd)
	if err != nil {
		errs.Add(1)
		http.Error(w, what+" source unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for _, k := range respHeaders {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, maxForwardBody))
	forwarded.Add(1)
}

// forwardLoop drains one backend's queue. On a network-level failure it
// marks the backend down and re-enqueues the job to the next live
// backend in its failover order; an HTTP-level error (4xx/5xx) is the
// backend *answering*, so it is not treated as an outage — the job is
// retried here a bounded number of times for 429/5xx, then dropped with
// a log line (the submitting client's own retry loop is the real
// recovery path, and the batch id keeps that retry dedup-safe).
func (r *Router) forwardLoop(bi int, b *backend) {
	defer r.wg.Done()
	for {
		select {
		case <-r.ctx.Done():
			return
		case j := <-b.queue:
			b.inflight.Add(1)
			r.forward(bi, b, j)
			b.inflight.Add(-1)
		}
	}
}

func (r *Router) forward(bi int, b *backend, j *job) {
	const httpRetries = 3
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(r.ctx, http.MethodPost,
			b.url+"/v1/reports", bytes.NewReader(j.body))
		if err != nil {
			r.logf("shard: router: building forward request: %v", err)
			return
		}
		for k, vs := range j.header {
			req.Header[k] = vs
		}
		resp, err := r.hc.Do(req)
		if err != nil {
			// Network failure: the backend is gone. Mark it down so the
			// health loop owns its return, and hand the job to the next
			// backend in the key's order. The failed request may still
			// have been *delivered* (the connection can sever after the
			// body landed), so if the job finds a new home the original
			// backend may now hold a duplicate — remember the batch id and
			// revoke it there once it recovers. Revoking a batch a backend
			// never applied is a no-op, so recording conservatively is
			// safe; not recording would leave a permanent double-count.
			b.failed.Add(1)
			if b.up.Swap(false) {
				b.transitions.Inc()
			}
			r.logf("shard: router: backend %d down (%v), re-routing", bi, err)
			if r.reroute(j) {
				if id := j.header.Get("X-CBI-Batch-ID"); id != "" {
					b.addRevoke(id, r.logf)
				}
			}
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		if resp.StatusCode < 300 {
			return
		}
		b.failed.Add(1)
		retryable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
		if !retryable || attempt >= httpRetries {
			r.dropped.Add(1)
			r.logf("shard: router: backend %d refused batch (%d); dropping (client retry will redeliver)",
				bi, resp.StatusCode)
			return
		}
		t := time.NewTimer(backoff)
		backoff *= 2
		select {
		case <-r.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// reroute hands a job whose backend died to the next live backend in
// its failover order, blocking (briefly) on that queue since the job is
// already acked. It reports whether the job found a new home — the
// caller only schedules a duplicate-repair revoke when it did; a
// dropped job has no second copy to reconcile.
func (r *Router) reroute(j *job) bool {
	backends := r.backendSnapshot()
	for next := j.attempt + 1; next < len(j.order); next++ {
		b := backends[j.order[next]]
		if !b.up.Load() || !b.active.Load() {
			continue
		}
		j.attempt = next
		select {
		case b.queue <- j:
			b.routed.Add(1)
			b.rerouted.Add(1)
			return true
		case <-r.ctx.Done():
			return false
		case <-time.After(time.Second):
			// Queue saturated for a full second — treat as unavailable
			// and keep walking.
		}
	}
	r.dropped.Add(1)
	r.logf("shard: router: batch exhausted all backends; dropped (client retry will redeliver)")
	return false
}

// healthLoop probes each backend's /healthz. It both detects outages
// the forward path hasn't hit yet and — the part the forward path
// can't do — brings recovered backends back up.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			for i, b := range r.backendSnapshot() {
				if !b.active.Load() {
					continue
				}
				up := r.probe(b)
				if up != b.up.Load() {
					b.up.Store(up)
					b.transitions.Inc()
					r.logf("shard: router: backend %d (%s) now up=%v", i, b.url, up)
				}
				if up {
					r.sendRevokes(i, b)
				}
			}
		}
	}
}

// sendRevokes delivers a recovered backend's pending duplicate-repair
// revokes. A failed delivery requeues the ids for the next health tick.
func (r *Router) sendRevokes(bi int, b *backend) {
	ids := b.takeRevokes()
	if len(ids) == 0 {
		return
	}
	body, err := json.Marshal(map[string][]string{"ids": ids})
	if err != nil {
		r.logf("shard: router: encoding revoke request: %v", err)
		b.requeueRevokes(ids)
		return
	}
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/revoke", bytes.NewReader(body))
	if err != nil {
		r.logf("shard: router: building revoke request: %v", err)
		b.requeueRevokes(ids)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if r.cfg.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+r.cfg.APIKey)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		r.revokeErrors.Add(1)
		r.logf("shard: router: delivering %d revokes to backend %d: %v (requeued)", len(ids), bi, err)
		b.requeueRevokes(ids)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.revokeErrors.Add(1)
		r.logf("shard: router: backend %d refused revokes (%d); requeued", bi, resp.StatusCode)
		b.requeueRevokes(ids)
		return
	}
	r.revokesSent.Add(int64(len(ids)))
	r.logf("shard: router: delivered %d duplicate-repair revokes to backend %d", len(ids), bi)
}

func (r *Router) probe(b *backend) bool {
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// BackendStats is one backend's row in the router's /v1/stats.
type BackendStats struct {
	Slot       int    `json:"slot"`
	URL        string `json:"url"`
	Up         bool   `json:"up"`
	Active     bool   `json:"active"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int64  `json:"inflight"`
	Routed     int64  `json:"routed"`
	Rerouted   int64  `json:"rerouted"`
	Failed     int64  `json:"failed"`
}

// RouterStats is the router's GET /v1/stats response.
type RouterStats struct {
	Backends      []BackendStats `json:"backends"`
	RingVersion   uint64         `json:"ring_version"`
	Accepted      int64          `json:"accepted"`
	Shed          int64          `json:"shed"`
	NoShards      int64          `json:"no_shards"`
	Dropped       int64          `json:"dropped"`
	PlanForwarded int64          `json:"plan_forwarded"`
	PlanErrors    int64          `json:"plan_errors"`
	RevokesSent   int64          `json:"revokes_sent"`
	RevokeErrors  int64          `json:"revoke_errors"`
	RateLimited   int64          `json:"rate_limited"`
	Buffered      int64          `json:"migration_buffered"`
	BufferRejects int64          `json:"migration_buffer_rejects"`
	Cutovers      int64          `json:"migration_cutovers"`
}

// StatsNow captures the router's counters — the same registry objects
// /metrics renders, so the two surfaces always agree.
func (r *Router) StatsNow() RouterStats {
	r.topoMu.RLock()
	version := r.ringVersion
	r.topoMu.RUnlock()
	st := RouterStats{
		RingVersion:   version,
		Accepted:      r.accepted.Value(),
		Shed:          r.shed.Value(),
		NoShards:      r.noShards.Value(),
		Dropped:       r.dropped.Value(),
		PlanForwarded: r.planForwarded.Value(),
		PlanErrors:    r.planErrors.Value(),
		RevokesSent:   r.revokesSent.Value(),
		RevokeErrors:  r.revokeErrors.Value(),
		RateLimited:   r.rateLimited.Value(),
		Buffered:      r.bufferedTotal.Value(),
		BufferRejects: r.bufferRejects.Value(),
		Cutovers:      r.cutovers.Value(),
	}
	for _, b := range r.backendSnapshot() {
		st.Backends = append(st.Backends, BackendStats{
			Slot:       b.slot,
			URL:        b.url,
			Up:         b.up.Load(),
			Active:     b.active.Load(),
			QueueDepth: len(b.queue),
			Inflight:   b.inflight.Load(),
			Routed:     b.routed.Value(),
			Rerouted:   b.rerouted.Value(),
			Failed:     b.failed.Value(),
		})
	}
	return st
}

// Metrics returns the router's metrics registry (also served at
// GET /metrics).
func (r *Router) Metrics() *obs.Registry { return r.metrics }

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.StatsNow())
}

// handleHealthz reports 200 while at least one backend is live —
// the router can still place work somewhere.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	for _, b := range r.backendSnapshot() {
		if b.up.Load() && b.active.Load() {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n")
			return
		}
	}
	http.Error(w, "no live backend", http.StatusServiceUnavailable)
}

// Drain waits (up to timeout) for every backend queue to empty and
// every in-flight forward to land, so tests and shutdowns can establish
// that all acked batches have been forwarded.
func (r *Router) Drain(timeout time.Duration) error {
	depth := func() int {
		d := 0
		for _, b := range r.backendSnapshot() {
			d += len(b.queue) + int(b.inflight.Load())
		}
		return d
	}
	deadline := time.Now().Add(timeout)
	for {
		if depth() == 0 {
			// Queues empty; give in-flight forwards a beat to land.
			time.Sleep(20 * time.Millisecond)
			if depth() == 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard: router drain timed out with %d queued", depth())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close stops the workers and health loop. Queued batches not yet
// forwarded are dropped — call Drain first for a clean shutdown.
func (r *Router) Close() {
	r.closed.Do(func() {
		r.cancel()
		r.wg.Wait()
	})
}
