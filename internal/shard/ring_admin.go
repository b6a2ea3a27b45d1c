// Ring admin API: GET /v1/ring exposes the serving topology and any
// in-flight resize (enough for a migration controller to resume after
// a crash); POST /v1/ring drives the resize state machine:
//
//	add url      stage a resize that brings a new backend into the ring
//	remove url   stage a resize that drains a backend out of the ring
//	pause        flip the resize's migrations to buffering (writes into
//	             the moving ranges park router-side; sources stop moving)
//	cutover      flip them to done and flush the parked writes to each
//	             migration's destination
//	commit       adopt the target ring, bump the ring version, and (for
//	             remove) deactivate the drained backend
//
// The machine is deliberately dumb: it only routes. The data movement
// between pause and cutover — export, merge, evict, residual — is the
// migration controller's job (internal/migrate); splitting the two
// keeps the router's hot path free of migration I/O and lets a crashed
// controller resume from GET /v1/ring alone.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"cbi/internal/collector"
	"cbi/internal/corpus"
)

// RingBackend is one backend's row in GET /v1/ring.
type RingBackend struct {
	Slot       int    `json:"slot"`
	URL        string `json:"url"`
	Up         bool   `json:"up"`
	Active     bool   `json:"active"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int64  `json:"inflight"`
}

// RingMigration is one migration's row in GET /v1/ring.
type RingMigration struct {
	ID       string            `json:"id"`
	From     int               `json:"from"`
	To       int               `json:"to"`
	State    string            `json:"state"`
	Ranges   []corpus.KeyRange `json:"ranges"`
	Buffered int               `json:"buffered"`
}

// RingResize describes the in-flight resize in GET /v1/ring.
type RingResize struct {
	Action     string          `json:"action"`
	Slot       int             `json:"slot"`
	Migrations []RingMigration `json:"migrations"`
}

// RingStatus is the GET /v1/ring response.
type RingStatus struct {
	Version  uint64        `json:"version"`
	Vnodes   int           `json:"vnodes"`
	Backends []RingBackend `json:"backends"`
	Resize   *RingResize   `json:"resize,omitempty"`
}

// ringRequest is the POST /v1/ring body.
type ringRequest struct {
	Action string `json:"action"`
	URL    string `json:"url,omitempty"`
}

func (r *Router) handleRing(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.ringStatus())
	case http.MethodPost:
		if !r.authorizeRing(w, req) {
			return
		}
		var rr ringRequest
		if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&rr); err != nil {
			http.Error(w, "decoding request: "+err.Error(), http.StatusBadRequest)
			return
		}
		var err error
		switch rr.Action {
		case "add":
			err = r.resizeAdd(rr.URL)
		case "remove":
			err = r.resizeRemove(rr.URL)
		case "pause":
			err = r.resizePause()
		case "cutover":
			err = r.resizeCutover()
		case "commit":
			err = r.resizeCommit()
		default:
			http.Error(w, fmt.Sprintf("unknown action %q", rr.Action), http.StatusBadRequest)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.ringStatus())
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// authorizeRing gates topology changes behind the router's API key
// (Bearer). With no key configured the endpoint is open — matching the
// collector's write-auth convention for dev deployments.
func (r *Router) authorizeRing(w http.ResponseWriter, req *http.Request) bool {
	if r.cfg.APIKey == "" {
		return true
	}
	return collector.CheckBearer(w, req, []string{r.cfg.APIKey})
}

// ringStatus snapshots the topology for GET /v1/ring.
func (r *Router) ringStatus() RingStatus {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	st := RingStatus{Version: r.ringVersion, Vnodes: r.cfg.Vnodes}
	if st.Vnodes <= 0 {
		st.Vnodes = defaultVnodes
	}
	for _, b := range r.backends {
		st.Backends = append(st.Backends, RingBackend{
			Slot:       b.slot,
			URL:        b.url,
			Up:         b.up.Load(),
			Active:     b.active.Load(),
			QueueDepth: len(b.queue),
			Inflight:   b.inflight.Load(),
		})
	}
	if r.resize != nil {
		rs := &RingResize{Action: r.resize.action, Slot: r.resize.slot}
		for _, mg := range r.resize.migs {
			mg.mu.Lock()
			buffered := len(mg.buf)
			mg.mu.Unlock()
			rs.Migrations = append(rs.Migrations, RingMigration{
				ID:       mg.id,
				From:     mg.from,
				To:       mg.to,
				State:    migStateName(mg.state.Load()),
				Ranges:   mg.ranges,
				Buffered: buffered,
			})
		}
		st.Resize = rs
	}
	return st
}

// activeSlotsLocked lists the slots currently on the serving ring.
func (r *Router) activeSlotsLocked() []int {
	slots := make([]int, 0, len(r.backends))
	for _, b := range r.backends {
		if b.active.Load() {
			slots = append(slots, b.slot)
		}
	}
	return slots
}

// buildMigrations turns a movedRanges map into migration objects in
// deterministic (from, then to) order, in the forwarding state.
func (r *Router) buildMigrations(moved map[[2]int][]corpus.KeyRange) []*migration {
	pairs := make([][2]int, 0, len(moved))
	for p := range moved {
		pairs = append(pairs, p)
	}
	for i := 1; i < len(pairs); i++ { // tiny set; insertion sort
		for j := i; j > 0 && (pairs[j][0] < pairs[j-1][0] ||
			(pairs[j][0] == pairs[j-1][0] && pairs[j][1] < pairs[j-1][1])); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	migs := make([]*migration, 0, len(pairs))
	for _, p := range pairs {
		migs = append(migs, &migration{
			id:     fmt.Sprintf("m%d-%d-%d", r.ringVersion+1, p[0], p[1]),
			from:   p[0],
			to:     p[1],
			ranges: moved[p],
		})
	}
	return migs
}

// resizeAdd stages a resize bringing a new backend into the ring. The
// newcomer starts taking writes only for ranges already cut over; until
// then its arcs keep forwarding to their current owners, whose run logs
// retain what the controller will stream.
func (r *Router) resizeAdd(url string) error {
	if url == "" {
		return fmt.Errorf("add requires a backend url")
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	if r.resize != nil {
		return fmt.Errorf("a %s resize is already in flight; commit it first", r.resize.action)
	}
	for _, b := range r.backends {
		if b.url == url && b.active.Load() {
			return fmt.Errorf("backend %s is already on the ring (slot %d)", url, b.slot)
		}
	}
	// addBackendLocked marks the newcomer active so it can accept
	// cutover traffic; the *serving* ring (r.ring) excludes it until
	// commit, so until then its arcs still forward to their current
	// owners.
	b := r.addBackendLocked(url)
	next := newRingOver(r.activeSlotsLocked(), r.cfg.Vnodes)
	migs := r.buildMigrations(movedRanges(r.ring, next))
	r.resize = &resizeOp{action: "add", slot: b.slot, migs: migs}
	r.next = next
	r.logf("shard: router: staged add of %s as slot %d (%d migrations)", url, b.slot, len(migs))
	return nil
}

// resizeRemove stages a resize draining a backend out of the ring. The
// backend keeps serving its arcs until commit; the controller drains
// its state to the successors, then cutover routes the arcs onward.
func (r *Router) resizeRemove(url string) error {
	if url == "" {
		return fmt.Errorf("remove requires a backend url")
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	if r.resize != nil {
		return fmt.Errorf("a %s resize is already in flight; commit it first", r.resize.action)
	}
	var victim *backend
	for _, b := range r.backends {
		if b.url == url && b.active.Load() {
			victim = b
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("backend %s is not on the ring", url)
	}
	slots := r.activeSlotsLocked()
	if len(slots) <= 1 {
		return fmt.Errorf("cannot remove the last backend")
	}
	rest := make([]int, 0, len(slots)-1)
	for _, s := range slots {
		if s != victim.slot {
			rest = append(rest, s)
		}
	}
	next := newRingOver(rest, r.cfg.Vnodes)
	migs := r.buildMigrations(movedRanges(r.ring, next))
	r.resize = &resizeOp{action: "remove", slot: victim.slot, migs: migs}
	r.next = next
	r.logf("shard: router: staged remove of %s (slot %d, %d migrations)", url, victim.slot, len(migs))
	return nil
}

// resizePause flips every migration of the in-flight resize from
// forwarding to buffering: writes into the moving ranges park in
// bounded buffers so the sources stop accumulating new state and the
// controller can ship the final chunks against a fixed watermark.
func (r *Router) resizePause() error {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	if r.resize == nil {
		return fmt.Errorf("no resize in flight")
	}
	for _, mg := range r.resize.migs {
		mg.state.CompareAndSwap(migForwarding, migBuffering)
	}
	return nil
}

// resizeCutover flips every paused migration to done and flushes its
// parked writes to the destination. The flush enqueues blocking — the
// writes were acked 202 when parked, so shedding them now would break
// the ack contract; the destination queue draining is what unblocks.
func (r *Router) resizeCutover() error {
	r.topoMu.RLock()
	if r.resize == nil {
		r.topoMu.RUnlock()
		return fmt.Errorf("no resize in flight")
	}
	migs := r.resize.migs
	next := r.next
	backends := r.backends[:len(r.backends):len(r.backends)]
	r.topoMu.RUnlock()

	for _, mg := range migs {
		prev := mg.state.Swap(migDone)
		if prev == migDone {
			continue
		}
		mg.mu.Lock()
		buf := mg.buf
		mg.buf = nil
		mg.mu.Unlock()
		dest := backends[mg.to]
		for _, j := range buf {
			j.order = orderVia(next, j.key, mg.to)
			j.attempt = 0
			select {
			case dest.queue <- j:
				dest.routed.Add(1)
			case <-r.ctx.Done():
				return fmt.Errorf("router shutting down")
			}
		}
		r.cutovers.Add(1)
		r.logf("shard: router: migration %s cut over (%d buffered writes flushed to slot %d)",
			mg.id, len(buf), mg.to)
	}
	return nil
}

// resizeCommit adopts the target ring: every migration must be done.
// For a remove, the drained backend is deactivated — its workers keep
// running so anything still queued drains, but no new writes route to
// it and health probes skip it.
func (r *Router) resizeCommit() error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	if r.resize == nil {
		return fmt.Errorf("no resize in flight")
	}
	for _, mg := range r.resize.migs {
		if mg.state.Load() != migDone {
			return fmt.Errorf("migration %s is still %s; cutover first", mg.id, migStateName(mg.state.Load()))
		}
	}
	if r.resize.action == "remove" {
		r.backends[r.resize.slot].active.Store(false)
	}
	r.ring = r.next
	r.next = nil
	r.resize = nil
	r.ringVersion++
	r.logf("shard: router: resize committed; ring version now %d", r.ringVersion)
	return nil
}
