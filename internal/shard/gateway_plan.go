package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cbi/internal/collector"
	"cbi/internal/plan"
)

// The gateway's half of the closed sampling loop. In planner mode
// (PlanEvery > 0) the gateway is the fleet's single planning authority:
// each tick it adopts the highest plan version any shard knows (so a
// restarted gateway resumes the fleet's version chain instead of
// restarting it at 1), merges every shard's per-site reach counts into
// the fleet-wide window, re-plans, and pushes the published plan back
// to all shards — from where clients and routers pick it up. In proxy
// mode (PlanEvery == 0) the gateway never plans; GET /v1/plan refreshes
// from the shards and serves the newest version the fleet knows, so a
// gateway can front planner-enabled collectors without forking the
// version chain.

// planInput merges every live shard's snapshot into one fleet-wide
// planning window: per-site observed-run counts, total runs, and the
// merged top predictor's site for targeted deployment.
func (g *Gateway) planInput() plan.Input {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.Timeout)
	defer cancel()
	merged, err := g.mergeCounters(g.pull(ctx, true))
	if err != nil {
		g.logf("shard: gateway: planning window unavailable: %v", err)
		return plan.Input{TopSite: -1}
	}
	observed := make([]int64, g.cfg.NumSites)
	for i := range observed {
		observed[i] = merged.FobsSite[i] + merged.SobsSite[i]
	}
	topSite := -1
	if g.cfg.PlanBoostRadius > 0 {
		topSite = collector.TopSite(merged.ToAgg(g.cfg.SiteOf), g.cfg.SiteOf)
	}
	return plan.Input{
		Observed: observed,
		Runs:     merged.NumF + merged.NumS,
		TopSite:  topSite,
	}
}

// refreshFromShards asks every shard for a plan newer than the
// gateway's own (`?since=<version>`) and adopts the highest version any
// shard returns. Callers hold g.planMu.
func (g *Gateway) refreshFromShards(ctx context.Context) {
	since := g.planStore.Version()
	var best *plan.Plan
	for i, url := range g.shards.list() {
		p, err := g.fetchShardPlan(ctx, url, since)
		if err != nil {
			g.logf("shard: gateway: plan refresh from shard %d: %v", i, err)
			continue
		}
		if p != nil && (best == nil || p.Version > best.Version) {
			best = p
		}
	}
	if best != nil && g.planStore.Publish(best) {
		g.logf("shard: gateway: adopted fleet sampling plan v%d from shards", best.Version)
	}
}

// fetchShardPlan performs one conditional plan fetch; (nil, nil) means
// the shard has nothing newer than since.
func (g *Gateway) fetchShardPlan(ctx context.Context, url string, since uint64) (*plan.Plan, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		url+"/v1/plan?since="+strconv.FormatUint(since, 10), nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotModified, http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("GET /v1/plan: %d: %s", resp.StatusCode, body)
	}
	p, err := plan.Decode(resp.Body, g.cfg.NumSites)
	if err != nil {
		return nil, err
	}
	if g.cfg.Fingerprint != 0 && p.Fingerprint != 0 && p.Fingerprint != g.cfg.Fingerprint {
		return nil, fmt.Errorf("plan fingerprint %016x does not match gateway %016x",
			p.Fingerprint, g.cfg.Fingerprint)
	}
	return p, nil
}

// Replan runs one planning cycle: adopt the fleet's highest version,
// re-plan from the merged window, and push any newly published plan to
// every shard. It returns the store's plan after the attempt and
// whether a new version was published.
func (g *Gateway) Replan(ctx context.Context) (*plan.Plan, bool) {
	g.planMu.Lock()
	defer g.planMu.Unlock()
	g.refreshFromShards(ctx)
	p, published := g.planner.Replan()
	if published {
		g.replans.Inc()
		g.logf("shard: gateway: published fleet sampling plan v%d (%d runs, %d boosted sites)",
			p.Version, p.Runs, len(p.Boosts))
		g.pushPlan(ctx, p)
	}
	return p, published
}

// pushPlan POSTs a plan to every shard; a shard that already has the
// version (or a newer one) still counts as a successful push — the
// point is convergence, not acceptance.
func (g *Gateway) pushPlan(ctx context.Context, p *plan.Plan) {
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		g.logf("shard: gateway: encoding plan v%d: %v", p.Version, err)
		return
	}
	for i, url := range g.shards.list() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			url+"/v1/plan", bytes.NewReader(buf.Bytes()))
		if err != nil {
			g.planPushErrors.Inc()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if g.cfg.PlanPushKey != "" {
			req.Header.Set("Authorization", "Bearer "+g.cfg.PlanPushKey)
		}
		resp, err := g.hc.Do(req)
		if err != nil {
			g.planPushErrors.Inc()
			g.logf("shard: gateway: pushing plan v%d to shard %d: %v", p.Version, i, err)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			g.planPushErrors.Inc()
			g.logf("shard: gateway: pushing plan v%d to shard %d: %d: %s",
				p.Version, i, resp.StatusCode, body)
			continue
		}
		g.planPushes.Inc()
	}
}

// planLoop drives planner mode until Close.
func (g *Gateway) planLoop() {
	t := time.NewTicker(g.cfg.PlanEvery)
	defer t.Stop()
	for {
		select {
		case <-g.die:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), g.cfg.Timeout)
			g.Replan(ctx)
			cancel()
		}
	}
}

// handlePlan serves GET /v1/plan. In proxy mode the gateway first
// refreshes from the shards so it serves the fleet's current plan, not
// its own bootstrap.
func (g *Gateway) handlePlan(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if g.cfg.PlanEvery <= 0 {
		g.planMu.Lock()
		g.refreshFromShards(req.Context())
		g.planMu.Unlock()
	}
	if plan.ServeGet(w, req, g.planStore) {
		g.planNotModified.Inc()
	} else {
		g.planFetches.Inc()
	}
}
