package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"cbi/internal/collector"
	"cbi/internal/shard"
)

// ringConfig sizes one server deployment. Everything not named here is
// left at the default `cbi serve`, `cbi route` and `cbi gateway` use:
// planner off, auth off, rate limit off, gzip on, delta sync on.
type ringConfig struct {
	shards     int
	runLogSize int
	// walDir, when set, turns on WAL + checkpoint for every shard.
	walDir          string
	checkpointEvery time.Duration
	router, gateway bool
}

// ring is a deployment served on real loopback TCP listeners: shards,
// optionally a router in front and a gateway beside.
type ring struct {
	c       *corpus
	cfg     ringConfig
	tr      *tracer
	shards  []*collector.Server
	urls    []string
	router  *shard.Router
	gateway *shard.Gateway
	// ingestURL is where senders post (the router, or the lone shard);
	// gatewayURL is where the reader queries.
	ingestURL, gatewayURL string
	listeners             []*http.Server
}

func discardLogf(string, ...any) {}

func (r *ring) shardConfig(i int) collector.Config {
	cfg := collector.Config{
		NumSites: r.c.numSites, NumPreds: r.c.numPreds, SiteOf: r.c.siteOf,
		Fingerprint: r.c.fingerprint,
		RunLogSize:  r.cfg.runLogSize,
		Logf:        discardLogf,
	}
	if r.cfg.walDir != "" {
		cfg.SnapshotPath = filepath.Join(r.cfg.walDir, fmt.Sprintf("shard%d.ckpt", i))
		cfg.WALPath = filepath.Join(r.cfg.walDir, fmt.Sprintf("shard%d.wal", i))
		cfg.CheckpointEvery = r.cfg.checkpointEvery
	}
	return cfg
}

// serve starts h on a fresh loopback port and returns its base URL.
func (r *ring) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	r.listeners = append(r.listeners, srv)
	go srv.Serve(l) // returns when close() closes srv
	return "http://" + l.Addr().String(), nil
}

func startRing(c *corpus, cfg ringConfig, tr *tracer) (*ring, error) {
	r := &ring{c: c, cfg: cfg, tr: tr}
	for i := 0; i < cfg.shards; i++ {
		srv, err := collector.New(r.shardConfig(i))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards = append(r.shards, srv)
		h := tr.handler(spanIngest, http.MethodPost, srv.Handler(), "/v1/reports")
		h = tr.handler(spanSnapshot, http.MethodGet, h, "/v1/snapshot")
		url, err := r.serve(h)
		if err != nil {
			r.close()
			return nil, err
		}
		r.urls = append(r.urls, url)
	}
	r.ingestURL = r.urls[0]
	if cfg.router {
		rt, err := shard.NewRouter(shard.RouterConfig{Backends: r.urls, Logf: discardLogf})
		if err != nil {
			r.close()
			return nil, err
		}
		r.router = rt
		url, err := r.serve(tr.handler(spanRouter, http.MethodPost, rt.Handler(), "/v1/reports"))
		if err != nil {
			r.close()
			return nil, err
		}
		r.ingestURL = url
	}
	if cfg.gateway {
		gw, err := shard.NewGateway(shard.GatewayConfig{
			Shards:   r.urls,
			NumSites: c.numSites, NumPreds: c.numPreds, SiteOf: c.siteOf,
			Fingerprint: c.fingerprint,
			Logf:        discardLogf,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.gateway = gw
		url, err := r.serve(tr.handler(spanGateway, http.MethodGet, gw.Handler(), "/v1/predictors", "/v1/scores"))
		if err != nil {
			r.close()
			return nil, err
		}
		r.gatewayURL = url
	}
	return r, nil
}

// close stops everything without draining: listeners first, so no
// request is in flight when the servers behind them go away.
func (r *ring) close() {
	for _, l := range r.listeners {
		l.Close()
	}
	r.listeners = nil
	if r.gateway != nil {
		r.gateway.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, s := range r.shards {
		s.Close()
	}
}

// totals sums the shards' retained runs and applied reports.
func (r *ring) totals() (runs, applied int64) {
	for _, s := range r.shards {
		st := s.StatsNow()
		runs += st.Runs
		applied += st.ReportsApplied
	}
	return runs, applied
}

// waitApplied blocks until the shards have applied want reports.
func (r *ring) waitApplied(want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, applied := r.totals()
		if applied >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards applied %d of %d reports within %v", applied, want, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// httpGet fetches url and returns the body of a 200 response.
func httpGet(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body, nil
}
