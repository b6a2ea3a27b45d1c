package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cbi/internal/collector"
	"cbi/internal/harness"
	"cbi/internal/report"
	"cbi/internal/subjects"
)

var (
	corpusOnce sync.Once
	corpusRes  *harness.Result
)

// testCorpus runs one shared ccrypt experiment — a real subject corpus
// with real failures — reused by every test in the package.
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

func quietLogf(string, ...any) {}

func TestRingOwnerDeterministicAndBalanced(t *testing.T) {
	r := newRing(5, 0)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("client-%d", i)
		b := r.owner(key)
		if b2 := r.owner(key); b2 != b {
			t.Fatalf("owner(%q) not deterministic: %d then %d", key, b, b2)
		}
		counts[b]++
	}
	for b, c := range counts {
		// 5000 keys over 5 backends with 64 vnodes: expect ~1000 each;
		// a backend below a third of fair share means the ring is badly
		// unbalanced.
		if c < 333 {
			t.Fatalf("backend %d got %d of 5000 keys; distribution %v", b, c, counts)
		}
	}
}

func TestRingOrderCoversAllBackendsOnce(t *testing.T) {
	r := newRing(4, 8)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		order := r.order(key)
		if len(order) != 4 {
			t.Fatalf("order(%q) = %v, want 4 distinct backends", key, order)
		}
		seen := map[int]bool{}
		for _, b := range order {
			if seen[b] {
				t.Fatalf("order(%q) repeats backend %d: %v", key, b, order)
			}
			seen[b] = true
		}
		if order[0] != r.owner(key) {
			t.Fatalf("order(%q)[0] = %d, owner = %d", key, order[0], r.owner(key))
		}
		if got := r.order(key); !reflect.DeepEqual(got, order) {
			t.Fatalf("order(%q) not deterministic: %v then %v", key, order, got)
		}
	}
}

// startCollector boots one collector shard over HTTP.
func startCollector(t *testing.T, cfg collector.Config) (*collector.Server, *httptest.Server) {
	t.Helper()
	cfg.Logf = quietLogf
	srv, err := collector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// TestShardedEquivalence is the headline property of the sharded tier:
// a 3-shard deployment — clients partitioned by a consistent-hashing
// router, queries answered by a merging gateway — produces /v1/scores
// and /v1/predictors responses element-for-element identical to one
// unsharded collector that ingested the same corpus. Then one backend
// is killed mid-test and the gateway must keep serving, reporting the
// outage in degraded_shards, while the router re-routes new traffic to
// the survivors.
func TestShardedEquivalence(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := collector.Config{
		NumSites:    in.Set.NumSites,
		NumPreds:    in.Set.NumPreds,
		SiteOf:      in.SiteOf,
		Fingerprint: res.Plan.Fingerprint(),
	}

	const numShards = 3
	shards := make([]*collector.Server, numShards)
	urls := make([]string, numShards)
	backends := make([]*httptest.Server, numShards)
	for i := range shards {
		shards[i], backends[i] = startCollector(t, cfg)
		urls[i] = backends[i].URL
	}

	router, err := NewRouter(RouterConfig{
		Backends:       urls,
		HealthInterval: 100 * time.Millisecond,
		Logf:           quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(rt.Close)

	// Stream the corpus through the router from several clients with
	// fixed identities, so the shard assignment is deterministic and
	// every shard sees a nontrivial slice.
	const numClients = 6
	var wg sync.WaitGroup
	errs := make(chan error, numClients)
	for w := 0; w < numClients; w++ {
		client := collector.NewClient(rt.URL, in.Set.NumSites, in.Set.NumPreds,
			collector.WithBatchSize(11+7*w),
			collector.WithClientID(fmt.Sprintf("client-%d", w)))
		wg.Add(1)
		go func(w int, client *collector.Client) {
			defer wg.Done()
			ctx := context.Background()
			for i := w; i < len(in.Set.Reports); i += numClients {
				if err := client.Add(ctx, in.Set.Reports[i]); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Flush(ctx)
		}(w, client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := router.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitAppliedTotal(t, shards, int64(len(in.Set.Reports)))

	// Every shard should own a real slice of the corpus — otherwise the
	// merge below is vacuously testing a single collector.
	for i, s := range shards {
		if n := s.StatsNow().ReportsApplied; n == 0 {
			t.Fatalf("shard %d ingested no reports; consistent hashing sent everything elsewhere", i)
		}
	}

	gwSrv, err := NewGateway(GatewayConfig{
		Shards:      urls,
		NumSites:    in.Set.NumSites,
		NumPreds:    in.Set.NumPreds,
		SiteOf:      in.SiteOf,
		Fingerprint: res.Plan.Fingerprint(),
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(gwSrv.Handler())
	t.Cleanup(gw.Close)

	// Reference: one unsharded collector over the same corpus.
	refSrv, ref := startCollector(t, cfg)
	for _, r := range in.Set.Reports {
		refSrv.Ingest(r)
	}

	var gotScores, wantScores []collector.ScoreEntry
	getJSON(t, gw.URL+"/v1/scores?k=30", &gotScores)
	getJSON(t, ref.URL+"/v1/scores?k=30", &wantScores)
	if len(wantScores) == 0 {
		t.Fatal("reference collector returned no scores")
	}
	if !reflect.DeepEqual(gotScores, wantScores) {
		t.Fatalf("sharded /v1/scores diverges from single collector:\n got %+v\nwant %+v", gotScores, wantScores)
	}

	var gotPreds, wantPreds []collector.PredictorEntry
	getJSON(t, gw.URL+"/v1/predictors?k=0&affinity=3", &gotPreds)
	getJSON(t, ref.URL+"/v1/predictors?k=0&affinity=3", &wantPreds)
	if len(wantPreds) == 0 {
		t.Fatal("reference collector returned no predictors")
	}
	if !reflect.DeepEqual(gotPreds, wantPreds) {
		t.Fatalf("sharded /v1/predictors diverges from single collector:\n got %+v\nwant %+v", gotPreds, wantPreds)
	}

	var gwStats GatewayStats
	getJSON(t, gw.URL+"/v1/stats", &gwStats)
	if gwStats.Runs != int64(len(in.Set.Reports)) || gwStats.DegradedShards != 0 {
		t.Fatalf("gateway stats = %+v, want %d runs and 0 degraded shards", gwStats, len(in.Set.Reports))
	}

	// Kill one backend. The gateway must keep answering from the
	// survivors and say so; the router must keep accepting writes.
	backends[1].Close()
	liveBefore := shards[0].StatsNow().ReportsApplied + shards[2].StatsNow().ReportsApplied

	getJSON(t, gw.URL+"/v1/stats", &gwStats)
	if gwStats.DegradedShards != 1 {
		t.Fatalf("after killing a shard, degraded_shards = %d, want 1 (%+v)", gwStats.DegradedShards, gwStats)
	}
	gotScores = nil
	if code := getJSON(t, gw.URL+"/v1/scores?k=10", &gotScores); code != http.StatusOK {
		t.Fatalf("gateway /v1/scores returned %d with one dead shard", code)
	}
	if len(gotScores) == 0 {
		t.Fatal("gateway served no scores from the surviving shards")
	}

	// New traffic — including traffic hashed to the dead shard — must
	// land on survivors via failover.
	const extra = 120
	client := collector.NewClient(rt.URL, in.Set.NumSites, in.Set.NumPreds,
		collector.WithBatchSize(10), collector.WithClientID("post-outage"))
	ctx := context.Background()
	for i := 0; i < extra; i++ {
		if err := client.Add(ctx, in.Set.Reports[i%len(in.Set.Reports)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := router.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitAppliedTotal(t, []*collector.Server{shards[0], shards[2]}, liveBefore+extra)

	// The router itself still reports healthy while any backend lives.
	resp, err := http.Get(rt.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /healthz = %d with 2 of 3 backends alive", resp.StatusCode)
	}
	var rst RouterStats
	getJSON(t, rt.URL+"/v1/stats", &rst)
	if rst.Dropped != 0 {
		t.Fatalf("router dropped %d batches; failover should have re-routed them (%+v)", rst.Dropped, rst)
	}
}

// waitAppliedTotal polls until the servers' applied counts sum to n.
func waitAppliedTotal(t *testing.T, servers []*collector.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var total int64
	for time.Now().Before(deadline) {
		total = 0
		for _, s := range servers {
			total += s.StatsNow().ReportsApplied
		}
		if total >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("shards applied %d of %d reports before deadline", total, n)
}

// syntheticInput builds a small deterministic corpus for router-only
// tests and benchmarks that do not need a real subject.
func syntheticInput(n int) (*report.Set, []int32) {
	const numSites, numPreds = 32, 96
	siteOf := make([]int32, numPreds)
	for p := range siteOf {
		siteOf[p] = int32(p / 3)
	}
	rng := rand.New(rand.NewSource(42))
	set := &report.Set{NumSites: numSites, NumPreds: numPreds}
	allSites := make([]int32, numSites)
	for s := range allSites {
		allSites[s] = int32(s)
	}
	for i := 0; i < n; i++ {
		r := &report.Report{Failed: rng.Intn(4) == 0, ObservedSites: allSites}
		for p := 0; p < numPreds; p++ {
			if rng.Intn(3) == 0 {
				r.TruePreds = append(r.TruePreds, int32(p))
			}
		}
		set.Reports = append(set.Reports, r)
	}
	return set, siteOf
}

// TestRouterFailoverToLiveBackend starts a router whose first-choice
// backend for many keys is unreachable from the outset: every batch
// must still land on the surviving collector, with nothing dropped.
func TestRouterFailoverToLiveBackend(t *testing.T) {
	set, siteOf := syntheticInput(300)
	srv, ts := startCollector(t, collector.Config{
		NumSites: set.NumSites, NumPreds: set.NumPreds, SiteOf: siteOf,
	})

	// Backend 0 is a dead address; backend 1 is real.
	router, err := NewRouter(RouterConfig{
		Backends:       []string{"http://127.0.0.1:1", ts.URL},
		HealthInterval: 50 * time.Millisecond,
		Logf:           quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(rt.Close)

	ctx := context.Background()
	for w := 0; w < 4; w++ {
		client := collector.NewClient(rt.URL, set.NumSites, set.NumPreds,
			collector.WithBatchSize(25),
			collector.WithClientID(fmt.Sprintf("fo-client-%d", w)))
		for i := w; i < len(set.Reports); i += 4 {
			if err := client.Add(ctx, set.Reports[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitAppliedTotal(t, []*collector.Server{srv}, int64(len(set.Reports)))

	var rst RouterStats
	getJSON(t, rt.URL+"/v1/stats", &rst)
	if rst.Dropped != 0 || rst.NoShards != 0 {
		t.Fatalf("router lost traffic: %+v", rst)
	}
	if rst.Backends[0].Up {
		t.Fatalf("dead backend still marked up: %+v", rst)
	}
}

// TestRoutingKeyPrecedence checks the partition key fallback chain:
// client id, then batch id, then remote address.
func TestRoutingKeyPrecedence(t *testing.T) {
	mk := func(clientID, batchID string) *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/v1/reports", nil)
		req.RemoteAddr = "10.1.2.3:5555"
		if clientID != "" {
			req.Header.Set("X-CBI-Client-ID", clientID)
		}
		if batchID != "" {
			req.Header.Set("X-CBI-Batch-ID", batchID)
		}
		return req
	}
	if got := routingKey(mk("cid", "bid")); got != "cid" {
		t.Fatalf("routingKey with both ids = %q, want client id", got)
	}
	if got := routingKey(mk("", "bid")); got != "bid" {
		t.Fatalf("routingKey with batch id only = %q, want batch id", got)
	}
	if got := routingKey(mk("", "")); got != "10.1.2.3" {
		t.Fatalf("routingKey with no ids = %q, want peer host", got)
	}
}

// TestGatewayStatsServesCachedWhenAllShardsDown pins the degraded-mode
// contract of GET /v1/stats: once the gateway has answered successfully
// at least once, a total shard outage yields the last known totals
// marked stale (HTTP 200) rather than an all-zero error body, and each
// such response is counted in cbi_gateway_degraded_responses_total. A
// gateway that has never seen a healthy fan-out still returns 503.
func TestGatewayStatsServesCachedWhenAllShardsDown(t *testing.T) {
	const (
		numSites = 2
		numPreds = 6
	)
	siteOf := []int32{0, 0, 0, 1, 1, 1}

	srv, ts := startCollector(t, collector.Config{
		NumSites: numSites, NumPreds: numPreds, SiteOf: siteOf,
		RunLogSize: 16,
	})
	defer srv.Close()

	client := collector.NewClient(ts.URL, numSites, numPreds)
	set := &report.Set{NumSites: numSites, NumPreds: numPreds}
	for i := 0; i < 8; i++ {
		set.Reports = append(set.Reports, &report.Report{
			Failed:        i%2 == 0,
			ObservedSites: []int32{0, 1},
			TruePreds:     []int32{int32(i % numPreds)},
		})
	}
	if err := client.SubmitSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.StatsNow().ReportsApplied < int64(len(set.Reports)) {
		if time.Now().After(deadline) {
			t.Fatal("collector never applied the submitted reports")
		}
		time.Sleep(5 * time.Millisecond)
	}

	gw, err := NewGateway(GatewayConfig{
		Shards:   []string{ts.URL},
		NumSites: numSites, NumPreds: numPreds, SiteOf: siteOf,
		Timeout: 2 * time.Second,
		Logf:    quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()

	// Healthy fan-out: fresh totals, cached for later.
	var healthy GatewayStats
	if code := getJSON(t, gts.URL+"/v1/stats", &healthy); code != http.StatusOK {
		t.Fatalf("healthy /v1/stats = %d, want 200", code)
	}
	if healthy.Stale || healthy.DegradedShards != 0 {
		t.Fatalf("healthy stats marked degraded: %+v", healthy)
	}
	if healthy.Runs != int64(len(set.Reports)) {
		t.Fatalf("healthy stats runs = %d, want %d", healthy.Runs, len(set.Reports))
	}

	// Kill the only shard: the same endpoint must keep answering with
	// the cached totals, marked stale, at 200.
	ts.Close()
	var stale GatewayStats
	if code := getJSON(t, gts.URL+"/v1/stats", &stale); code != http.StatusOK {
		t.Fatalf("degraded /v1/stats = %d, want 200 with cached body", code)
	}
	if !stale.Stale {
		t.Fatalf("degraded response not marked stale: %+v", stale)
	}
	if stale.Runs != healthy.Runs || stale.Failing != healthy.Failing {
		t.Fatalf("stale totals %+v do not match last healthy totals %+v", stale, healthy)
	}
	if stale.DegradedShards != 1 || len(stale.ShardErrors) == 0 {
		t.Fatalf("stale response must report the outage: %+v", stale)
	}

	var metrics strings.Builder
	gw.Metrics().WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), "cbi_gateway_degraded_responses_total 1") {
		t.Fatalf("degraded response not counted:\n%s", metrics.String())
	}

	// A gateway with no cache yet is honest about the outage: 503.
	cold, err := NewGateway(GatewayConfig{
		Shards:   []string{ts.URL}, // already closed
		NumSites: numSites, NumPreds: numPreds, SiteOf: siteOf,
		Timeout: 2 * time.Second,
		Logf:    quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(cold.Handler())
	defer cts.Close()
	var zero GatewayStats
	if code := getJSON(t, cts.URL+"/v1/stats", &zero); code != http.StatusServiceUnavailable {
		t.Fatalf("cold degraded /v1/stats = %d, want 503", code)
	}
}
