package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cbi/internal/collector"
	"cbi/internal/corpus"
)

// TestMovedRangesExactArcs pins the arc math an elastic resize rests
// on: movedRanges must classify every point of the hash circle — a key
// is in some moved range exactly when its owner differs between the
// two rings, and then the range's (from, to) pair names both owners.
func TestMovedRangesExactArcs(t *testing.T) {
	cases := []struct {
		name      string
		old, next []int
	}{
		{"add", []int{0, 1, 2}, []int{0, 1, 2, 3}},
		{"remove", []int{0, 1, 2}, []int{0, 2}},
		{"swap", []int{0, 1}, []int{0, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := newRingOver(tc.old, 16)
			next := newRingOver(tc.next, 16)
			moved := movedRanges(old, next)
			for i := 0; i < 5000; i++ {
				h := hashKey(fmt.Sprintf("key-%d", i))
				from, to := old.ownerOfHash(h), next.ownerOfHash(h)
				var hit *[2]int
				for pair, ranges := range moved {
					if corpus.InRanges(h, ranges) {
						if hit != nil {
							t.Fatalf("hash %x in two moved ranges: %v and %v", h, *hit, pair)
						}
						p := pair
						hit = &p
					}
				}
				if from == to {
					if hit != nil {
						t.Fatalf("hash %x owner unchanged (%d) but in moved range %v", h, from, *hit)
					}
					continue
				}
				if hit == nil {
					t.Fatalf("hash %x moves %d→%d but is in no moved range", h, from, to)
				}
				if hit[0] != from || hit[1] != to {
					t.Fatalf("hash %x moves %d→%d but its range says %v", h, from, to, *hit)
				}
			}
		})
	}
}

// TestRingSlotStability pins the property that makes a resize move only
// the minimum: vnode positions derive from the slot number alone, so
// adding a slot reassigns arcs only *to* the newcomer and removing one
// reassigns arcs only *from* the victim.
func TestRingSlotStability(t *testing.T) {
	base := newRingOver([]int{0, 1, 2}, 16)
	grown := newRingOver([]int{0, 1, 2, 3}, 16)
	shrunk := newRingOver([]int{0, 2}, 16)
	for i := 0; i < 5000; i++ {
		h := hashKey(fmt.Sprintf("stable-%d", i))
		if g := grown.ownerOfHash(h); g != 3 && g != base.ownerOfHash(h) {
			t.Fatalf("hash %x moved %d→%d on grow; only the newcomer may gain arcs",
				h, base.ownerOfHash(h), g)
		}
		if b := base.ownerOfHash(h); b != 1 && shrunk.ownerOfHash(h) != b {
			t.Fatalf("hash %x moved %d→%d on shrink; only the victim's arcs may move",
				h, b, shrunk.ownerOfHash(h))
		}
	}
}

// postRing drives the router's resize state machine over HTTP.
func postRing(t *testing.T, routerURL, action, backendURL string) RingStatus {
	t.Helper()
	body, err := json.Marshal(map[string]string{"action": action, "url": backendURL})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/ring", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RingStatus
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/ring %s = %d", action, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// keyInRanges finds a client id whose hash falls in the given arcs —
// deterministic, since both the candidate ids and the ring are.
func keyInRanges(t *testing.T, ranges []corpus.KeyRange) string {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		key := fmt.Sprintf("mig-key-%d", i)
		if corpus.InRanges(corpus.KeyHash(key), ranges) {
			return key
		}
	}
	t.Fatal("no candidate key hashes into the migration's ranges")
	return ""
}

// TestRouterMigrationBuffering pins the pause-state routing contract:
// writes into a paused range are acked 202 and parked (not delivered
// anywhere), a full buffer sheds 429 with a Retry-After, and cutover
// delivers every parked write to the new owner exactly once.
func TestRouterMigrationBuffering(t *testing.T) {
	set, siteOf := syntheticInput(4)
	cfg := collector.Config{NumSites: set.NumSites, NumPreds: set.NumPreds, SiteOf: siteOf}
	old0, ts0 := startCollector(t, cfg)
	old1, ts1 := startCollector(t, cfg)
	newcomer, ts2 := startCollector(t, cfg)

	router, err := NewRouter(RouterConfig{
		Backends:        []string{ts0.URL, ts1.URL},
		MigrationBuffer: 2,
		HealthInterval:  50 * time.Millisecond,
		Logf:            quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(rt.Close)

	st := postRing(t, rt.URL, "add", ts2.URL)
	if st.Resize == nil || len(st.Resize.Migrations) == 0 {
		t.Fatalf("add staged no migrations: %+v", st)
	}
	var allRanges []corpus.KeyRange
	for _, mg := range st.Resize.Migrations {
		if mg.To != st.Resize.Slot {
			t.Fatalf("add migration %s targets slot %d, not the newcomer %d", mg.ID, mg.To, st.Resize.Slot)
		}
		allRanges = append(allRanges, mg.Ranges...)
	}
	key := keyInRanges(t, allRanges)
	postRing(t, rt.URL, "pause", "")

	// Two writes into the paused range: acked 202, parked, delivered
	// nowhere yet.
	ctx := context.Background()
	client := collector.NewClient(rt.URL, set.NumSites, set.NumPreds,
		collector.WithBatchSize(1), collector.WithClientID(key))
	for i := 0; i < 2; i++ {
		if err := client.Add(ctx, set.Reports[i]); err != nil {
			t.Fatal(err)
		}
		if err := client.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st = postRing(t, rt.URL, "pause", "") // re-posting pause is idempotent; returns status
	buffered := 0
	for _, mg := range st.Resize.Migrations {
		buffered += mg.Buffered
	}
	if buffered != 2 {
		t.Fatalf("parked %d writes, want 2: %+v", buffered, st.Resize)
	}

	// A third write overflows the 2-slot buffer: 429 with a Retry-After,
	// and never an ack — the client still owns it.
	req, err := http.NewRequest(http.MethodPost, rt.URL+"/v1/reports", strings.NewReader("overflow"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-CBI-Client-ID", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("buffer-overflow write = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("buffer-overflow 429 carries no Retry-After")
	}

	if n := old0.StatsNow().ReportsEnqueued + old1.StatsNow().ReportsEnqueued + newcomer.StatsNow().ReportsEnqueued; n != 0 {
		t.Fatalf("%d parked reports leaked to a collector before cutover", n)
	}

	postRing(t, rt.URL, "cutover", "")
	postRing(t, rt.URL, "commit", "")
	if err := router.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitAppliedTotal(t, []*collector.Server{newcomer}, 2)
	if n := old0.StatsNow().ReportsApplied + old1.StatsNow().ReportsApplied; n != 0 {
		t.Fatalf("cutover delivered %d parked reports to the old owners", n)
	}
	if n := newcomer.StatsNow().ReportsApplied; n != 2 {
		t.Fatalf("newcomer applied %d parked reports, want exactly 2", n)
	}

	rst := router.StatsNow()
	if rst.Buffered != 2 || rst.BufferRejects != 1 || rst.Dropped != 0 {
		t.Fatalf("router counters disagree with the parked/shed/flushed story: %+v", rst)
	}
	if rst.RingVersion != 2 {
		t.Fatalf("ring version after commit = %d, want 2", rst.RingVersion)
	}
}

// TestRingAdminAuth pins the topology-change gate: with an API key
// configured, GET /v1/ring stays open (controllers and gateways read
// it) but POST requires the Bearer key.
func TestRingAdminAuth(t *testing.T) {
	_, ts := startCollector(t, collector.Config{NumSites: 2, NumPreds: 4, SiteOf: []int32{0, 0, 1, 1}})
	router, err := NewRouter(RouterConfig{
		Backends: []string{ts.URL},
		APIKey:   "sesame",
		Logf:     quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(rt.Close)

	resp, err := http.Get(rt.URL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/ring = %d, want 200 (reads are open)", resp.StatusCode)
	}

	body := `{"action":"add","url":"http://example.invalid"}`
	resp, err = http.Post(rt.URL+"/v1/ring", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated POST /v1/ring = %d, want 401", resp.StatusCode)
	}

	// The same bearer check as the collector's write endpoints: the
	// scheme matches in any case, a wrong key is a 401 that says how to
	// authenticate.
	for _, c := range []struct {
		auth, action string
		want         int
	}{
		{"Bearer sesame", "add", http.StatusOK},
		{"bearer sesame", "pause", http.StatusOK},
		{"BEARER sesame", "pause", http.StatusOK},
		{"Bearer open-sesame", "pause", http.StatusUnauthorized},
		{"sesame", "pause", http.StatusUnauthorized},
	} {
		body := fmt.Sprintf(`{"action":%q,"url":"http://example.invalid"}`, c.action)
		req, err := http.NewRequest(http.MethodPost, rt.URL+"/v1/ring", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", c.auth)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST /v1/ring %s with Authorization %q = %d, want %d", c.action, c.auth, resp.StatusCode, c.want)
		}
		if www := resp.Header.Get("WWW-Authenticate"); (www != "") != (c.want == http.StatusUnauthorized) {
			t.Errorf("POST /v1/ring with Authorization %q: WWW-Authenticate = %q", c.auth, www)
		}
	}
}

// TestRouterRateLimit pins the per-key write throttle: each API key has
// its own bucket, a limited request gets 429 with a Retry-After, and
// the refusals are counted.
func TestRouterRateLimit(t *testing.T) {
	_, ts := startCollector(t, collector.Config{NumSites: 2, NumPreds: 4, SiteOf: []int32{0, 0, 1, 1}})
	router, err := NewRouter(RouterConfig{
		Backends:  []string{ts.URL},
		RateLimit: 0.001, // effectively: the burst and nothing more
		RateBurst: 1,
		Logf:      quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(rt.Close)

	post := func(auth string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, rt.URL+"/v1/reports", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", auth)
		req.Header.Set("X-CBI-Client-ID", "rl-client")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("Bearer key-a"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first write for key-a = %d, want 202", resp.StatusCode)
	}
	resp := post("Bearer key-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second write for key-a = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limit 429 carries no Retry-After")
	}
	if resp := post("Bearer key-b"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first write for key-b = %d, want 202 (buckets are per key)", resp.StatusCode)
	}
	if n := router.StatsNow().RateLimited; n != 1 {
		t.Fatalf("rate_limited counter = %d, want 1", n)
	}
}

// TestGatewayRingReload pins the elastic read path: a gateway pointed
// at the router's ring (no static shard list) adopts a committed
// resize's new shard set within one refresh interval.
func TestGatewayRingReload(t *testing.T) {
	set, siteOf := syntheticInput(4)
	cfg := collector.Config{NumSites: set.NumSites, NumPreds: set.NumPreds, SiteOf: siteOf}
	_, ts0 := startCollector(t, cfg)
	_, ts1 := startCollector(t, cfg)

	router, err := NewRouter(RouterConfig{
		Backends:       []string{ts0.URL},
		HealthInterval: 50 * time.Millisecond,
		Logf:           quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(rt.Close)

	gw, err := NewGateway(GatewayConfig{
		RingFrom:    rt.URL,
		RingRefresh: 30 * time.Millisecond,
		NumSites:    set.NumSites,
		NumPreds:    set.NumPreds,
		SiteOf:      siteOf,
		Timeout:     2 * time.Second,
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	if got := gw.shards.list(); len(got) != 1 || got[0] != ts0.URL {
		t.Fatalf("gateway boot shard set = %v, want just %s from the ring", got, ts0.URL)
	}

	// Grow the ring (no data to move — empty collectors) and watch the
	// gateway pick the newcomer up without a restart.
	postRing(t, rt.URL, "add", ts1.URL)
	postRing(t, rt.URL, "pause", "")
	postRing(t, rt.URL, "cutover", "")
	postRing(t, rt.URL, "commit", "")

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := gw.shards.list(); len(got) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never adopted the resized shard set: %v", gw.shards.list())
		}
		time.Sleep(10 * time.Millisecond)
	}
	var metrics strings.Builder
	gw.Metrics().WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), "cbi_gateway_shards 2") {
		t.Fatalf("cbi_gateway_shards gauge does not report the resized set:\n%s", metrics.String())
	}
}
