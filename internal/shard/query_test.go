package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cbi/internal/collector"
	"cbi/internal/core"
	"cbi/internal/report"
)

// queryFleet is three checkpointing shards behind swappable handlers
// (so a shard can go down, or be restarted, under the URL the gateway
// knows) and a gateway over them. runs[i] is what shard i holds.
type queryFleet struct {
	t      *testing.T
	cfg    collector.Config
	shards []*collector.Server
	cfgs   []collector.Config
	hands  []*atomic.Value
	urls   []string
	runs   [][]*report.Report
	gw     *Gateway
	gwURL  string
}

func newQueryFleet(t *testing.T) *queryFleet {
	t.Helper()
	res := testCorpus(t)
	in := res.CoreInput()
	f := &queryFleet{t: t, cfg: withQuietLogf(collector.Config{
		NumSites:    in.Set.NumSites,
		NumPreds:    in.Set.NumPreds,
		SiteOf:      in.SiteOf,
		Fingerprint: res.Plan.Fingerprint(),
	})}
	const numShards = 3
	for i := 0; i < numShards; i++ {
		cfg := f.cfg
		cfg.SnapshotPath = filepath.Join(t.TempDir(), fmt.Sprintf("shard%d.snap", i))
		srv, err := collector.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := new(atomic.Value)
		h.Store(srv.Handler())
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		f.shards, f.cfgs, f.hands = append(f.shards, srv), append(f.cfgs, cfg), append(f.hands, h)
		f.urls = append(f.urls, ts.URL)
	}
	t.Cleanup(func() {
		for _, s := range f.shards {
			s.Close()
		}
	})
	f.runs = make([][]*report.Report, numShards)
	var err error
	f.gw, err = NewGateway(GatewayConfig{
		Shards:      f.urls,
		NumSites:    in.Set.NumSites,
		NumPreds:    in.Set.NumPreds,
		SiteOf:      in.SiteOf,
		Fingerprint: res.Plan.Fingerprint(),
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.gw.Handler())
	t.Cleanup(ts.Close)
	f.gwURL = ts.URL
	return f
}

// ingest applies one batch on one shard.
func (f *queryFleet) ingest(shard int, id string, rs []*report.Report) {
	f.t.Helper()
	if err := f.shards[shard].IngestBatch(id, rs); err != nil {
		f.t.Fatal(err)
	}
	f.runs[shard] = append(f.runs[shard], rs...)
}

// single boots a fresh collector — nothing cached, nothing warm — over
// the runs of the given shards, in shard order.
func (f *queryFleet) single(shards ...int) string {
	f.t.Helper()
	srv, ts := startCollector(f.t, f.cfg)
	f.t.Cleanup(func() { srv.Close() })
	for _, i := range shards {
		if err := srv.IngestBatch("", f.runs[i]); err != nil {
			f.t.Fatal(err)
		}
	}
	return ts.URL
}

// engineSeries reads one cbi_predictors_engine_* counter of the gateway.
func (f *queryFleet) engineSeries(name, engine string) int {
	f.t.Helper()
	var b strings.Builder
	f.gw.Metrics().WritePrometheus(&b)
	m := regexp.MustCompile(`(?m)^` + name + `\{engine="` + engine + `"\} (\d+)$`).FindStringSubmatch(b.String())
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// answer is everything of a response the two tiers must agree on.
type answer struct {
	status             int
	contentType, allow string
	body               []byte
}

func ask(t *testing.T, method, url string) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Allow"), body}
}

// TestQueryParity: the read endpoints are one implementation, so the
// same request gets the same status, Content-Type, Allow and body bytes
// from a single collector and from a gateway over a 3-shard ring holding
// the same corpus — including every default, every cap and every
// rejection, which is where two hand-kept copies drift. The per-tier
// bad-parameter cases live here and nowhere else.
func TestQueryParity(t *testing.T) {
	f := newQueryFleet(t)
	all := testCorpus(t).CoreInput().Set.Reports
	for i := range f.shards {
		var mine []*report.Report
		for j := i; j < len(all); j += len(f.shards) {
			mine = append(mine, all[j])
		}
		f.ingest(i, "", mine)
	}
	one := f.single(0, 1, 2)

	type row struct {
		method, path string
		want         int
	}
	get := func(path string, want int) row { return row{http.MethodGet, path, want} }
	rows := []row{
		get("/v1/scores", 200),
		get("/v1/scores?k=7", 200),
		get("/v1/scores?k=0", 200),
		get("/v1/scores?k=-1", 200), // k <= 0: no cap
		get("/v1/scores?k=12abc", 400),
		get("/v1/scores?k=banana", 400),
		get("/v1/predictors", 200), // k=20, affinity=5
		get("/v1/predictors?k=20&affinity=5", 200),
		get("/v1/predictors?k=8&affinity=2", 200),
		get("/v1/predictors?k=0&affinity=0", 200),
		get("/v1/predictors?engine=eliminate", 200),
		get("/v1/predictors?k=-1", 400),
		get("/v1/predictors?k=12abc", 400),
		get("/v1/predictors?k=bogus", 400),
		get("/v1/predictors?affinity=x", 400),
		get("/v1/predictors?affinity=-2", 400),
		get("/v1/predictors?engine=no-such-engine", 400),
		get("/v1/compare", 400),
		get("/v1/compare?engines=", 400),
		get("/v1/compare?engines=ochiai", 400),
		get("/v1/compare?engines=ochiai,ochiai", 400),
		get("/v1/compare?engines=ochiai,not-real", 400),
		get("/v1/compare?engines=ochiai,jaccard&k=-1", 400),
		get("/v1/compare?engines=ochiai,jaccard&k=x", 400),
		get("/v1/compare?engines=ochiai,jaccard", 200),
		get("/v1/compare?engines=ochiai,ochiai,tarantula,jaccard&k=10", 200),
		{http.MethodPost, "/v1/scores", 405},
		{http.MethodPost, "/v1/predictors", 405},
		{http.MethodPost, "/v1/compare", 405},
	}
	for _, name := range core.EngineNames() {
		rows = append(rows, get("/v1/predictors?engine="+name+"&k=15", 200))
	}
	for _, r := range rows {
		want, got := ask(t, r.method, one+r.path), ask(t, r.method, f.gwURL+r.path)
		if want.status != r.want {
			t.Errorf("%s %s: collector answered %d, want %d (%s)", r.method, r.path, want.status, r.want, want.body)
		}
		if got.status != want.status || got.contentType != want.contentType || got.allow != want.allow {
			t.Errorf("%s %s: gateway %d %q Allow=%q, collector %d %q Allow=%q", r.method, r.path,
				got.status, got.contentType, got.allow, want.status, want.contentType, want.allow)
		}
		if !bytes.Equal(got.body, want.body) {
			t.Errorf("%s %s: gateway body (%d B) differs from the collector's (%d B)\n gateway: %.200s\ncollector: %.200s",
				r.method, r.path, len(got.body), len(want.body), got.body, want.body)
		}
		if r.want == 200 && len(bytes.TrimSpace(want.body)) <= len("[]") {
			t.Errorf("%s %s: empty answer, the comparison is vacuous", r.method, r.path)
		}
	}
	// The bare default is the documented one, not whatever both agree on.
	if bare, explicit := ask(t, http.MethodGet, f.gwURL+"/v1/predictors"),
		ask(t, http.MethodGet, f.gwURL+"/v1/predictors?k=20&affinity=5"); !bytes.Equal(bare.body, explicit.body) {
		t.Error("bare /v1/predictors is not k=20&affinity=5")
	}
}

// TestGatewayQueryCache: the gateway inherits the collector's predictor
// cache, keyed by the vector of its shards' state versions. A repeated
// query is a hit; anything that changes what a shard holds, or which
// shards answer, is a miss whose answer equals a never-cached single
// collector over the same runs.
func TestGatewayQueryCache(t *testing.T) {
	f := newQueryFleet(t)
	all := testCorpus(t).CoreInput().Set.Reports
	for i := range f.shards {
		f.ingest(i, fmt.Sprintf("seed-%d", i), all[i*200:(i+1)*200])
	}
	const path = "/v1/predictors?k=10&affinity=2"
	hits := func() int { return f.engineSeries("cbi_predictors_engine_cache_hits_total", "eliminate") }
	misses := func() int { return f.engineSeries("cbi_predictors_engine_cache_misses_total", "eliminate") }
	// check asks the gateway once, expects a miss, and compares the bytes
	// with a fresh collector over the runs of the given shards; then asks
	// again and expects a hit with the same bytes.
	check := func(stage string, shards ...int) {
		t.Helper()
		h0, m0 := hits(), misses()
		got := ask(t, http.MethodGet, f.gwURL+path)
		want := ask(t, http.MethodGet, f.single(shards...)+path)
		if got.status != 200 || !bytes.Equal(got.body, want.body) {
			t.Fatalf("%s: gateway answered %d, %d B; a fresh collector over the same runs %d, %d B\n gateway: %.300s\ncollector: %.300s",
				stage, got.status, len(got.body), want.status, len(want.body), got.body, want.body)
		}
		if h, m := hits()-h0, misses()-m0; h != 0 || m != 1 {
			t.Fatalf("%s: first query after the change: %d hits, %d misses; want a miss", stage, h, m)
		}
		again := ask(t, http.MethodGet, f.gwURL+path)
		if !bytes.Equal(again.body, got.body) {
			t.Fatalf("%s: repeated query changed its answer", stage)
		}
		if h, m := hits()-h0, misses()-m0; h != 1 || m != 1 {
			t.Fatalf("%s: repeated query: %d hits, %d misses in total; want 1 and 1", stage, h, m)
		}
	}

	check("all up", 0, 1, 2)

	f.ingest(1, "more", all[600:650])
	check("one batch on one shard", 0, 1, 2)

	resp, err := http.Post(f.urls[1]+"/v1/revoke", "application/json", strings.NewReader(`{"ids":["more"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("revoke = %d", resp.StatusCode)
	}
	f.runs[1] = f.runs[1][:200]
	check("revoke", 0, 1, 2)

	// Shard 0 restarts from its checkpoint: same runs, new epoch.
	if err := f.shards[0].SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	f.shards[0].Close()
	reborn, err := collector.New(f.cfgs[0])
	if err != nil {
		t.Fatalf("restarting shard 0: %v", err)
	}
	f.shards[0] = reborn
	f.hands[0].Store(reborn.Handler())
	check("restart (new epoch)", 0, 1, 2)

	// Shard 2 down: the degraded union is its own answer — not the
	// all-up body, and not cached where the all-up body will be looked up.
	allUp := ask(t, http.MethodGet, f.gwURL+path)
	up := f.hands[2].Load()
	f.hands[2].Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})))
	check("one shard down", 0, 1)
	if degraded := ask(t, http.MethodGet, f.gwURL+path); bytes.Equal(degraded.body, allUp.body) {
		t.Fatal("degraded answer equals the all-up answer: the test corpus does not tell them apart")
	}
	f.hands[2].Store(up)
	check("back up", 0, 1, 2)
	if back := ask(t, http.MethodGet, f.gwURL+path); !bytes.Equal(back.body, allUp.body) {
		t.Fatal("after recovery the gateway does not answer as it did before the outage")
	}
}

// TestGatewayQueriesDuringIngest: queries read the warm views' windows
// without copying them while delta pulls keep appending, and share one
// cache. Under -race, concurrent polls of both endpoints during ingest
// must race nothing, and the first quiescent answer must be exact.
func TestGatewayQueriesDuringIngest(t *testing.T) {
	f := newQueryFleet(t)
	all := testCorpus(t).CoreInput().Set.Reports
	for i := range f.shards {
		f.ingest(i, "", all[i*100:(i+1)*100])
	}
	const path = "/v1/predictors?k=10&affinity=2"
	var wg sync.WaitGroup
	for _, p := range []string{path, path, "/v1/scores?k=10", "/v1/compare?engines=ochiai,jaccard"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for n := 0; n < 15; n++ {
				resp, err := http.Get(f.gwURL + p)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s during ingest = %d", p, resp.StatusCode)
				}
			}
		}(p)
	}
	for n := 300; n < 900; n += 20 {
		f.ingest(n/20%len(f.shards), "", all[n:n+20])
	}
	wg.Wait()
	got, want := ask(t, http.MethodGet, f.gwURL+path), ask(t, http.MethodGet, f.single(0, 1, 2)+path)
	if !bytes.Equal(got.body, want.body) {
		t.Fatalf("after the churn the gateway differs from a fresh collector over the same runs\n gateway: %.300s\ncollector: %.300s", got.body, want.body)
	}
}
