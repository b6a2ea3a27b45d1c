package shard

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cbi/internal/collector"
	"cbi/internal/core"
)

func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// engineFixture: two shards splitting the corpus, a gateway over them,
// and a reference collector holding the whole corpus.
func engineFixture(t *testing.T) (gw *httptest.Server, ref *httptest.Server, urls []string) {
	t.Helper()
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := collector.Config{
		NumSites:    in.Set.NumSites,
		NumPreds:    in.Set.NumPreds,
		SiteOf:      in.SiteOf,
		Fingerprint: res.Plan.Fingerprint(),
	}
	const numShards = 2
	urls = make([]string, numShards)
	shards := make([]*collector.Server, numShards)
	for i := range urls {
		var ts *httptest.Server
		shards[i], ts = startCollector(t, cfg)
		urls[i] = ts.URL
	}
	for i, r := range in.Set.Reports {
		shards[i%numShards].Ingest(r)
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
	gw = httptest.NewServer(gwSrv.Handler())
	t.Cleanup(gw.Close)

	refSrv, refTS := startCollector(t, cfg)
	for _, r := range in.Set.Reports {
		refSrv.Ingest(r)
	}
	return gw, refTS, urls
}

// TestGatewayEngineEquivalence: for the default engine the merged
// gateway body is byte-identical to a single collector over the same
// corpus; for every other engine — the counting engines
// (order-independent by construction) and logreg (which canonically
// content-sorts its training set before the gradient loop) — the
// ?engine= body is byte-identical too.
func TestGatewayEngineEquivalence(t *testing.T) {
	gw, ref, _ := engineFixture(t)

	q := "/v1/predictors?k=0&affinity=3"
	code, gwBody := rawGet(t, gw.URL+q)
	if code != http.StatusOK {
		t.Fatalf("gateway %s = %d: %s", q, code, gwBody)
	}
	_, refBody := rawGet(t, ref.URL+q)
	if !bytes.Equal(gwBody, refBody) {
		t.Fatal("merged default-engine body differs from single collector")
	}
	if _, named := rawGet(t, gw.URL+q+"&engine=eliminate"); !bytes.Equal(named, gwBody) {
		t.Fatal("gateway ?engine=eliminate body differs from its engine-less body")
	}

	for _, name := range core.EngineNames() {
		if name == core.DefaultEngineName {
			continue
		}
		path := "/v1/predictors?engine=" + name + "&k=15"
		code, gwBody := rawGet(t, gw.URL+path)
		if code != http.StatusOK {
			t.Errorf("gateway %s = %d: %s", path, code, gwBody)
			continue
		}
		if len(bytes.TrimSpace(gwBody)) <= len("[]") {
			t.Errorf("gateway %s served an empty ranking", path)
		}
		if _, refBody := rawGet(t, ref.URL+path); !bytes.Equal(gwBody, refBody) {
			t.Errorf("%s: merged body differs from single collector\n gw: %s\nref: %s", name, gwBody, refBody)
		}
	}

	// /v1/compare over counting engines: merged == single, byte for byte.
	cmp := "/v1/compare?engines=ochiai,tarantula,jaccard&k=10"
	code, gwCmp := rawGet(t, gw.URL+cmp)
	if code != http.StatusOK {
		t.Fatalf("gateway %s = %d: %s", cmp, code, gwCmp)
	}
	if _, refCmp := rawGet(t, ref.URL+cmp); !bytes.Equal(gwCmp, refCmp) {
		t.Fatal("merged /v1/compare differs from single collector")
	}
}

// TestRouterReadRelay: the router relays /v1/predictors and
// /v1/compare — to -read-from (the gateway) when set, else to its
// first live backend — passing the query string through and the status
// code back, so clients keep a single base URL for writes and reads.
func TestRouterReadRelay(t *testing.T) {
	gw, _, urls := engineFixture(t)

	viaGateway, err := NewRouter(RouterConfig{
		Backends:       urls,
		ReadFrom:       gw.URL,
		HealthInterval: 100 * time.Millisecond,
		Logf:           quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(viaGateway.Close)
	rt := httptest.NewServer(viaGateway.Handler())
	t.Cleanup(rt.Close)

	for _, path := range []string{
		"/v1/predictors?k=10&affinity=2",
		"/v1/predictors?engine=ochiai&k=10",
		"/v1/compare?engines=ochiai,jaccard&k=10",
	} {
		code, viaRouter := rawGet(t, rt.URL+path)
		if code != http.StatusOK {
			t.Fatalf("router %s = %d: %s", path, code, viaRouter)
		}
		if _, direct := rawGet(t, gw.URL+path); !bytes.Equal(viaRouter, direct) {
			t.Errorf("%s: relayed body differs from the gateway's", path)
		}
	}

	// Error statuses pass through: unknown engine stays a 400 naming the
	// registered engines.
	code, body := rawGet(t, rt.URL+"/v1/predictors?engine=bogus")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "registered engines") {
		t.Errorf("relayed unknown engine = %d %q, want 400 naming engines", code, body)
	}

	// Without -read-from the relay answers from the first live backend —
	// the single-shard deployment needs no gateway.
	viaBackend, err := NewRouter(RouterConfig{
		Backends:       urls[:1],
		HealthInterval: 100 * time.Millisecond,
		Logf:           quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(viaBackend.Close)
	rt2 := httptest.NewServer(viaBackend.Handler())
	t.Cleanup(rt2.Close)

	path := "/v1/predictors?engine=tarantula&k=10"
	code, viaRouter := rawGet(t, rt2.URL+path)
	if code != http.StatusOK {
		t.Fatalf("router (no -read-from) %s = %d: %s", path, code, viaRouter)
	}
	if _, direct := rawGet(t, urls[0]+path); !bytes.Equal(viaRouter, direct) {
		t.Error("relayed body differs from the backend's")
	}
}
