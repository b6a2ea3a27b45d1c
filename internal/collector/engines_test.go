package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cbi/internal/core"
)

// engineTestServer starts a collector over the first 300 corpus runs
// and returns its base URL plus the equivalent batch input.
func engineTestServer(t *testing.T) (*Server, string, core.Input) {
	t.Helper()
	res := testCorpus(t)
	in := res.CoreInput()
	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	for _, r := range in.Set.Reports {
		srv.Ingest(r)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL, in
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDefaultEngineBitIdentical pins the refactor's central promise:
// the engine dispatch layer must not change a single byte of the
// default /v1/predictors response. No ?engine=, ?engine=eliminate, and
// the direct batch builder all produce identical JSON.
func TestDefaultEngineBitIdentical(t *testing.T) {
	_, base, in := engineTestServer(t)

	code, plain := getBody(t, base+"/v1/predictors?k=10&affinity=2")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/predictors = %d: %s", code, plain)
	}
	code, named := getBody(t, base+"/v1/predictors?engine=eliminate&k=10&affinity=2")
	if code != http.StatusOK {
		t.Fatalf("GET ?engine=eliminate = %d: %s", code, named)
	}
	if !bytes.Equal(plain, named) {
		t.Fatal("?engine=eliminate body differs from the engine-less body")
	}

	want, err := json.Marshal(BuildPredictors(in, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(plain, want) {
		t.Fatalf("default engine body diverges from BuildPredictors JSON:\nlive:  %s\nbatch: %s", plain, want)
	}
	var entries []PredictorEntry
	if err := json.Unmarshal(plain, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("default engine selected no predictors; test is vacuous")
	}
}

// TestEveryRegisteredEngineServes: each registered engine answers 200
// with a well-formed ranking (ranks 1..n, scores non-increasing, stats
// attached), both raw and through the typed client.
func TestEveryRegisteredEngineServes(t *testing.T) {
	_, base, _ := engineTestServer(t)
	names := core.EngineNames()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 registered engines, have %v", names)
	}
	client := NewClient(base, 0, 0)
	for _, name := range names {
		if name == core.DefaultEngineName {
			continue // richer shape, covered by TestDefaultEngineBitIdentical
		}
		rows, err := client.EnginePredictors(context.Background(), name, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) == 0 {
			t.Errorf("%s: empty ranking over a corpus with failing runs", name)
			continue
		}
		for i, r := range rows {
			if r.Rank != i+1 {
				t.Errorf("%s: row %d has rank %d", name, i, r.Rank)
			}
			if i > 0 && rows[i-1].Score < r.Score {
				t.Errorf("%s: scores increase at rank %d", name, r.Rank)
			}
			if r.F == 0 && r.S == 0 {
				t.Errorf("%s: rank %d has empty stats", name, r.Rank)
			}
		}
	}
}

// TestUnknownEngine400 — satellite requirement: an unresolvable
// ?engine= is a 400 whose body names every registered engine.
func TestUnknownEngine400(t *testing.T) {
	_, base, _ := engineTestServer(t)
	code, body := getBody(t, base+"/v1/predictors?engine=no-such-engine")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown engine = %d, want 400", code)
	}
	text := string(body)
	if !strings.Contains(text, "no-such-engine") {
		t.Errorf("400 body does not echo the bad name: %q", text)
	}
	for _, name := range core.EngineNames() {
		if !strings.Contains(text, name) {
			t.Errorf("400 body does not list registered engine %q: %q", name, text)
		}
	}
}

// TestEngineCachePerEngine: each (engine, k, affinity) shape holds its
// own version-keyed cache slot — repeat polls never recompute, and one
// engine's slot does not evict another's.
func TestEngineCachePerEngine(t *testing.T) {
	srv, base, _ := engineTestServer(t)
	get := func(path string) []byte {
		t.Helper()
		code, body := getBody(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		return body
	}
	first := get("/v1/predictors?engine=ochiai&k=10")
	base0 := srv.StatsNow().PredictorsComputed
	if again := get("/v1/predictors?engine=ochiai&k=10"); !bytes.Equal(first, again) {
		t.Fatal("cached engine poll returned different bytes")
	}
	get("/v1/predictors?engine=tarantula&k=10")
	get("/v1/predictors?engine=ochiai&k=10")
	st := srv.StatsNow()
	// After the first ochiai computation: one more computation
	// (tarantula); the two extra ochiai polls hit their slot.
	if st.PredictorsComputed != base0+1 {
		t.Fatalf("computed=%d, want %d (per-engine slots must coexist)", st.PredictorsComputed, base0+1)
	}
}

// TestCompareEndpoint covers /v1/compare: well-formed agreement between
// registered engines, and 400s for malformed engine lists.
func TestCompareEndpoint(t *testing.T) {
	_, base, _ := engineTestServer(t)
	code, body := getBody(t, base+"/v1/compare?engines=ochiai,tarantula,eliminate&k=10")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/compare = %d: %s", code, body)
	}
	var resp CompareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Engines) != 3 || len(resp.Pairs) != 3 {
		t.Fatalf("engines=%v pairs=%d, want 3 engines and 3 pairs", resp.Engines, len(resp.Pairs))
	}
	for _, name := range resp.Engines {
		if len(resp.Rankings[name]) == 0 {
			t.Errorf("no ranking for %s", name)
		}
	}
	for _, p := range resp.Pairs {
		if p.Spearman < -1 || p.Spearman > 1 {
			t.Errorf("%s vs %s: spearman %v outside [-1,1]", p.A, p.B, p.Spearman)
		}
		if p.TopKOverlap < 0 || p.TopKOverlap > 1 {
			t.Errorf("%s vs %s: overlap %v outside [0,1]", p.A, p.B, p.TopKOverlap)
		}
	}

	// Ochiai and Jaccard both grow with F and shrink with S, so their
	// top lists overlap heavily on any corpus. (Tarantula does not: it
	// scores every deterministic S=0 predicate a flat 1.0 and so fills
	// its top-k with tiny-F predicates — the same weakness as Table 1's
	// sort-by-Increase, and exactly what /v1/compare exists to reveal.)
	client := NewClient(base, 0, 0)
	cr, err := client.Compare(context.Background(), []string{"ochiai", "jaccard"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Pairs[0].Common == 0 {
		t.Error("ochiai and jaccard share no top-10 members; expected heavy overlap")
	}
}

// TestRankAgreementMath pins the agreement helpers on hand-built
// rankings: identical lists score 1/1, disjoint lists anticorrelate.
func TestRankAgreementMath(t *testing.T) {
	if got := rankCorrelation([]int{1, 2, 3}, []int{1, 2, 3}, 3); got != 1 {
		t.Errorf("identical rankings: spearman %v, want 1", got)
	}
	if got := topKOverlap([]int{1, 2, 3}, []int{1, 2, 3}); got != 1 {
		t.Errorf("identical rankings: overlap %v, want 1", got)
	}
	if got := rankCorrelation([]int{1, 2, 3}, []int{3, 2, 1}, 3); got != -1 {
		t.Errorf("reversed rankings: spearman %v, want -1", got)
	}
	if got := topKOverlap([]int{1, 2}, []int{3, 4}); got != 0 {
		t.Errorf("disjoint rankings: overlap %v, want 0", got)
	}
	if got := rankCorrelation(nil, nil, 5); got != 1 {
		t.Errorf("two empty rankings: spearman %v, want 1", got)
	}
	// Disjoint lists: every union member is a hit in one list and a
	// miss in the other, which anticorrelates.
	if got := rankCorrelation([]int{1, 2}, []int{3, 4}, 2); got >= 0 {
		t.Errorf("disjoint rankings: spearman %v, want negative", got)
	}
}

// TestPredictorCacheLRUBackstop: filling the cache past its hard cap
// with a sweep of distinct query shapes must evict only the
// least-recently-used entry per insert — never clear the map — so the
// hot slot a dashboard keeps polling survives the sweep.
func TestPredictorCacheLRUBackstop(t *testing.T) {
	c := newPredictorCache(8)
	const v, next = "42", "43"
	c.put("default", v, []byte("hot"))
	for i := 0; i < 50; i++ {
		// Keep the default slot hot while cold keys churn past the cap.
		if c.get("default", v) == nil {
			t.Fatalf("default slot evicted after %d cold inserts", i)
		}
		c.put(fmt.Sprintf("cold-%d", i), v, []byte("x"))
		if got := c.size(); got > 8 {
			t.Fatalf("cache grew to %d entries past cap 8", got)
		}
	}
	if c.get("default", v) == nil {
		t.Fatal("hot default slot did not survive the sweep")
	}
	// Re-putting an existing key must not evict anyone.
	n := c.size()
	c.put("default", v, []byte("hot2"))
	if c.size() != n {
		t.Fatalf("re-put of existing key changed size %d -> %d", n, c.size())
	}
	// An ingest-style version bump prunes every stale entry on the next
	// put, so the sweep's residue does not outlive its window.
	c.put("fresh", next, []byte("y"))
	if c.size() != 1 || !c.has("fresh", next) {
		t.Fatalf("stale entries survived version bump: size=%d", c.size())
	}
}

// TestPredictorCacheSurvivesEngineSweep hammers the live server with a
// two-engine k sweep wide enough to overflow the 256-entry cap while a
// dashboard-style poller keeps re-reading the default shape. The
// default body must stay cached throughout: exactly one computation
// per distinct swept shape, none for the repeated default polls.
func TestPredictorCacheSurvivesEngineSweep(t *testing.T) {
	srv, base, _ := engineTestServer(t)
	get := func(path string) []byte {
		t.Helper()
		code, body := getBody(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		return body
	}
	defBody := get("/v1/predictors?k=10")
	base0 := srv.StatsNow().PredictorsComputed
	sweep := predCacheMax // 256 ks x 2 engines = 2x overflow
	for k := 1; k <= sweep; k++ {
		get(fmt.Sprintf("/v1/predictors?engine=ochiai&k=%d", k))
		get(fmt.Sprintf("/v1/predictors?engine=tarantula&k=%d", k))
		if again := get("/v1/predictors?k=10"); !bytes.Equal(defBody, again) {
			t.Fatalf("default body changed mid-sweep at k=%d", k)
		}
	}
	st := srv.StatsNow()
	if want := base0 + int64(2*sweep); st.PredictorsComputed != want {
		t.Fatalf("computed=%d, want %d: the default slot was evicted and recomputed during the sweep",
			st.PredictorsComputed, want)
	}
}
