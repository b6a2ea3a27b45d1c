package collector

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable retention clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestRunLogAgeEviction drives the age cap with an injected clock:
// runs older than RunLogMaxAge are evicted and un-counted on the next
// arrival, so stats and scores describe exactly the fresh window — the
// same evict-and-decrement consistency the count cap keeps.
func TestRunLogAgeEviction(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	cfg := serverConfig(t)
	cfg.RunLogMaxAge = time.Hour
	cfg.nowFn = clock.Now
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const old, fresh = 300, 120
	for _, r := range in.Set.Reports[:old] {
		srv.Ingest(r)
	}
	if st := srv.StatsNow(); st.Runs != old || st.RunLogRuns != old {
		t.Fatalf("before aging: %d runs / %d logged, want %d/%d", st.Runs, st.RunLogRuns, old, old)
	}

	// Two hours pass; every retained run is now stale. The next
	// arrivals must push all of them out.
	clock.Advance(2 * time.Hour)
	for _, r := range in.Set.Reports[old : old+fresh] {
		srv.Ingest(r)
	}
	st := srv.StatsNow()
	if st.Runs != fresh || st.RunLogRuns != fresh {
		t.Fatalf("after aging: %d runs / %d logged, want %d/%d", st.Runs, st.RunLogRuns, fresh, fresh)
	}
	if st.RunLogEvicted != old {
		t.Fatalf("evicted = %d, want %d", st.RunLogEvicted, old)
	}

	// Counters were decremented, not just the log truncated: the live
	// ranking equals the batch pipeline over only the fresh window.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, in.Set.NumSites, in.Set.NumPreds)
	got, err := client.Scores(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	want := wantTopK(in, in.Set.Reports[old:old+fresh], 20)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scores after age eviction diverge from batch pipeline over the fresh window")
	}
}

// TestRunLogAgeSweep checks the background sweep: with no ingest at
// all, stale runs still leave on schedule.
func TestRunLogAgeSweep(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	cfg := serverConfig(t)
	cfg.RunLogMaxAge = 200 * time.Millisecond // sweep period clamps to 50ms
	cfg.nowFn = clock.Now
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, r := range in.Set.Reports[:50] {
		srv.Ingest(r)
	}
	clock.Advance(time.Minute)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.StatsNow()
		if st.RunLogRuns == 0 && st.Runs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never evicted: %d runs / %d logged still retained", st.Runs, st.RunLogRuns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
