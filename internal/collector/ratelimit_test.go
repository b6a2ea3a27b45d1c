package collector

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteRateLimitPerKey pins the collector's write throttle: each
// API key draws from its own token bucket, a limited request is
// refused with 429 + Retry-After before the body is read, and the
// refusals are counted in cbi_auth_rate_limited_total.
func TestWriteRateLimitPerKey(t *testing.T) {
	srv, err := New(Config{
		NumSites:  2,
		NumPreds:  4,
		SiteOf:    []int32{0, 0, 1, 1},
		RateLimit: 0.001, // effectively: the burst and nothing more
		RateBurst: 1,
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	post := func(auth string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", strings.NewReader("garbage"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", auth)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// First request spends key-a's burst token; it reaches the decoder
	// (and 400s on the garbage body) instead of being throttled.
	if resp := post("Bearer key-a"); resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("first write for key-a throttled (%d); the burst token should admit it", resp.StatusCode)
	}
	resp := post("Bearer key-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second write for key-a = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limit 429 carries no Retry-After")
	}
	if resp := post("Bearer key-b"); resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("first write for key-b throttled (%d); buckets must be per key", resp.StatusCode)
	}

	var metrics strings.Builder
	srv.metrics.WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), "cbi_auth_rate_limited_total 1") {
		t.Fatalf("throttled request not counted in cbi_auth_rate_limited_total:\n%s", metrics.String())
	}
}
