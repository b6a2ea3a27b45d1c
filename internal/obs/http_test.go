package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMiddlewareRecordsCountLatencyStatusClass(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTP(HTTPConfig{Registry: reg, Paths: []string{"/ok", "/fail"}})
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("/fail", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusTeapot)
	})
	ts := httptest.NewServer(h.Wrap(mux))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		mustGet(t, ts.URL+"/ok")
	}
	mustGet(t, ts.URL+"/fail")
	mustGet(t, ts.URL+"/unknown/path") // 404 from the mux, path collapses to "other"

	out := render(reg)
	for _, want := range []string{
		`cbi_http_requests_total{path="/ok",code="2xx"} 3`,
		`cbi_http_requests_total{path="/fail",code="4xx"} 1`,
		`cbi_http_requests_total{path="other",code="4xx"} 1`,
		`cbi_http_request_seconds_count{path="/ok"} 3`,
		"cbi_http_in_flight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestMiddlewareInFlightGauge(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTP(HTTPConfig{Registry: reg, Paths: []string{"/slow"}})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		<-release
	})
	ts := httptest.NewServer(h.Wrap(mux))
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := http.Get(ts.URL + "/slow")
		errc <- err
	}()
	<-entered
	if got := h.inflight.Value(); got != 1 {
		t.Errorf("in-flight during request = %v, want 1", got)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := h.inflight.Value(); got != 0 {
		t.Errorf("in-flight after request = %v, want 0", got)
	}
}

func TestMiddlewareSlowRequestLog(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	var lines []string
	h := NewHTTP(HTTPConfig{
		Registry:    reg,
		Paths:       []string{"/slow", "/fast"},
		SlowRequest: 10 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(25 * time.Millisecond)
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("/fast", func(w http.ResponseWriter, r *http.Request) {})
	ts := httptest.NewServer(h.Wrap(mux))
	defer ts.Close()

	mustGet(t, ts.URL+"/fast")
	mustGet(t, ts.URL+"/slow")

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("got %d slow-request lines, want 1: %v", len(lines), lines)
	}
	for _, field := range []string{"method=GET", "path=/slow", "status=202", "elapsed=", "threshold=10ms"} {
		if !strings.Contains(lines[0], field) {
			t.Errorf("slow-request line missing %q: %s", field, lines[0])
		}
	}
}

// TestRoutesLabelWhatTheyRegister: a path is in the metrics' closed label
// set exactly when it was registered — there is no second list to forget
// — and /metrics (always) and pprof (on request) come with the table.
func TestRoutesLabelWhatTheyRegister(t *testing.T) {
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, pprof := range []bool{false, true} {
		reg := NewRegistry()
		rt := NewRoutes(HTTPConfig{Registry: reg})
		rt.HandleFunc("/v1/thing", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
		ts := httptest.NewServer(rt.Handler(pprof))
		defer ts.Close()

		mustGet(t, ts.URL+"/v1/thing")
		mustGet(t, ts.URL+"/v1/unregistered")
		if got := status(ts.URL + "/metrics"); got != http.StatusOK {
			t.Fatalf("GET /metrics = %d, want 200", got)
		}
		if got, want := status(ts.URL+"/debug/pprof/"), map[bool]int{false: 404, true: 200}[pprof]; got != want {
			t.Errorf("pprof=%v: GET /debug/pprof/ = %d, want %d", pprof, got, want)
		}
		out := render(reg)
		for _, want := range []string{
			`cbi_http_requests_total{path="/v1/thing",code="2xx"} 1`,
			`cbi_http_requests_total{path="/metrics",code="2xx"} 1`,
			`cbi_http_requests_total{path="other",code="4xx"} `,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("pprof=%v: metrics missing %q in:\n%s", pprof, want, out)
			}
		}
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_x_total", "x").Inc()
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL, nil)
	post, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

func mustGet(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}
