package obs

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// HTTPConfig configures the per-endpoint HTTP instrumentation.
type HTTPConfig struct {
	// Registry receives the http metric families (required).
	Registry *Registry
	// Paths is the closed set of endpoint paths to label samples with.
	// Requests for any other path are recorded under path="other", so a
	// scanner probing random URLs cannot inflate label cardinality.
	Paths []string
	// SlowRequest, when positive, emits one structured log line through
	// Logf for every request that takes longer — the "why was that poll
	// slow" breadcrumb that a latency histogram alone cannot give.
	SlowRequest time.Duration
	// Logf receives slow-request lines (default: discard).
	Logf func(format string, args ...any)
}

// HTTP records per-endpoint request count, latency, in-flight gauge,
// and status class for every request passing through Wrap. One HTTP
// instance registers three families:
//
//	cbi_http_requests_total{path,code}  counter, code is the status class ("2xx")
//	cbi_http_request_seconds{path}      histogram over LatencyBuckets
//	cbi_http_in_flight                  gauge of requests currently being served
type HTTP struct {
	cfg      HTTPConfig
	known    map[string]bool
	requests *CounterVec
	latency  *HistogramVec
	inflight *Gauge
}

// NewHTTP registers the http metric families on cfg.Registry and
// returns the middleware.
func NewHTTP(cfg HTTPConfig) *HTTP {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	known := make(map[string]bool, len(cfg.Paths))
	for _, p := range cfg.Paths {
		known[p] = true
	}
	reg := cfg.Registry
	return &HTTP{
		cfg:   cfg,
		known: known,
		requests: reg.CounterVec("cbi_http_requests_total",
			"HTTP requests served, by endpoint path and status class.", "path", "code"),
		latency: reg.HistogramVec("cbi_http_request_seconds",
			"HTTP request latency in seconds, by endpoint path.", nil, "path"),
		inflight: reg.Gauge("cbi_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// statusWriter captures the response status code (default 200) while
// passing writes through.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	return w.ResponseWriter.Write(b)
}

// Flush passes through so streaming handlers keep working when wrapped.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// codeClass collapses a status code to its class label ("2xx").
func codeClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}

// Wrap instruments next: request count by path and status class, a
// latency histogram by path, an in-flight gauge, and the optional
// slow-request log line.
func (h *HTTP) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if !h.known[path] {
			path = "other"
		}
		h.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			elapsed := time.Since(start)
			h.inflight.Add(-1)
			h.requests.With(path, codeClass(sw.code)).Inc()
			h.latency.With(path).ObserveDuration(elapsed)
			if h.cfg.SlowRequest > 0 && elapsed >= h.cfg.SlowRequest {
				h.cfg.Logf("obs: slow request: method=%s path=%s status=%d elapsed=%s threshold=%s",
					r.Method, r.URL.Path, sw.code, elapsed.Round(time.Millisecond), h.cfg.SlowRequest)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// Routes is one tier's route table: a ServeMux that records every path as
// it is registered, so the closed label set of the request metrics is the
// table itself and a new endpoint cannot be silently labelled "other".
type Routes struct {
	cfg HTTPConfig
	mux *http.ServeMux
}

// NewRoutes starts an empty route table; cfg.Paths is filled by
// HandleFunc.
func NewRoutes(cfg HTTPConfig) *Routes {
	return &Routes{cfg: cfg, mux: http.NewServeMux()}
}

// HandleFunc registers h under the exact path.
func (rt *Routes) HandleFunc(path string, h http.HandlerFunc) {
	rt.cfg.Paths = append(rt.cfg.Paths, path)
	rt.mux.HandleFunc(path, h)
}

// Handler mounts GET /metrics over cfg.Registry and, when pprof is set,
// the profiling handlers, and returns the table behind the request
// instrumentation. Call it once, after the last HandleFunc.
func (rt *Routes) Handler(pprof bool) http.Handler {
	rt.HandleFunc("/metrics", rt.cfg.Registry.Handler().ServeHTTP)
	if pprof {
		RegisterPprof(rt.mux)
	}
	return NewHTTP(rt.cfg).Wrap(rt.mux)
}

// RegisterPprof mounts the net/http/pprof handlers under /debug/pprof/
// on mux. Profiling is opt-in per server (`-pprof`): the handlers can
// reveal heap contents and cost CPU, so they stay off unless an
// operator asks.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
