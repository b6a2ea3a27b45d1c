package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The benchmark records spans from outside the layers, at
// the http.Handler / http.RoundTripper boundaries it constructs itself.
const (
	spanFlush    = "client.flush"       // sender blocked in the Client call that ships one batch
	spanPost     = "client.post"        // the POST inside it, seen by the RoundTripper
	spanRouter   = "router.handle"      // Router.Handler() serving POST /v1/reports
	spanIngest   = "collector.handle"   // Server.Handler() serving POST /v1/reports
	spanGateway  = "gateway.handle"     // Gateway.Handler() serving a query
	spanSnapshot = "collector.snapshot" // Server.Handler() serving the gateway's GET /v1/snapshot
)

// parentNames lists, per span name, the names its parent may carry, in
// order of preference (a bulk batch has no router hop).
var parentNames = map[string][]string{
	spanPost:     {spanFlush},
	spanRouter:   {spanPost},
	spanIngest:   {spanRouter, spanPost},
	spanSnapshot: {spanGateway},
}

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created. Spans of one batch share
// Trace (its X-CBI-Batch-ID); query spans carry none and are joined by
// containment, which is sound because the reader is single and closed
// loop.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: none found
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Path   string `json:"path,omitempty"` // URL path, handler spans only
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the request body size (client.post) or the response body
	// size (handler spans).
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) durMS() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory. The wrappers stay installed on every
// run and cost one atomic load while it is off, so the traced and
// untraced runs execute the same code.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// record stores s, with its interval taken from start and end.
func (t *tracer) record(s span, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s.Parent, s.Start, s.End = -1, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take stops recording and returns the spans with parents linked.
func (t *tracer) take() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	linkParents(t.spans)
	return t.spans
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// handler wraps h so requests with the given method for one of paths
// are recorded as spans named name; everything else passes through.
func (t *tracer) handler(name, method string, h http.Handler, paths ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Method != method || !slices.Contains(paths, r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.record(span{Name: name, Trace: r.Header.Get("X-CBI-Batch-ID"), Path: r.URL.Path, Bytes: cw.n},
			start, time.Now())
	})
}

// postTripper records each POST a sender's collector.Client makes. One
// sender owns one postTripper and calls through it from its own
// goroutine only, so lastBatch needs no lock: after the Client call
// returns, it names the batch that call shipped.
type postTripper struct {
	base      http.RoundTripper
	t         *tracer
	lastBatch string
}

func (p *postTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !p.t.on.Load() {
		return p.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := p.base.RoundTrip(req)
	p.lastBatch = req.Header.Get("X-CBI-Batch-ID")
	p.t.record(span{Name: spanPost, Trace: p.lastBatch, Bytes: req.ContentLength}, start, time.Now())
	return resp, err
}

// linkParents sets each span's Parent: the span with a parent name and
// the same Trace, or, for spans without a Trace, the latest-starting
// span with a parent name that contains it.
func linkParents(spans []span) {
	byTrace := map[[2]string]int{}
	byName := map[string][]int{}
	for i, s := range spans {
		if s.Trace != "" {
			byTrace[[2]string{s.Name, s.Trace}] = i
		}
		byName[s.Name] = append(byName[s.Name], i)
	}
	for i := range spans {
		s := &spans[i]
		for _, pn := range parentNames[s.Name] {
			if s.Trace != "" {
				if p, ok := byTrace[[2]string{pn, s.Trace}]; ok {
					s.Parent = p
				}
			} else {
				for _, p := range byName[pn] {
					ps := spans[p]
					if ps.Start <= s.Start && s.End <= ps.End &&
						(s.Parent < 0 || ps.Start > spans[s.Parent].Start) {
						s.Parent = p
					}
				}
			}
			if s.Parent >= 0 {
				break
			}
		}
	}
}

// selfNS is a span's duration minus the part of it its children cover:
// children are clipped to the parent, and overlapping children are
// counted once.
func selfNS(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.End - parent.Start - covered
}

// spanSet answers the questions the per-layer metrics ask of a trace.
type spanSet struct {
	spans    []span
	children map[int][]span
}

func newSpanSet(spans []span) *spanSet {
	ss := &spanSet{spans: spans, children: map[int][]span{}}
	for _, s := range spans {
		if s.Parent >= 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

// each calls fn for every span with the given name.
func (ss *spanSet) each(name string, fn func(s span, children []span)) {
	for _, s := range ss.spans {
		if s.Name == name {
			fn(s, ss.children[s.ID])
		}
	}
}

func (ss *spanSet) durationsMS(name string) []float64 {
	var out []float64
	ss.each(name, func(s span, _ []span) { out = append(out, s.durMS()) })
	return out
}

func (ss *spanSet) selfMS(name string) []float64 {
	var out []float64
	ss.each(name, func(s span, ch []span) { out = append(out, float64(selfNS(s, ch))/1e6) })
	return out
}

func writeTraceFile(path, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
