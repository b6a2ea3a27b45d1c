package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"cbi/internal/report"
)

func TestPercentileAndSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.75, 75, 25}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
		if got := samplesBeyond(len(xs), c.p); got != c.beyond {
			t.Errorf("samplesBeyond(100, %v) = %d, want %d", c.p, got, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The rule every reported percentile obeys: ten samples beyond it.
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.75, 40}, {0.9, 100}, {0.99, 1000}} {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, n, c.want)
		}
		if samplesBeyond(n, c.p) < 10 || samplesBeyond(n-1, c.p) >= 10 {
			t.Errorf("minSamples(%v) = %d is not the smallest count with ten beyond", c.p, n)
		}
	}
	for _, w := range workloads {
		if samplesBeyond(w.ops(0), w.tailP) < 10 {
			t.Errorf("%s: even the shortest run must give p%.0f ten samples beyond it", w.name, 100*w.tailP)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1.5, 9}, 1.25, 6.5},
		{[]float64{2, 7}, 0.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"missing child", nil, 100},
		{"nested", []span{{Start: 120, End: 150}}, 70},
		{"overlapping siblings count once", []span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"sibling inside sibling", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside the parent", []span{{Start: 300, End: 400}}, 100},
	} {
		if got := selfNS(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLinkParents(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanFlush, Trace: "b1", Start: 0, End: 100},
		{ID: 1, Parent: -1, Name: spanPost, Trace: "b1", Start: 40, End: 95},
		{ID: 2, Parent: -1, Name: spanRouter, Trace: "b1", Start: 50, End: 60},
		// acked on enqueue: the collector hop starts after the router span ended
		{ID: 3, Parent: -1, Name: spanIngest, Trace: "b1", Start: 300, End: 350},
		// a bulk batch: no router hop, the collector hangs off the POST
		{ID: 4, Parent: -1, Name: spanPost, Trace: "b2", Start: 500, End: 600},
		{ID: 5, Parent: -1, Name: spanIngest, Trace: "b2", Start: 510, End: 590},
		// queries carry no trace id: joined by containment
		{ID: 6, Parent: -1, Name: spanGateway, Start: 1000, End: 2000},
		{ID: 7, Parent: -1, Name: spanSnapshot, Start: 1100, End: 1200},
		{ID: 8, Parent: -1, Name: spanGateway, Start: 3000, End: 4000},
		{ID: 9, Parent: -1, Name: spanSnapshot, Start: 3100, End: 3200},
		{ID: 10, Parent: -1, Name: spanSnapshot, Start: 5000, End: 5100}, // no query around it
	}
	linkParents(spans)
	want := []int{-1, 0, 1, 2, -1, 4, -1, 6, -1, 8, -1}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.Name, s.Parent, want[i])
		}
	}
	ss := newSpanSet(spans)
	if got := ss.selfMS(spanFlush); len(got) != 1 || got[0] != 45e-6 {
		t.Errorf("flush self time = %v ms, want [45e-6]", got)
	}
}

func testCorpus(t *testing.T, seed int64) *corpus {
	t.Helper()
	c, err := buildCorpus(seed, smokeScale.templates)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestThinningIsDeterministicPerSeed(t *testing.T) {
	a, b := testCorpus(t, 7), testCorpus(t, 7)
	n := len(a.templates)
	ra, rb := a.reports(0, 4*n), b.reports(0, 4*n)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("equal seeds gave different streams")
	}
	// A thinner reused across calls, in any order, gives the same reports
	// as a fresh one.
	th, scratch := a.newThinner(), &report.Report{}
	for _, g := range []int{3*n + 1, n, 2*n + 5, n} {
		th.thin(g, scratch)
		if !reflect.DeepEqual(scratch, ra[g]) {
			t.Fatalf("report %d depends on what the thinner generated before", g)
		}
	}
	for g, r := range ra {
		if err := a.validate(r); err != nil {
			t.Fatalf("report %d: %v", g, err)
		}
		if g < n && !reflect.DeepEqual(r, a.templates[g]) {
			t.Fatalf("pass 0 report %d is not its template", g)
		}
	}
	// Later passes thin, and thin differently each pass.
	tpl := a.templates[a.thinnable[0]]
	p1, p2 := ra[n], ra[n+len(a.thinnable)]
	if p1.Failed != tpl.Failed || len(p1.ObservedSites) >= len(tpl.ObservedSites) {
		t.Errorf("pass 1 kept %d of %d sites (label %v, template %v)",
			len(p1.ObservedSites), len(tpl.ObservedSites), p1.Failed, tpl.Failed)
	}
	if reflect.DeepEqual(p1, p2) {
		t.Error("passes 1 and 2 thinned a template identically")
	}
	if d := duplicateShare(ra); d > a.dupShare {
		t.Errorf("stream repeats %.4f, templates %.4f", d, a.dupShare)
	}
	if other := testCorpus(t, 8); reflect.DeepEqual(other.reports(n, 2*n), ra[n:2*n]) {
		t.Error("different seeds gave the same stream")
	}
}

func TestValidateRejectsBrokenReports(t *testing.T) {
	c := testCorpus(t, 1)
	good := c.templates[c.thinnable[0]]
	for name, r := range map[string]*report.Report{
		"descending sites":    {ObservedSites: []int32{5, 4}},
		"site out of range":   {ObservedSites: []int32{int32(c.numSites)}},
		"pred out of range":   {ObservedSites: good.ObservedSites, TruePreds: []int32{int32(c.numPreds)}},
		"pred of unseen site": {TruePreds: good.TruePreds[:1]},
	} {
		if c.validate(r) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, in step with spec.go, which the program obeys.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec.go %q / %q", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go {%s %s %s %v}", kind, i, g, m.name, m.unit, m.better, m.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

// TestSmoke drives every workload, untraced and traced, at smoke scale,
// so an API change that would break the benchmark breaks `go test
// ./...` in the change that makes it. It asserts correctness only —
// every output check passed, every metric of the contract is present —
// and nothing about time.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := &options{workload: w.name, seed: 3, seconds: 0, trace: trace, sc: smokeScale, dir: t.TempDir(), out: t.TempDir()}
				res, err := runOne(o)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range res.problems {
					t.Errorf("output check failed: %s", p)
				}
				line := res.line(trace)
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct %v, %d of %d operations failed", line.Correct, line.Failed, line.Attempted)
				}
				if !trace {
					for _, m := range endToEnd {
						if v := line.Metrics[m.name].Value; !(v > 0) {
							t.Errorf("%s = %v, want a positive number", m.name, v)
						}
					}
					return
				}
				if len(line.Metrics) != len(perLayer) {
					t.Errorf("%d metrics in the result line, %d in the spec", len(line.Metrics), len(perLayer))
				}
				for name := range res.metrics {
					if _, ok := line.Metrics[name]; !ok {
						t.Errorf("%s was measured but is not in the spec", name)
					}
				}
				for _, m := range perLayer {
					v, measured := line.Metrics[m.name].Value, slices.Contains(m.on, w.name)
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", m.name, v)
					}
					if !measured && v != 0 {
						t.Errorf("%s = %v, but %s does not measure it", m.name, v, w.name)
					}
				}
				if w.name != wClientRun && w.name != wClientShort {
					if _, err := os.Stat(o.out + "/trace-" + w.name + ".json"); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

func TestTailIsMedianOfBlockPercentiles(t *testing.T) {
	// 400 samples at p90 make four blocks of 100. One block is disturbed
	// through and through; the median of the block p90s does not see it.
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i%100 + 1)
		if i >= 100 && i < 200 {
			xs[i] += 1000
		}
	}
	if got := tail(xs, 0.9); got != 90 {
		t.Errorf("tail = %v, want 90", got)
	}
	if got := percentile(xs, 0.9); got <= 1000 {
		t.Errorf("plain p90 = %v: the disturbance should reach it", got)
	}
	// Too few samples for two blocks: the plain percentile.
	if got, want := tail(xs[:150], 0.9), percentile(xs[:150], 0.9); got != want {
		t.Errorf("tail of 150 samples = %v, want plain p90 %v", got, want)
	}
}
