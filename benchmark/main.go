// Command benchmark is the repository's one fixed, layered benchmark
// (see README.md in this directory and BENCHMARK.json at the root).
//
//	go run ./benchmark --workload ingest-ring --seed 1 --seconds 10 --trace 0
//
// runs one workload and prints, as the last line of standard output,
// one JSON object with its end-to-end metrics (--trace 0) or per-layer
// metrics (--trace 1). Without --workload it runs the whole suite, each
// run in its own child process so heap and GC state do not leak between
// them, and prints every metric by name; -aa runs the suite twice and
// fails if the two disagree by more than a metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out, when set, is the directory trace files are written to.
	out string
	// runs is how many untraced runs per workload the suite makes.
	runs int
	// dir is this run's scratch directory (WAL and checkpoint files).
	dir string
	sc  scale
	// reuseCorpus lets the traced run's second set-up share the first
	// one's corpus; untraced runs rebuild it so setup_s sees the cost.
	reuseCorpus bool
	cached      *corpus
}

// scale holds every size that is not a time. smokeScale shrinks them so
// the test suite can drive each workload in a few seconds.
type scale struct {
	templates     int // harness runs behind the corpus
	ringWindow    int // RunLogSize per ring shard
	bulkWindow    int // RunLogSize of the bulk collector
	ringBatch     int
	bulkBatch     int
	identities    int // WithClientID identities the ring senders rotate over
	queryWindow   int // reports preloaded before queries
	freshBatch    int // reports ingested per query-fresh round
	clientInputs  int // distinct MOSS inputs the client loop cycles over
	checkInputs   int // inputs of the always-sampled / tree-walker check subset
	shortInputs   int // distinct CCRYPT inputs
	foldReports   int // reports the fold/WAL probe ingests
	probeReps     int // repetitions of a timed direct call
	checkpointGap time.Duration
	// maxOps, when set, caps a run's operations below what the tail
	// percentile needs: smoke runs check correctness, not percentiles.
	maxOps int
}

func (sc scale) ops(w *workloadSpec, seconds float64) int {
	if n := w.ops(seconds); sc.maxOps == 0 || n < sc.maxOps {
		return n
	}
	return sc.maxOps
}

var fullScale = scale{
	templates: 300, ringWindow: 4096, bulkWindow: 12288, ringBatch: 64, bulkBatch: 1024,
	identities: 64, queryWindow: 2048, freshBatch: 16, clientInputs: 3000, checkInputs: 60,
	shortInputs: 4000, foldReports: 6400, probeReps: 20, checkpointGap: 3 * time.Second,
}

var smokeScale = scale{
	templates: 24, ringWindow: 16, bulkWindow: 48, ringBatch: 8, bulkBatch: 32,
	identities: 16, queryWindow: 96, freshBatch: 8, clientInputs: 12, checkInputs: 4,
	shortInputs: 200, foldReports: 64, probeReps: 2, checkpointGap: 200 * time.Millisecond, maxOps: 12,
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	// problems lists the output checks that failed.
	problems []string
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// measure runs the workload's closed loop for ops operations.
	measure(ops int) (*measurement, error)
	// verify checks the system's outputs against the batch pipeline.
	verify(m *measurement, res *result)
	// layers adds the per-layer metrics: probes, stats and span sums.
	layers(m *measurement, ss *spanSet, res *result)
	close()
}

// measurement is what one closed loop observed.
type measurement struct {
	opsMS []float64 // latency of each operation
	// aux holds other per-operation samples the per-layer metrics read.
	aux               map[string][]float64
	units             float64 // work units completed
	wall              time.Duration
	attempted, failed int64
}

func (m *measurement) throughput() float64 { return m.units / m.wall.Seconds() }

// heapMB is the live heap after a full collection — two, so that what
// sync.Pools held through the first is gone as well.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd is the untraced run: it alone supplies end-to-end numbers.
func runEndToEnd(w *workloadSpec, o *options) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	tr := newTracer(false)
	base := heapMB()
	var inst instance
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(o, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	m, err := inst.measure(o.sc.ops(w, o.seconds))
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["op_p50_ms"] = percentile(m.opsMS, 0.5)
	res.metrics["op_tail_ms"] = tail(m.opsMS, w.tailP)
	res.metrics["throughput_per_s"] = m.throughput()
	res.attempted, res.failed = m.attempted, m.failed
	// The samples are the benchmark's, not the system's: drop them
	// before reading what the system retains.
	m.opsMS, m.aux = nil, nil
	res.metrics["heap_mb"] = heapMB() - base
	inst.verify(m, res)
	return res, nil
}

// runTraced supplies the per-layer numbers. It measures twice on fresh
// servers, first with the span wrappers off and then on, so the share
// of throughput tracing costs is known for the very numbers it reports.
func runTraced(w *workloadSpec, o *options) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	o.reuseCorpus = true
	ops := o.sc.ops(w, o.seconds/3)

	inst, err := w.setup(o, newTracer(false))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	untraced, err := inst.measure(ops)
	inst.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer(true)
	if inst, err = w.setup(o, tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	m, err := inst.measure(ops)
	if err != nil {
		return nil, err
	}
	spans := tr.take()
	res.attempted, res.failed = untraced.attempted+m.attempted, untraced.failed+m.failed
	inst.verify(m, res)
	inst.layers(m, newSpanSet(spans), res)
	if len(spans) > 0 {
		res.metrics["trace.overhead_share"] = 1 - m.throughput()/untraced.throughput()
	}
	if o.out != "" && len(spans) > 0 {
		if err := writeTraceFile(filepath.Join(o.out, "trace-"+w.name+".json"), w.name, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runOne runs one workload in this process. o.dir must exist.
func runOne(o *options) (*result, error) {
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace {
		return runTraced(w, o)
	}
	return runEndToEnd(w, o)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(trace bool) resultLine {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := resultLine{
		Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}
	for _, s := range specs {
		out.Metrics[s.name] = metricValue{r.metrics[s.name], s.unit}
	}
	return out
}

// runInScratchDir gives the run a scratch directory under the working
// directory — the benchmark writes nowhere else — and removes it after.
func runInScratchDir(o *options) (*result, error) {
	dir, err := os.MkdirTemp(".", ".bench-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
	}
	return runOne(o)
}

func main() {
	o := &options{sc: fullScale}
	var trace int
	var aa, smoke bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: equal seeds give equal inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long one run measures on the reference box: it sizes the work (see README)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, span wrappers off; 1: per-layer metrics, span wrappers on")
	flag.StringVar(&o.out, "out", "", "directory for trace-<workload>.json and, for the suite, results.json (default: write no files)")
	flag.IntVar(&o.runs, "runs", 1, "suite only: untraced runs per workload, with seeds seed, seed+1, ...; medians are reported")
	flag.BoolVar(&aa, "aa", false, "suite only: run everything twice and fail if an end-to-end metric's two medians differ by more than its bound")
	flag.BoolVar(&smoke, "smoke", false, "tiny sizes, for the test suite")
	flag.Parse()
	o.trace = trace != 0
	if smoke {
		o.sc = smokeScale
	}
	if o.workload == "" {
		if err := runSuite(o, aa, smoke); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runInScratchDir(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "benchmark: output check failed:", p)
	}
	line := res.line(o.trace)
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !line.Correct {
		os.Exit(1)
	}
}
