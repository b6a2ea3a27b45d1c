package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
)

// runChild runs one workload in a child process of this binary, so the
// heap and GC state of one run cannot colour the next, and parses the
// result line the child prints last.
func runChild(o *options, workload string, seed int64, trace, smoke bool) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0",
	}
	if trace {
		args[len(args)-1] = "1"
	}
	if smoke {
		args = append(args, "-smoke")
	}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	if runErr != nil || !line.Correct {
		return &line, fmt.Errorf("%s seed %d: output checks failed (%d of %d operations failed)",
			workload, seed, line.Failed, line.Attempted)
	}
	return &line, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the repository's driver measures run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

type suiteReport struct {
	Seed     int64                           `json:"seed"`
	Seconds  float64                         `json:"seconds"`
	Runs     int                             `json:"runs_per_workload"`
	NProc    int                             `json:"nproc"`
	Go       string                          `json:"go"`
	EndToEnd map[string]map[string][]float64 `json:"end_to_end"` // workload, metric, one value per run
	PerLayer map[string]map[string]float64   `json:"per_layer"`  // workload, metric
}

// runSuite runs every workload untraced (o.runs times, seeds seed,
// seed+1, ...) and once traced, prints every metric by name with its
// unit, and with aa does the untraced part twice and compares medians.
func runSuite(o *options, aa, smoke bool) error {
	sets := 1
	if aa {
		sets = 2
	}
	rep := suiteReport{Seed: o.seed, Seconds: o.seconds, Runs: o.runs, NProc: runtime.NumCPU(), Go: runtime.Version(),
		PerLayer: map[string]map[string]float64{}}
	values := make([]map[string]map[string][]float64, sets)
	var firstErr error
	note := func(err error) {
		if err != nil {
			fmt.Println("FAILED:", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			byMetric := map[string][]float64{}
			values[set][w.name] = byMetric
			var attempted, failed int64
			for r := 0; r < o.runs; r++ {
				line, err := runChild(o, w.name, o.seed+int64(r), false, smoke)
				note(err)
				if line == nil {
					continue
				}
				attempted, failed = attempted+line.Attempted, failed+line.Failed
				for name, v := range line.Metrics {
					byMetric[name] = append(byMetric[name], v.Value)
				}
			}
			fmt.Printf("== %s (set %d of %d): %d operations attempted, %d failed; op = %s; throughput counts %s\n",
				w.name, set+1, sets, attempted, failed, w.op, w.unit)
			for _, m := range endToEnd {
				if vs := byMetric[m.name]; len(vs) > 0 {
					fmt.Printf("  %-34s %14.4f %-6s spread %5.1f%% of median over %d runs (bound %.0f%%, %s is better)\n",
						m.name, median(vs), m.unit, 100*spread(vs), len(vs), 100*m.bound, m.better)
				}
			}
		}
	}
	rep.EndToEnd = values[0]
	for _, w := range workloads {
		line, err := runChild(o, w.name, o.seed, true, smoke)
		note(err)
		if line == nil {
			continue
		}
		fmt.Printf("== %s traced: %d operations attempted, %d failed\n", w.name, line.Attempted, line.Failed)
		rep.PerLayer[w.name] = map[string]float64{}
		for _, m := range perLayer {
			if len(m.on) > 0 && !slices.Contains(m.on, w.name) {
				continue
			}
			rep.PerLayer[w.name][m.name] = line.Metrics[m.name].Value
			fmt.Printf("  %-34s %14.4f %s\n", m.name, line.Metrics[m.name].Value, m.unit)
		}
	}
	if aa {
		fmt.Println("== A/A: the same binary measured twice")
		for _, w := range workloads {
			for _, m := range endToEnd {
				a, b := median(values[0][w.name][m.name]), median(values[1][w.name][m.name])
				gap := (b - a) / a
				verdict := "ok"
				if math.IsNaN(gap) || math.Abs(gap) > m.bound {
					verdict = "EXCEEDS BOUND"
					note(fmt.Errorf("A/A gap of %s on %s is %.1f%%, bound %.0f%%", m.name, w.name, 100*gap, 100*m.bound))
				}
				fmt.Printf("  %-14s %-18s %14.4f %14.4f %-6s gap %+6.1f%% bound %3.0f%% %s\n",
					w.name, m.name, a, b, m.unit, 100*gap, 100*m.bound, verdict)
			}
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.out, "results.json"), data, 0o644); err != nil {
			return err
		}
	}
	return firstErr
}
