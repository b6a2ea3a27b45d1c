package main

import (
	"math"
	"reflect"
	"slices"
	"time"

	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/lang"
	"cbi/internal/report"
	"cbi/internal/sampling"
	"cbi/internal/subjects"
	"cbi/internal/vm"
)

// client is the client-side system under test: one subject compiled for
// the VM with a bare engine and instrumented engines beside it. No
// server exists in these workloads.
type client struct {
	o      *options
	short  bool // CCRYPT, sampled runs only; else MOSS triples
	subj   *subjects.Subject
	prog   *lang.Program
	plan   *instrument.Plan
	mod    *vm.Module
	inputs []interp.Input

	bare, never, sampled *vm.VM
	rtNever, rtSampled   *instrument.Runtime

	// set by verify, read by layers
	alwaysMS, interpMS []float64
	sampleShare        float64
}

func setupClientRun(o *options, _ *tracer) (instance, error) {
	return newClient(o, subjects.Moss(), o.sc.clientInputs, false)
}

func setupClientShort(o *options, _ *tracer) (instance, error) {
	return newClient(o, subjects.Ccrypt(), o.sc.shortInputs, true)
}

// newClient parses, resolves, plans and compiles a fresh Subject (so
// nothing is cached from an earlier set-up), generates the seeded
// inputs, and runs a few to let lazy set-up finish before the clock.
func newClient(o *options, subj *subjects.Subject, numInputs int, short bool) (*client, error) {
	c := &client{o: o, short: short, subj: subj}
	c.prog = subj.Program(true)
	c.plan = instrument.BuildPlan(c.prog)
	var err error
	if c.mod, err = vm.Compile(c.prog); err != nil {
		return nil, err
	}
	c.inputs = make([]interp.Input, numInputs)
	for i := range c.inputs {
		// As harness.Run makes its inputs: the subject's i-th arguments
		// and stream, with the run's PRNG and heap layout off the seed.
		c.inputs[i] = subj.Input(int64(i))
		c.inputs[i].Seed += o.seed
	}
	c.bare = vm.New(c.mod, nil)
	c.rtNever = instrument.NewRuntime(c.plan, sampling.Never{})
	c.never = vm.New(c.mod, c.rtNever)
	c.rtSampled = instrument.NewRuntime(c.plan, sampling.NewUniform(sampling.DefaultRate))
	c.sampled = vm.New(c.mod, c.rtSampled)
	for i := 0; i < min(8, numInputs); i++ {
		c.bare.Run(c.inputs[i])
		runInstrumented(c.never, c.rtNever, c.inputs[i], int64(i))
		runInstrumented(c.sampled, c.rtSampled, c.inputs[i], int64(i))
	}
	return c, nil
}

// runner is either execution engine.
type runner interface {
	Run(interp.Input) *interp.Outcome
}

// runInstrumented is one monitored run as a deployed client makes it.
func runInstrumented(e runner, rt *instrument.Runtime, in interp.Input, runSeed int64) (*interp.Outcome, *report.Report) {
	rt.BeginRun(runSeed)
	out := e.Run(in)
	return out, rt.Snapshot(out.Crashed)
}

func sameOutcome(a, b *interp.Outcome) bool {
	return a.Crashed == b.Crashed && a.Trap == b.Trap && a.ExitCode == b.ExitCode &&
		slices.Equal(a.Output, b.Output)
}

func (c *client) measure(ops int) (*measurement, error) {
	m := &measurement{aux: map[string][]float64{}}
	var bareMS, neverMS []float64
	for i := 0; i < ops; i++ {
		in := c.inputs[i%len(c.inputs)]
		runSeed := c.o.seed + int64(i)
		var bareOut, neverOut *interp.Outcome
		var neverRep *report.Report
		if !c.short {
			t0 := time.Now()
			bareOut = c.bare.Run(in)
			t1 := time.Now()
			neverOut, neverRep = runInstrumented(c.never, c.rtNever, in, runSeed)
			bareMS, neverMS = append(bareMS, ms(t1.Sub(t0))), append(neverMS, ms(time.Since(t1)))
		} else if i%64 == 0 {
			// CCRYPT runs are too short to pair each with a bare run
			// without doubling the loop; every 64th is checked.
			bareOut = c.bare.Run(in)
		}
		t0 := time.Now()
		out, _ := runInstrumented(c.sampled, c.rtSampled, in, runSeed)
		d := time.Since(t0)
		m.opsMS = append(m.opsMS, ms(d))
		m.wall += d

		m.attempted++
		switch {
		case bareOut != nil && !sameOutcome(bareOut, out),
			neverOut != nil && !sameOutcome(bareOut, neverOut),
			neverRep != nil && len(neverRep.ObservedSites)+len(neverRep.TruePreds) > 0:
			m.failed++
		}
	}
	m.units = float64(len(m.opsMS))
	m.aux["bare"], m.aux["never"] = bareMS, neverMS
	return m, nil
}

// verify runs the check subset always-sampled on both engines: the VM's
// reports must equal the tree-walker's, and the 1/100 sampler must have
// taken 1/100 of the reaches the always-sampled run counts.
func (c *client) verify(_ *measurement, res *result) {
	if c.short {
		return
	}
	rtVM := instrument.NewRuntime(c.plan, sampling.Always{})
	rtTree := instrument.NewRuntime(c.plan, sampling.Always{})
	alwaysVM, alwaysTree := vm.New(c.mod, rtVM), interp.New(c.prog, rtTree)
	tree := interp.New(c.prog, nil)
	var reaches, samples float64
	for i := 0; i < min(c.o.sc.checkInputs, len(c.inputs)); i++ {
		in := c.inputs[i]
		t0 := time.Now()
		_, vmRep := runInstrumented(alwaysVM, rtVM, in, int64(i))
		c.alwaysMS = append(c.alwaysMS, ms(time.Since(t0)))
		_, treeRep := runInstrumented(alwaysTree, rtTree, in, int64(i))
		res.check(reflect.DeepEqual(vmRep, treeRep), "input %d: vm and tree-walker always-sampled reports differ", i)
		t0 = time.Now()
		tree.Run(in)
		c.interpMS = append(c.interpMS, ms(time.Since(t0)))

		_, rep := runInstrumented(c.sampled, c.rtSampled, in, c.o.seed+int64(i))
		for _, s := range vmRep.ObservedSites {
			reaches += float64(rtVM.SiteObservedCount(int(s)))
		}
		for _, s := range rep.ObservedSites {
			samples += float64(c.rtSampled.SiteObservedCount(int(s)))
		}
	}
	p := sampling.DefaultRate
	c.sampleShare = samples / reaches
	sigma := math.Sqrt(p * (1 - p) / reaches)
	res.check(math.Abs(c.sampleShare-p) <= 3*sigma,
		"sampler took %.0f of %.0f reaches = %.5f, more than 3 sigma (%.5f) from %.2f", samples, reaches, c.sampleShare, 3*sigma, p)
}

func (c *client) layers(m *measurement, _ *spanSet, res *result) {
	reps := c.o.sc.probeReps
	src := c.subj.Source(true)
	var perr error
	res.metrics["lang.parse_resolve_ms"] = median(timeReps(reps, func() {
		prog, err := lang.Parse("probe.mc", src)
		if err == nil {
			err = lang.Resolve(prog)
		}
		if err != nil {
			perr = err
		}
	}))
	res.check(perr == nil, "parse probe: %v", perr)
	res.metrics["instrument.build_plan_ms"] = median(timeReps(reps, func() { instrument.BuildPlan(c.prog) }))
	res.metrics["vm.compile_ms"] = median(timeReps(reps, func() { vm.Compile(c.prog) }))
	const calls = 200
	res.metrics["instrument.begin_snapshot_us"] = 1e3 / calls * median(timeReps(reps, func() {
		for i := 0; i < calls; i++ {
			c.rtSampled.BeginRun(int64(i))
			c.rtSampled.Snapshot(false)
		}
	}))
	const decisions = 1 << 20
	u := sampling.NewUniform(sampling.DefaultRate)
	u.Reset(c.o.seed)
	taken := 0
	res.metrics["sampling.uniform_decision_ns"] = 1e6 / decisions * median(timeReps(reps, func() {
		for i := 0; i < decisions; i++ {
			if u.Sample(0) {
				taken++
			}
		}
	}))
	res.check(taken > 0, "uniform sampler never sampled")
	if c.short {
		return
	}
	bare, never := m.aux["bare"], m.aux["never"]
	res.metrics["vm.bare_run_ms"] = percentile(bare, 0.5)
	res.metrics["vm.never_run_ms"] = percentile(never, 0.5)
	res.metrics["client.overhead_never"] = sum(never) / sum(bare)
	res.metrics["client.overhead_sampled"] = sum(m.opsMS) / sum(bare)
	res.metrics["vm.always_run_ms"] = median(c.alwaysMS)
	res.metrics["interp.bare_run_ms"] = median(c.interpMS)
	res.metrics["sampling.sample_share"] = c.sampleShare
}

func (c *client) close() {}
