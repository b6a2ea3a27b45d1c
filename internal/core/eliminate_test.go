package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cbi/internal/report"
)

// synth builds a synthetic analysis input. Each predicate p lives on
// site siteOf[p]; rows give per-run labels, true predicates, and
// observed sites.
type row struct {
	failed bool
	preds  []int32
	sites  []int32
}

func synth(numPreds, numSites int, siteOf []int32, rows []row) Input {
	set := &report.Set{NumSites: numSites, NumPreds: numPreds}
	for _, r := range rows {
		set.Reports = append(set.Reports, &report.Report{
			Failed:        r.failed,
			TruePreds:     r.preds,
			ObservedSites: r.sites,
		})
	}
	return Input{Set: set, SiteOf: siteOf}
}

// twoBugWorld builds a classic two-bug corpus:
//
//	pred 0: predictor of bug A (common)
//	pred 1: predictor of bug B (rarer)
//	pred 2: super-bug predictor, true in most failing runs of both
//	        bugs and in many successful runs
//	pred 3: sub-bug predictor, true in a small subset of bug A runs
//	pred 4: irrelevant invariant, true everywhere it is observed
//
// Every predicate's site is observed in every run (full coverage), so
// observation effects do not confound the test.
func twoBugWorld() Input {
	siteOf := []int32{0, 1, 2, 3, 4}
	allSites := []int32{0, 1, 2, 3, 4}
	var rows []row
	// 60 failing runs of bug A; half also show the super-bug pred;
	// 12 show the sub-bug pred.
	for i := 0; i < 60; i++ {
		preds := []int32{0}
		if i%2 == 0 {
			preds = append(preds, 2)
		}
		if i < 12 {
			preds = append(preds, 3)
		}
		preds = append(preds, 4)
		rows = append(rows, row{failed: true, preds: sorted32(preds), sites: allSites})
	}
	// 20 failing runs of bug B.
	for i := 0; i < 20; i++ {
		preds := []int32{1}
		if i%2 == 0 {
			preds = append(preds, 2)
		}
		preds = append(preds, 4)
		rows = append(rows, row{failed: true, preds: sorted32(preds), sites: allSites})
	}
	// 320 successful runs; the super-bug predictor fires in a third of
	// them, the invariant in all.
	for i := 0; i < 320; i++ {
		preds := []int32{4}
		if i%3 == 0 {
			preds = append(preds, 2)
		}
		rows = append(rows, row{failed: false, preds: sorted32(preds), sites: allSites})
	}
	return synth(5, 5, siteOf, rows)
}

func sorted32(xs []int32) []int32 {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}

func TestAggregateCounts(t *testing.T) {
	in := twoBugWorld()
	agg := Aggregate(in)
	if agg.NumF != 80 || agg.NumS != 320 {
		t.Fatalf("NumF=%d NumS=%d, want 80/320", agg.NumF, agg.NumS)
	}
	if st := agg.Stats[0]; st.F != 60 || st.S != 0 || st.Fobs != 80 || st.Sobs != 320 {
		t.Errorf("pred 0 stats = %+v", st)
	}
	if st := agg.Stats[1]; st.F != 20 || st.S != 0 {
		t.Errorf("pred 1 stats = %+v", st)
	}
	if st := agg.Stats[4]; st.F != 80 || st.S != 320 {
		t.Errorf("pred 4 stats = %+v", st)
	}
}

func TestFilterByIncreaseDropsInvariantsAndKeepsPredictors(t *testing.T) {
	in := twoBugWorld()
	agg := Aggregate(in)
	keep := FilterByIncrease(agg, Z95)
	has := func(p int) bool {
		for _, q := range keep {
			if q == p {
				return true
			}
		}
		return false
	}
	if !has(0) || !has(1) {
		t.Errorf("bug predictors pruned: keep=%v", keep)
	}
	if has(4) {
		t.Errorf("program invariant survived the Increase test: keep=%v", keep)
	}
}

func TestEliminateSelectsBothBugs(t *testing.T) {
	in := twoBugWorld()
	ranked := Eliminate(in, ElimOptions{})
	if len(ranked) < 2 {
		t.Fatalf("selected %d predictors, want >= 2: %+v", len(ranked), ranked)
	}
	if ranked[0].Pred != 0 {
		t.Errorf("first predictor = %d, want 0 (the common bug)", ranked[0].Pred)
	}
	// Bug B's predictor must appear.
	foundB := false
	for _, r := range ranked {
		if r.Pred == 1 {
			foundB = true
		}
	}
	if !foundB {
		t.Errorf("bug B predictor not selected: %+v", ranked)
	}
	// The super-bug predictor must not outrank both real predictors.
	if ranked[0].Pred == 2 {
		t.Error("super-bug predictor ranked first")
	}
}

func TestEliminateEffectiveStatsShrink(t *testing.T) {
	in := twoBugWorld()
	ranked := Eliminate(in, ElimOptions{})
	for i, r := range ranked {
		if i == 0 {
			if r.Effective != r.Initial {
				t.Errorf("first selection should have identical initial/effective stats")
			}
			continue
		}
		if r.Effective.F > r.Initial.F {
			t.Errorf("predictor %d: effective F %d > initial F %d", r.Pred, r.Effective.F, r.Initial.F)
		}
	}
}

func TestEliminateTerminatesWhenRunsExhausted(t *testing.T) {
	in := twoBugWorld()
	ranked := Eliminate(in, ElimOptions{})
	// After covering both bugs the algorithm must stop; with the
	// sub-bug predictor covered by bug A's discard, at most 3-4
	// predictors are selectable.
	if len(ranked) > 4 {
		t.Errorf("selected too many predictors: %d", len(ranked))
	}
}

func TestEliminateMaxPredictorsCap(t *testing.T) {
	in := twoBugWorld()
	ranked := Eliminate(in, ElimOptions{MaxPredictors: 1})
	if len(ranked) != 1 {
		t.Errorf("cap ignored: got %d", len(ranked))
	}
}

// TestLemma31Coverage is the paper's Lemma 3.1: if every bug profile
// intersects the union of the candidate predicates' true-run sets, the
// algorithm selects at least one predicate predicting at least one
// failure of each bug.
func TestLemma31Coverage(t *testing.T) {
	in := twoBugWorld()
	// Ground truth: bug A failing runs are rows 0..59, bug B 60..79.
	bugRuns := map[string][]int{}
	for i := 0; i < 60; i++ {
		bugRuns["A"] = append(bugRuns["A"], i)
	}
	for i := 60; i < 80; i++ {
		bugRuns["B"] = append(bugRuns["B"], i)
	}
	ranked := Eliminate(in, ElimOptions{})
	for bug, runs := range bugRuns {
		covered := false
		for _, r := range ranked {
			for _, runIdx := range runs {
				if in.Set.Reports[runIdx].True(int32(r.Pred)) {
					covered = true
				}
			}
		}
		if !covered {
			t.Errorf("bug %s not covered by any selected predictor", bug)
		}
	}
}

func TestDiscardPolicies(t *testing.T) {
	in := twoBugWorld()
	for _, policy := range []DiscardPolicy{DiscardAllRuns, DiscardFailingRuns, RelabelFailingRuns} {
		t.Run(policy.String(), func(t *testing.T) {
			ranked := Eliminate(in, ElimOptions{Policy: policy})
			if len(ranked) < 2 {
				t.Fatalf("policy %s selected %d predictors", policy, len(ranked))
			}
			found := map[int]bool{}
			for _, r := range ranked {
				found[r.Pred] = true
			}
			if !found[0] || !found[1] {
				t.Errorf("policy %s missed a bug predictor: %v", policy, found)
			}
		})
	}
}

// TestNegatedPredicateTheorem checks the §5 result: immediately after P
// is selected (and its runs discarded under any proposal), the Increase
// score of ¬P is ≥ 0 whenever it is defined. We model P/¬P as the two
// branch predicates of one site.
func TestNegatedPredicateTheorem(t *testing.T) {
	// Site 0 hosts preds 0 (P) and 1 (¬P); exactly one is true whenever
	// the site is observed. Bug X fails when P; bug Y fails when ¬P.
	siteOf := []int32{0, 0}
	var rows []row
	add := func(failed bool, p bool, n int) {
		for i := 0; i < n; i++ {
			pred := int32(0)
			if !p {
				pred = 1
			}
			rows = append(rows, row{failed: failed, preds: []int32{pred}, sites: []int32{0}})
		}
	}
	add(true, true, 30)   // P-true failures
	add(true, false, 20)  // ¬P-true failures
	add(false, true, 100) // successes both ways
	add(false, false, 100)
	in := synth(2, 1, siteOf, rows)

	for _, policy := range []DiscardPolicy{DiscardAllRuns, DiscardFailingRuns, RelabelFailingRuns} {
		// Select P (pred 0) manually, apply the policy, and check
		// Increase(¬P).
		active := make([]bool, len(in.Set.Reports))
		relabel := make([]bool, len(in.Set.Reports))
		for i, r := range in.Set.Reports {
			active[i] = true
			relabel[i] = r.Failed
		}
		for i, r := range in.Set.Reports {
			if !r.True(0) {
				continue
			}
			switch policy {
			case DiscardAllRuns:
				active[i] = false
			case DiscardFailingRuns:
				if r.Failed {
					active[i] = false
				}
			case RelabelFailingRuns:
				if r.Failed {
					relabel[i] = false
				}
			}
		}
		var agg *Agg
		if policy == RelabelFailingRuns {
			agg = AggregateSubset(in, active, relabel)
		} else {
			agg = AggregateSubset(in, active, nil)
		}
		inc := Increase(agg.Stats[1])
		if !(inc >= 0) { // also catches NaN, which would mean undefined
			t.Errorf("policy %s: Increase(¬P) = %v, want >= 0", policy, inc)
		}
	}
}

func TestAffinityIdentifiesRelatedPredicates(t *testing.T) {
	in := twoBugWorld()
	cands := []int{0, 1, 2, 3}
	// Pred 3 (sub-bug of A) must have pred 0 at the top of... rather:
	// removing pred 0's runs kills pred 3's importance, so 3 appears
	// high on 0's affinity list, and 1 (independent bug) appears low.
	list := Affinity(in, 0, cands)
	pos := map[int]int{}
	for i, e := range list {
		pos[e.Pred] = i
	}
	if pos[3] > pos[1] {
		t.Errorf("sub-bug predictor 3 (pos %d) should rank above independent predictor 1 (pos %d)", pos[3], pos[1])
	}
	// The independent bug B predictor's importance barely drops.
	for _, e := range list {
		if e.Pred == 1 && e.Drop > 0.1 {
			t.Errorf("independent predictor dropped too much: %+v", e)
		}
	}
	if top := TopAffinity(in, 0, cands); top != list[0].Pred {
		t.Errorf("TopAffinity = %d, want %d", top, list[0].Pred)
	}
}

func TestRankingStrategies(t *testing.T) {
	in := twoBugWorld()
	cands := []int{0, 1, 2, 3}
	byF := RankByF(in, cands)
	// F counts: pred 0: 60, pred 2: 40, pred 1: 20, pred 3: 12.
	if byF[0] != 0 || byF[1] != 2 || byF[2] != 1 || byF[3] != 3 {
		t.Errorf("RankByF = %v", byF)
	}
	byInc := RankByIncrease(in, cands)
	// Deterministic predictors (0, 1, 3) have Failure=1; pred 3's
	// context equals the others' (all sites fully observed), so all
	// deterministic preds share Increase = 0.8; super-bug pred 2 is
	// lower.
	if byInc[3] != 2 {
		t.Errorf("super-bug predictor should rank last by Increase: %v", byInc)
	}
	byImp := RankByImportance(in, cands)
	if byImp[0] != 0 {
		t.Errorf("Importance should rank the common bug predictor first: %v", byImp)
	}
}

// Property: Eliminate never selects the same predicate twice and the
// selection order is deterministic.
func TestEliminateNoDuplicatesProperty(t *testing.T) {
	f := func(seedRows []uint32) bool {
		const numPreds = 8
		siteOf := make([]int32, numPreds)
		for i := range siteOf {
			siteOf[i] = int32(i)
		}
		var rows []row
		for _, x := range seedRows {
			var preds, sites []int32
			for p := 0; p < numPreds; p++ {
				if x&(1<<p) != 0 {
					preds = append(preds, int32(p))
				}
				if x&(1<<(p+numPreds)) != 0 || x&(1<<p) != 0 {
					sites = append(sites, int32(p))
				}
			}
			rows = append(rows, row{failed: x&(1<<30) != 0, preds: preds, sites: sites})
		}
		in := synth(numPreds, numPreds, siteOf, rows)
		a := Eliminate(in, ElimOptions{})
		b := Eliminate(in, ElimOptions{})
		if len(a) != len(b) {
			return false
		}
		seen := map[int]bool{}
		for i := range a {
			if a[i].Pred != b[i].Pred {
				return false
			}
			if seen[a[i].Pred] {
				return false
			}
			seen[a[i].Pred] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ---- the per-round definition, kept as the oracle ----

// eliminateReference is Eliminate as §3.4 states it: every round
// re-aggregates the active runs from scratch. The projection-based
// Eliminate must return exactly the same []Ranked.
func eliminateReference(in Input, opts ElimOptions) []Ranked {
	if opts.Z == 0 {
		opts.Z = Z95
	}
	full := Aggregate(in)

	candidates := opts.Candidates
	if candidates == nil {
		candidates = FilterByIncrease(full, opts.Z)
	}
	inCand := make([]bool, in.Set.NumPreds)
	for _, p := range candidates {
		inCand[p] = true
	}

	active := make([]bool, len(in.Set.Reports))
	for i := range active {
		active[i] = true
	}
	var relabel []bool
	if opts.Policy == RelabelFailingRuns {
		relabel = make([]bool, len(in.Set.Reports))
		for i, r := range in.Set.Reports {
			relabel[i] = r.Failed
		}
	}

	var out []Ranked
	for round := 0; ; round++ {
		if opts.MaxPredictors > 0 && len(out) >= opts.MaxPredictors {
			break
		}
		agg := AggregateSubset(in, active, relabel)
		if agg.NumF == 0 {
			break
		}
		// Scan ascending so ties break toward the smaller predicate id.
		best, bestImp := -1, 0.0
		for p := 0; p < in.Set.NumPreds; p++ {
			if !inCand[p] {
				continue
			}
			if imp := Importance(agg.Stats[p], agg.NumF); imp > bestImp {
				best, bestImp = p, imp
			}
		}
		if best < 0 || bestImp <= 0 {
			break
		}

		out = append(out, Ranked{
			Pred:            best,
			Round:           round,
			Initial:         full.Stats[best],
			InitialScores:   ComputeScores(full.Stats[best], full.NumF),
			Effective:       agg.Stats[best],
			EffectiveScores: ComputeScores(agg.Stats[best], agg.NumF),
		})
		inCand[best] = false

		for _, i := range runsWhereTrue(in, int32(best), active) {
			r := in.Set.Reports[i]
			failed := r.Failed
			if relabel != nil {
				failed = relabel[i]
			}
			switch opts.Policy {
			case DiscardAllRuns:
				active[i] = false
			case DiscardFailingRuns:
				if failed {
					active[i] = false
				}
			case RelabelFailingRuns:
				if failed {
					relabel[i] = false
				}
			}
		}
	}
	return out
}

// affinityReference is Affinity as §4.1 states it: Importance over all
// runs and over the runs where p is not true, each a full aggregation.
func affinityReference(in Input, p int, candidates []int) []AffinityEntry {
	before := Aggregate(in)

	active := make([]bool, len(in.Set.Reports))
	for i := range active {
		active[i] = true
	}
	for _, i := range runsWhereTrue(in, int32(p), nil) {
		active[i] = false
	}
	after := AggregateSubset(in, active, nil)

	out := make([]AffinityEntry, 0, len(candidates))
	for _, q := range candidates {
		if q == p {
			continue
		}
		b := Importance(before.Stats[q], before.NumF)
		a := Importance(after.Stats[q], after.NumF)
		out = append(out, AffinityEntry{Pred: q, Before: b, After: a, Drop: b - a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Drop != out[j].Drop {
			return out[i].Drop > out[j].Drop
		}
		return out[i].Pred < out[j].Pred
	})
	return out
}

// runsWhereTrue returns the indices of active runs in which predicate p
// was observed true. A nil active slice means all runs.
func runsWhereTrue(in Input, p int32, active []bool) []int {
	var out []int
	for i, r := range in.Set.Reports {
		if active != nil && !active[i] {
			continue
		}
		if r.True(p) {
			out = append(out, i)
		}
	}
	return out
}

// fuzzWorld decodes bytes into an elimination problem. A 7-byte header
// gives the site count, the extra predicates beyond one per site, the
// discard policy, the candidate mode (nil, unsorted with duplicates,
// every predicate), the cap (0, 1, 3), a twin flag and a candidate
// mask. Then each 4-byte record is one run, repeated: label bit and
// repeat count, observed-site mask, 16-bit true-predicate mask.
// Predicate p lives on site p % sites and is true only where its site
// was observed; with the twin flag, predicate `sites` (also on site 0)
// copies predicate 0, forcing an Importance tie. One extra predicate,
// the last, is never true.
func fuzzWorld(data []byte) (Input, ElimOptions, bool) {
	if len(data) < 7 {
		return Input{}, ElimOptions{}, false
	}
	numSites := 1 + int(data[0]%8)
	live := numSites + int(data[1]%8)
	twin := data[5]&1 != 0 && live > numSites
	siteOf := make([]int32, live+1)
	for p := 0; p < live; p++ {
		siteOf[p] = int32(p % numSites)
	}

	var rows []row
	for off := 7; off+4 <= len(data) && len(rows) < 1024; off += 4 {
		obs := data[off+1]
		truth := uint16(data[off+2]) | uint16(data[off+3])<<8
		if twin {
			truth = truth&^(1<<numSites) | (truth&1)<<numSites
		}
		var sites, preds []int32
		for s := 0; s < numSites; s++ {
			if obs&(1<<s) != 0 {
				sites = append(sites, int32(s))
			}
		}
		for p := 0; p < live; p++ {
			if truth&(1<<p) != 0 && obs&(1<<(p%numSites)) != 0 {
				preds = append(preds, int32(p))
			}
		}
		for n := 1 + int(data[off]>>1&7); n > 0; n-- {
			rows = append(rows, row{failed: data[off]&1 != 0, preds: preds, sites: sites})
		}
	}

	opts := ElimOptions{
		Policy:        DiscardPolicy(data[2] % 3),
		MaxPredictors: []int{0, 1, 3}[data[4]%3],
	}
	switch data[3] % 3 {
	case 1:
		opts.Candidates = []int{}
		for p := live; p >= 0; p-- {
			if data[6]&(1<<(p%8)) != 0 {
				opts.Candidates = append(opts.Candidates, p)
			}
		}
		if len(opts.Candidates) > 0 {
			opts.Candidates = append(opts.Candidates, opts.Candidates[0])
		}
	case 2:
		for p := 0; p <= live; p++ {
			opts.Candidates = append(opts.Candidates, p)
		}
	}
	return synth(live+1, numSites, siteOf, rows), opts, true
}

// fuzzSeed encodes rows (one record each) under the given header.
func fuzzSeed(numSites, live int, header [5]byte, rows []row) []byte {
	b := append([]byte{byte(numSites - 1), byte(live - numSites)}, header[:]...)
	for _, r := range rows {
		var label, obs byte
		var truth uint16
		if r.failed {
			label = 1
		}
		for _, s := range r.sites {
			obs |= 1 << s
		}
		for _, p := range r.preds {
			truth |= 1 << p
		}
		b = append(b, label, obs, byte(truth), byte(truth>>8))
	}
	return b
}

// fuzzCorpora are the seed corpora: twoBugWorld, the P/¬P corpus of
// TestNegatedPredicateTheorem, and a corpus of exact Importance ties
// (twins 0 and 2 on site 0, 1 and 3 on site 1, each pair the top
// choice of its round, plus failing runs that leave site 0 unobserved).
func fuzzCorpora() []struct {
	sites, live int
	twin        byte
	rows        []row
} {
	var twoBug []row
	for _, r := range twoBugWorld().Set.Reports {
		twoBug = append(twoBug, row{failed: r.Failed, preds: r.TruePreds, sites: r.ObservedSites})
	}
	var negated, ties []row
	add := func(rows *[]row, n int, r row) {
		for i := 0; i < n; i++ {
			*rows = append(*rows, r)
		}
	}
	add(&negated, 30, row{failed: true, preds: []int32{0}, sites: []int32{0}})
	add(&negated, 20, row{failed: true, preds: []int32{1}, sites: []int32{0}})
	add(&negated, 100, row{failed: false, preds: []int32{0}, sites: []int32{0}})
	add(&negated, 100, row{failed: false, preds: []int32{1}, sites: []int32{0}})
	add(&ties, 12, row{failed: true, preds: []int32{0, 2}, sites: []int32{0, 1}})
	add(&ties, 8, row{failed: true, preds: []int32{1, 3}, sites: []int32{0, 1}})
	add(&ties, 6, row{failed: true, sites: []int32{1}})
	add(&ties, 2, row{failed: false, preds: []int32{0, 2}, sites: []int32{0}})
	add(&ties, 40, row{failed: false, sites: []int32{0, 1}})
	return []struct {
		sites, live int
		twin        byte
		rows        []row
	}{{5, 5, 0, twoBug}, {1, 2, 0, negated}, {2, 4, 1, ties}}
}

// TestFuzzSeedsDecode checks each seed corpus decodes to its own runs,
// so the fuzz seeds are the corpora they are named after.
func TestFuzzSeedsDecode(t *testing.T) {
	for i, c := range fuzzCorpora() {
		in, _, ok := fuzzWorld(fuzzSeed(c.sites, c.live, [5]byte{3: c.twin}, c.rows))
		if !ok || len(in.Set.Reports) != len(c.rows) {
			t.Fatalf("corpus %d: decoded %d runs, want %d", i, len(in.Set.Reports), len(c.rows))
		}
		for j, r := range in.Set.Reports {
			w := c.rows[j]
			if r.Failed != w.failed || !slices.Equal(r.TruePreds, w.preds) || !slices.Equal(r.ObservedSites, w.sites) {
				t.Fatalf("corpus %d run %d: decoded %+v, want %+v", i, j, *r, w)
			}
		}
	}
}

// FuzzEliminateMatchesReference pins the projection-based Eliminate,
// Analyze and Affinity to the per-round definitions: the same []Ranked
// under every policy, candidate list and cap, and the same affinity
// list for every selected predicate, a non-candidate and a predicate
// with no true runs.
func FuzzEliminateMatchesReference(f *testing.F) {
	for _, c := range fuzzCorpora() {
		for policy := byte(0); policy < 3; policy++ {
			for mode := byte(0); mode < 3; mode++ {
				for limit := byte(0); limit < 3; limit++ {
					f.Add(fuzzSeed(c.sites, c.live, [5]byte{policy, mode, limit, c.twin, 0xb7}, c.rows))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, opts, ok := fuzzWorld(data)
		if !ok {
			return
		}
		want := eliminateReference(in, opts)
		a := Analyze(in, opts)
		if !reflect.DeepEqual(a.Ranked, want) {
			t.Fatalf("Analyze(%+v).Ranked = %+v\nwant %+v", opts, a.Ranked, want)
		}
		if got := Eliminate(in, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("Eliminate(%+v) = %+v\nwant %+v", opts, got, want)
		}

		cands := a.Candidates
		inCand := map[int]bool{}
		for _, p := range cands {
			inCand[p] = true
		}
		check := func(p int) {
			want := affinityReference(in, p, cands)
			if got := Affinity(in, p, cands); !reflect.DeepEqual(got, want) {
				t.Fatalf("Affinity(%d, %v) = %+v\nwant %+v", p, cands, got, want)
			}
			if inCand[p] {
				if got := a.Affinity(p, cands); !reflect.DeepEqual(got, want) {
					t.Fatalf("Analysis.Affinity(%d, %v) = %+v\nwant %+v", p, cands, got, want)
				}
			}
		}
		for _, rk := range want {
			check(rk.Pred)
		}
		for p := 0; p < in.Set.NumPreds; p++ {
			if !inCand[p] {
				check(p)
				break
			}
		}
		check(in.Set.NumPreds - 1) // never true
	})
}
