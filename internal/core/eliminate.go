package core

import (
	"math"
	"sort"
)

// DiscardPolicy selects what happens to runs where the chosen
// predicate was observed true (paper §5's three proposals).
type DiscardPolicy int

// Discard policies.
const (
	// DiscardAllRuns removes every run R with R(P)=1 — the paper's
	// default (proposal 1).
	DiscardAllRuns DiscardPolicy = iota
	// DiscardFailingRuns removes only failing runs with R(P)=1
	// (proposal 2).
	DiscardFailingRuns
	// RelabelFailingRuns relabels failing runs with R(P)=1 as
	// successful (proposal 3).
	RelabelFailingRuns
)

// String names the policy.
func (p DiscardPolicy) String() string {
	switch p {
	case DiscardAllRuns:
		return "discard-all"
	case DiscardFailingRuns:
		return "discard-failing"
	default:
		return "relabel-failing"
	}
}

// Ranked is one predictor selected by the elimination algorithm.
type Ranked struct {
	// Pred is the predicate id.
	Pred int
	// Round is the elimination iteration (0-based) that selected it.
	Round int
	// Initial are the predicate's statistics and scores over the full
	// report set (the paper's "initial bug thermometer").
	Initial       Stats
	InitialScores Scores
	// Effective are the statistics at selection time, after
	// higher-ranked predicates' runs were discarded (the "effective
	// bug thermometer").
	Effective       Stats
	EffectiveScores Scores
}

// ElimOptions configure the elimination algorithm.
type ElimOptions struct {
	// Policy is the run-discard proposal (default: DiscardAllRuns).
	Policy DiscardPolicy
	// Z is the confidence quantile for the Increase pruning test
	// (default Z95).
	Z float64
	// MaxPredictors caps the output length (0 = no cap).
	MaxPredictors int
	// Candidates restricts the candidate predicate set (nil = apply
	// the Increase test on the full set first, the paper's pipeline).
	// For DiscardFailingRuns and RelabelFailingRuns the paper (§5)
	// notes predicates with non-positive initial Increase should NOT
	// be pre-pruned, since they can become predictive later; callers
	// wanting that behaviour pass an explicit candidate list (e.g. all
	// predicates).
	Candidates []int
}

// Eliminate runs the iterative redundancy-elimination algorithm
// (§3.4):
//
//  1. Rank candidate predicates by Importance over the active runs.
//  2. Select the top-ranked predicate; discard (per the policy) the
//     runs where it was observed true.
//  3. Repeat until no failing runs remain, no candidate has positive
//     Importance, or the candidate set is exhausted.
//
// The returned predictors are in selection order, which is the paper's
// ranked output list.
//
// The output is fully deterministic for a given report multiset:
// candidates are scanned in ascending predicate id, so an Importance
// tie always selects the smaller id. TopKImportance applies the same
// rule, which is what lets a live collector's incremental ranking be
// compared element-for-element against this batch path.
func Eliminate(in Input, opts ElimOptions) []Ranked {
	return Analyze(in, opts).Ranked
}

// Analysis is the cause isolation of one report set: the full
// aggregate, the candidate set, the elimination ranking and, on demand,
// affinity lists, all served from one projection of the runs onto the
// candidates.
type Analysis struct {
	// Full is the aggregate over every run.
	Full *Agg
	// Candidates is opts.Candidates, or the Increase survivors when that
	// was nil.
	Candidates []int
	// Ranked is Eliminate's output.
	Ranked []Ranked
	proj   *projection
}

// Analyze runs Eliminate and keeps what it built for affinity lists. It
// costs one Aggregate, one projection pass over the runs, and then only
// integer updates over the runs each selected predicate discards.
func Analyze(in Input, opts ElimOptions) *Analysis {
	if opts.Z == 0 {
		opts.Z = Z95
	}
	full := Aggregate(in)
	candidates := opts.Candidates
	if candidates == nil {
		candidates = FilterByIncrease(full, opts.Z)
	}
	pr := project(in, candidates)
	return &Analysis{
		Full:       full,
		Candidates: candidates,
		Ranked:     pr.eliminate(full, opts.Policy, opts.MaxPredictors),
		proj:       pr,
	}
}

// Affinity is core.Affinity(in, p, candidates) over the analysed report
// set. p and every candidate must be in a.Candidates; it panics
// otherwise.
func (a *Analysis) Affinity(p int, candidates []int) []AffinityEntry {
	return a.proj.affinity(a.Full, p, candidates)
}

// RankByImportance returns all candidate predicates ordered by
// decreasing Importance over the full set, without elimination — the
// Table 1(c) ranking. Ties break toward smaller predicate ids.
func RankByImportance(in Input, candidates []int) []int {
	agg := Aggregate(in)
	return rankBy(candidates, func(p int) float64 { return Importance(agg.Stats[p], agg.NumF) })
}

// RankByIncrease orders candidates by decreasing Increase (Table 1(b)).
func RankByIncrease(in Input, candidates []int) []int {
	agg := Aggregate(in)
	return rankBy(candidates, func(p int) float64 {
		inc := Increase(agg.Stats[p])
		if math.IsNaN(inc) {
			return math.Inf(-1)
		}
		return inc
	})
}

// RankByF orders candidates by decreasing F(P) (Table 1(a)).
func RankByF(in Input, candidates []int) []int {
	agg := Aggregate(in)
	return rankBy(candidates, func(p int) float64 { return float64(agg.Stats[p].F) })
}

func rankBy(candidates []int, score func(int) float64) []int {
	out := make([]int, len(candidates))
	copy(out, candidates)
	scores := make(map[int]float64, len(out))
	for _, p := range out {
		scores[p] = score(p)
	}
	sort.Slice(out, func(i, j int) bool {
		sa, sb := scores[out[i]], scores[out[j]]
		if sa != sb {
			return sa > sb
		}
		return out[i] < out[j]
	})
	return out
}
