package core

// AffinityEntry records how strongly a selected predicate P implies
// another predicate Q: the drop in Q's Importance when the runs where
// P was observed true are removed (paper §4.1: "each predicate P in
// the final, ranked list links to an affinity list of all predicates
// ranked by how much P causes their ranking score to decrease").
type AffinityEntry struct {
	Pred int
	// Before and After are Q's Importance with and without P's true
	// runs.
	Before, After float64
	// Drop = Before − After; large drops mean P and Q predict the same
	// failing runs.
	Drop float64
}

// Affinity computes the affinity list of predicate p over the given
// candidate predicates (p itself is skipped). Entries are ordered by
// decreasing Drop. It projects the runs onto candidates ∪ {p}; callers
// that also rank should use Analyze and Analysis.Affinity, which share
// one projection.
func Affinity(in Input, p int, candidates []int) []AffinityEntry {
	return project(in, append([]int{p}, candidates...)).affinity(Aggregate(in), p, candidates)
}

// TopAffinity returns the predicate at the head of p's affinity list,
// or -1 if the list is empty — used to recognize sub-bug predictors
// (paper §4.2.1: "the first predicate is listed first in the second
// predicate's affinity list, indicating the first predicate is a
// sub-bug predictor associated with the second").
func TopAffinity(in Input, p int, candidates []int) int {
	list := Affinity(in, p, candidates)
	if len(list) == 0 {
		return -1
	}
	return list[0].Pred
}
