// Package core implements the statistical debugging algorithm of
// "Scalable Statistical Bug Isolation" (Liblit et al., PLDI 2005):
// predicate scoring (Failure, Context, Increase with confidence
// intervals, Importance), Increase-based pruning, the iterative
// redundancy-elimination algorithm with the paper's three run-discard
// proposals, and affinity lists.
//
// The package is decoupled from instrumentation: it consumes feedback
// reports plus a predicate→site map (needed for the "P observed"
// semantics — all predicates at a site are observed together).
package core

import "cbi/internal/report"

// Input is the analysis input: a set of feedback reports and the
// predicate→site mapping.
type Input struct {
	Set *report.Set
	// SiteOf maps each predicate id to its site id.
	SiteOf []int32
}

// Stats are the per-predicate counts the paper's estimators use
// (§3.1): how often the predicate was observed true, and how often its
// site was observed at all, split by run outcome.
type Stats struct {
	// F and S count runs where the predicate was observed to be true,
	// among failing and successful runs respectively.
	F, S int
	// Fobs and Sobs count runs where the predicate's site was observed
	// (reached and sampled), regardless of the predicate's value.
	Fobs, Sobs int
}

// Agg is an aggregation of a report (sub)set: per-predicate Stats plus
// the set-level run counts.
type Agg struct {
	Stats []Stats
	// NumF and NumS are the numbers of failing and successful runs in
	// the aggregated subset.
	NumF, NumS int
}

// Aggregate computes per-predicate statistics over all runs.
func Aggregate(in Input) *Agg {
	active := make([]bool, len(in.Set.Reports))
	for i := range active {
		active[i] = true
	}
	return AggregateSubset(in, active, nil)
}

// AggregateSubset computes per-predicate statistics over the runs with
// active[i] == true. If relabel is non-nil, relabel[i] overrides the
// report's own failure label (used by discard proposal 3).
func AggregateSubset(in Input, active []bool, relabel []bool) *Agg {
	numPreds := in.Set.NumPreds
	numSites := in.Set.NumSites
	agg := &Agg{Stats: make([]Stats, numPreds)}

	fObsSite := make([]int32, numSites)
	sObsSite := make([]int32, numSites)

	for i, r := range in.Set.Reports {
		if !active[i] {
			continue
		}
		failed := r.Failed
		if relabel != nil {
			failed = relabel[i]
		}
		if failed {
			agg.NumF++
			for _, s := range r.ObservedSites {
				fObsSite[s]++
			}
			for _, p := range r.TruePreds {
				agg.Stats[p].F++
			}
		} else {
			agg.NumS++
			for _, s := range r.ObservedSites {
				sObsSite[s]++
			}
			for _, p := range r.TruePreds {
				agg.Stats[p].S++
			}
		}
	}

	for p := 0; p < numPreds; p++ {
		site := in.SiteOf[p]
		agg.Stats[p].Fobs = int(fObsSite[site])
		agg.Stats[p].Sobs = int(sObsSite[site])
	}
	return agg
}
