package core

import (
	"fmt"
	"sort"
)

// projection is a report set restricted to a candidate predicate set:
// what iterative elimination and affinity lists read, and nothing else.
// It is built in one pass over the runs, after which every elimination
// round and every affinity list is an integer update over the runs
// being discarded — never a re-aggregation of the whole set. Every count
// stays an integer, so the Stats and Scores it yields equal those of a
// re-aggregation exactly.
type projection struct {
	// preds maps a dense candidate id to its predicate id. Dense ids
	// ascend with predicate ids, so scanning them in order keeps the
	// smaller-id tie-break.
	preds []int
	// dense maps a predicate id to its dense candidate id, or -1.
	dense []int32
	// site maps a dense candidate id to the dense id of its site among
	// the candidates' sites.
	site     []int32
	numSites int
	// failed is each run's own label.
	failed []bool
	// trueIDs[trueOff[i]:trueOff[i+1]] are run i's true candidates and
	// obsIDs[obsOff[i]:obsOff[i+1]] its observed candidate sites. A run
	// where no candidate is true is never discarded, so its observed
	// sites are not recorded.
	trueOff, obsOff []int
	trueIDs, obsIDs []int32
	// postIDs[postOff[d]:postOff[d+1]] are the runs where candidate d is
	// true, ascending: its posting list.
	postOff []int
	postIDs []int32
}

// project builds the projection of in onto candidates (any order,
// duplicates allowed).
func project(in Input, candidates []int) *projection {
	pr := &projection{dense: make([]int32, in.Set.NumPreds)}
	for p := range pr.dense {
		pr.dense[p] = -1
	}
	// Mark the candidates, then number them in ascending predicate order,
	// which also drops duplicates.
	for _, p := range candidates {
		pr.dense[p] = 0
	}
	siteID := make([]int32, in.Set.NumSites)
	for s := range siteID {
		siteID[s] = -1
	}
	for p, d := range pr.dense {
		if d < 0 {
			continue
		}
		pr.dense[p] = int32(len(pr.preds))
		pr.preds = append(pr.preds, p)
		s := in.SiteOf[p]
		if siteID[s] < 0 {
			siteID[s] = int32(pr.numSites)
			pr.numSites++
		}
		pr.site = append(pr.site, siteID[s])
	}

	reports := in.Set.Reports
	pr.failed = make([]bool, len(reports))
	pr.trueOff = make([]int, len(reports)+1)
	pr.obsOff = make([]int, len(reports)+1)
	for i, r := range reports {
		pr.failed[i] = r.Failed
		start := len(pr.trueIDs)
		for _, p := range r.TruePreds {
			if d := pr.dense[p]; d >= 0 {
				pr.trueIDs = append(pr.trueIDs, d)
			}
		}
		if len(pr.trueIDs) > start {
			for _, s := range r.ObservedSites {
				if d := siteID[s]; d >= 0 {
					pr.obsIDs = append(pr.obsIDs, d)
				}
			}
		}
		pr.trueOff[i+1] = len(pr.trueIDs)
		pr.obsOff[i+1] = len(pr.obsIDs)
	}

	// Posting lists: a counting sort of the (run, candidate) pairs.
	pr.postOff = make([]int, len(pr.preds)+1)
	for _, d := range pr.trueIDs {
		pr.postOff[d+1]++
	}
	for d := range pr.preds {
		pr.postOff[d+1] += pr.postOff[d]
	}
	next := append([]int(nil), pr.postOff[:len(pr.preds)]...)
	pr.postIDs = make([]int32, len(pr.trueIDs))
	for i := range reports {
		for _, d := range pr.trueIDs[pr.trueOff[i]:pr.trueOff[i+1]] {
			pr.postIDs[next[d]] = int32(i)
			next[d]++
		}
	}
	return pr
}

// id returns p's dense candidate id.
func (pr *projection) id(p int) int {
	d := pr.dense[p]
	if d < 0 {
		panic(fmt.Sprintf("core: predicate %d is not among the projected candidates", p))
	}
	return int(d)
}

func (pr *projection) posting(d int) []int32 {
	return pr.postIDs[pr.postOff[d]:pr.postOff[d+1]]
}

// tally holds the fields of an Agg that elimination and affinity read,
// over the projection's candidates: true counts per candidate,
// observation counts per candidate site, and the run totals.
type tally struct {
	f, s, fobs, sobs []int
	numF, numS       int
}

// seed copies the candidates' counts out of the full aggregate, which
// costs no pass over the runs.
func (pr *projection) seed(full *Agg) *tally {
	t := &tally{
		f: make([]int, len(pr.preds)), s: make([]int, len(pr.preds)),
		fobs: make([]int, pr.numSites), sobs: make([]int, pr.numSites),
		numF: full.NumF, numS: full.NumS,
	}
	for d, p := range pr.preds {
		st := full.Stats[p]
		t.f[d], t.s[d] = st.F, st.S
		t.fobs[pr.site[d]], t.sobs[pr.site[d]] = st.Fobs, st.Sobs
	}
	return t
}

func (t *tally) stats(pr *projection, d int) Stats {
	s := pr.site[d]
	return Stats{F: t.f[d], S: t.s[d], Fobs: t.fobs[s], Sobs: t.sobs[s]}
}

// add adds sign times run i's contribution to the failing side (failed)
// or the successful side.
func (t *tally) add(pr *projection, i int, failed bool, sign int) {
	tru, obs := t.s, t.sobs
	if failed {
		tru, obs = t.f, t.fobs
		t.numF += sign
	} else {
		t.numS += sign
	}
	for _, d := range pr.trueIDs[pr.trueOff[i]:pr.trueOff[i+1]] {
		tru[d] += sign
	}
	for _, s := range pr.obsIDs[pr.obsOff[i]:pr.obsOff[i+1]] {
		obs[s] += sign
	}
}

// eliminate is the §3.4 loop over the projection. Each round subtracts
// only the runs the selected predicate discards (or moves them from the
// failing to the successful side), so across all rounds every run is
// touched at most once.
func (pr *projection) eliminate(full *Agg, policy DiscardPolicy, maxPredictors int) []Ranked {
	t := pr.seed(full)
	failing := append([]bool(nil), pr.failed...)
	gone := make([]bool, len(pr.failed))
	selected := make([]bool, len(pr.preds))

	var out []Ranked
	for (maxPredictors <= 0 || len(out) < maxPredictors) && t.numF > 0 {
		// Scan ascending so ties break toward the smaller predicate id.
		best, bestImp := -1, 0.0
		for d := range pr.preds {
			if selected[d] {
				continue
			}
			if imp := Importance(t.stats(pr, d), t.numF); imp > bestImp {
				best, bestImp = d, imp
			}
		}
		if best < 0 {
			break
		}

		p, eff := pr.preds[best], t.stats(pr, best)
		out = append(out, Ranked{
			Pred:            p,
			Round:           len(out),
			Initial:         full.Stats[p],
			InitialScores:   ComputeScores(full.Stats[p], full.NumF),
			Effective:       eff,
			EffectiveScores: ComputeScores(eff, t.numF),
		})
		selected[best] = true

		for _, i := range pr.posting(best) {
			if gone[i] || (policy != DiscardAllRuns && !failing[i]) {
				continue
			}
			t.add(pr, int(i), failing[i], -1)
			if policy == RelabelFailingRuns {
				t.add(pr, int(i), false, 1)
				failing[i] = false
			} else {
				gone[i] = true
			}
		}
	}
	return out
}

// affinity is p's affinity list over candidates: each candidate's
// Importance over the full set, and over the full set minus p's posting
// list.
func (pr *projection) affinity(full *Agg, p int, candidates []int) []AffinityEntry {
	after := pr.seed(full)
	for _, i := range pr.posting(pr.id(p)) {
		after.add(pr, int(i), pr.failed[i], -1)
	}

	out := make([]AffinityEntry, 0, len(candidates))
	for _, q := range candidates {
		if q == p {
			continue
		}
		b := Importance(full.Stats[q], full.NumF)
		a := Importance(after.stats(pr, pr.id(q)), after.numF)
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
