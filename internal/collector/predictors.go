package collector

import (
	"cbi/internal/core"
	"cbi/internal/thermo"
)

// PredictorScores is one side (initial or effective) of a ranked
// predictor: the paper's per-predicate statistics, metrics, and bug
// thermometer over a report set.
type PredictorScores struct {
	Importance   float64 `json:"importance"`
	ImportanceCI float64 `json:"importance_ci"`
	Increase     float64 `json:"increase"`
	IncreaseCI   float64 `json:"increase_ci"`
	Failure      float64 `json:"failure"`
	Context      float64 `json:"context"`
	F            int     `json:"f"`
	S            int     `json:"s"`
	Fobs         int     `json:"fobs"`
	Sobs         int     `json:"sobs"`
	Thermo       Thermo  `json:"thermo"`
}

// Thermo is the bug-thermometer rendering data (paper §3.3): band
// fractions plus the log-scaled relative length.
type Thermo struct {
	Len01 float64 `json:"len01"`
	Black float64 `json:"black"`
	Dark  float64 `json:"dark"`
	Light float64 `json:"light"`
	White float64 `json:"white"`
	Obs   int     `json:"obs"`
}

// AffinityItem is one row of a predictor's affinity list: how much
// discarding the predictor's true runs drops this predicate's
// Importance (paper §4.1).
type AffinityItem struct {
	Pred   int     `json:"pred"`
	Before float64 `json:"before"`
	After  float64 `json:"after"`
	Drop   float64 `json:"drop"`
}

// PredictorEntry is one row of the GET /v1/predictors response: a
// predictor selected by the iterative elimination algorithm (§3.4), in
// selection order, with initial and effective views and its affinity
// list.
type PredictorEntry struct {
	Pred      int             `json:"pred"`
	Round     int             `json:"round"`
	Initial   PredictorScores `json:"initial"`
	Effective PredictorScores `json:"effective"`
	Affinity  []AffinityItem  `json:"affinity,omitempty"`
}

func toThermo(th thermo.Thermometer) Thermo {
	return Thermo{Len01: th.Len01, Black: th.Black, Dark: th.Dark,
		Light: th.Light, White: th.White, Obs: th.Obs}
}

func toPredictorScores(st core.Stats, sc core.Scores, maxObs int) PredictorScores {
	return PredictorScores{
		Importance:   sc.Importance,
		ImportanceCI: sc.ImportanceCI,
		Increase:     sc.Increase,
		IncreaseCI:   sc.IncreaseCI,
		Failure:      sc.Failure,
		Context:      sc.Context,
		F:            st.F,
		S:            st.S,
		Fobs:         st.Fobs,
		Sobs:         st.Sobs,
		Thermo:       toThermo(thermo.Compute(st, sc, maxObs)),
	}
}

// BuildPredictors runs the full cause-isolation pipeline over a report
// set: Increase-CI pruning, iterative elimination (discard proposal 1,
// capped at maxPredictors; 0 = no cap), then per-predictor affinity
// lists over the pruned candidate set (truncated to affinityK entries;
// 0 = none) and initial/effective bug thermometers.
//
// It is deliberately the ONLY path that renders ranked predictors in
// this package: the live /v1/predictors handler feeds it the decoded
// run log, the equivalence tests feed it the original batch corpus, and
// because both go through this one function — and every core step is
// order-independent with deterministic tie-breaking (see
// core.Eliminate) — the live output is element-for-element identical to
// batch cause isolation over the same runs. The ranking and every
// affinity list come from one core.Analyze, so a query costs one
// Aggregate and one projection pass over the runs.
func BuildPredictors(in core.Input, maxPredictors, affinityK int) []PredictorEntry {
	a := core.Analyze(in, core.ElimOptions{MaxPredictors: maxPredictors})
	maxObs := a.Full.NumF + a.Full.NumS

	out := make([]PredictorEntry, 0, len(a.Ranked))
	for _, rk := range a.Ranked {
		e := PredictorEntry{
			Pred:      rk.Pred,
			Round:     rk.Round,
			Initial:   toPredictorScores(rk.Initial, rk.InitialScores, maxObs),
			Effective: toPredictorScores(rk.Effective, rk.EffectiveScores, maxObs),
		}
		if affinityK > 0 {
			aff := a.Affinity(rk.Pred, a.Candidates)
			if len(aff) > affinityK {
				aff = aff[:affinityK]
			}
			for _, a := range aff {
				e.Affinity = append(e.Affinity, AffinityItem{
					Pred: a.Pred, Before: a.Before, After: a.After, Drop: a.Drop})
			}
		}
		out = append(out, e)
	}
	return out
}
