package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// EnginePredictor is one row of an Engine's ranked output: a predicate,
// the engine's own suspiciousness score for it, and its statistics over
// the full report set (for context columns and thermometers).
type EnginePredictor struct {
	Pred  int
	Score float64
	Stats Stats
}

// Engine is a pluggable scoring strategy over a run log. The paper's
// iterative elimination is one member of a family of statistical
// fault-localisation measures (Doric formalises the family; logistic
// regression and stack clustering are the paper's own baselines); an
// Engine is any of them exposed under one interface so the same
// ingestion fleet can answer /v1/predictors with whichever estimator
// fits the workload.
//
// Score must be deterministic for a given report multiset and
// independent of report order: ties break toward the smaller predicate
// id (after any engine-specific secondary key), which is what lets a
// merged gateway answer be compared element-for-element against a
// single collector's.
type Engine interface {
	// Name is the registry key, used in ?engine= and -engine.
	Name() string
	// Doc is a one-line description for listings and error messages.
	Doc() string
	// Score ranks predicates over the run log; k caps the output
	// (0 = no cap).
	Score(in Input, k int) []EnginePredictor
}

// DefaultEngineName is the engine /v1/predictors serves when the
// request names none: the paper's iterative elimination.
const DefaultEngineName = "eliminate"

var (
	engineMu sync.RWMutex
	engines  = map[string]Engine{}
)

// RegisterEngine adds an engine to the registry. It panics on an empty
// name or a duplicate registration — engines register from package
// init, so either is a programming error worth failing loudly on.
func RegisterEngine(e Engine) {
	name := e.Name()
	if name == "" {
		panic("core: RegisterEngine with empty name")
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("core: engine %q registered twice", name))
	}
	engines[name] = e
}

// EngineByName looks up a registered engine.
func EngineByName(name string) (Engine, bool) {
	engineMu.RLock()
	defer engineMu.RUnlock()
	e, ok := engines[name]
	return e, ok
}

// EngineNames lists the registered engines, sorted.
func EngineNames() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	out := make([]string, 0, len(engines))
	for n := range engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---- eliminate: the paper's pipeline as an engine ----

type eliminateEngine struct{}

func (eliminateEngine) Name() string { return DefaultEngineName }
func (eliminateEngine) Doc() string {
	return "iterative redundancy elimination over Importance (PLDI'05 §3.4, the default)"
}

// Score runs exactly the BuildPredictors pipeline — Increase-CI
// pruning then iterative elimination — so the engine's ranking is the
// same predicate sequence /v1/predictors has always served. The score
// is the effective (selection-time) Importance.
func (eliminateEngine) Score(in Input, k int) []EnginePredictor {
	a := Analyze(in, ElimOptions{MaxPredictors: k})
	out := make([]EnginePredictor, len(a.Ranked))
	for i, r := range a.Ranked {
		out[i] = EnginePredictor{
			Pred:  r.Pred,
			Score: r.EffectiveScores.Importance,
			Stats: a.Full.Stats[r.Pred],
		}
	}
	return out
}

// ---- importance: Table 1(c) without elimination ----

type importanceEngine struct{}

func (importanceEngine) Name() string { return "importance" }
func (importanceEngine) Doc() string {
	return "Increase-filtered predicates ranked by Importance, no elimination (Table 1c)"
}

func (importanceEngine) Score(in Input, k int) []EnginePredictor {
	agg := Aggregate(in)
	var out []EnginePredictor
	for _, p := range FilterByIncrease(agg, Z95) {
		if imp := Importance(agg.Stats[p], agg.NumF); imp > 0 {
			out = append(out, EnginePredictor{Pred: p, Score: imp, Stats: agg.Stats[p]})
		}
	}
	return capRanked(out, k)
}

// ---- Doric-family set-similarity measures ----

// MeasureFunc computes a suspiciousness score from one predicate's
// statistics plus the set-level run counts. Non-positive and NaN
// scores drop the predicate from the ranking.
type MeasureFunc func(st Stats, numF, numS int) float64

// measureEngine ranks every predicate by one Doric-family formula.
type measureEngine struct {
	name, doc string
	fn        MeasureFunc
}

func (m *measureEngine) Name() string { return m.name }
func (m *measureEngine) Doc() string  { return m.doc }

func (m *measureEngine) Score(in Input, k int) []EnginePredictor {
	agg := Aggregate(in)
	var out []EnginePredictor
	for p := 0; p < in.Set.NumPreds; p++ {
		sc := m.fn(agg.Stats[p], agg.NumF, agg.NumS)
		if math.IsNaN(sc) || sc <= 0 {
			continue
		}
		out = append(out, EnginePredictor{Pred: p, Score: sc, Stats: agg.Stats[p]})
	}
	return capRanked(out, k)
}

// capRanked orders predictors by descending score, breaking ties by
// descending F (more failing evidence first) then ascending predicate
// id, and truncates to k (0 = no cap).
func capRanked(out []EnginePredictor, k int) []EnginePredictor {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Stats.F != out[j].Stats.F {
			return out[i].Stats.F > out[j].Stats.F
		}
		return out[i].Pred < out[j].Pred
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Ochiai computes F/√(NumF·(F+S)) — the cosine-style measure that is
// the strongest single formula in most fault-localisation comparisons.
func Ochiai(st Stats, numF, _ int) float64 {
	if st.F == 0 || numF == 0 {
		return 0
	}
	return float64(st.F) / math.Sqrt(float64(numF)*float64(st.F+st.S))
}

// Tarantula computes the classic visualisation measure:
// (F/NumF) / (F/NumF + S/NumS). With no successful runs the successful
// rate is taken as 0, giving 1 for any predicate true in a failure.
func Tarantula(st Stats, numF, numS int) float64 {
	if st.F == 0 || numF == 0 {
		return 0
	}
	fr := float64(st.F) / float64(numF)
	sr := 0.0
	if numS > 0 {
		sr = float64(st.S) / float64(numS)
	}
	return fr / (fr + sr)
}

// Jaccard computes F/(NumF+S): set similarity between "runs where P
// was true" and "failing runs".
func Jaccard(st Stats, numF, _ int) float64 {
	if st.F == 0 || numF+st.S == 0 {
		return 0
	}
	return float64(st.F) / float64(numF+st.S)
}

func init() {
	RegisterEngine(eliminateEngine{})
	RegisterEngine(importanceEngine{})
	RegisterEngine(&measureEngine{
		name: "ochiai",
		doc:  "Ochiai set similarity F/sqrt(NumF*(F+S)) over every predicate",
		fn:   Ochiai,
	})
	RegisterEngine(&measureEngine{
		name: "tarantula",
		doc:  "Tarantula failure-rate ratio (F/NumF)/(F/NumF + S/NumS)",
		fn:   Tarantula,
	})
	RegisterEngine(&measureEngine{
		name: "jaccard",
		doc:  "Jaccard set similarity F/(NumF+S)",
		fn:   Jaccard,
	})
}
