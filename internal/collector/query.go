package collector

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cbi/internal/core"
	"cbi/internal/obs"
	"cbi/internal/report"
)

// QuerySource is what a tier puts behind GET /v1/scores, /v1/predictors
// and /v1/compare. Everything else about them — parameters and defaults,
// engine lookup, the predictor cache, the cbi_predictors_engine_* series,
// rendering, status codes — is the one implementation in this file, so a
// collector and a gateway over the same runs answer the same request
// with the same bytes. An error from either method is served as 502.
type QuerySource interface {
	// Counters returns the retained window's counters (/v1/scores).
	Counters(ctx context.Context) (*core.Agg, error)
	// Window names the retained runs by a version token — equal tokens
	// mean equal windows, "" means do not cache — and returns the function
	// that builds their core.Input, called on a cache miss only.
	Window(ctx context.Context) (token string, build func() (core.Input, error), err error)
}

// errNoRunLog is the collector's own Window failure, served as 501.
var errNoRunLog = errors.New("run log disabled (collector started with RunLogSize < 0)")

// query serves the read endpoints over one QuerySource.
type query struct {
	src   QuerySource
	cache *predictorCache

	// computed and hits total the per-engine series below; the
	// collector's /v1/stats reads them.
	computed, hits atomic.Int64

	engineRequests     *obs.CounterVec
	engineCacheHits    *obs.CounterVec
	engineCacheMisses  *obs.CounterVec
	engineScoreSeconds *obs.HistogramVec
}

// MountQuery registers the read endpoints over src on rt, and their
// per-engine series on reg.
func MountQuery(rt *obs.Routes, reg *obs.Registry, src QuerySource) { mountQuery(rt, reg, src) }

func mountQuery(rt *obs.Routes, reg *obs.Registry, src QuerySource) *query {
	q := &query{
		src:   src,
		cache: newPredictorCache(predCacheMax),
		engineRequests: reg.CounterVec("cbi_predictors_engine_requests_total",
			"GET /v1/predictors and /v1/compare rankings served, by scoring engine.", "engine"),
		engineCacheHits: reg.CounterVec("cbi_predictors_engine_cache_hits_total",
			"/v1/predictors polls answered from the per-engine version-keyed cache.", "engine"),
		engineCacheMisses: reg.CounterVec("cbi_predictors_engine_cache_misses_total",
			"/v1/predictors polls that rescored the run window, by engine.", "engine"),
		engineScoreSeconds: reg.HistogramVec("cbi_predictors_engine_score_seconds",
			"Run-window scoring latency on /v1/predictors cache misses, by engine.", nil, "engine"),
	}
	rt.HandleFunc("/v1/scores", q.handleScores)
	rt.HandleFunc("/v1/predictors", q.handlePredictors)
	rt.HandleFunc("/v1/compare", q.handleCompare)
	return q
}

// getOnly writes the 405 for any method but GET.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	w.Header().Set("Allow", http.MethodGet)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// intParam reads an integer query parameter: absent means def, anything
// strconv.Atoi refuses is a 400, and so is a value below min.
func intParam(w http.ResponseWriter, r *http.Request, name string, def, min int) (int, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		http.Error(w, "bad "+name, http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// sourceError writes a QuerySource failure.
func sourceError(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	if errors.Is(err, errNoRunLog) {
		status = http.StatusNotImplemented
	}
	http.Error(w, err.Error(), status)
}

// handleScores serves GET /v1/scores?k=20: the window's predicates
// ranked by Importance (k <= 0 = no cap).
func (q *query) handleScores(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	k, ok := intParam(w, r, "k", 20, math.MinInt)
	if !ok {
		return
	}
	agg, err := q.src.Counters(r.Context())
	if err != nil {
		sourceError(w, err)
		return
	}
	writeJSON(w, ScoreEntries(core.TopKImportance(agg, k)))
}

// handlePredictors serves ranked bug predictors over the retained run
// window, scored by a pluggable engine. Query parameters: engine
// selects the scoring engine (default "eliminate", the paper's
// pipeline — core.Eliminate with affinity lists and thermometers,
// exactly what the batch pipeline produces over the same runs; see
// BuildPredictors and core.EngineNames for the alternatives), k caps
// the ranked list (default 20, 0 = no cap) and affinity caps each
// predictor's affinity list (default 5, 0 = none; default engine
// only). An unknown engine is a 400 naming the registered engines.
// Responses are cached per (engine, k, affinity) under the source's
// window token, so repeated polls of an unchanged window never rescan
// it — each engine holds its own slot.
func (q *query) handlePredictors(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	k, ok := intParam(w, r, "k", 20, 0)
	if !ok {
		return
	}
	affinityK, ok := intParam(w, r, "affinity", 5, 0)
	if !ok {
		return
	}
	engineName := r.URL.Query().Get("engine")
	if engineName == "" {
		engineName = core.DefaultEngineName
	}
	eng, ok := core.EngineByName(engineName)
	if !ok {
		http.Error(w, unknownEngineError(engineName), http.StatusBadRequest)
		return
	}
	token, build, err := q.src.Window(r.Context())
	if err != nil {
		sourceError(w, err)
		return
	}
	q.engineRequests.With(engineName).Inc()
	key := fmt.Sprintf("engine=%s&k=%d&affinity=%d", engineName, k, affinityK)
	if body := q.cache.get(key, token); body != nil {
		q.hits.Add(1)
		q.engineCacheHits.With(engineName).Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}

	in, err := build()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	q.engineCacheMisses.With(engineName).Inc()
	start := time.Now()
	var payload any
	if engineName == core.DefaultEngineName {
		payload = BuildPredictors(in, k, affinityK)
	} else {
		payload = engineEntries(eng.Score(in, k))
	}
	q.engineScoreSeconds.With(engineName).ObserveDuration(time.Since(start))
	q.computed.Add(1)

	body, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	q.cache.put(key, token, body)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleCompare serves GET /v1/compare?engines=a,b[&k=20]: every named
// engine's top-k ranking over the same retained run window, plus
// pairwise rank agreement (Spearman over the union of the two lists,
// top-K overlap, common-member count). Side-by-side answers from one
// view of the window — the engines are never scored against different
// runs.
func (q *query) handleCompare(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	k, ok := intParam(w, r, "k", 20, 0)
	if !ok {
		return
	}
	names, errMsg := parseEngines(r.URL.Query().Get("engines"))
	if errMsg != "" {
		http.Error(w, errMsg, http.StatusBadRequest)
		return
	}
	_, build, err := q.src.Window(r.Context())
	if err != nil {
		sourceError(w, err)
		return
	}
	in, err := build()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, n := range names {
		q.engineRequests.With(n).Inc()
	}
	writeJSON(w, compareEngines(in, names, k))
}

// ScoreEntries converts a TopKImportance ranking into /v1/scores
// response rows.
func ScoreEntries(ranked []core.PredScore) []ScoreEntry {
	out := make([]ScoreEntry, len(ranked))
	for i, ps := range ranked {
		out[i] = ScoreEntry{
			Pred:         ps.Pred,
			Importance:   ps.Scores.Importance,
			ImportanceCI: ps.Scores.ImportanceCI,
			Increase:     ps.Scores.Increase,
			IncreaseCI:   ps.Scores.IncreaseCI,
			Failure:      ps.Scores.Failure,
			Context:      ps.Scores.Context,
			F:            ps.Stats.F,
			S:            ps.Stats.S,
			Fobs:         ps.Stats.Fobs,
			Sobs:         ps.Stats.Sobs,
		}
	}
	return out
}

// TopSite returns the site of the counters' highest-Importance
// predicate — what a sampling planner boosts around — or -1 when
// nothing ranks.
func TopSite(agg *core.Agg, siteOf []int32) int {
	if ranked := core.TopKImportance(agg, 1); len(ranked) > 0 {
		return int(siteOf[ranked[0].Pred])
	}
	return -1
}

// serverSource is the collector's own QuerySource: the live aggregate,
// and the run log behind its version.
type serverSource struct{ *Server }

func (s serverSource) Counters(context.Context) (*core.Agg, error) {
	return s.agg.ToAgg(s.cfg.SiteOf), nil
}

func (s serverSource) Window(context.Context) (string, func() (core.Input, error), error) {
	if s.agg.log == nil {
		return "", nil, errNoRunLog
	}
	// A body built from a view newer than this token is stored under a
	// version no later request can ask for; the next poll recomputes.
	return strconv.FormatUint(s.agg.LogVersion(), 10), func() (core.Input, error) {
		reports, err := report.DecodeRecords(s.agg.LogView(), s.cfg.NumSites, s.cfg.NumPreds)
		set := &report.Set{NumSites: s.cfg.NumSites, NumPreds: s.cfg.NumPreds, Reports: reports}
		return core.Input{Set: set, SiteOf: s.cfg.SiteOf}, err
	}, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
