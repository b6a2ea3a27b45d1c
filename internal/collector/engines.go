package collector

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"cbi/internal/core"

	// The logreg and stacktrace engines register themselves with the
	// core engine registry from package init; the serving tier links
	// them here so every /v1/predictors deployment offers the full
	// engine set.
	_ "cbi/internal/logreg"
	_ "cbi/internal/stacktrace"
)

// predCacheMax bounds the predictor cache: one slot per (engine, k,
// affinity) combination is tiny in practice, so the cap only matters
// against a caller sweeping k.
const predCacheMax = 256

// predictorCache caches rendered /v1/predictors bodies keyed by query
// parameters (engine, k, affinity), each entry remembering the window
// token (QuerySource.Window) it was computed at; any change to the
// window changes the token and thereby invalidates every entry. The
// empty token is never stored or served. One slot per combination lets dashboards
// poll several engines between ingests without any of them evicting the
// others. When a sweep of distinct queries fills the hard cap, put
// evicts the least-recently-used entry only — the hot default-engine
// slot a dashboard touches every few seconds survives.
type predictorCache struct {
	mu      sync.Mutex
	max     int
	tick    uint64 // recency clock, bumped on every hit and insert
	entries map[string]*predCacheEntry
}

// predCacheEntry is one cached /v1/predictors body with the window
// token it was computed at.
type predCacheEntry struct {
	version string
	body    []byte
	used    uint64 // tick of the last get or put
}

func newPredictorCache(max int) *predictorCache {
	return &predictorCache{max: max, entries: make(map[string]*predCacheEntry)}
}

// get returns the cached body for a query key when it is still current
// at the given window token, bumping the entry's recency.
func (c *predictorCache) get(key, version string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.version != version || version == "" {
		return nil
	}
	c.tick++
	e.used = c.tick
	return e.body
}

// put stores a computed body, first pruning every entry the ingest path
// has since invalidated (so the map stays bounded by the combinations
// polled at the current version) and then, if the cap is still hit,
// evicting the single least-recently-used entry.
func (c *predictorCache) put(key, version string, body []byte) {
	if version == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.version != version {
			delete(c.entries, k)
		}
	}
	if _, exists := c.entries[key]; !exists && len(c.entries) >= c.max {
		var lruKey string
		first := true
		var lruUsed uint64
		for k, e := range c.entries {
			if first || e.used < lruUsed {
				lruKey, lruUsed, first = k, e.used, false
			}
		}
		delete(c.entries, lruKey)
	}
	c.tick++
	c.entries[key] = &predCacheEntry{version: version, body: body, used: c.tick}
}

// size reports the number of cached entries (for tests).
func (c *predictorCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// has reports whether a key is cached at the given version, without
// touching recency (for tests).
func (c *predictorCache) has(key, version string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	return e != nil && e.version == version
}

// EngineEntry is one row of a non-default GET /v1/predictors?engine=
// response: the engine's own score plus the predicate's full-window
// statistics. (The default engine keeps its richer PredictorEntry
// shape — thermometers, affinity, effective views — unchanged.)
type EngineEntry struct {
	Pred  int     `json:"pred"`
	Rank  int     `json:"rank"`
	Score float64 `json:"score"`
	F     int     `json:"f"`
	S     int     `json:"s"`
	Fobs  int     `json:"fobs"`
	Sobs  int     `json:"sobs"`
}

// engineEntries renders an engine ranking into response rows.
func engineEntries(ranked []core.EnginePredictor) []EngineEntry {
	out := make([]EngineEntry, len(ranked))
	for i, p := range ranked {
		out[i] = EngineEntry{
			Pred:  p.Pred,
			Rank:  i + 1,
			Score: p.Score,
			F:     p.Stats.F,
			S:     p.Stats.S,
			Fobs:  p.Stats.Fobs,
			Sobs:  p.Stats.Sobs,
		}
	}
	return out
}

// ComparePair is one engine pair's agreement row in GET /v1/compare.
type ComparePair struct {
	A string `json:"a"`
	B string `json:"b"`
	// Spearman is the rank correlation over the union of the two top-k
	// lists, an id absent from one list taking rank k+1.
	Spearman float64 `json:"spearman"`
	// TopKOverlap is |A∩B| / min(|A|,|B|) over the two top-k sets.
	TopKOverlap float64 `json:"top_k_overlap"`
	// Common counts the predicates both rankings contain.
	Common int `json:"common"`
}

// CompareResponse is the GET /v1/compare body: each requested engine's
// top-k ranking over the same run window, plus pairwise agreement.
type CompareResponse struct {
	K        int              `json:"k"`
	Engines  []string         `json:"engines"`
	Rankings map[string][]int `json:"rankings"`
	Pairs    []ComparePair    `json:"pairs"`
}

// unknownEngineError formats the 400 body for an unresolvable ?engine=
// value: it must name the registered engines so a caller can self-fix.
func unknownEngineError(name string) string {
	return fmt.Sprintf("unknown engine %q; registered engines: %s",
		name, strings.Join(core.EngineNames(), ", "))
}

// parseEngines splits and validates a ?engines=a,b,... list. It
// returns an error string suitable for a 400 body when the list is
// empty, shorter than two entries, or names an unregistered engine.
func parseEngines(param string) ([]string, string) {
	if strings.TrimSpace(param) == "" {
		return nil, "missing engines parameter (engines=a,b); registered engines: " +
			strings.Join(core.EngineNames(), ", ")
	}
	var names []string
	seen := map[string]bool{}
	for _, n := range strings.Split(param, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := core.EngineByName(n); !ok {
			return nil, unknownEngineError(n)
		}
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	if len(names) < 2 {
		return nil, "need at least two distinct engines to compare (engines=a,b)"
	}
	return names, ""
}

// compareEngines scores the run window with every named engine and
// computes pairwise rank agreement. Names must be pre-validated via
// parseEngines.
func compareEngines(in core.Input, names []string, k int) *CompareResponse {
	resp := &CompareResponse{K: k, Engines: names, Rankings: map[string][]int{}}
	for _, n := range names {
		e, ok := core.EngineByName(n)
		if !ok {
			continue
		}
		ranked := e.Score(in, k)
		ids := make([]int, len(ranked))
		for i, p := range ranked {
			ids[i] = p.Pred
		}
		resp.Rankings[n] = ids
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := resp.Rankings[names[i]], resp.Rankings[names[j]]
			resp.Pairs = append(resp.Pairs, ComparePair{
				A:           names[i],
				B:           names[j],
				Spearman:    rankCorrelation(a, b, k),
				TopKOverlap: topKOverlap(a, b),
				Common:      commonCount(a, b),
			})
		}
	}
	return resp
}

// rankCorrelation computes Spearman's rho between two top-k rankings
// over the union of their members; an id absent from one ranking takes
// rank k+1 ("beyond the horizon"), so two lists that agree on members
// but disagree on order score below two that differ in membership
// only at the tail. Degenerate unions (fewer than two members, or a
// constant rank vector) return 1 for identical rankings and 0
// otherwise.
func rankCorrelation(a, b []int, k int) float64 {
	posA := rankOf(a)
	posB := rankOf(b)
	union := make([]int, 0, len(posA)+len(posB))
	for id := range posA {
		union = append(union, id)
	}
	for id := range posB {
		if _, dup := posA[id]; !dup {
			union = append(union, id)
		}
	}
	if len(union) == 0 {
		return 1 // two empty rankings agree perfectly
	}
	// With k == 0 (no cap) the horizon is just past the longer list.
	miss := float64(max(k, len(a), len(b)) + 1)
	var ra, rb []float64
	for _, id := range union {
		ra = append(ra, rankOr(posA, id, miss))
		rb = append(rb, rankOr(posB, id, miss))
	}
	return pearson(ra, rb, slices.Equal(a, b))
}

func rankOf(ids []int) map[int]int {
	m := make(map[int]int, len(ids))
	for i, id := range ids {
		if _, dup := m[id]; !dup {
			m[id] = i + 1
		}
	}
	return m
}

func rankOr(m map[int]int, id int, miss float64) float64 {
	if r, ok := m[id]; ok {
		return float64(r)
	}
	return miss
}

// pearson computes the correlation of two equal-length vectors;
// degenerate variance collapses to 1 when the underlying rankings were
// identical and 0 otherwise.
func pearson(x, y []float64, identical bool) float64 {
	n := float64(len(x))
	if n < 2 {
		if identical {
			return 1
		}
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		cov += (x[i] - mx) * (y[i] - my)
		vx += (x[i] - mx) * (x[i] - mx)
		vy += (y[i] - my) * (y[i] - my)
	}
	if vx == 0 || vy == 0 {
		if identical {
			return 1
		}
		return 0
	}
	r := cov / math.Sqrt(vx*vy)
	// Clamp float noise so JSON consumers can rely on [-1, 1].
	return math.Max(-1, math.Min(1, r))
}

func topKOverlap(a, b []int) float64 {
	inter := commonCount(a, b)
	n := min(len(a), len(b))
	if n == 0 {
		if len(a) == 0 && len(b) == 0 {
			return 1
		}
		return 0
	}
	return float64(inter) / float64(n)
}

func commonCount(a, b []int) int {
	in := map[int]bool{}
	for _, id := range a {
		in[id] = true
	}
	n := 0
	seen := map[int]bool{}
	for _, id := range b {
		if in[id] && !seen[id] {
			seen[id] = true
			n++
		}
	}
	return n
}
