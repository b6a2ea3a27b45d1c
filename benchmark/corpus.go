package main

import (
	"fmt"
	"hash/maphash"
	"time"

	"cbi/internal/harness"
	"cbi/internal/report"
	"cbi/internal/subjects"
)

// corpus is the seeded report corpus every server workload draws from:
// real 1/100-sampled MOSS reports (the templates) and, beyond them,
// thinned variants. Replaying templates byte for byte would flatter
// run-log cost and memory, because the collector interns identical run
// vectors and real sampled traffic has almost no duplicates.
type corpus struct {
	seed               int64
	numSites, numPreds int
	siteOf             []int32
	fingerprint        uint64
	templates          []*report.Report
	// thinnable indexes the templates later passes draw from.
	thinnable []int

	buildTime time.Duration
	// dupShare is the share of templates whose run vector equals an
	// earlier template's — the ceiling the generated stream and the
	// collectors' interned share are checked against.
	dupShare float64
}

// buildCorpus runs the harness on MOSS (the paper's primary subject)
// with the bytecode VM and uniform 1/100 sampling. A fresh Subject is
// used so parse and resolve are paid here, not cached from an earlier
// set-up.
func buildCorpus(seed int64, runs int) (*corpus, error) {
	start := time.Now()
	res := harness.Run(harness.Config{
		Subject:  subjects.Moss(),
		Runs:     runs,
		Mode:     harness.SampleUniform,
		Engine:   harness.EngineVM,
		SeedBase: seed,
	})
	c := &corpus{
		seed:        seed,
		numSites:    res.Plan.NumSites(),
		numPreds:    res.Plan.NumPreds(),
		siteOf:      res.CoreInput().SiteOf,
		fingerprint: res.Plan.Fingerprint(),
		templates:   res.Set.Reports,
	}
	c.buildTime = time.Since(start)
	for i, r := range c.templates {
		if err := c.validate(r); err != nil {
			return nil, fmt.Errorf("template %d: %w", i, err)
		}
		if len(r.ObservedSites) >= minThinSites {
			c.thinnable = append(c.thinnable, i)
		}
	}
	if len(c.thinnable) == 0 {
		return nil, fmt.Errorf("no template observes %d sites", minThinSites)
	}
	c.dupShare = duplicateShare(c.templates)

	// The generated stream must be no more repetitive than the templates.
	th := c.newThinner()
	gen := make([]*report.Report, 0, 2*len(c.templates))
	for g := len(c.templates); g < 3*len(c.templates); g++ {
		r := &report.Report{}
		th.thin(g, r)
		if err := c.validate(r); err != nil {
			return nil, fmt.Errorf("generated report %d: %w", g, err)
		}
		gen = append(gen, r)
	}
	if d := duplicateShare(gen); d > c.dupShare {
		return nil, fmt.Errorf("generated reports repeat more (%.4f) than the templates (%.4f)", d, c.dupShare)
	}
	return c, nil
}

// validate checks that ids ascend inside their ranges and that every
// true predicate belongs to an observed site.
func (c *corpus) validate(r *report.Report) error {
	prev := int32(-1)
	for _, s := range r.ObservedSites {
		if s <= prev || int(s) >= c.numSites {
			return fmt.Errorf("site id %d out of order or range", s)
		}
		prev = s
	}
	prev = -1
	for _, p := range r.TruePreds {
		if p <= prev || int(p) >= c.numPreds {
			return fmt.Errorf("predicate id %d out of order or range", p)
		}
		prev = p
		if !r.ObservedSite(c.siteOf[p]) {
			return fmt.Errorf("predicate %d true but its site %d unobserved", p, c.siteOf[p])
		}
	}
	return nil
}

// duplicateShare is the share of reports equal to an earlier one.
func duplicateShare(reports []*report.Report) float64 {
	if len(reports) == 0 {
		return 0
	}
	seen := make(map[uint64]bool, len(reports))
	seedH := maphash.MakeSeed()
	var buf []byte
	dups := 0
	for _, r := range reports {
		buf = report.AppendRecord(buf[:0], r)
		h := maphash.Bytes(seedH, buf)
		if seen[h] {
			dups++
		}
		seen[h] = true
	}
	return float64(dups) / float64(len(reports))
}

// meanListLens is the mean number of observed sites and true predicates
// per template.
func (c *corpus) meanListLens() (sites, preds float64) {
	for _, r := range c.templates {
		sites += float64(len(r.ObservedSites))
		preds += float64(len(r.TruePreds))
	}
	n := float64(len(c.templates))
	return sites / n, preds / n
}

// thinner generates the corpus stream. It holds scratch state, so each
// sender goroutine owns one.
type thinner struct {
	c *corpus
	// dropped[s] == stamp marks site s dropped from the report in hand.
	dropped []uint32
	stamp   uint32
}

func (c *corpus) newThinner() *thinner {
	return &thinner{c: c, dropped: make([]uint32, c.numSites)}
}

// minThinSites is the fewest observed sites a template needs to be
// thinned. About one MOSS run in twenty dies early and observes a few
// dozen sites or fewer; thinning those yields the same few subsets over
// and over. At 200 sites two thinnings of one template coincide with
// probability (1 - 2*(1/16)*(15/16))^200 < 2e-11.
const minThinSites = 200

// thin writes report number g of the stream into dst, reusing dst's
// slices. Reports 0..len(templates)-1 are the templates themselves
// (pass 0). Every later pass goes over the thinnable templates and
// drops each observed site with probability 1/16, together with its
// true predicates, by a PRNG keyed by (seed, pass, run) — so ids stay
// ascending, the failure label is kept, and equal (seed, g) give equal
// reports.
func (t *thinner) thin(g int, dst *report.Report) {
	pass, run := 0, g
	if n := len(t.c.templates); g >= n {
		pass, run = 1+(g-n)/len(t.c.thinnable), t.c.thinnable[(g-n)%len(t.c.thinnable)]
	}
	tpl := t.c.templates[run]
	dst.Failed = tpl.Failed
	if pass == 0 {
		dst.ObservedSites = append(dst.ObservedSites[:0], tpl.ObservedSites...)
		dst.TruePreds = append(dst.TruePreds[:0], tpl.TruePreds...)
		return
	}
	t.stamp++
	rng := splitmix(uint64(t.c.seed)*0x9e3779b97f4a7c15 ^ uint64(pass)<<32 ^ uint64(run))
	dst.ObservedSites = dst.ObservedSites[:0]
	var bits uint64
	for i, s := range tpl.ObservedSites {
		if i%16 == 0 {
			bits = rng.next()
		}
		if bits&15 == 0 {
			t.dropped[s] = t.stamp
		} else {
			dst.ObservedSites = append(dst.ObservedSites, s)
		}
		bits >>= 4
	}
	dst.TruePreds = dst.TruePreds[:0]
	for _, p := range tpl.TruePreds {
		if t.dropped[t.c.siteOf[p]] != t.stamp {
			dst.TruePreds = append(dst.TruePreds, p)
		}
	}
}

// reports materializes stream reports [lo, hi) — the reference side of
// an output check regenerates what the senders sent instead of keeping
// it alive through the run.
func (c *corpus) reports(lo, hi int) []*report.Report {
	th := c.newThinner()
	out := make([]*report.Report, hi-lo)
	for i := range out {
		out[i] = &report.Report{}
		th.thin(lo+i, out[i])
	}
	return out
}

// splitmix is SplitMix64 (Steele, Lea, Flood 2014): a full-period
// 64-bit generator cheap enough to seed once per report.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
