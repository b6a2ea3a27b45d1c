package main

import (
	"flag"
	"fmt"
	"html"
	"os"
	"strings"

	"cbi/internal/core"
	"cbi/internal/harness"
	"cbi/internal/subjects"
	"cbi/internal/thermo"
)

// cmdHTML writes an interactive-style HTML report for a built-in
// subject: the ranked predictor list with bug thermometers and, per
// predictor, its affinity list — the same artifacts the paper's web UI
// exposes.
func cmdHTML(args []string) error {
	fs := flag.NewFlagSet("html", flag.ExitOnError)
	runs := fs.Int("runs", 4000, "number of runs")
	out := fs.String("o", "cbi-report.html", "output file")
	topAffinity := fs.Int("affinity", 5, "affinity list length per predictor")
	target, rest, err := splitTarget(args, "cbi html <subject> -o report.html")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	subj := subjects.ByName(target)
	if subj == nil {
		return fmt.Errorf("unknown subject %q", target)
	}
	res := harness.Run(harness.Config{Subject: subj, Runs: *runs, Mode: harness.SampleUniform})
	in := res.CoreInput()
	a := core.Analyze(in, core.ElimOptions{})
	ranked := a.Ranked

	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>CBI report</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { padding: 4px 10px; border-bottom: 1px solid #ddd; text-align: left; }
.affinity { color: #555; font-size: 90%; }
code { background: #f4f4f4; padding: 1px 4px; }
</style></head><body>
`)
	fmt.Fprintf(&sb, "<h1>Statistical debugging report: %s</h1>\n", html.EscapeString(subj.Name))
	fmt.Fprintf(&sb, "<p>%d runs, %d failing. %d sites, %d predicates; %d pass the Increase test; %d selected by elimination.</p>\n",
		len(res.Set.Reports), res.NumFailing(), res.Plan.NumSites(), res.Plan.NumPreds(),
		len(a.Candidates), len(ranked))

	sb.WriteString("<table>\n<tr><th>#</th><th>Initial</th><th>Effective</th><th>Predicate</th><th>Importance</th><th>Increase</th><th>F</th><th>S</th></tr>\n")
	maxObs := a.Full.NumF + a.Full.NumS
	var cands []int
	for _, rk := range ranked {
		cands = append(cands, rk.Pred)
	}
	for i, rk := range ranked {
		ti := thermo.Compute(rk.Initial, rk.InitialScores, maxObs)
		te := thermo.Compute(rk.Effective, rk.EffectiveScores, maxObs)
		fmt.Fprintf(&sb, "<tr><td>%d</td><td>%s</td><td>%s</td><td><code>%s</code></td><td>%.3f</td><td>%.3f ± %.3f</td><td>%d</td><td>%d</td></tr>\n",
			i+1, ti.HTML(140), te.HTML(140), html.EscapeString(res.PredText(rk.Pred)),
			rk.EffectiveScores.Importance, rk.InitialScores.Increase, rk.InitialScores.IncreaseCI,
			rk.Initial.F, rk.Initial.S)
		aff := a.Affinity(rk.Pred, cands)
		if len(aff) > *topAffinity {
			aff = aff[:*topAffinity]
		}
		var items []string
		for _, e := range aff {
			items = append(items, fmt.Sprintf("<code>%s</code> (drop %.3f)",
				html.EscapeString(res.PredText(e.Pred)), e.Drop))
		}
		if len(items) > 0 {
			fmt.Fprintf(&sb, "<tr class=\"affinity\"><td></td><td colspan=\"7\">affinity: %s</td></tr>\n",
				strings.Join(items, ", "))
		}
	}
	sb.WriteString("</table>\n</body></html>\n")

	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d predictors)\n", *out, len(ranked))
	return nil
}
