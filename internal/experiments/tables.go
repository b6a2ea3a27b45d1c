package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cbi/internal/core"
	"cbi/internal/harness"
	"cbi/internal/thermo"
)

// Table1 reproduces the ranking-strategy comparison on MOSS without
// redundancy elimination: (a) descending F(P), (b) descending
// Increase(P), (c) descending harmonic mean. The paper's point: (a)
// surfaces highly non-deterministic super-bug-ish predicates, (b)
// surfaces sub-bug predictors with tiny F, and (c) balances both.
type Table1 struct {
	ByF, ByIncrease, ByImportance []Table1Row
}

// Table1Row is one predicate row with the paper's columns.
type Table1Row struct {
	Pred        int
	Text        string
	Thermometer string
	Context     float64
	Increase    float64
	IncreaseCI  float64
	S, F        int
	Class       PredictorClass
}

// RunTable1 computes the three rankings (top k rows each).
func RunTable1(r *Runner, k int) *Table1 {
	res := r.Result("moss", harness.SampleUniform)
	in := res.CoreInput()
	agg := core.Aggregate(in)
	cands := core.FilterByIncrease(agg, core.Z95)

	row := func(p int) Table1Row {
		st := agg.Stats[p]
		sc := core.ComputeScores(st, agg.NumF)
		th := thermo.Compute(st, sc, agg.NumF+agg.NumS)
		return Table1Row{
			Pred:        p,
			Text:        res.PredText(p),
			Thermometer: th.Text(20),
			Context:     sc.Context,
			Increase:    sc.Increase,
			IncreaseCI:  sc.IncreaseCI,
			S:           st.S,
			F:           st.F,
			Class:       Classify(res, p),
		}
	}
	take := func(ids []int) []Table1Row {
		if len(ids) > k {
			ids = ids[:k]
		}
		rows := make([]Table1Row, len(ids))
		for i, p := range ids {
			rows[i] = row(p)
		}
		return rows
	}
	return &Table1{
		ByF:          take(core.RankByF(in, cands)),
		ByIncrease:   take(core.RankByIncrease(in, cands)),
		ByImportance: take(core.RankByImportance(in, cands)),
	}
}

// Render prints the three sub-tables like the paper's Table 1.
func (t *Table1) Render() string {
	var sb strings.Builder
	section := func(title string, rows []Table1Row) {
		fmt.Fprintf(&sb, "(%s)\n", title)
		w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Thermometer\tContext\tIncrease\tS\tF\tPredicate\tGround truth")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f ± %.3f\t%d\t%d\t%s\t%s\n",
				r.Thermometer, r.Context, r.Increase, r.IncreaseCI, r.S, r.F, r.Text, r.Class)
		}
		w.Flush()
		sb.WriteByte('\n')
	}
	section("a) sort descending by F(P)", t.ByF)
	section("b) sort descending by Increase(P)", t.ByIncrease)
	section("c) sort descending by harmonic mean (Importance)", t.ByImportance)
	return sb.String()
}

// Table2Row is one subject's summary statistics line (paper Table 2).
type Table2Row struct {
	Subject         string
	Successful      int
	Failing         int
	Sites           int
	PredsInitial    int
	PredsIncrease   int
	PredsEliminated int
}

// RunTable2 computes summary statistics for all five subjects.
func RunTable2(r *Runner) []Table2Row {
	var rows []Table2Row
	for _, name := range []string{"moss", "ccrypt", "bc", "exif", "rhythmbox"} {
		res := r.Result(name, harness.SampleUniform)
		in := res.CoreInput()
		agg := core.Aggregate(in)
		keep := core.FilterByIncrease(agg, core.Z95)
		ranked := core.Eliminate(in, core.ElimOptions{})
		rows = append(rows, Table2Row{
			Subject:         name,
			Successful:      res.Set.NumSuccessful(),
			Failing:         res.Set.NumFailing(),
			Sites:           res.Plan.NumSites(),
			PredsInitial:    res.Plan.NumPreds(),
			PredsIncrease:   len(keep),
			PredsEliminated: len(ranked),
		})
	}
	return rows
}

// RenderTable2 prints the summary table.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Subject\tSuccessful\tFailing\tSites\tInitial preds\tIncrease>0\tElimination")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Subject, r.Successful, r.Failing, r.Sites, r.PredsInitial, r.PredsIncrease, r.PredsEliminated)
	}
	w.Flush()
	return sb.String()
}

// Table3Row is one elimination-selected predictor with per-bug failing
// run counts (paper Table 3).
type Table3Row struct {
	Pred         int
	Text         string
	InitialTherm string
	EffTherm     string
	Initial      core.Scores
	Effective    core.Scores
	// PerBug maps bug id -> failing runs where both the predicate was
	// true and the bug occurred.
	PerBug map[int]int
	Class  PredictorClass
}

// Table3 is the MOSS validation experiment under nonuniform sampling.
type Table3 struct {
	Rows []Table3Row
	// BugIDs are the ground-truth bug ids, ascending.
	BugIDs []int
	// FailingPerBug counts failing runs per bug over the whole corpus.
	FailingPerBug map[int]int
	NumFailing    int
}

// RunTable3 reproduces the validation experiment: nonuniform sampling,
// elimination, ground-truth cross-tabulation.
func RunTable3(r *Runner) *Table3 {
	res := r.Result("moss", harness.SampleNonuniform)
	return CrossTab(res, 0)
}

// CrossTab runs elimination on a result and cross-tabulates the
// selected predictors against ground truth. maxPreds caps the list
// (0 = no cap).
func CrossTab(res *harness.Result, maxPreds int) *Table3 {
	t, _ := crossTab(res, maxPreds)
	return t
}

// crossTab is CrossTab, also returning the analysis it ran so callers
// can read affinity lists off the same projection.
func crossTab(res *harness.Result, maxPreds int) (*Table3, *core.Analysis) {
	a := core.Analyze(res.CoreInput(), core.ElimOptions{MaxPredictors: maxPreds})
	full, ranked := a.Full, a.Ranked

	perBugTotal := res.FailingRunsPerBug()
	t := &Table3{
		BugIDs:        sortedBugIDs(perBugTotal),
		FailingPerBug: perBugTotal,
		NumFailing:    res.NumFailing(),
	}
	maxObs := full.NumF + full.NumS
	for _, rk := range ranked {
		row := Table3Row{
			Pred:      rk.Pred,
			Text:      res.PredText(rk.Pred),
			Initial:   rk.InitialScores,
			Effective: rk.EffectiveScores,
			PerBug:    map[int]int{},
			Class:     Classify(res, rk.Pred),
		}
		row.InitialTherm = thermo.Compute(rk.Initial, rk.InitialScores, maxObs).Text(20)
		row.EffTherm = thermo.Compute(rk.Effective, rk.EffectiveScores, maxObs).Text(20)
		for i := range res.Metas {
			m := &res.Metas[i]
			if !m.Failed() || !res.Set.Reports[i].True(int32(rk.Pred)) {
				continue
			}
			for _, b := range m.Bugs {
				row.PerBug[b]++
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, a
}

// Render prints the cross-tabulated predictor list.
func (t *Table3) Render() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	header := "Initial\tEffective\tPredicate"
	for _, b := range t.BugIDs {
		header += fmt.Sprintf("\t#%d", b)
	}
	fmt.Fprintln(w, header)
	for _, row := range t.Rows {
		line := fmt.Sprintf("%s\t%s\t%s", row.InitialTherm, row.EffTherm, row.Text)
		for _, b := range t.BugIDs {
			line += fmt.Sprintf("\t%d", row.PerBug[b])
		}
		fmt.Fprintln(w, line)
	}
	w.Flush()
	footer := "failing runs per bug:"
	for _, b := range t.BugIDs {
		footer += fmt.Sprintf("  #%d=%d", b, t.FailingPerBug[b])
	}
	sb.WriteString(footer + "\n")
	return sb.String()
}

// SmallTable is the predictor list for one of the single-program case
// studies (paper Tables 4-7).
type SmallTable struct {
	Subject string
	Rows    []Table3Row
	// AffinityTop, for each row index, gives the predicate at the head
	// of its affinity list (sub-bug predictors point at their parent).
	AffinityTop []string
}

// RunSmallTable reproduces one of Tables 4-7 for the named subject.
func RunSmallTable(r *Runner, name string) *SmallTable {
	res := r.Result(name, harness.SampleUniform)
	ct, a := crossTab(res, 0)
	st := &SmallTable{Subject: name, Rows: ct.Rows}

	var cands []int
	for _, row := range ct.Rows {
		cands = append(cands, row.Pred)
	}
	for _, row := range ct.Rows {
		if aff := a.Affinity(row.Pred, cands); len(aff) == 0 {
			st.AffinityTop = append(st.AffinityTop, "")
		} else {
			st.AffinityTop = append(st.AffinityTop, res.PredText(aff[0].Pred))
		}
	}
	return st
}

// Render prints the small predictor table.
func (t *SmallTable) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Predictors for %s\n", strings.ToUpper(t.Subject))
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Initial\tEffective\tPredicate\tGround truth\tTop affinity")
	for i, row := range t.Rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n",
			row.InitialTherm, row.EffTherm, row.Text, row.Class, t.AffinityTop[i])
	}
	w.Flush()
	return sb.String()
}
