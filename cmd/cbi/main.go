// Command cbi is the statistical debugging toolchain for MiniC
// programs: it instruments predicates (branches / returns /
// scalar-pairs), runs programs under sparse random sampling, and
// isolates bug predictors with the PLDI 2005 cause-isolation algorithm.
//
// Subcommands:
//
//	cbi check <file.mc>              parse and type-check a program
//	cbi print <file.mc>              pretty-print the normalized source
//	cbi sites <file.mc>              list instrumentation sites and predicates
//	cbi run <file.mc> [flags]        fuzz a program and isolate bug predictors
//	cbi analyze <file.mc> [flags]    re-analyze a saved report corpus
//	cbi subject <name> [flags]       run a built-in case-study subject
//	cbi html <name> -o report.html   write an interactive HTML report
//	cbi serve [flags]                run a feedback-report collector server
//	cbi submit [flags]               stream reports to a running collector
//	cbi predictors [flags]           fetch a collector's live cause-isolation ranking
//	cbi plan [flags]                 inspect the fleet sampling plan a server serves
//	cbi route [flags]                run a sharding router over several collectors
//	cbi gateway [flags]              run a merging query gateway over several collectors
//	cbi merge [flags] <state>...     merge collector checkpoints (or import legacy snapshots) or push into a live peer
//	cbi resize [flags]               add or remove a collector from a live sharded ring
//
// Run `cbi <subcommand> -h` for per-command flags.
//
// The server subcommands (serve, route, gateway) all export Prometheus
// metrics at GET /metrics and accept -pprof and -slow-request-ms; see
// METRICS.md for the metric reference and OPERATIONS.md for the
// deployment runbook.
package main

import (
	"fmt"
	"os"
	"strings"

	"cbi/internal/instrument"
	"cbi/internal/lang"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "print":
		err = cmdPrint(os.Args[2:])
	case "sites":
		err = cmdSites(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "subject":
		err = cmdSubject(os.Args[2:])
	case "html":
		err = cmdHTML(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "predictors":
		err = cmdPredictors(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "route":
		err = cmdRoute(os.Args[2:])
	case "gateway":
		err = cmdGateway(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "resize":
		err = cmdResize(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cbi: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbi: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: cbi <subcommand> [flags]

subcommands:
  check <file.mc>     parse and type-check a MiniC program
  print <file.mc>     pretty-print the normalized source
  sites <file.mc>     list instrumentation sites and predicates
  run <file.mc>       fuzz a program and isolate bug predictors
  analyze <file.mc>   re-analyze a corpus saved with run -save
  subject <name>      run a built-in subject (moss, ccrypt, bc, exif, rhythmbox)
  html <name>         write an interactive HTML report for a subject
  serve               run a feedback-report collector (ingestion + live ranking)
  submit              stream reports to a running collector
  predictors          fetch a collector's live cause-isolation ranking
  plan                inspect the fleet sampling plan a server serves
  route               run a sharding router in front of several collectors
  gateway             run a merging query gateway over several collectors
  merge               merge collector checkpoints offline (importing legacy snapshots) or push into a live peer
  resize              add or remove a collector from a live sharded ring
`)
}

// splitTarget peels a leading positional argument (the file or subject
// name) off args, so users can write `cbi run prog.mc -runs 500`
// despite the flag package's flags-first convention.
func splitTarget(args []string, usage string) (string, []string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "", nil, fmt.Errorf("usage: %s", usage)
	}
	return args[0], args[1:], nil
}

func loadProgram(path string) (*lang.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(path, string(src))
	if err != nil {
		return nil, err
	}
	if err := lang.Resolve(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func cmdCheck(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cbi check <file.mc>")
	}
	prog, err := loadProgram(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("%s: ok (%d structs, %d globals, %d functions)\n",
		args[0], len(prog.Structs), len(prog.Globals), len(prog.Funcs))
	return nil
}

func cmdPrint(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cbi print <file.mc>")
	}
	prog, err := loadProgram(args[0])
	if err != nil {
		return err
	}
	fmt.Print(lang.Print(prog))
	return nil
}

func cmdSites(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cbi sites <file.mc>")
	}
	prog, err := loadProgram(args[0])
	if err != nil {
		return err
	}
	plan := instrument.BuildPlan(prog)
	perScheme := map[instrument.Scheme]int{}
	for _, s := range plan.Sites {
		perScheme[s.Scheme]++
	}
	fmt.Printf("%d instrumentation sites, %d predicates\n", plan.NumSites(), plan.NumPreds())
	for _, sch := range []instrument.Scheme{instrument.SchemeBranches, instrument.SchemeReturns, instrument.SchemeScalarPairs} {
		fmt.Printf("  %-12s %d sites\n", sch, perScheme[sch])
	}
	for _, s := range plan.Sites {
		fmt.Printf("site %4d  %-12s %s:%d  %s\n", s.ID, s.Scheme, s.Func, s.Line, siteLabel(s))
	}
	return nil
}

func siteLabel(s *instrument.Site) string {
	switch s.PairKind {
	case instrument.PairVar:
		return fmt.Sprintf("%s ~ %s", s.Text, s.Partner.Name)
	case instrument.PairConst:
		return fmt.Sprintf("%s ~ %d", s.Text, s.Const)
	case instrument.PairOld:
		return fmt.Sprintf("%s ~ old value", s.Text)
	default:
		return s.Text
	}
}
