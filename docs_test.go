package cbi_bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the repository's own documents, whose cross-references
// must resolve. (PAPER.md / PAPERS.md / SNIPPETS.md / ISSUE.md are
// generated scaffolding and may cite external material.)
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"ENGINES.md",
	"EXPERIMENTS.md",
	"METRICS.md",
	"OPERATIONS.md",
	"ROADMAP.md",
}

var (
	// [text](target) markdown links, excluding images.
	mdLink = regexp.MustCompile(`[^!]\[[^\]]*\]\(([^)\s]+)\)`)
	// `FILE.md` or `dir/file.go` backtick references to repo paths.
	tickRef = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.(?:md|go))`")
)

// TestDocsLinksResolve fails when documentation drifts from the tree:
// every relative markdown link and every backticked file path in the
// repo's own docs must name a file that exists.
func TestDocsLinksResolve(t *testing.T) {
	for _, doc := range docFiles {
		doc := doc
		t.Run(doc, func(t *testing.T) {
			data, err := os.ReadFile(doc)
			if err != nil {
				t.Fatalf("documentation file missing: %v", err)
			}
			text := string(data)
			base := filepath.Dir(doc)

			for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") {
					continue // external URL or intra-document anchor
				}
				target = strings.SplitN(target, "#", 2)[0]
				if _, err := os.Stat(filepath.Join(base, target)); err != nil {
					t.Errorf("%s links to %q, which does not exist", doc, m[1])
				}
			}

			for _, m := range tickRef.FindAllStringSubmatch(text, -1) {
				ref := m[1]
				// A backtick path resolves relative to the doc or the
				// repository root (docs cite both styles).
				if _, err := os.Stat(filepath.Join(base, ref)); err == nil {
					continue
				}
				if _, err := os.Stat(ref); err == nil {
					continue
				}
				t.Errorf("%s mentions `%s`, which exists neither relative to %s nor to the repository root", doc, ref, doc)
			}
		})
	}
}

var (
	// `-flag` or `-flag value` in backticks (an opening backtick follows
	// white space or punctuation; "`cbi_`-prefixed" is a closing one).
	tickFlag = regexp.MustCompile("(?m)(?:^|[\\s(|,;:])`(-[a-z][a-z0-9-]*)(?:[ =][^`\n]*)?`")
	// fs.String("flag", ... and friends in cmd/.
	flagDecl = regexp.MustCompile(`\.(?:String|Int|Int64|Bool|Duration|Float64)\("([a-z][a-z0-9-]*)"`)
	// Flags of the Go tool, which the docs cite in test commands.
	goToolFlags = map[string]bool{"-race": true, "-count": true, "-run": true, "-cpu": true, "-bench": true, "-fuzz": true, "-fuzztime": true}
)

// TestDocsFlagsExist fails when an operator document names a
// command-line flag no command registers: every backticked `-flag` in
// OPERATIONS.md, METRICS.md and DESIGN.md must appear in a flag
// declaration somewhere under cmd/.
func TestDocsFlagsExist(t *testing.T) {
	registered := map[string]bool{}
	err := filepath.WalkDir("cmd", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range flagDecl.FindAllSubmatch(src, -1) {
			registered["-"+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(registered) < 20 {
		t.Fatalf("found only %d flag declarations under cmd/; the pattern no longer matches how flags are declared", len(registered))
	}
	for _, doc := range []string{"OPERATIONS.md", "METRICS.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range tickFlag.FindAllSubmatch(data, -1) {
			if f := string(m[1]); !registered[f] && !goToolFlags[f] {
				t.Errorf("%s cites `%s`, which no command under cmd/ registers", doc, f)
			}
		}
	}
}
