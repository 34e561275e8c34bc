package yanc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"yanc/internal/analysis"
)

// TestDocsNameRealTargets keeps the docs' run instructions runnable: a
// `go test -run` pattern that matches nothing passes silently, so every
// Test…/Benchmark…/Fuzz… name EXPERIMENTS.md, DESIGN.md and README.md
// mention must begin some declared test function, and every ./cmd/<x>
// or ./examples/<x> they name must exist. DESIGN.md §11's rule map is
// the one list of yancvet's analyzers, so the names in its analyzer
// column must be exactly those analysis.All runs.
func TestDocsNameRealTargets(t *testing.T) {
	declared := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			if err == nil && d.IsDir() && (d.Name() == "vendor" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range declared.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	target := regexp.MustCompile(`\./(?:cmd|examples)/\w+`)
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range named.FindAllString(string(text), -1) {
			if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
				t.Errorf("%s names %s, which begins no test function", doc, name)
			}
		}
		for _, dir := range target.FindAllString(string(text), -1) {
			if _, err := os.Stat(dir); err != nil {
				t.Errorf("%s names %s: %v", doc, dir, err)
			}
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var mapped []string
	for _, row := range ruleMap(t, string(design)) {
		for _, m := range analyzerName.FindAllStringSubmatch(row, -1) {
			mapped = append(mapped, m[1])
		}
	}
	var run []string
	for _, a := range analysis.All() {
		run = append(run, a.Name)
		if !slices.Contains(mapped, a.Name) {
			t.Errorf("DESIGN.md §11's rule map does not name analyzer %s", a.Name)
		}
	}
	for _, name := range mapped {
		if !slices.Contains(run, name) {
			t.Errorf("DESIGN.md §11's rule map names %s, which analysis.All does not run", name)
		}
	}
}

// analyzerName matches a yancvet analyzer as the rule map's analyzer
// column names it: one lower-case word in backquotes. Checks that are
// not yancvet's (`go vet`, `go test -race`) have a space in theirs.
var analyzerName = regexp.MustCompile("`([a-z]+)`")

// ruleMap returns the analyzer column of each row of DESIGN.md §11's
// rule-to-analyzer map: the first table after the paragraph starting
// "Rule-to-analyzer map".
func ruleMap(t *testing.T, design string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(design, "\nRule-to-analyzer map")
	if !ok {
		t.Fatal("DESIGN.md has no \"Rule-to-analyzer map\" paragraph")
	}
	_, rest, _ = strings.Cut(rest, "\n|")
	table, _, _ := strings.Cut("|"+rest, "\n\n")
	var cols []string
	for i, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if i < 2 || len(cells) < 4 {
			continue // header and separator rows
		}
		cols = append(cols, cells[2])
	}
	if len(cols) == 0 {
		t.Fatal("DESIGN.md's rule-to-analyzer map has no rows")
	}
	return cols
}
