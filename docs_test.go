package yanc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameRealTargets keeps the docs' run instructions runnable: a
// `go test -run` pattern that matches nothing passes silently, so every
// Test…/Benchmark…/Fuzz… name EXPERIMENTS.md, DESIGN.md and README.md
// mention must begin some declared test function, and every ./cmd/<x>
// or ./examples/<x> they name must exist.
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
}
