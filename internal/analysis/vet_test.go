package analysis_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixtures live in self-contained modules under testdata/ (the go
// tool ignores testdata directories, so they never build as part of the
// main module). Each fixture file marks the diagnostics it expects with
// trailing `// want "regexp"` comments; the harness runs the real
// yancvet binary through `go vet -vettool` — the same path CI uses — and
// demands an exact match: every want satisfied, no diagnostic unclaimed.

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// buildYancvet compiles cmd/yancvet once per test binary.
func buildYancvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "yancvet")
	cmd := exec.Command("go", "build", "-o", bin, "yanc/cmd/yancvet")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building yancvet: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Clean(filepath.Join(wd, "..", ".."))
}

// vetJSON runs `go vet -vettool=bin -json ./...` in dir and returns the
// parsed diagnostics keyed by "file.go:line". A non-zero exit is normal
// when diagnostics exist.
func vetJSON(t *testing.T, bin, dir string) map[string][]string {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, _ := cmd.CombinedOutput()

	// The stream interleaves `# pkg` comment lines with JSON objects:
	// strip the comments, then decode the concatenated objects.
	var jsonText strings.Builder
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		jsonText.WriteString(line)
		jsonText.WriteString("\n")
	}
	type diagnostic struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	diags := map[string][]string{}
	dec := json.NewDecoder(strings.NewReader(jsonText.String()))
	for dec.More() {
		var pkgs map[string]map[string][]diagnostic
		if err := dec.Decode(&pkgs); err != nil {
			t.Fatalf("decoding go vet -json output: %v\nfull output:\n%s", err, out)
		}
		for _, byAnalyzer := range pkgs {
			for _, ds := range byAnalyzer {
				for _, d := range ds {
					// posn is /abs/path/file.go:line:col.
					parts := strings.Split(d.Posn, ":")
					if len(parts) < 3 {
						t.Fatalf("unparseable position %q", d.Posn)
					}
					key := filepath.Base(parts[0]) + ":" + parts[1]
					diags[key] = append(diags[key], d.Message)
				}
			}
		}
	}
	return diags
}

// wants scans every .go file under dir for `// want "re"` comments.
func wants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	ws := map[string][]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				unq, err := strconv.Unquote(`"` + m[1] + `"`)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want %q: %v", path, i+1, m[1], err)
				}
				key := filepath.Base(path) + ":" + strconv.Itoa(i+1)
				ws[key] = append(ws[key], unq)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestFixtures(t *testing.T) {
	bin := buildYancvet(t)
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	for _, dir := range fixtures {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			diags := vetJSON(t, bin, dir)
			expected := wants(t, dir)
			for key, patterns := range expected {
				got := diags[key]
				for _, pat := range patterns {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					idx := -1
					for i, msg := range got {
						if re.MatchString(msg) {
							idx = i
							break
						}
					}
					if idx < 0 {
						t.Errorf("%s: no diagnostic matching %q (got %q)", key, pat, got)
						continue
					}
					got = append(got[:idx], got[idx+1:]...)
				}
				if len(got) > 0 {
					t.Errorf("%s: unexpected extra diagnostics %q", key, got)
				}
				delete(diags, key)
			}
			for key, msgs := range diags {
				t.Errorf("%s: unexpected diagnostics %q", key, msgs)
			}
		})
	}
}

// TestHotallocFactPropagation pins the cross-package half of hotalloc.
// The fixture's hot root calls two functions from its render subpackage:
// AppendName (annotated //yancvet:hotalloc, exports the AllocFree fact)
// and Format (unannotated). Both judgments depend on facts crossing the
// package boundary through go vet's fact files — if propagation breaks,
// AppendName gets flagged as unverified, and if the flag logic breaks,
// Format sails through.
func TestHotallocFactPropagation(t *testing.T) {
	bin := buildYancvet(t)
	diags := vetJSON(t, bin, filepath.Join("testdata", "hotalloc"))
	flaggedUnverified := false
	for _, msgs := range diags {
		for _, m := range msgs {
			if strings.Contains(m, "render.AppendName") || strings.Contains(m, "render.Names") {
				t.Errorf("annotated callee flagged despite its imported AllocFree fact: %s", m)
			}
			if strings.Contains(m, "render.Format") && strings.Contains(m, "not marked") {
				flaggedUnverified = true
			}
		}
	}
	if !flaggedUnverified {
		t.Error("unannotated render.Format not flagged: AllocFree facts are not crossing the package boundary")
	}
}

// TestYancvetExitCodes is the meta-test from the issue: the binary must
// fail on a violating module (the PR 3 regression fixture among them)
// and pass on the real module.
func TestYancvetExitCodes(t *testing.T) {
	bin := buildYancvet(t)

	t.Run("violating module fails", func(t *testing.T) {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = filepath.Join("testdata", "lockorder")
		cmd.Env = append(os.Environ(), "GOWORK=off")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("yancvet exited zero on the violating fixture; output:\n%s", out)
		}
		if !strings.Contains(string(out), "provider invoked under the tree lock") {
			t.Fatalf("missing the PR 3 Synthetic-under-lock diagnostic; output:\n%s", out)
		}
	})

	t.Run("real module passes", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode: full-module vet is covered by the ci.sh yancvet leg")
		}
		cmd := exec.Command(bin, "./...")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("yancvet failed on the real module: %v\n%s", err, out)
		}
	})

	t.Run("json output", func(t *testing.T) {
		cmd := exec.Command(bin, "-json", "./...")
		cmd.Dir = filepath.Join("testdata", "errdrop")
		cmd.Env = append(os.Environ(), "GOWORK=off")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatal("expected non-zero exit on the errdrop fixture")
		}
		if !strings.Contains(string(out), `"errdrop"`) {
			t.Fatalf("-json output does not mention the errdrop analyzer:\n%s", out)
		}
	})
}
