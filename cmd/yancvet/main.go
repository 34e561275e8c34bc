// Command yancvet runs the yanc static-analysis suite,
// internal/analysis.All (DESIGN.md §11 maps each analyzer to the rule it
// checks), over Go packages.
//
// Usage:
//
//	go run ./cmd/yancvet ./...          # analyze the module
//	go run ./cmd/yancvet -json ./...    # machine-readable diagnostics
//
// The binary is double-faced. Invoked by a human with package patterns
// it re-executes itself through the go command:
//
//	go vet -vettool=<self> <patterns>
//
// which gives it accurate package loading, export data, and cross-
// package fact propagation for free, fully offline. Invoked by the go
// command (with -V=full, -flags, or a unit .cfg file) it speaks the
// x/tools unitchecker protocol.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	yancanalysis "yanc/internal/analysis"
)

func main() {
	if unitcheckerInvocation(os.Args[1:]) {
		unitchecker.Main(yancanalysis.All()...) // does not return
	}
	os.Exit(orchestrate(os.Args[1:]))
}

// unitcheckerInvocation reports whether the go command is driving us:
// it probes with -V=full and -flags, then runs one <unit>.cfg per
// package. Humans pass package patterns instead.
func unitcheckerInvocation(args []string) bool {
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full" || a == "-flags" || a == "--flags":
			return true
		case strings.HasSuffix(a, ".cfg"):
			return true
		}
	}
	return false
}

// orchestrate re-runs the suite via `go vet -vettool=<self>` so the go
// command handles package loading and fact plumbing.
func orchestrate(args []string) int {
	fs := flag.NewFlagSet("yancvet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (go vet -json format)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: yancvet [-json] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "yancvet: cannot locate own binary: %v\n", err)
		return 2
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	if *jsonOut {
		vetArgs = append(vetArgs, "-json")
	}
	vetArgs = append(vetArgs, patterns...)
	cmd := exec.Command("go", vetArgs...)
	var jsonBuf bytes.Buffer
	if *jsonOut {
		// go vet -json exits zero even when it finds problems (the output
		// is for tooling); yancvet still fails the build when any
		// diagnostic was emitted so the CI leg stays blocking.
		cmd.Stdout = io.MultiWriter(os.Stdout, &jsonBuf)
		cmd.Stderr = io.MultiWriter(os.Stderr, &jsonBuf)
	} else {
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
	}
	cmd.Env = os.Environ()
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "yancvet: %v\n", err)
		return 2
	}
	if *jsonOut && bytes.Contains(jsonBuf.Bytes(), []byte(`"posn"`)) {
		return 1
	}
	return 0
}
