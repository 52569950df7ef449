// Command firal-vet machine-enforces the repo's standing contracts
// (ARCHITECTURE.md § Contract enforcement) with five custom go/analysis
// analyzers: hotpath, maxworkers, sentinelerr, lockorder, ctxpoll.
//
// It speaks the `go vet -vettool=` protocol (the unitchecker driver the
// toolchain's own vet binary uses), and for convenience also runs
// standalone: invoked with package patterns instead of a vet .cfg file,
// it re-executes itself through `go vet`, which owns package loading,
// caching, and dependency export data:
//
//	go build -o bin/firal-vet ./cmd/firal-vet
//	go vet -vettool=$(pwd)/bin/firal-vet ./...   # vet-tool form
//	bin/firal-vet ./...                          # standalone form (same thing)
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/analysis"
)

func main() {
	if patterns := packagePatterns(os.Args[1:]); patterns != nil {
		standalone(patterns)
		return
	}
	unitchecker.Main(analysis.Analyzers()...)
}

// packagePatterns returns the package patterns of a standalone
// invocation (`firal-vet ./...`), or nil when the arguments are the
// unitchecker protocol (-V=full handshake, -flag settings, *.cfg unit
// files) and unitchecker.Main should handle them.
func packagePatterns(args []string) []string {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: firal-vet [packages]  (or: go vet -vettool=firal-vet [packages])")
		os.Exit(2)
	}
	var patterns []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") || strings.HasSuffix(a, ".cfg") {
			return nil
		}
		patterns = append(patterns, a)
	}
	return patterns
}

// standalone re-executes through `go vet -vettool=self`, so both forms
// analyze identically — same driver, same facts, same diagnostics.
func standalone(patterns []string) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "firal-vet: cannot locate own executable: %v\n", err)
		os.Exit(1)
	}
	args := append([]string{"vet", "-vettool=" + self}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "firal-vet: exec go vet: %v\n", err)
		os.Exit(1)
	}
}
