// Command repllint runs the project's custom static-analysis suite
// (internal/analysis): lockedcall, typederr, wallclock and slotleak — one
// analyzer per bug class that was once fixed by hand. See
// docs/LINTING.md for each invariant and its suppression syntax.
//
// It has two faces, so local runs and CI cannot diverge:
//
//   - Invoked with package patterns (the developer entrypoint),
//
//     go run ./cmd/repllint ./...
//
//     it re-invokes the go command as `go vet -vettool=<itself> <patterns>`,
//     which is character-for-character the CI lint step.
//
//   - Invoked by the go command itself (-V=full, -flags, or a <unit>.cfg
//     argument) it speaks the vettool compilation-unit protocol and
//     analyzes one package per invocation.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
)

func main() {
	args := os.Args[1:]
	if isVettoolInvocation(args) {
		analysis.Main(analysis.Analyzers())
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repllint: locating own binary: %v\n", err)
		os.Exit(1)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "repllint: %v\n", err)
		os.Exit(1)
	}
}

// isVettoolInvocation reports whether the go command is driving us through
// the vettool protocol rather than a developer passing package patterns.
func isVettoolInvocation(args []string) bool {
	if len(args) != 1 {
		return false
	}
	return strings.HasPrefix(args[0], "-V=") ||
		args[0] == "-flags" ||
		strings.HasSuffix(args[0], ".cfg")
}
