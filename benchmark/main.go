// Command benchmark is the repository's performance benchmark: four
// closed-loop workloads driven through database/sql against the cluster
// cmd/repld serves, gated end-to-end metrics, and a per-layer trace. See
// README.md in this directory for the design and BENCHMARK.json at the root
// of the repository for the contract a driver runs it under.
//
//	go run ./benchmark -workload point-read            # end-to-end metrics
//	go run ./benchmark -workload point-read -trace 1   # plus per-layer metrics
//	go run ./benchmark -selfcheck                      # do two sets of runs agree?
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// windowSeconds is the length of one throughput window; a run measures
// -seconds/windowSeconds of them. defaultSeconds is run_seconds of
// BENCHMARK.json.
const (
	windowSeconds  = 2
	defaultSeconds = 20
)

// setupsPerRun is how many times an untraced run sets up; setup_s is the
// median.
const setupsPerRun = 3

// scratchDir is where runs keep their data directories. It is inside the
// directory the benchmark is started from, not under os.TempDir: the
// driver's contract lets a run read and write only inside its checkout, and
// names this directory for build products.
const scratchDir = ".bench_build"

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | ")+" | all")
	seed := flag.Int64("seed", 1, "seed of the per-client request streams")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured phase; whole 2 s windows")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, adding the traced ladder")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the ladder's spans to this file as JSON")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of full runs and check they agree within the bounds of BENCHMARK.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(ctx, *seconds)
	case *workloadName == "all":
		err = runAll(ctx)
	default:
		err = runOne(ctx, *workloadName, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		stop()
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload with this invocation's other flags, each in a
// process of its own so that each is measured in a fresh heap. With
// -trace-out FILE, workload W writes FILE.W.
func runAll(ctx context.Context) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloadNames() {
		args := []string{"-workload", w}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload":
			case "trace-out":
				args = append(args, "-trace-out", f.Value.String()+"."+w)
			default:
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
	}
	return nil
}

// runOne performs one full-size run of one workload and prints its result.
func runOne(ctx context.Context, name string, seed int64, seconds int, trace bool, traceOut string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < windowSeconds {
		return fmt.Errorf("-seconds %d is shorter than one %d s window", seconds, windowSeconds)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	cfg := runConfig{
		ds:       fullDataset,
		clients:  runtime.NumCPU(),
		seed:     seed,
		windows:  seconds / windowSeconds,
		window:   windowSeconds * time.Second,
		setups:   setupsPerRun,
		trace:    trace,
		traceOut: traceOut,
		workDir:  workDir,
	}
	// The table shows both lists on a traced run, and the end-to-end list
	// with the headline numbers of the measured phase on an untraced one.
	table, result := append(slices.Clone(endToEnd), named(perLayer, headline)...), endToEnd
	if trace {
		// A traced run reports no setup_s, so one set-up is enough.
		cfg.setups = 1
		table, result = append(slices.Clone(endToEnd), perLayer...), perLayer
	}
	rep, err := runWorkload(ctx, cfg, w)
	if err != nil {
		return err
	}
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: first failed operation: %v\n", rep.firstErr)
	}
	if trace {
		if c := rep.values["trace.sum_check_ratio"]; c < 0.9 || c > 1.1 {
			return fmt.Errorf("the ladder's self times sum to %.3f of its top rung, outside 0.9-1.1", c)
		}
	}
	return rep.print(os.Stdout, table, result)
}
