package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// contractFile is BENCHMARK.json at the root of the repository.
const contractFile = "BENCHMARK.json"

// contract is the part of BENCHMARK.json the benchmark itself reads: the
// names it must print and the bound fixed for each end-to-end metric.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives: the figure the driver computes.
func quartileSpread(values []float64) float64 {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(x))
}

// selfcheckRuns is the number of runs per set and workload.
const selfcheckRuns = 3

// runChild runs one full run in a fresh process of this binary, as a driver
// would, and returns every metric of its table by name: the end-to-end
// metrics from its result line and the headline numbers from their rows.
func runChild(ctx context.Context, exe, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run of %s with seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line of %s: %w", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run of %s with seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	got := map[string]float64{}
	for name, m := range res.Metrics {
		got[name] = m.Value
	}
	for _, line := range lines {
		// A row of the table is a name, a value and a unit.
		f := strings.Fields(string(line))
		if len(f) != 3 || !slices.Contains(headline, f[0]) {
			continue
		}
		if got[f[0]], err = strconv.ParseFloat(f[1], 64); err != nil {
			return nil, fmt.Errorf("row %q of %s: %w", line, workload, err)
		}
	}
	for _, name := range headline {
		if _, ok := got[name]; !ok {
			return nil, fmt.Errorf("run of %s with seed %d printed no %s", workload, seed, name)
		}
	}
	return got, nil
}

// runSelfcheck makes two sets of runs of the same binary and checks that
// they agree: for every workload and end-to-end metric, the second median is
// within the metric's bound of the first. The headline numbers, which have
// no bound, are printed in the same way and not judged. Each set's quartile
// spread is printed beside the medians; with three runs per set it is the
// set's whole range.
func runSelfcheck(ctx context.Context, seconds int) error {
	c, err := readContract(contractFile)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// samples[set][workload][metric] lists one value per run.
	var samples [2]map[string]map[string][]float64
	for set := range samples {
		samples[set] = map[string]map[string][]float64{}
		for run := 0; run < selfcheckRuns; run++ {
			order := workloadNames()
			if run%2 == 1 {
				// Alternate the order so that no workload always follows
				// the same neighbour.
				slices.Reverse(order)
			}
			for _, w := range order {
				got, err := runChild(ctx, exe, w, int64(run+1), seconds)
				if err != nil {
					return err
				}
				if samples[set][w] == nil {
					samples[set][w] = map[string][]float64{}
				}
				for name, v := range got {
					samples[set][w][name] = append(samples[set][w][name], v)
				}
				fmt.Printf("set %d run %d %s done\n", set+1, run+1, w)
			}
		}
	}

	rows := c.EndToEnd
	for _, d := range named(perLayer, headline) {
		rows = append(rows, contractMetric{Name: d.name})
	}
	fmt.Printf("\n%-14s %-28s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "diff", "spread 1", "spread 2", "bound")
	failures := 0
	for _, w := range workloadNames() {
		for _, m := range rows {
			a, b := samples[0][w][m.Name], samples[1][w][m.Name]
			ma, mb := median(a), median(b)
			diff := math.Abs(ratio(mb-ma, ma))
			bound := "     -"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%6.2f", m.Bound)
				if diff > m.Bound {
					bound += "  FAIL"
					failures++
				}
			}
			fmt.Printf("%-14s %-28s %14.4f %14.4f %8.4f %8.4f %8.4f %s\n", w, m.Name, ma, mb, diff, quartileSpread(a), quartileSpread(b), bound)
		}
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs outside their bound", failures)
	}
	return nil
}
