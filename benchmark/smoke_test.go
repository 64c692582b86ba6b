package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func contractDefs(in []contractMetric) []metricDef {
	out := make([]metricDef, len(in))
	for i, m := range in {
		out[i] = metricDef{m.Name, m.Unit, m.Better}
	}
	return out
}

// TestContractMatchesProgram keeps BENCHMARK.json and the program's own
// lists of workloads and metrics equal.
func TestContractMatchesProgram(t *testing.T) {
	c, err := readContract(filepath.Join("..", contractFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := contractDefs(c.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end of %s is %v, the program measures %v", contractFile, got, endToEnd)
	}
	if got := contractDefs(c.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer of %s is %v, the program measures %v", contractFile, got, perLayer)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the program has %d", contractFile, len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d of %s is %+v, the program has %s: %s", i, contractFile, c.Workloads[i], w.name, w.why)
		}
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds of %s is %d, the program's default is %d", contractFile, c.RunSeconds, defaultSeconds)
	}
	// No gate wider than a tenth; only setup_s may use the contract's
	// quarter (README.md gives the measured reason).
	for _, m := range c.EndToEnd {
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("bound of %s is %v, outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s is better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s is listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs every workload and its traced ladder at a small size and
// checks that each metric is measured exactly once and is a finite number.
// It holds the ladder's sum check to 0.7-1.3: 200 operations beside other
// packages' tests resolve a broken rung (one pinned to another slave, or
// served from the cache), not the tenth a full-size traced run enforces.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traceOut := filepath.Join(t.TempDir(), "spans.json")
			cfg := runConfig{
				ds:       dataset{kvRows: 2000, scanRows: 500},
				clients:  2,
				seed:     1,
				windows:  1,
				window:   200 * time.Millisecond,
				opsCap:   200,
				setups:   1,
				trace:    true,
				traceOut: traceOut,
				workDir:  t.TempDir(),
			}
			rep, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%d of %d operations failed, first: %v", rep.failed, rep.attempted, rep.firstErr)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				if _, err := rep.pick(defs); err != nil {
					t.Error(err)
				}
			}
			if len(rep.values) != len(endToEnd)+len(perLayer) {
				t.Errorf("run measured %d metrics, the lists name %d", len(rep.values), len(endToEnd)+len(perLayer))
			}
			c := rep.values["trace.sum_check_ratio"]
			t.Logf("trace.sum_check_ratio %.3f", c)
			if c < 0.7 || c > 1.3 {
				t.Errorf("trace.sum_check_ratio = %v, outside 0.7-1.3", c)
			}

			data, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			if want := 5*cfg.capped(w.ladderOps) + 1; len(file.Spans) < want {
				t.Errorf("span file holds %d spans, want at least %d", len(file.Spans), want)
			}
			for i, s := range file.Spans {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d is malformed: %+v", i, s)
				}
			}
		})
	}
}
