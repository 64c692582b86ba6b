package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric. BENCHMARK.json at the root of the repository
// carries the same lists (and the end-to-end bounds); a test keeps the two
// equal.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd are the gated metrics, measured with tracing off: a later change
// is rejected if it worsens one of them on any workload by more than its
// bound. Only what this sandbox repeats within its bound is here; throughput,
// CPU per operation and latency do not (README.md, "Measured"), so they are
// the first three per-layer metrics after failed_ops_ratio, reported by
// every run and gated by none.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ok_ops_ratio", "ratio", "higher"},
}

// headline are the per-layer metrics an untraced run also shows in its
// table: what a caller sees of the measured phase.
var headline = []string{
	"sqldriver.throughput_ops_s",
	"process.cpu_us_per_op",
	"sqldriver.latency_p50_us",
	"sqldriver.latency_p99_us",
}

// perLayer are the single-layer metrics of a traced run: counter deltas over
// the untraced measured phase first, then the ladder and its leaf probes.
var perLayer = []metricDef{
	{"failed_ops_ratio", "ratio", "lower"},
	{"sqldriver.throughput_ops_s", "1/s", "higher"},
	{"process.cpu_us_per_op", "us", "lower"},
	{"sqldriver.latency_p50_us", "us", "lower"},
	{"sqldriver.latency_p99_us", "us", "lower"},
	{"sqldriver.latency_p999_us", "us", "lower"},
	{"sqldriver.samples", "count", "higher"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.rejected_put_ratio", "ratio", "lower"},
	{"qcache.invalidated_entries_per_write", "count", "lower"},
	{"qcache.evictions_per_op", "count", "lower"},
	{"admission.queued_ratio", "ratio", "lower"},
	{"admission.shed_total", "count", "lower"},
	{"recoverylog.syncs_per_commit", "count", "lower"},
	{"recoverylog.bytes_per_commit", "B", "lower"},
	{"recoverylog.checkpoints", "count", "lower"},
	{"recoverylog.segments", "count", "lower"},
	{"recoverylog.reopen_s", "s", "lower"},
	{"core.groupcommit.commits_per_sync", "count", "higher"},
	{"core.apply_events_per_batch", "count", "higher"},
	{"core.slave_lag_events_mean", "count", "lower"},
	{"core.slave_lag_events_max", "count", "lower"},
	{"core.slave_read_ratio", "ratio", "higher"},
	{"sqlparse.cache_hit_ratio", "ratio", "higher"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.alloc_bytes_per_op", "B", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"process.rss_peak_mb", "MB", "lower"},
	{"engine.exec_us_per_op", "us", "lower"},
	{"core.self_us_per_op", "us", "lower"},
	{"wire.self_us_per_op", "us", "lower"},
	{"sqldriver.self_us_per_op", "us", "lower"},
	{"sqlparse.parse_us_per_stmt", "us", "lower"},
	{"sqlparse.cached_parse_us_per_stmt", "us", "lower"},
	{"admission.acquire_release_us", "us", "lower"},
	{"qcache.get_us", "us", "lower"},
	{"qcache.put_us", "us", "lower"},
	{"recoverylog.append_us_per_entry", "us", "lower"},
	{"recoverylog.sync_us_per_call", "us", "lower"},
	{"core.checkpoint_s", "s", "lower"},
	{"core.resync_s", "s", "lower"},
	{"trace.ladder_top_us_per_op", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.sum_check_ratio", "ratio", "lower"},
}

// runReport is the outcome of one run of one workload.
type runReport struct {
	workload  string
	attempted int64
	failed    int64
	firstErr  error
	values    values
}

// resultLine is the object the contract asks for on the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the listed metrics from the report; a metric that was not
// measured, or is not a finite number, is a defect of the benchmark.
func (r *runReport) pick(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// named selects metric definitions by name, in the order asked.
func named(defs []metricDef, names []string) []metricDef {
	var out []metricDef
	for _, n := range names {
		for _, d := range defs {
			if d.name == n {
				out = append(out, d)
			}
		}
	}
	return out
}

// print writes a human-readable table of the metrics in table, one row of
// name, value and unit each (-selfcheck reads the rows of its child runs
// back), then the contract's JSON line carrying exactly the metrics in
// result.
func (r *runReport) print(w io.Writer, table, result []metricDef) error {
	shown, err := r.pick(table)
	if err != nil {
		return err
	}
	picked, err := r.pick(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, d := range table {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.name, shown[d.name].Value, d.unit)
	}
	line, err := json.Marshal(resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: picked})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
