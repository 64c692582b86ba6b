package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// phaseResult is what one closed-loop measured phase observed from outside
// the program.
type phaseResult struct {
	opCounts
	// latencies holds one sample per correct operation, in nanoseconds,
	// sorted ascending.
	latencies []int64
	windows   []windowResult
	window    time.Duration
	// cpu is the process's user+system CPU time from the start of the
	// phase until its last operation completed.
	cpu time.Duration
}

// windowResult is one window of the measured phase: the correct operations
// completed in it, the process CPU spent during it and their median
// latency.
type windowResult struct {
	ops int64
	cpu time.Duration
	p50 time.Duration
}

// opCounts tallies operations: every one attempted, those that failed their
// check, and the updates that were acknowledged correctly.
type opCounts struct {
	attempted int64
	failed    int64
	updates   int64
	firstErr  error
}

func (c *opCounts) correct() int64 { return c.attempted - c.failed }

func (c *opCounts) note(o op, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	case o.kind == opUpdate:
		c.updates++
	}
}

func (c *opCounts) add(o opCounts) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.updates += o.updates
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

// throughput is the median, over the windows, of correct operations
// completed per second. The median window, not a choice of windows by their
// value: whatever the program does periodically (a checkpoint, a collection)
// is in the number.
func (r *phaseResult) throughput() float64 {
	per := make([]float64, len(r.windows))
	for i, w := range r.windows {
		per[i] = float64(w.ops) / r.window.Seconds()
	}
	return median(per)
}

// cpuPerOpUS is the process CPU spent over the whole phase per correct
// operation, in microseconds.
func (r *phaseResult) cpuPerOpUS() float64 {
	return ratio(float64(r.cpu.Nanoseconds())/1e3, float64(r.correct()))
}

// quantile is the q-quantile of ascending nanosecond samples.
func quantile(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return time.Duration(sorted[max(i, 0)])
}

// latencyUS is the q-quantile of client-observed latency over the whole
// phase, in microseconds.
func (r *phaseResult) latencyUS(q float64) float64 {
	return float64(quantile(r.latencies, q)) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func rusage() (syscall.Rusage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ru, fmt.Errorf("getrusage: %w", err)
	}
	return ru, nil
}

// processCPU is the process's user+system CPU time so far.
func processCPU() (time.Duration, error) {
	ru, err := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), err
}

// peakRSSMB is the process's peak resident set in MB (Linux reports KB).
func peakRSSMB() (float64, error) {
	ru, err := rusage()
	return float64(ru.Maxrss) / 1024, err
}

// client is one closed-loop caller: its connection and its request stream.
type client struct {
	ex  executor
	gen *generator
}

// runOps replays a fixed number of requests per client, all clients at
// once. Set-up uses it for the warm-up.
func runOps(clients []client, perClient int) opCounts {
	counts := make([]opCounts, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c client, out *opCounts) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				o := c.gen.next()
				out.note(o, c.ex.run(o))
			}
		}(c, &counts[i])
	}
	wg.Wait()
	var total opCounts
	for _, c := range counts {
		total.add(c)
	}
	return total
}

// runClosedLoop drives every client for windows×window: each waits for its
// reply before sending its next request, so a slower system receives less
// load. A request is attempted only if it starts inside the phase; one
// that completes after the last window still counts, in no window.
func runClosedLoop(clients []client, windows int, window time.Duration) (*phaseResult, error) {
	type clientResult struct {
		opCounts
		latencies [][]int64 // per window, plus one slot for late completions
	}
	total := time.Duration(windows) * window
	results := make([]clientResult, len(clients))
	var wg sync.WaitGroup
	begin := make(chan struct{})
	var start time.Time
	for i, c := range clients {
		wg.Add(1)
		go func(c client, out *clientResult) {
			defer wg.Done()
			var res clientResult
			res.latencies = make([][]int64, windows+1)
			for w := range res.latencies {
				// Room for 50k ops/s; append grows it if a client is faster.
				res.latencies[w] = make([]int64, 0, int(window.Seconds()*50_000)+1024)
			}
			<-begin
			for {
				o := c.gen.next()
				t0 := time.Since(start)
				if t0 >= total {
					break
				}
				err := c.ex.run(o)
				t1 := time.Since(start)
				res.note(o, err)
				if err == nil {
					w := min(int(t1/window), windows)
					res.latencies[w] = append(res.latencies[w], int64(t1-t0))
				}
			}
			*out = res
		}(c, &results[i])
	}
	cpu := make([]time.Duration, windows+1)
	var err error
	if cpu[0], err = processCPU(); err != nil {
		return nil, err
	}
	start = time.Now()
	close(begin)
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		if cpu[w], err = processCPU(); err != nil {
			return nil, err
		}
	}
	wg.Wait()
	cpuEnd, err := processCPU()
	if err != nil {
		return nil, err
	}

	r := &phaseResult{window: window, cpu: cpuEnd - cpu[0]}
	for w := 0; w <= windows; w++ {
		var lat []int64
		for _, cr := range results {
			lat = append(lat, cr.latencies[w]...)
		}
		slices.Sort(lat)
		if w < windows {
			r.windows = append(r.windows, windowResult{ops: int64(len(lat)), cpu: cpu[w+1] - cpu[w], p50: quantile(lat, 0.50)})
		}
		r.latencies = append(r.latencies, lat...)
	}
	slices.Sort(r.latencies)
	for _, cr := range results {
		r.add(cr.opCounts)
	}
	return r, nil
}
