// Package failure injects the faults the paper says evaluations skip
// (§3.4, §5.1): crashes, crash-restarts, degraded hardware, and scheduled
// MTBF-driven failure processes ("one fatal failure per day per 200
// processors", §2.2).
package failure

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
)

// Injector schedules faults against replicas.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	stopped bool
	stops   []chan struct{}
}

// NewInjector creates an injector with a deterministic seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Crash fails the replica after the delay.
func (in *Injector) Crash(r *core.Replica, after time.Duration) {
	in.schedule(after, r.Fail)
}

// CrashRestart fails the replica after `after`, restoring it `down` later.
func (in *Injector) CrashRestart(r *core.Replica, after, down time.Duration) {
	in.schedule(after, func() {
		r.Fail()
		in.schedule(down, r.Recover)
	})
}

// Degrade slows the replica after the delay: each client read takes `read`
// longer, each client write and applied replication event `write` longer —
// the "RAID controller ... suddenly becomes 2x slower when the battery
// fails, and the OS rarely finds out" anomaly of §4.1.3.
func (in *Injector) Degrade(r *core.Replica, read, write, after time.Duration) {
	in.schedule(after, func() { r.Degrade(read, write) })
}

// Stall freezes the replica's client-facing service after the delay without
// failing it, restoring it `length` later — the gray failure overload
// protection has to survive: health checks pass (Healthy() stays true, the
// failover monitor sees nothing) while every routed statement hangs until
// its deadline. Replication appliers are unaffected, as a real wedged
// query-execution path leaves the apply path running.
func (in *Injector) Stall(r *core.Replica, after, length time.Duration) {
	in.schedule(after, func() {
		r.SetStalled(true)
		in.schedule(length, func() { r.SetStalled(false) })
	})
}

// Overload launches a flash crowd after the delay: `clients` goroutines
// hammering the cluster with fn (one call per iteration, its error
// discarded — the point is pressure, not correctness) until `length`
// elapses or the injector stops. It models the paper's ticket-broker
// scenario: demand arrives all at once, not gradually.
func (in *Injector) Overload(clients int, after, length time.Duration, fn func(client int)) {
	in.schedule(after, func() {
		stop := make(chan struct{})
		in.mu.Lock()
		if in.stopped {
			in.mu.Unlock()
			close(stop)
			return
		}
		in.stops = append(in.stops, stop)
		in.mu.Unlock()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				end := time.Now().Add(length)
				for time.Now().Before(end) {
					select {
					case <-stop:
						return
					default:
					}
					fn(c)
				}
			}(c)
		}
		wg.Wait()
	})
}

// MTBFProcess continuously crash-restarts random replicas with
// exponentially distributed inter-failure times (mean mtbf) and fixed
// repair time. Stop() ends the process.
func (in *Injector) MTBFProcess(replicas []*core.Replica, mtbf, repair time.Duration) {
	stop := make(chan struct{})
	in.mu.Lock()
	in.stops = append(in.stops, stop)
	in.mu.Unlock()
	go func() {
		for {
			in.mu.Lock()
			wait := time.Duration(in.rng.ExpFloat64() * float64(mtbf))
			victim := replicas[in.rng.Intn(len(replicas))]
			in.mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
			victim.Fail()
			select {
			case <-stop:
				victim.Recover()
				return
			case <-time.After(repair):
			}
			victim.Recover()
		}
	}()
}

// Stop cancels all scheduled and running fault processes.
func (in *Injector) Stop() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.stopped {
		return
	}
	in.stopped = true
	for _, s := range in.stops {
		close(s)
	}
}

func (in *Injector) schedule(after time.Duration, fn func()) {
	stop := make(chan struct{})
	in.mu.Lock()
	if in.stopped {
		in.mu.Unlock()
		return
	}
	in.stops = append(in.stops, stop)
	in.mu.Unlock()
	go func() {
		select {
		case <-stop:
		case <-time.After(after):
			fn()
		}
	}()
}
