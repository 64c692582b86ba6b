package elastic

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
)

// AutoscalerConfig tunes the replica autoscaler. The zero value gets
// conservative defaults; Spare is required.
type AutoscalerConfig struct {
	// Interval is the control-loop tick (0 = 100ms).
	Interval time.Duration
	// ScaleUpOccupancy is the admission slot occupancy at or above which a
	// tick votes to scale up (0 = 0.8). Shed requests and a blown latency
	// budget also vote up.
	ScaleUpOccupancy float64
	// ScaleDownOccupancy is the occupancy at or below which a tick votes
	// to scale down (0 = 0.3).
	ScaleDownOccupancy float64
	// P99Budget, when set, votes up while the read-class p99 service time
	// exceeds it — the observed-service-time signal (CCBench's point:
	// contention shows in latency before it shows in throughput).
	P99Budget time.Duration
	// LagHigh, when set, votes up while any replica's apply lag exceeds
	// this many events.
	LagHigh float64
	// SustainUp is how many consecutive up-votes trigger provisioning
	// (0 = 3); SustainDown how many down-votes trigger retirement
	// (0 = 10). The asymmetry is the hysteresis: scale up fast, down slow.
	SustainUp   int
	SustainDown int
	// Cooldown is the minimum time between transitions (0 = 2s) — at most
	// one scaling action per cooldown window, so oscillating load cannot
	// thrash.
	Cooldown time.Duration
	// MinReplicas/MaxReplicas bound the slave count (Max 0 = 8).
	MinReplicas int
	MaxReplicas int
	// Spare supplies a fresh (or warm retired) replica to provision.
	Spare func() *core.Replica
	// Provisioner, when non-nil, clones spares via the recovery log
	// (ResyncAuto: checkpoint restore + tail replay). Otherwise the
	// autoscaler takes a hot backup of the master.
	Provisioner *core.Provisioner
	// ResyncMaxDuration bounds a log-based catch-up (0 = 10s).
	ResyncMaxDuration time.Duration
}

func (c *AutoscalerConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.ScaleUpOccupancy <= 0 {
		c.ScaleUpOccupancy = 0.8
	}
	if c.ScaleDownOccupancy <= 0 {
		c.ScaleDownOccupancy = 0.3
	}
	if c.SustainUp <= 0 {
		c.SustainUp = 3
	}
	if c.SustainDown <= 0 {
		c.SustainDown = 10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 8
	}
	if c.ResyncMaxDuration <= 0 {
		c.ResyncMaxDuration = 10 * time.Second
	}
}

// Autoscaler is a monitor-driven controller that provisions read replicas
// under sustained load and retires them when idle. Its inputs are the
// signals the operability surface already exports — admission occupancy and
// shedding, per-class service-time percentiles, per-replica apply lag — so
// what the operator sees on /metrics is exactly what the controller acts
// on. Hysteresis (sustain streaks) plus a cooldown keep a flash crowd from
// thrashing the fleet: at most one transition per cooldown window.
type Autoscaler struct {
	ms  *core.MasterSlave
	adm *admission.Controller
	lag *core.LagTracker
	cfg AutoscalerConfig

	stop chan struct{}
	done chan struct{}

	mu             sync.Mutex
	provisioned    []string // LIFO: retire the newest first
	upStreak       int
	downStreak     int
	lastTransition time.Time
	lastShed       uint64
	lastOcc        float64

	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64
	upErrors   atomic.Uint64
}

// NewAutoscaler starts the control loop. adm supplies occupancy and
// latency signals; lag (optional) supplies per-replica apply lag.
func NewAutoscaler(ms *core.MasterSlave, adm *admission.Controller, lag *core.LagTracker, cfg AutoscalerConfig) (*Autoscaler, error) {
	if cfg.Spare == nil {
		return nil, fmt.Errorf("elastic: AutoscalerConfig.Spare is required")
	}
	if adm == nil {
		return nil, fmt.Errorf("elastic: autoscaler needs an admission controller for its load signals")
	}
	cfg.defaults()
	a := &Autoscaler{
		ms: ms, adm: adm, lag: lag, cfg: cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.run()
	return a, nil
}

func (a *Autoscaler) run() {
	defer close(a.done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.tick()
		}
	}
}

// tick evaluates the load signals, advances the hysteresis streaks, and
// acts when a streak sustains past its threshold outside the cooldown.
func (a *Autoscaler) tick() {
	st := a.adm.Stats()
	slots := a.adm.Config().Slots
	occ := float64(st.Active) / float64(slots)
	shed := st.ShedTotal()

	a.mu.Lock()
	shedDelta := shed - a.lastShed
	a.lastShed = shed
	a.lastOcc = occ

	p99Over := false
	if a.cfg.P99Budget > 0 {
		for _, class := range []admission.Class{admission.ClassReadSession, admission.ClassReadAny} {
			if h := a.adm.Latency(class); h != nil && h.Count() > 0 && h.Percentile(99) > a.cfg.P99Budget {
				p99Over = true
				break
			}
		}
	}
	lagHigh := a.cfg.LagHigh > 0 && a.lag != nil && a.lag.MaxLag() >= a.cfg.LagHigh

	up := occ >= a.cfg.ScaleUpOccupancy || shedDelta > 0 || p99Over || lagHigh
	down := occ <= a.cfg.ScaleDownOccupancy && shedDelta == 0 && !p99Over && !lagHigh
	switch {
	case up:
		a.upStreak++
		a.downStreak = 0
	case down:
		a.downStreak++
		a.upStreak = 0
	default:
		a.upStreak = 0
		a.downStreak = 0
	}

	now := time.Now()
	inCooldown := now.Sub(a.lastTransition) < a.cfg.Cooldown
	nslaves := len(a.ms.Slaves())
	doUp := !inCooldown && a.upStreak >= a.cfg.SustainUp && nslaves < a.cfg.MaxReplicas
	doDown := !inCooldown && !doUp && a.downStreak >= a.cfg.SustainDown &&
		nslaves > a.cfg.MinReplicas && len(a.provisioned) > 0
	a.mu.Unlock()

	if doUp {
		if err := a.scaleUp(); err != nil {
			a.upErrors.Add(1)
			return
		}
		a.scaleUps.Add(1)
		a.mu.Lock()
		a.lastTransition = time.Now()
		a.upStreak = 0
		a.mu.Unlock()
	} else if doDown {
		if err := a.scaleDown(); err != nil {
			return
		}
		a.scaleDowns.Add(1)
		a.mu.Lock()
		a.lastTransition = time.Now()
		a.downStreak = 0
		a.mu.Unlock()
	}
}

// scaleUp clones a spare replica to the cluster's state and registers it
// for reads: through the recovery log (checkpoint restore + tail replay)
// when a provisioner is wired, otherwise via a hot master backup.
func (a *Autoscaler) scaleUp() error {
	rep := a.cfg.Spare()
	if rep == nil {
		return fmt.Errorf("elastic: spare factory returned nil")
	}
	var from uint64
	if p := a.cfg.Provisioner; p != nil {
		res, err := p.ResyncAuto(rep, core.ResyncOptions{}, a.cfg.ResyncMaxDuration)
		if err != nil {
			return fmt.Errorf("elastic: resync spare %s: %w", rep.Name(), err)
		}
		from = res.To
	} else {
		b, err := a.ms.Master().Engine().Dump(core.FaithfulBackup)
		if err != nil {
			return fmt.Errorf("elastic: snapshot for spare %s: %w", rep.Name(), err)
		}
		if err := rep.Engine().Restore(b); err != nil {
			return fmt.Errorf("elastic: clone spare %s: %w", rep.Name(), err)
		}
		rep.Engine().Binlog().Reset(b.AtSeq)
		from = b.AtSeq
	}
	if err := a.ms.Failback(rep, from); err != nil {
		return fmt.Errorf("elastic: register spare %s: %w", rep.Name(), err)
	}
	a.mu.Lock()
	a.provisioned = append(a.provisioned, rep.Name())
	a.mu.Unlock()
	return nil
}

// scaleDown retires the most recently provisioned replica (LIFO keeps the
// original fleet untouched).
func (a *Autoscaler) scaleDown() error {
	a.mu.Lock()
	if len(a.provisioned) == 0 {
		a.mu.Unlock()
		return fmt.Errorf("elastic: nothing provisioned to retire")
	}
	name := a.provisioned[len(a.provisioned)-1]
	a.mu.Unlock()
	if _, err := a.ms.Retire(name); err != nil {
		return err
	}
	a.mu.Lock()
	a.provisioned = a.provisioned[:len(a.provisioned)-1]
	a.mu.Unlock()
	return nil
}

// ScaleUps returns how many replicas the controller provisioned.
func (a *Autoscaler) ScaleUps() uint64 { return a.scaleUps.Load() }

// ScaleDowns returns how many replicas the controller retired.
func (a *Autoscaler) ScaleDowns() uint64 { return a.scaleDowns.Load() }

// Provisioned returns the names of currently provisioned replicas.
func (a *Autoscaler) Provisioned() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.provisioned...)
}

// Close stops the control loop (provisioned replicas stay attached).
func (a *Autoscaler) Close() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

// WriteMetrics appends the autoscaler's state in the /metrics line format.
func (a *Autoscaler) WriteMetrics(w io.Writer) {
	a.mu.Lock()
	prov := len(a.provisioned)
	occ := a.lastOcc
	a.mu.Unlock()
	fmt.Fprintf(w, "repl_autoscale_replicas %d\n", len(a.ms.Slaves()))
	fmt.Fprintf(w, "repl_autoscale_provisioned %d\n", prov)
	fmt.Fprintf(w, "repl_autoscale_occupancy %.3f\n", occ)
	fmt.Fprintf(w, "repl_autoscale_up_total %d\n", a.scaleUps.Load())
	fmt.Fprintf(w, "repl_autoscale_down_total %d\n", a.scaleDowns.Load())
	fmt.Fprintf(w, "repl_autoscale_up_errors_total %d\n", a.upErrors.Load())
}
