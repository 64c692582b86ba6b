package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// errMonitorStopped aborts an in-flight rejoin resync when the monitor is
// shut down; the contiguous applied prefix stays recorded, so a later
// resync resumes instead of restarting.
var errMonitorStopped = errors.New("core: monitor stopped")

// Monitor watches replica health and drives automatic failover of a
// master-slave cluster, recording availability (MTTF/MTTR) as it goes —
// the measurement discipline §3.4 asks for.
//
// With EnableAutoRejoin it also closes the recovery loop the paper says is
// left to 3 a.m. manual procedure (§2.2): after promoting a slave it
// repairs the recovery log (truncating the old master's lost suffix and
// re-pointing the recorder), and when the failed old master comes back it
// is automatically rolled back via checkpoint clone and re-attached as a
// slave.
type Monitor struct {
	ms       *MasterSlave
	interval time.Duration

	mu           sync.Mutex
	avail        *metrics.Availability
	lastFailover time.Duration // how long the last failover took
	failovers    int
	rejoins      int
	prov         *Provisioner
	rejoinOpts   ResyncOptions
	rejoinLimit  time.Duration
	detached     map[*Replica]bool // failed old masters awaiting recovery
	rejoining    map[*Replica]bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup // in-flight rejoin goroutines
}

// NewMonitor creates (but does not start) a monitor polling at the given
// interval. The interval is the failure detection bound: halving it halves
// worst-case detection latency, at the cost of more probe traffic — the
// §4.3.4 trade-off.
func NewMonitor(ms *MasterSlave, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	return &Monitor{
		ms:        ms,
		interval:  interval,
		avail:     metrics.NewAvailability(),
		detached:  make(map[*Replica]bool),
		rejoining: make(map[*Replica]bool),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// EnableAutoRejoin arms the recovery side of the monitor. After every
// automatic failover the provisioner's log is repaired and its recorder
// re-pointed at the new master; a recovered old master is resynchronized
// (checkpoint clone + tail replay — its diverged suffix is rolled back with
// the restore) and re-attached as a slave. opts tunes the rejoin resync;
// ForceClone is implied. Call before Start.
func (m *Monitor) EnableAutoRejoin(p *Provisioner, opts ResyncOptions) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prov = p
	m.rejoinOpts = opts
	if m.rejoinLimit == 0 {
		m.rejoinLimit = 30 * time.Second
	}
}

// Start launches the health loop.
func (m *Monitor) Start() {
	go m.run()
}

// Stop terminates the monitor and waits for its loop (and any in-flight
// rejoin) to exit. Safe to call concurrently and repeatedly: the old
// select-then-close could race another Stop into a double close of m.stop
// (both callers taking the default branch before either closed),
// panicking; sync.Once closes exactly once.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	m.wg.Wait()
}

// Availability returns the availability record (master writability).
func (m *Monitor) Availability() *metrics.Availability { return m.avail }

// LastFailoverDuration returns how long the most recent failover took from
// detection to promotion.
func (m *Monitor) LastFailoverDuration() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastFailover
}

// Failovers returns how many promotions the monitor has performed.
func (m *Monitor) Failovers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

// Rejoins returns how many recovered replicas the monitor has
// resynchronized and re-attached as slaves.
func (m *Monitor) Rejoins() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejoins
}

func (m *Monitor) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.updateRegistry()
		m.tryRejoins()
		master := m.ms.Master()
		if master.Healthy() {
			continue
		}
		// Detected a dead master: the system is down for writes until a
		// slave is promoted.
		m.avail.MarkDown()
		start := time.Now()
		promoted, err := m.ms.Failover()
		if err != nil {
			// No promotable slave: remain down; keep polling for one.
			continue
		}
		m.mu.Lock()
		prov := m.prov
		m.mu.Unlock()
		if prov != nil {
			// Repair the shared log before anything resyncs against it:
			// truncate the lost suffix, resume recording from the new
			// master.
			_ = prov.FailoverTo(promoted)
		}
		m.avail.MarkUp()
		m.mu.Lock()
		m.lastFailover = time.Since(start)
		m.failovers++
		if m.prov != nil {
			m.detached[master] = true
		}
		m.mu.Unlock()
	}
}

// updateRegistry records live replica positions in the recovery log so
// compaction never drops the checkpoint a lagging slave would restore from.
func (m *Monitor) updateRegistry() {
	m.mu.Lock()
	prov := m.prov
	m.mu.Unlock()
	if prov == nil {
		return
	}
	log := prov.Log()
	master := m.ms.Master()
	log.Register(master.Name(), master.Engine().Binlog().Head())
	for _, sl := range m.ms.Slaves() {
		log.Register(sl.Name(), sl.AppliedSeq())
	}
}

// tryRejoins launches a rejoin for every detached replica that has come
// back to life. Rejoin runs off the monitor loop so a long tail replay
// never blocks failure detection.
func (m *Monitor) tryRejoins() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prov == nil {
		return
	}
	for rep := range m.detached {
		if !rep.Healthy() || m.rejoining[rep] {
			continue
		}
		m.rejoining[rep] = true
		m.wg.Add(1)
		go m.rejoin(rep)
	}
}

func (m *Monitor) rejoin(rep *Replica) {
	defer m.wg.Done()
	m.mu.Lock()
	prov := m.prov
	opts := m.rejoinOpts
	limit := m.rejoinLimit
	m.mu.Unlock()

	// The old master's state carries a diverged suffix the surviving
	// cluster never saw; build on a checkpoint instead of on it.
	opts.ForceClone = true
	userBefore := opts.BeforeApply
	opts.BeforeApply = func(e engine.Event) error {
		select {
		case <-m.stop:
			return errMonitorStopped
		default:
		}
		if userBefore != nil {
			return userBefore(e)
		}
		return nil
	}

	ok := false
	if res, err := prov.ResyncAuto(rep, opts, limit); err == nil {
		ok = m.ms.Failback(rep, res.To) == nil
	} else if !errors.Is(err, errMonitorStopped) {
		// No usable checkpoint (or the clone failed): cold-clone the live
		// master. Slower — it consumes master resources, the very thing
		// §4.4.2 checkpointed backups exist to avoid — but always sound.
		master := m.ms.Master()
		if b, derr := master.Engine().Dump(FaithfulBackup); derr == nil {
			if rerr := rep.Engine().Restore(b); rerr == nil {
				rep.Engine().Binlog().Reset(b.AtSeq)
				ok = m.ms.Failback(rep, b.AtSeq) == nil
			}
		}
	}

	m.mu.Lock()
	delete(m.rejoining, rep)
	if ok {
		delete(m.detached, rep)
		m.rejoins++
	}
	m.mu.Unlock()
}
