package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sqlparse"
	"repro/replication"
)

// runConfig sizes one run. The full size is what the committed numbers are
// measured at; the smoke test shrinks every field.
type runConfig struct {
	ds      dataset
	clients int
	seed    int64
	windows int
	window  time.Duration
	// opsCap, when > 0, caps the workload's fixed warm-up and ladder
	// operation counts.
	opsCap int
	// setups is how many times the whole set-up is performed; setup_s is
	// the median, and the first one is measured on.
	setups   int
	trace    bool
	traceOut string
	// workDir is where each set-up creates its data directory.
	workDir string
}

const groupCommitWindow = 200 * time.Microsecond

func (c runConfig) capped(ops int) int {
	if c.opsCap > 0 {
		return min(ops, c.opsCap)
	}
	return ops
}

// rig is a set-up system with its connected clients, ready to be measured.
type rig struct {
	sut     *sut
	clients []client
	// acked counts acknowledged updates since the dataset was loaded.
	acked int64
}

// releaseClients returns the clients' connections to the pool.
func (r *rig) releaseClients() {
	for _, c := range r.clients {
		c.ex.close()
	}
	r.clients = nil
}

func (r *rig) close() error {
	r.releaseClients()
	return r.sut.close()
}

// setUp performs the fixed, quiesced set-up and reports how long it took:
// cluster opened on a fresh directory, dataset loaded through the driver,
// replication drained, a fixed warm-up of the workload run and drained,
// and the garbage of all that collected. Every set-up starts from an empty
// statement cache so that repeated set-ups in one process do equal work.
func setUp(ctx context.Context, cfg runConfig, w workload) (*rig, time.Duration, error) {
	start := time.Now()
	sqlparse.PurgeCache()
	dir, err := os.MkdirTemp(cfg.workDir, "data-")
	if err != nil {
		return nil, 0, err
	}
	var gcw time.Duration
	if w.groupCommit {
		gcw = groupCommitWindow
	}
	s, err := openSUT(dir, gcw, cfg.clients)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{sut: s}
	fail := func(err error) (*rig, time.Duration, error) {
		r.close()
		return nil, 0, err
	}
	if err := s.loadDataset(ctx, cfg.ds); err != nil {
		return fail(err)
	}
	if err := s.quiesce(); err != nil {
		return fail(err)
	}
	for i := 0; i < cfg.clients; i++ {
		ex, err := newSQLExecutor(ctx, s.db, cfg.ds)
		if err != nil {
			return fail(err)
		}
		r.clients = append(r.clients, client{ex: ex, gen: newGenerator(w, cfg.ds, cfg.seed, i, cfg.clients)})
	}
	warm := runOps(r.clients, cfg.capped(w.warmupOps)/cfg.clients)
	if warm.failed > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d operations failed, first: %w", warm.failed, warm.attempted, warm.firstErr))
	}
	r.acked += warm.updates
	if err := s.quiesce(); err != nil {
		return fail(err)
	}
	runtime.GC()
	return r, time.Since(start), nil
}

// sumStock reads SUM(stock) of kv straight from one replica's engine.
func sumStock(rep *replication.Replica) (int64, error) {
	s := rep.Engine().NewSession(sutUser)
	defer s.Close()
	if _, err := s.Exec("USE " + sutDatabase); err != nil {
		return 0, err
	}
	res, err := s.Exec(sqlSumStock)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s returned %d rows", sqlSumStock, len(res.Rows))
	}
	return res.Rows[0][0].Int(), nil
}

// checkStock asserts, on the master and on every slave, that kv lost
// exactly one unit of stock per acknowledged update.
func checkStock(ms *replication.MasterSlave, ds dataset, acked int64) error {
	want := int64(ds.kvRows)*kvStock - acked
	for _, rep := range append([]*replication.Replica{ms.Master()}, ms.Slaves()...) {
		got, err := sumStock(rep)
		if err != nil {
			return fmt.Errorf("stock invariant on %s: %w", rep.Name(), err)
		}
		if got != want {
			return fmt.Errorf("stock invariant on %s: SUM(stock) = %d, want %d after %d acknowledged updates", rep.Name(), got, want, acked)
		}
	}
	return nil
}

// reopenCheck closes the rig, recovers a cluster from its data directory
// alone and repeats the stock invariant there. It returns the recovery
// time.
func reopenCheck(r *rig, ds dataset) (time.Duration, error) {
	if err := r.close(); err != nil {
		return 0, fmt.Errorf("close before reopen: %w", err)
	}
	start := time.Now()
	d, _, _, err := openCluster(r.sut.dir, 0)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	took := time.Since(start)
	err = checkStock(d.Cluster(), ds, r.acked)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return took, err
}

// runWorkload performs one complete run of one workload and returns every
// metric it measured by name.
//
// The measured phase runs on the first set-up, in a heap no earlier cluster
// has used: rows loaded into a heap fragmented by a previous set-up are
// scattered, and scans over them measurably slower. The further set-ups
// that steady setup_s come after everything else.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (*runReport, error) {
	r, took, err := setUp(ctx, cfg, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupTimes := []float64{took.Seconds()}
	open := true
	defer func() {
		if open {
			r.close()
		}
	}()

	sampler := startLagSampler(r.sut.ms)
	before, err := readCounters(r.sut)
	if err != nil {
		return nil, err
	}
	phase, err := runClosedLoop(r.clients, cfg.windows, cfg.window)
	if err != nil {
		return nil, err
	}
	after, err := readCounters(r.sut)
	if err != nil {
		return nil, err
	}
	lagMean, lagMax := sampler.stop()
	r.acked += phase.updates
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	rep := &runReport{workload: w.name, attempted: phase.attempted, failed: phase.failed, firstErr: phase.firstErr, values: values{}}
	for i, win := range phase.windows {
		fmt.Printf("window %2d: %8d ops  p50 %10.1f us  cpu %8.1f us/op\n", i, win.ops, float64(win.p50)/1e3, ratio(float64(win.cpu.Microseconds()), float64(win.ops)))
	}
	rep.values["ok_ops_ratio"] = ratio(float64(phase.correct()), float64(phase.attempted))
	layerValues(rep.values, phase, before, after, lagMean, lagMax)
	rep.values["process.rss_peak_mb"] = rss

	// The ladder takes its one connection from the same pool, which holds
	// no more than the clients had.
	r.releaseClients()
	if cfg.trace {
		if err := runLadder(ctx, cfg, w, r, phase, rep); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}

	if w.writes() {
		if err := r.sut.quiesce(); err != nil {
			return nil, err
		}
		if err := checkStock(r.sut.ms, cfg.ds, r.acked); err != nil {
			return nil, err
		}
	}
	open = false
	rep.values["recoverylog.reopen_s"] = 0
	if w.groupCommit {
		took, err := reopenCheck(r, cfg.ds)
		if err != nil {
			return nil, err
		}
		rep.values["recoverylog.reopen_s"] = took.Seconds()
	} else if err := r.close(); err != nil {
		return nil, err
	}

	for len(setupTimes) < cfg.setups {
		extra, took, err := setUp(ctx, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setupTimes)+1, err)
		}
		if err := extra.close(); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	fmt.Printf("set-ups (s): %.3f\n", setupTimes)
	rep.values["setup_s"] = median(setupTimes)
	return rep, nil
}
