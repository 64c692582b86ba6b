package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sqlparse"
	"repro/replication"
)

// values holds measured metrics by name.
type values map[string]float64

// counters is one reading of every layer counter the program exposes
// through public accessors. Two readings bracket the measured phase; the
// benchmark adds no counter to the program.
type counters struct {
	qcache      replication.QueryCacheStats
	admission   replication.AdmissionStats
	masterSeq   uint64
	logSyncs    uint64
	logSegments int
	logCkpts    int
	dirBytes    int64
	gcCommits   uint64
	gcSyncs     uint64
	applyEvents uint64
	applyBatch  uint64
	masterExecs uint64
	slaveExecs  uint64
	parseHits   uint64
	parseMisses uint64
	mem         runtime.MemStats
}

func readCounters(s *sut) (*counters, error) {
	c := &counters{
		qcache:    s.qc.Stats(),
		admission: s.adm.Stats(),
		masterSeq: s.ms.MasterSeq(),
	}
	log := s.durable.RecoveryLog()
	c.logSyncs, c.logSegments, c.logCkpts = log.SyncCount(), log.Segments(), len(log.Checkpoints())
	var err error
	if c.dirBytes, err = s.dataDirBytes(); err != nil {
		return nil, err
	}
	if gc := s.durable.GroupCommitter(); gc != nil {
		c.gcCommits, c.gcSyncs = gc.Stats()
	}
	c.masterExecs = s.ms.Master().Execs()
	for _, sl := range s.ms.Slaves() {
		ev, b := sl.ApplyStats()
		c.applyEvents += ev
		c.applyBatch += b
		c.slaveExecs += sl.Execs()
	}
	c.parseHits, c.parseMisses, _ = sqlparse.CacheStats()
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// lagSampler reads the cluster's slave lag every 50 ms from one goroutine
// that sleeps in between.
type lagSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	sum    float64
	n      int
	max    uint64
}

func startLagSampler(ms *replication.MasterSlave) *lagSampler {
	l := &lagSampler{stopCh: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.stopCh:
				return
			case <-tick.C:
			}
			var worst uint64
			for _, lag := range ms.SlaveLag() {
				worst = max(worst, lag)
			}
			l.sum += float64(worst)
			l.n++
			l.max = max(l.max, worst)
		}
	}()
	return l
}

// stop ends the sampling and returns the mean and the maximum, over the
// samples, of the most-lagging slave's backlog in events.
func (l *lagSampler) stop() (mean float64, max uint64) {
	close(l.stopCh)
	l.wg.Wait()
	return ratio(l.sum, float64(l.n)), l.max
}

// ratio is a/b, and 0 when the base is 0: a layer that did no work in a
// workload reports 0 for its ratios.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives the counter-based per-layer metrics from the two
// readings that bracket the measured phase.
func layerValues(v values, p *phaseResult, b, a *counters, lagMean float64, lagMax uint64) {
	ops := float64(p.correct())
	commits := float64(a.masterSeq - b.masterSeq)
	d := func(after, before uint64) float64 { return float64(after - before) }

	v["failed_ops_ratio"] = ratio(float64(p.failed), float64(p.attempted))
	v["sqldriver.throughput_ops_s"] = p.throughput()
	v["process.cpu_us_per_op"] = p.cpuPerOpUS()
	v["sqldriver.latency_p50_us"] = p.latencyUS(0.50)
	v["sqldriver.latency_p99_us"] = p.latencyUS(0.99)
	v["sqldriver.latency_p999_us"] = p.latencyUS(0.999)
	v["sqldriver.samples"] = float64(len(p.latencies))

	hits, misses := d(a.qcache.Hits, b.qcache.Hits), d(a.qcache.Misses, b.qcache.Misses)
	puts, rejected := d(a.qcache.Puts, b.qcache.Puts), d(a.qcache.RejectedPuts, b.qcache.RejectedPuts)
	v["qcache.hit_ratio"] = ratio(hits, hits+misses)
	v["qcache.rejected_put_ratio"] = ratio(rejected, puts+rejected)
	v["qcache.invalidated_entries_per_write"] = ratio(d(a.qcache.InvalidatedEntries, b.qcache.InvalidatedEntries), commits)
	v["qcache.evictions_per_op"] = ratio(d(a.qcache.Evictions, b.qcache.Evictions), ops)

	v["admission.queued_ratio"] = ratio(d(a.admission.Queued, b.admission.Queued), d(a.admission.Admitted, b.admission.Admitted))
	v["admission.shed_total"] = d(a.admission.ShedTotal(), b.admission.ShedTotal())

	v["recoverylog.syncs_per_commit"] = ratio(d(a.logSyncs, b.logSyncs), commits)
	v["recoverylog.bytes_per_commit"] = ratio(float64(a.dirBytes-b.dirBytes), commits)
	v["recoverylog.checkpoints"] = float64(a.logCkpts - b.logCkpts)
	v["recoverylog.segments"] = float64(a.logSegments)
	v["core.groupcommit.commits_per_sync"] = ratio(d(a.gcCommits, b.gcCommits), d(a.gcSyncs, b.gcSyncs))

	v["core.apply_events_per_batch"] = ratio(d(a.applyEvents, b.applyEvents), d(a.applyBatch, b.applyBatch))
	v["core.slave_lag_events_mean"] = lagMean
	v["core.slave_lag_events_max"] = float64(lagMax)
	slaveExecs := d(a.slaveExecs, b.slaveExecs)
	v["core.slave_read_ratio"] = ratio(slaveExecs, slaveExecs+d(a.masterExecs, b.masterExecs))

	parseHits := d(a.parseHits, b.parseHits)
	v["sqlparse.cache_hit_ratio"] = ratio(parseHits, parseHits+d(a.parseMisses, b.parseMisses))

	v["process.allocs_per_op"] = ratio(d(a.mem.Mallocs, b.mem.Mallocs), ops)
	v["process.alloc_bytes_per_op"] = ratio(d(a.mem.TotalAlloc, b.mem.TotalAlloc), ops)
	v["process.gc_pause_ms"] = d(a.mem.PauseTotalNs, b.mem.PauseTotalNs) / 1e6
}
