package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/qcache"
	"repro/internal/recoverylog"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/wire"
	"repro/replication"
)

// span is one timed call into a layer's public function. Start and End are
// nanoseconds since the trace began; Parent indexes the causing span (-1
// for a root); Op is the request's index in client 0's stream (-1 for
// spans that are not one request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. The benchmark records
// them from outside the program, around its calls into each layer.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

func (t *tracer) write(path string, w workload, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timed records one span around fn and returns its length.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	id := t.begin(name, -1, -1)
	err := fn()
	t.end(id)
	return time.Duration(t.spans[id].End - t.spans[id].Start), err
}

// loadEngine builds the ladder's bare engine holding the same dataset as
// the cluster.
func loadEngine(ds dataset) (*engine.Engine, error) {
	eng := engine.New(engine.Config{})
	s := eng.NewSession(sutUser)
	defer s.Close()
	stmts := []string{"CREATE DATABASE " + sutDatabase, "USE " + sutDatabase}
	for _, t := range ds.tables() {
		stmts = append(stmts, t.ddl())
		for lo := 0; lo < t.rows; lo += insertBatch {
			stmts = append(stmts, t.insertSQL(lo, min(lo+insertBatch, t.rows)))
		}
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return nil, fmt.Errorf("load bare engine: %w", err)
		}
	}
	return eng, nil
}

// runLadder is the traced run: the first ladderOps requests of client 0's
// stream replayed, on one connection each, on every rung of the statement
// chain, then the leaf probes. A rung's self time is its median span minus
// the median span of the rung below it.
//
// The rungs take turns request by request instead of running one after the
// other, so that a garbage collection or a neighbour's burst slows all of
// them alike and cancels in the differences; each cluster rung connects as
// its own user, which keeps it from being served the results the rung
// before it cached.
func runLadder(ctx context.Context, cfg runConfig, w workload, r *rig, phase *phaseResult, rep *runReport) error {
	gen := newGenerator(w, cfg.ds, cfg.seed, 0, cfg.clients)
	ops := make([]op, cfg.capped(w.ladderOps))
	for i := range ops {
		ops[i] = gen.next()
	}

	eng, err := loadEngine(cfg.ds)
	if err != nil {
		return err
	}
	engSrv, err := wire.NewServer("127.0.0.1:0", &wire.EngineBackend{Engine: eng})
	if err != nil {
		return err
	}
	defer engSrv.Close()
	// Nothing the measured phase cached may answer a ladder request.
	r.sut.ms.QueryCacheScope().FlushAll()

	rungs := []struct {
		name    string
		cluster bool
		open    func() (executor, error)
	}{
		{"engine.Stmt.Exec", false, func() (executor, error) { return newEngineExecutor(eng, cfg.ds) }},
		{"wire.Stmt.Exec/engine", false, func() (executor, error) { return newWireExecutor(engSrv.Addr(), sutUser, cfg.ds) }},
		{"core.Stmt.Exec", true, func() (executor, error) { return newCoreExecutor(r.sut.ms, "ladder-core", cfg.ds) }},
		{"wire.Stmt.Exec/cluster", true, func() (executor, error) { return newWireExecutor(r.sut.srv.Addr(), "ladder-wire", cfg.ds) }},
		{"sql.Stmt/cluster", true, func() (executor, error) { return newSQLExecutor(ctx, r.sut.db, cfg.ds) }},
	}
	execs := make([]executor, len(rungs))
	for k, rung := range rungs {
		if execs[k], err = rung.open(); err != nil {
			return fmt.Errorf("%s: %w", rung.name, err)
		}
		defer execs[k].close()
	}

	// A session pins to a slave at its first read, and the balancer breaks
	// ties between idle slaves round-robin. One throwaway session's read per
	// other slave, between two rungs' first reads, brings every cluster rung
	// onto the same slave, so that a difference between two rungs is not a
	// difference between two engines.
	pin := op{kind: opPointRead}
	for k, rung := range rungs {
		if !rung.cluster {
			continue
		}
		if err := execs[k].run(pin); err != nil {
			return fmt.Errorf("%s: %w", rung.name, err)
		}
		for i := 1; i < sutSlaves; i++ {
			skip, err := newCoreExecutor(r.sut.ms, "ladder-pin", cfg.ds)
			if err != nil {
				return err
			}
			err = skip.run(pin)
			skip.close()
			if err != nil {
				return err
			}
		}
	}

	tr := &tracer{t0: time.Now(), spans: make([]span, 0, len(rungs)*len(ops)+64)}
	spanUS := make([][]float64, len(rungs))
	root := tr.begin("ladder", -1, -1)
	for i, o := range ops {
		for k, rung := range rungs {
			id := tr.begin(rung.name, root, i)
			err := execs[k].run(o)
			tr.end(id)
			if err != nil {
				// The rungs are only comparable when each did all the work.
				return fmt.Errorf("%s op %d: %w", rung.name, i, err)
			}
			if rung.cluster && o.kind == opUpdate {
				r.acked++
			}
			spanUS[k] = append(spanUS[k], float64(tr.spans[id].End-tr.spans[id].Start)/1e3)
		}
	}
	tr.end(root)
	us := make([]float64, len(rungs))
	for k, rung := range rungs {
		us[k] = median(spanUS[k])
		fmt.Printf("rung %-24s median %10.1f us over %d ops\n", rung.name, us[k], len(ops))
	}
	if err := r.sut.quiesce(); err != nil {
		return err
	}
	engineUS, wireEngineUS, coreUS, wireClusterUS, top := us[0], us[1], us[2], us[3], us[4]

	v := rep.values
	v["engine.exec_us_per_op"] = engineUS
	v["wire.self_us_per_op"] = wireEngineUS - engineUS
	v["core.self_us_per_op"] = coreUS - engineUS
	v["sqldriver.self_us_per_op"] = top - wireClusterUS
	v["trace.ladder_top_us_per_op"] = top
	v["trace.overhead_ratio"] = ratio(top, phase.latencyUS(0.50))
	sum := engineUS + v["wire.self_us_per_op"] + v["core.self_us_per_op"] + v["sqldriver.self_us_per_op"]
	v["trace.sum_check_ratio"] = ratio(sum, top)

	if err := leafProbes(tr, cfg, w, r, v); err != nil {
		return err
	}
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut, w, cfg.seed); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// leafProbes times single layer functions with the workload's own
// statements, each loop under one span.
func leafProbes(tr *tracer, cfg runConfig, w workload, r *rig, v values) error {
	// perCall runs fn n times under one span and returns microseconds per
	// call.
	perCall := func(name string, n int, fn func(i int) error) (float64, error) {
		took, err := tr.timed(fmt.Sprintf("%s x%d", name, n), func() error {
			for i := 0; i < n; i++ {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(took.Nanoseconds()) / 1e3 / float64(n), err
	}
	const calls = 2000
	texts := w.statements()
	var err error

	if v["sqlparse.parse_us_per_stmt"], err = perCall("sqlparse.Parse", calls, func(i int) error {
		_, err := sqlparse.Parse(texts[i%len(texts)])
		return err
	}); err != nil {
		return err
	}
	if v["sqlparse.cached_parse_us_per_stmt"], err = perCall("sqlparse.ParseCached", calls, func(i int) error {
		_, err := sqlparse.ParseCached(texts[i%len(texts)])
		return err
	}); err != nil {
		return err
	}

	adm := admission.NewController(r.sut.adm.Config())
	if v["admission.acquire_release_us"], err = perCall("admission.Acquire+Release", 10*calls, func(int) error {
		slot, err := adm.Acquire(sutUser, admission.ClassReadSession, time.Time{})
		if err != nil {
			return err
		}
		slot.Release()
		return nil
	}); err != nil {
		return err
	}

	// The cache probes use the workload's read statement (the point read
	// for durable-write, which has none) and a result of its size.
	readSQL, rows := sqlPointRead, 1
	if w.name == "scan-read" {
		readSQL, rows = sqlScanRead, cfg.ds.groupRows()
	}
	res := &engine.Result{Columns: []string{"id", "name", "stock"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("item-0"), sqltypes.NewInt(kvStock)})
	}
	scope := qcache.New(qcache.Config{MaxEntries: sutQueryCache}).NewScope()
	bind := func(i int) []sqltypes.Value { return []sqltypes.Value{sqltypes.NewInt(int64(i))} }
	if v["qcache.put_us"], err = perCall("qcache.Scope.Put", calls, func(i int) error {
		scope.Put(sutUser, sutDatabase, readSQL, bind(i), []string{"kv"}, 1, res)
		return nil
	}); err != nil {
		return err
	}
	if v["qcache.get_us"], err = perCall("qcache.Scope.GetPos", calls, func(i int) error {
		if _, _, ok := scope.GetPos(sutUser, sutDatabase, readSQL, bind(i), 1); !ok {
			return fmt.Errorf("qcache probe: entry %d missing", i)
		}
		return nil
	}); err != nil {
		return err
	}

	log, err := recoverylog.Open(filepath.Join(cfg.workDir, "probe-log"), recoverylog.Options{SegmentEntries: sutSegmentEntries, FsyncEvery: sutFsyncEvery})
	if err != nil {
		return err
	}
	defer log.Close()
	entry := []string{"USE " + sutDatabase, "UPDATE kv SET stock = stock - 1 WHERE id = 4711"}
	if v["recoverylog.append_us_per_entry"], err = perCall("recoverylog.AppendEntry", calls, func(int) error {
		_, err := log.AppendEntry(entry, []string{"kv"}, false)
		return err
	}); err != nil {
		return err
	}
	// Each Sync flushes one fresh append: the group-commit case.
	var syncUS []float64
	for i := 0; i < 21; i++ {
		if _, err := log.AppendEntry(entry, []string{"kv"}, false); err != nil {
			return err
		}
		took, err := tr.timed("recoverylog.Sync", log.Sync)
		if err != nil {
			return err
		}
		syncUS = append(syncUS, float64(took.Nanoseconds())/1e3)
	}
	v["recoverylog.sync_us_per_call"] = median(syncUS)

	prov := r.sut.durable.Provisioner()
	took, err := tr.timed("core.Provisioner.CheckpointBackup", func() error {
		_, err := prov.CheckpointBackup("probe", r.sut.ms.Master(), replication.FaithfulBackupOptions)
		return err
	})
	if err != nil {
		return err
	}
	v["core.checkpoint_s"] = took.Seconds()
	took, err = tr.timed("core.Provisioner.ResyncAuto", func() error {
		fresh := replication.NewReplica(replication.ReplicaConfig{Name: "probe"})
		_, err := prov.ResyncAuto(fresh, replication.ResyncOptions{BatchWait: 5 * time.Millisecond}, 30*time.Second)
		return err
	})
	if err != nil {
		return err
	}
	v["core.resync_s"] = took.Seconds()
	return nil
}
