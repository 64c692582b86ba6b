package elastic

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
)

// newElasticCluster builds an elastic partitioned cluster: nParts
// sub-clusters of (1 master + nSlaves) each, hash-ruled on kv.k, nbuckets
// virtual buckets, with the kv schema loaded.
func newElasticCluster(t *testing.T, nParts, nSlaves, nbuckets int, msCfg core.MasterSlaveConfig) (*core.Partitioned, []*core.MasterSlave) {
	t.Helper()
	parts := make([]*core.MasterSlave, nParts)
	for i := range parts {
		parts[i] = newSubCluster(t, fmt.Sprintf("p%d", i), nSlaves, msCfg)
	}
	pc, err := core.NewElasticPartitioned(parts, []*core.PartitionRule{{
		Table: "kv", Column: "k", Strategy: core.HashPartition,
	}}, nbuckets)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)
	sess := pc.NewSession("boot")
	defer sess.Close()
	for _, sql := range []string{
		"CREATE DATABASE app",
		"USE app",
		"CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)",
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("bootstrap %q: %v", sql, err)
		}
	}
	return pc, parts
}

func newSubCluster(t *testing.T, name string, nSlaves int, cfg core.MasterSlaveConfig) *core.MasterSlave {
	t.Helper()
	master := core.NewReplica(core.ReplicaConfig{Name: name + "-m"})
	slaves := make([]*core.Replica, nSlaves)
	for j := range slaves {
		slaves[j] = core.NewReplica(core.ReplicaConfig{Name: fmt.Sprintf("%s-s%d", name, j+1)})
	}
	if nSlaves == 0 {
		cfg.ReadFromMaster = true
	}
	ms := core.NewMasterSlave(master, slaves, cfg)
	t.Cleanup(ms.Close)
	return ms
}

// seedRows inserts ids [1, n] through the router.
func seedRows(t *testing.T, pc *core.Partitioned, n int) {
	t.Helper()
	sess := pc.NewSession("seed")
	defer sess.Close()
	if _, err := sess.Exec("USE app"); err != nil {
		t.Fatal(err)
	}
	var values []string
	for i := 1; i <= n; i++ {
		values = append(values, fmt.Sprintf("(%d, 0)", i))
	}
	if _, err := sess.Exec("INSERT INTO kv (k, v) VALUES " + strings.Join(values, ", ")); err != nil {
		t.Fatal(err)
	}
}

// writers runs nw concurrent keyed-insert loops through the router until
// stop closes, retrying retryable routing errors, and returns the set of
// acknowledged keys. Keys start above base to stay clear of seeded rows.
func writers(t *testing.T, pc *core.Partitioned, nw, base int, stop chan struct{}) *ackSet {
	t.Helper()
	acks := &ackSet{keys: make(map[int]bool)}
	for w := 0; w < nw; w++ {
		acks.wg.Add(1)
		go func(w int) {
			defer acks.wg.Done()
			sess := pc.NewSession(fmt.Sprintf("w%d", w))
			defer sess.Close()
			if _, err := sess.Exec("USE app"); err != nil {
				t.Errorf("writer %d: USE: %v", w, err)
				return
			}
			k := base + w
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := sess.Exec(fmt.Sprintf("INSERT INTO kv (k, v) VALUES (%d, %d)", k, w))
				if err == nil {
					acks.add(k)
					k += nw
					continue
				}
				if errors.Is(err, core.ErrRangeMoved) {
					continue // retryable by contract: re-route and retry
				}
				// Transient failover windows surface as other errors; retry
				// without acking.
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}
	return acks
}

type ackSet struct {
	mu   sync.Mutex
	keys map[int]bool
	wg   sync.WaitGroup // the writer goroutines
}

// wait returns once every writer has stopped, so no acknowledgement is
// still in flight.
func (a *ackSet) wait() { a.wg.Wait() }

func (a *ackSet) add(k int) {
	a.mu.Lock()
	a.keys[k] = true
	a.mu.Unlock()
}

func (a *ackSet) snapshot() map[int]bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]bool, len(a.keys))
	for k := range a.keys {
		out[k] = true
	}
	return out
}

// auditCluster collects every kv row from every partition and fails on
// duplicates (double-applied writes) or missing acknowledged keys (lost
// writes). Callers stop their writers first; the audit drains every slave,
// so its reads see each partition master's state wherever they route.
func auditCluster(t *testing.T, pc *core.Partitioned, acked map[int]bool) {
	t.Helper()
	seen := make(map[int]int)
	rt := pc.RouteTable()
	for _, p := range rt.Partitions() {
		waitFor(t, 5*time.Second, func() bool {
			for _, lag := range p.SlaveLag() {
				if lag > 0 {
					return false
				}
			}
			return true
		})
	}
	for pi, p := range rt.Partitions() {
		sess := p.NewSession("audit")
		if _, err := sess.Exec("USE app"); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Exec("SELECT k FROM kv")
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		rule := rt.Rule("kv")
		owned := make(map[int]bool)
		for _, b := range rt.OwnedBuckets(pi) {
			owned[b] = true
		}
		for _, row := range res.Rows {
			k := int(row[0].Int())
			seen[k]++
			bk, err := rule.BucketFor(row[0], rt.NumBuckets())
			if err != nil {
				t.Fatal(err)
			}
			if !owned[bk] {
				t.Errorf("key %d (bucket %d) physically on partition %d which does not own it", k, bk, pi)
			}
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("key %d applied %d times (double-applied write)", k, n)
		}
	}
	for k := range acked {
		if seen[k] == 0 {
			t.Errorf("acknowledged key %d lost", k)
		}
	}
}

// TestSplitToFreshPartitionUnderLoad migrates half a partition's buckets to
// a brand-new sub-cluster while writers hammer the router: zero lost or
// double-applied acknowledged writes, and the routing table grows a member.
func TestSplitToFreshPartitionUnderLoad(t *testing.T) {
	pc, _ := newElasticCluster(t, 2, 1, 8, core.MasterSlaveConfig{Consistency: core.SessionConsistent})
	seedRows(t, pc, 64)
	epoch0 := pc.RouteTable().Epoch()

	stop := make(chan struct{})
	acks := writers(t, pc, 4, 1000, stop)
	time.Sleep(10 * time.Millisecond) // writes in flight before the split

	dest := newSubCluster(t, "fresh", 1, core.MasterSlaveConfig{Consistency: core.SessionConsistent})
	r := NewRebalancer(pc, RebalancerConfig{})
	if err := r.Split(0, dest); err != nil {
		close(stop)
		t.Fatalf("split: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // writes in flight after the cutover
	close(stop)
	acks.wait()

	rt := pc.RouteTable()
	if rt.Epoch() != epoch0+1 {
		t.Fatalf("epoch = %d, want %d", rt.Epoch(), epoch0+1)
	}
	if len(rt.Partitions()) != 3 {
		t.Fatalf("partitions = %d, want 3", len(rt.Partitions()))
	}
	if rt.PartIndex(dest) < 0 {
		t.Fatal("fresh destination not routed")
	}
	if r.Completed() != 1 || r.Aborted() != 0 {
		t.Fatalf("completed=%d aborted=%d", r.Completed(), r.Aborted())
	}
	acked := acks.snapshot()
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged during migration")
	}
	auditCluster(t, pc, acked)
}

// TestMigrateToExistingPartition moves buckets between two routed members
// (the filtered-copy path) under load.
func TestMigrateToExistingPartition(t *testing.T) {
	pc, parts := newElasticCluster(t, 2, 1, 8, core.MasterSlaveConfig{Consistency: core.SessionConsistent})
	seedRows(t, pc, 64)

	stop := make(chan struct{})
	acks := writers(t, pc, 4, 1000, stop)
	time.Sleep(10 * time.Millisecond)

	rt := pc.RouteTable()
	owned := rt.OwnedBuckets(0)
	moving := owned[len(owned)/2:]
	r := NewRebalancer(pc, RebalancerConfig{})
	if err := r.Migrate(moving, parts[1]); err != nil {
		close(stop)
		t.Fatalf("migrate: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	acks.wait()

	rt = pc.RouteTable()
	for _, b := range moving {
		if rt.Owner(b) != parts[1] {
			t.Fatalf("bucket %d not moved", b)
		}
	}
	if len(rt.Partitions()) != 2 {
		t.Fatalf("partitions = %d, want 2", len(rt.Partitions()))
	}
	auditCluster(t, pc, acks.snapshot())
}

// TestMergeRetiresPartition merges one partition into another and drops it
// from routing in the same install; row counts survive.
func TestMergeRetiresPartition(t *testing.T) {
	pc, parts := newElasticCluster(t, 2, 1, 8, core.MasterSlaveConfig{Consistency: core.SessionConsistent})
	seedRows(t, pc, 64)

	r := NewRebalancer(pc, RebalancerConfig{})
	retired, err := r.Merge(0, 1)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if retired != parts[0] {
		t.Fatal("merge returned the wrong retired cluster")
	}
	rt := pc.RouteTable()
	if len(rt.Partitions()) != 1 || rt.Partitions()[0] != parts[1] {
		t.Fatalf("routing after merge: %d partitions", len(rt.Partitions()))
	}
	sess := pc.NewSession("check")
	defer sess.Close()
	if _, err := sess.Exec("USE app"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 64 {
		t.Fatalf("rows after merge = %d, want 64", got)
	}
	auditCluster(t, pc, nil)
}

// TestMigrationAbortsWhenDestinationDies is the first required chaos case:
// the destination master dies mid-migration; the migration aborts cleanly,
// the routing epoch never advances, and the source keeps serving.
func TestMigrationAbortsWhenDestinationDies(t *testing.T) {
	pc, _ := newElasticCluster(t, 2, 1, 8, core.MasterSlaveConfig{Consistency: core.SessionConsistent})
	seedRows(t, pc, 32)
	epoch0 := pc.RouteTable().Epoch()

	// Writers outpace the throttled tail, holding the migration in its
	// streaming phase until the kill lands.
	stop := make(chan struct{})
	writers(t, pc, 4, 1000, stop)
	defer close(stop)

	dest := newSubCluster(t, "doomed", 0, core.MasterSlaveConfig{})
	r := NewRebalancer(pc, RebalancerConfig{
		TailBatch: 8, TailDelay: 2 * time.Millisecond, CatchupThreshold: 2,
		CatchupTimeout: 30 * time.Second,
	})
	done := make(chan error, 1)
	go func() { done <- r.Split(0, dest) }()

	// Wait for the migration to enter its streaming phase, then kill the
	// destination master mid-stream.
	waitFor(t, 5*time.Second, func() bool { return r.Migrating() && r.Clones() == 1 })
	time.Sleep(5 * time.Millisecond)
	dest.Master().Fail()

	err := <-done
	if err == nil {
		t.Fatal("migration succeeded with a dead destination")
	}
	if r.Aborted() != 1 {
		t.Fatalf("aborted = %d, want 1", r.Aborted())
	}
	if got := pc.RouteTable().Epoch(); got != epoch0 {
		t.Fatalf("aborted migration advanced epoch %d -> %d", epoch0, got)
	}
	if pc.Migrating() {
		t.Fatal("migration flag stuck after abort")
	}
	// Source keeps serving reads and writes.
	sess := pc.NewSession("after")
	defer sess.Close()
	if _, err := sess.Exec("USE app"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO kv (k, v) VALUES (9999, 1)"); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
	res, err := sess.Exec("SELECT COUNT(*) FROM kv WHERE k = 9999")
	if err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("read after abort: %v %v", res, err)
	}
}

// TestMigrationResumesAcrossSourceFailover is the second required chaos
// case: the source master dies mid-tail-stream; the sub-cluster fails over
// and the migration resumes from its contiguous prefix without re-cloning.
func TestMigrationResumesAcrossSourceFailover(t *testing.T) {
	msCfg := core.MasterSlaveConfig{
		Consistency: core.SessionConsistent, TransparentFailover: true,
		FailoverTimeout: 2 * time.Second,
	}
	pc, parts := newElasticCluster(t, 2, 2, 8, msCfg)
	seedRows(t, pc, 64)
	src := parts[0]
	// A health monitor drives the promotion, exactly as a deployment would;
	// sessions blocked in recoverFromMasterFailure only wait for it.
	mon := core.NewMonitor(src, 2*time.Millisecond)
	mon.Start()
	t.Cleanup(mon.Stop)

	stop := make(chan struct{})
	acks := writers(t, pc, 4, 1000, stop)
	time.Sleep(5 * time.Millisecond)

	dest := newSubCluster(t, "fresh", 1, msCfg)
	r := NewRebalancer(pc, RebalancerConfig{
		TailBatch: 64, TailDelay: 2 * time.Millisecond, CatchupThreshold: 2,
		CatchupTimeout: 30 * time.Second,
	})
	done := make(chan error, 1)
	go func() { done <- r.Split(0, dest) }()

	// Let the stream start, then kill the source master mid-tail. The
	// monitor promotes a slave and the blocked writers resume through it.
	waitFor(t, 5*time.Second, func() bool { return r.Migrating() && r.Clones() == 1 })
	time.Sleep(5 * time.Millisecond)
	src.Master().Fail()

	time.Sleep(20 * time.Millisecond)
	close(stop)
	acks.wait()
	if err := <-done; err != nil {
		t.Fatalf("migration did not survive source failover: %v", err)
	}
	if r.Clones() != 1 {
		t.Fatalf("clones = %d: resume must not re-clone", r.Clones())
	}
	if r.Resumed() < 1 {
		t.Fatalf("resumed = %d, want >= 1 (source master changed mid-stream)", r.Resumed())
	}
	if r.Completed() != 1 {
		t.Fatalf("completed = %d", r.Completed())
	}
	// 1-safe failover may legitimately lose the acked tail (the paper's
	// LostTransactions accounting), so the audit here checks the migration
	// invariants: no double-applied rows, every row on its owning partition.
	auditCluster(t, pc, nil)
}

// ---- autoscaler ----

// TestAutoscalerFlashCrowd drives sustained high occupancy through the
// admission controller and expects the autoscaler to provision at least one
// replica, then retire it after the load stops and the cooldown passes.
func TestAutoscalerFlashCrowd(t *testing.T) {
	adm := admission.NewController(admission.Config{Slots: 2})
	master := core.NewReplica(core.ReplicaConfig{Name: "m", ReadCost: 500 * time.Microsecond})
	slave := core.NewReplica(core.ReplicaConfig{Name: "s1", ReadCost: 500 * time.Microsecond})
	ms := core.NewMasterSlave(master, []*core.Replica{slave}, core.MasterSlaveConfig{
		Consistency: core.ReadAny, Admission: adm,
	})
	t.Cleanup(ms.Close)
	boot := ms.NewSession("boot")
	for _, sql := range []string{"CREATE DATABASE app", "USE app", "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)", "INSERT INTO kv (k, v) VALUES (1, 1)"} {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	boot.Close()

	spareSeq := 0
	as, err := NewAutoscaler(ms, adm, nil, AutoscalerConfig{
		Interval:    2 * time.Millisecond,
		SustainUp:   3,
		SustainDown: 5,
		Cooldown:    30 * time.Millisecond,
		MinReplicas: 1,
		MaxReplicas: 3,
		Spare: func() *core.Replica {
			spareSeq++
			return core.NewReplica(core.ReplicaConfig{Name: fmt.Sprintf("auto-%d", spareSeq), ReadCost: 500 * time.Microsecond})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(as.Close)

	// Flash crowd: 16 readers against 2 slots.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := ms.NewSession(fmt.Sprintf("r%d", i))
			defer sess.Close()
			if _, err := sess.Exec("USE app"); err != nil {
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				sess.Exec("SELECT v FROM kv WHERE k = 1") //nolint:errcheck // shed errors expected under overload
			}
		}(i)
	}

	waitFor(t, 5*time.Second, func() bool { return as.ScaleUps() >= 1 })
	if len(as.Provisioned()) < 1 {
		t.Fatalf("provisioned = %v", as.Provisioned())
	}
	if len(ms.Slaves()) < 2 {
		t.Fatalf("slaves = %d after scale-up", len(ms.Slaves()))
	}

	// Load vanishes: the controller must retire what it provisioned.
	close(stop)
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return len(as.Provisioned()) == 0 })
	if len(ms.Slaves()) != 1 {
		t.Fatalf("slaves = %d after retire, want 1", len(ms.Slaves()))
	}
	if as.ScaleDowns() < 1 {
		t.Fatal("no scale-down recorded")
	}
}

// TestAutoscalerCooldownBoundsTransitions oscillates load faster than the
// cooldown window and checks the controller makes at most one transition
// per window (plus the in-flight one).
func TestAutoscalerCooldownBoundsTransitions(t *testing.T) {
	adm := admission.NewController(admission.Config{Slots: 2})
	master := core.NewReplica(core.ReplicaConfig{Name: "m", ReadCost: 200 * time.Microsecond})
	ms := core.NewMasterSlave(master, nil, core.MasterSlaveConfig{
		Consistency: core.ReadAny, ReadFromMaster: true, Admission: adm,
	})
	t.Cleanup(ms.Close)
	boot := ms.NewSession("boot")
	for _, sql := range []string{"CREATE DATABASE app", "USE app", "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)", "INSERT INTO kv (k, v) VALUES (1, 1)"} {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	boot.Close()

	const cooldown = 250 * time.Millisecond
	spareSeq := 0
	as, err := NewAutoscaler(ms, adm, nil, AutoscalerConfig{
		Interval:    2 * time.Millisecond,
		SustainUp:   2,
		SustainDown: 2, // deliberately twitchy: only the cooldown damps it
		Cooldown:    cooldown,
		MinReplicas: 0,
		MaxReplicas: 4,
		Spare: func() *core.Replica {
			spareSeq++
			return core.NewReplica(core.ReplicaConfig{Name: fmt.Sprintf("auto-%d", spareSeq), ReadCost: 200 * time.Microsecond})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(as.Close)

	// Oscillate: 30ms bursts of 8 readers, 30ms idle, for ~2.5 windows.
	var hammering atomic.Bool
	stopAll := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := ms.NewSession(fmt.Sprintf("r%d", i))
			defer sess.Close()
			if _, err := sess.Exec("USE app"); err != nil {
				return
			}
			for {
				select {
				case <-stopAll:
					return
				default:
				}
				if hammering.Load() {
					sess.Exec("SELECT v FROM kv WHERE k = 1") //nolint:errcheck
				} else {
					time.Sleep(500 * time.Microsecond)
				}
			}
		}(i)
	}
	start := time.Now()
	for time.Since(start) < 2*cooldown+cooldown/2 {
		hammering.Store(true)
		time.Sleep(30 * time.Millisecond)
		hammering.Store(false)
		time.Sleep(30 * time.Millisecond)
	}
	close(stopAll)
	wg.Wait()

	transitions := as.ScaleUps() + as.ScaleDowns()
	// Bound by measured wall time, not the nominal loop count: scheduler
	// (and race-detector) slowdown stretches the run, and each real
	// cooldown window legitimately admits one transition.
	elapsed := time.Since(start)
	windows := uint64(elapsed/cooldown) + 1
	if transitions > windows {
		t.Fatalf("%d transitions in %v (%d cooldown windows): cooldown not damping oscillation", transitions, elapsed, windows)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
