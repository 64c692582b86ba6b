// Elasticity chaos cells (PR 10): live bucket migration exercised through
// the public facade and the full client path, under concurrent load.
//
//   - TestMigrationWriteStallBudget bounds the cutover cost: the per-range
//     write fence may stall writes only briefly (p99 <= 250ms including the
//     ErrRangeMoved retry), while reads never block. This is the number the
//     perf-regression CI guard pins.
//   - TestElasticitySoak runs repeated split/migrate/merge cycles — one of
//     them with the destination master killed mid-migration — against a
//     database/sql workload over the wire server, with a seeded RNG
//     (ELASTIC_SEED) choosing the chaos schedule. Every failure the
//     application sees must be typed retryable, every acknowledged insert
//     must survive, and goodput must not collapse.
package repro

import (
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
	"repro/replication"
	_ "repro/replication/sqldriver"
)

// newElasticFacadeCluster builds an elastic partitioned cluster through the
// public facade: nParts sub-clusters of one master + one slave each, hash
// partitioning app.kv on k across nbuckets virtual buckets.
func newElasticFacadeCluster(t *testing.T, nParts, nbuckets int) (*replication.Partitioned, []*replication.MasterSlave) {
	t.Helper()
	parts := make([]*replication.MasterSlave, nParts)
	for i := range parts {
		parts[i] = newElasticSubCluster(t, fmt.Sprintf("p%d", i))
	}
	pc, err := replication.NewElasticPartitioned(parts, []*replication.PartitionRule{{
		Table: "kv", Column: "k", Strategy: replication.HashPartition,
	}}, nbuckets)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)
	sess := pc.NewSession("boot")
	defer sess.Close()
	for _, q := range []string{
		"CREATE DATABASE app",
		"USE app",
		"CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)",
	} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return pc, parts
}

func newElasticSubCluster(t *testing.T, name string) *replication.MasterSlave {
	t.Helper()
	m := replication.NewReplica(replication.ReplicaConfig{Name: name + "-m"})
	s := replication.NewReplica(replication.ReplicaConfig{Name: name + "-s"})
	ms := replication.NewMasterSlave(m, []*replication.Replica{s},
		replication.MasterSlaveConfig{Consistency: replication.SessionConsistent})
	t.Cleanup(ms.Close)
	return ms
}

func seedElasticRows(t *testing.T, pc *replication.Partitioned, n int) {
	t.Helper()
	sess := pc.NewSession("seed")
	defer sess.Close()
	if _, err := sess.Exec("USE app"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := sess.Exec("INSERT INTO kv (k, v) VALUES (?, ?)",
			replication.IntValue(int64(i)), replication.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrationWriteStallBudget pins the write-fence cost of a live split.
// Writers observe at most a brief stall while the fence drains the binlog
// tail and the routing epoch flips; the p99 over the whole migration window
// — including ErrRangeMoved retries after the flip — must stay under 250ms.
// The perf-regression CI job runs this test by name.
func TestMigrationWriteStallBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("asserts a latency budget; the race detector's slowdown makes it meaningless")
	}
	const stallBudget = 250 * time.Millisecond

	pc, _ := newElasticFacadeCluster(t, 2, 16)
	seedElasticRows(t, pc, 128)

	var (
		stop    = make(chan struct{})
		latMu   sync.Mutex
		lats    []time.Duration
		nextKey atomic.Int64
		wg      sync.WaitGroup
	)
	nextKey.Store(1 << 20)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := pc.NewSession("writer")
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
				k := nextKey.Add(1)
				t0 := time.Now()
				// One write = first attempt plus any ErrRangeMoved retries:
				// the full stall the application would observe.
				for {
					_, err := sess.Exec("INSERT INTO kv (k, v) VALUES (?, ?)",
						replication.IntValue(k), replication.IntValue(k))
					if err == nil {
						break
					}
					if !errors.Is(err, replication.ErrRangeMoved()) {
						time.Sleep(200 * time.Microsecond)
					}
				}
				latMu.Lock()
				lats = append(lats, time.Since(t0))
				latMu.Unlock()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)

	dest := newElasticSubCluster(t, "fresh")
	r := replication.NewRebalancer(pc, replication.RebalancerConfig{
		TailBatch: 64, TailDelay: time.Millisecond, CatchupThreshold: 4,
	})
	if err := r.Split(0, dest); err != nil {
		t.Fatalf("split: %v", err)
	}
	// Keep writing briefly after the cutover so post-flip retry latencies
	// land in the sample, then stop.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	latMu.Lock()
	defer latMu.Unlock()
	if len(lats) == 0 {
		t.Fatal("no writes completed during the migration window")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	max := lats[len(lats)-1]
	t.Logf("%d writes across live split: p50=%v p99=%v max=%v (budget %v)",
		len(lats), lats[len(lats)/2], p99, max, stallBudget)
	if p99 > stallBudget {
		t.Errorf("write p99 %v exceeds the %v fence stall budget", p99, stallBudget)
	}
}

// TestElasticitySoak cycles the cluster through its whole elastic
// repertoire while a database/sql workload runs over the wire server. The
// RNG seed (ELASTIC_SEED) schedules the chaos — which cycle loses its
// migration destination, and when in the stream the kill lands — so a CI
// failure is reproducible by seed.
func TestElasticitySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak; skipped in -short")
	}
	seed := int64(1)
	if s := os.Getenv("ELASTIC_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("ELASTIC_SEED: %v", err)
		}
		seed = v
	}
	cycles := 3
	if s := os.Getenv("ELASTIC_SOAK_CYCLES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("ELASTIC_SOAK_CYCLES=%q: want a positive integer", s)
		}
		cycles = v
	}
	t.Logf("seed %d over %d cycles; reproduce with ELASTIC_SEED=%d ELASTIC_SOAK_CYCLES=%d go test -run TestElasticitySoak",
		seed, cycles, seed, cycles)
	rng := rand.New(rand.NewSource(seed))

	const seedRows = 128
	pc, _ := newElasticFacadeCluster(t, 2, 16)
	seedElasticRows(t, pc, seedRows)

	srv, err := wire.NewServer("127.0.0.1:0", &wire.ClusterBackend{Cluster: pc},
		wire.WithMaxConns(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	dsn := fmt.Sprintf(
		"repl://app@%s/app?consistency=session&retry_backoff=2ms&retry_backoff_max=50ms",
		srv.Addr())
	db, err := sql.Open("repl", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(16)
	db.SetMaxIdleConns(16)

	var (
		ok        atomic.Int64
		attempts  atomic.Int64
		retryable atomic.Int64
		insertID  atomic.Int64
		ackedMu   sync.Mutex
		acked     []int64
		untypedMu sync.Mutex
		untyped   []error
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	insertID.Store(1 << 20)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed + int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				attempts.Add(1)
				var err error
				if wrng.Intn(10) == 0 {
					k := insertID.Add(1)
					_, err = db.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", k, k)
					if err == nil {
						ackedMu.Lock()
						acked = append(acked, k)
						ackedMu.Unlock()
					}
				} else {
					var rows *sql.Rows
					rows, err = db.Query("SELECT v FROM kv WHERE k = ?", 1+wrng.Intn(seedRows))
					if err == nil {
						err = rows.Close()
					}
				}
				if err != nil {
					if errors.Is(err, driver.ErrBadConn) {
						retryable.Add(1)
					} else {
						untypedMu.Lock()
						untyped = append(untyped, err)
						untypedMu.Unlock()
					}
					continue
				}
				ok.Add(1)
			}
		}(c)
	}

	r := replication.NewRebalancer(pc, replication.RebalancerConfig{
		TailBatch: 64, TailDelay: time.Millisecond, CatchupThreshold: 4,
		CatchupTimeout: 30 * time.Second,
	})
	killCycle := rng.Intn(cycles)
	for cy := 0; cy < cycles; cy++ {
		epoch := pc.RouteTable().Epoch()
		if cy == killCycle {
			// Chaos cycle: the fresh destination dies mid-stream. The
			// migration must abort cleanly — routing epoch frozen, source
			// still serving — and the workload must not notice. A dedicated
			// burst writer plus a heavily throttled rebalancer keeps the
			// tail stream alive long enough for the kill to land mid-flight.
			rk := replication.NewRebalancer(pc, replication.RebalancerConfig{
				TailBatch: 8, TailDelay: 2 * time.Millisecond, CatchupThreshold: 2,
				CatchupTimeout: 30 * time.Second,
			})
			burstStop := make(chan struct{})
			var burstWG sync.WaitGroup
			burstWG.Add(1)
			go func() {
				defer burstWG.Done()
				sess := pc.NewSession("burst")
				defer sess.Close()
				if _, err := sess.Exec("USE app"); err != nil {
					return
				}
				for {
					select {
					case <-burstStop:
						return
					default:
					}
					k := insertID.Add(1)
					if _, err := sess.Exec("INSERT INTO kv (k, v) VALUES (?, ?)",
						replication.IntValue(k), replication.IntValue(k)); err == nil {
						ackedMu.Lock()
						acked = append(acked, k)
						ackedMu.Unlock()
					}
				}
			}()
			doomed := newElasticSubCluster(t, fmt.Sprintf("doom%d", cy))
			clones := rk.Clones()
			done := make(chan error, 1)
			go func() { done <- rk.Split(0, doomed) }()
			deadline := time.Now().Add(5 * time.Second)
			for !(rk.Migrating() && rk.Clones() > clones) && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(time.Duration(rng.Intn(5)+1) * time.Millisecond)
			doomed.Master().Fail()
			err := <-done
			close(burstStop)
			burstWG.Wait()
			if err == nil {
				t.Fatalf("cycle %d: migration to a dead destination succeeded", cy)
			}
			if got := rk.Aborted(); got != 1 {
				t.Fatalf("cycle %d: aborted = %d, want 1", cy, got)
			}
			if got := pc.RouteTable().Epoch(); got != epoch {
				t.Fatalf("cycle %d: aborted migration advanced epoch %d -> %d", cy, epoch, got)
			}
			continue
		}
		// Healthy cycle: split partition 0 to a fresh sub-cluster, then
		// merge the newcomer back so every cycle starts from two partitions.
		dest := newElasticSubCluster(t, fmt.Sprintf("cy%d", cy))
		if err := r.Split(0, dest); err != nil {
			t.Fatalf("cycle %d split: %v", cy, err)
		}
		fromIdx := len(pc.RouteTable().Partitions()) - 1
		retired, err := r.Merge(fromIdx, 0)
		if err != nil {
			t.Fatalf("cycle %d merge: %v", cy, err)
		}
		retired.Close()
	}
	close(stop)
	wg.Wait()

	t.Logf("workload: %d ok / %d attempts, %d retryable, %d untyped",
		ok.Load(), attempts.Load(), retryable.Load(), len(untyped))
	untypedMu.Lock()
	if len(untyped) > 0 {
		t.Errorf("%d failures were not typed retryable; first: %v", len(untyped), untyped[0])
	}
	untypedMu.Unlock()
	// Goodput floor: migrations cost brief fences and retry rounds, not
	// collapse — the clear majority of statements must succeed.
	if got, tot := ok.Load(), attempts.Load(); tot == 0 || got < tot/2 {
		t.Errorf("goodput collapsed: %d/%d statements succeeded", got, tot)
	}

	// Every acknowledged insert survives every migration: read each key
	// back through a fresh session against the final routing. Wait for
	// replication to quiesce first — a fresh session has no write history,
	// so session consistency would otherwise let it read a slave that has
	// not yet applied the workload's final commits.
	for _, p := range pc.RouteTable().Partitions() {
		testutil.WaitForLag(t, p)
	}
	chk := pc.NewSession("audit")
	defer chk.Close()
	if _, err := chk.Exec("USE app"); err != nil {
		t.Fatal(err)
	}
	ackedMu.Lock()
	defer ackedMu.Unlock()
	for _, k := range acked {
		res, err := chk.Exec("SELECT v FROM kv WHERE k = ?", replication.IntValue(k))
		if err != nil {
			t.Fatalf("audit k=%d: %v", k, err)
		}
		if len(res.Rows) != 1 {
			rt := pc.RouteTable()
			for pi, p := range rt.Partitions() {
				n, _ := p.Master().Engine().RowCount("app", "kv")
				es := p.Master().Engine().NewSession("diag")
				es.Exec("USE app")
				pres, perr := es.Exec("SELECT v FROM kv WHERE k = ?", replication.IntValue(k))
				found := perr == nil && len(pres.Rows) == 1
				t.Logf("  partition %d (%s): %d master rows, master has k=%d: %v, head=%d",
					pi, p.Master().Name(), n, k, found, p.Master().Engine().Binlog().Head())
				for _, sl := range p.Slaves() {
					sn, _ := sl.Engine().RowCount("app", "kv")
					ss := sl.Engine().NewSession("diag")
					ss.Exec("USE app")
					sres, serr := ss.Exec("SELECT v FROM kv WHERE k = ?", replication.IntValue(k))
					sfound := serr == nil && len(sres.Rows) == 1
					slHead := sl.Engine().Binlog().Head()
					t.Logf("    slave %s: %d rows, has k=%d: %v, head=%d",
						sl.Name(), sn, k, sfound, slHead)
					if mh := p.Master().Engine().Binlog().Head(); slHead < mh {
						time.Sleep(100 * time.Millisecond)
						t.Logf("      after 100ms settle: slave head=%d (master %d)",
							sl.Engine().Binlog().Head(), mh)
						evs, _ := p.Master().Engine().Binlog().ReadFrom(slHead, 4)
						for _, ev := range evs {
							t.Logf("      stuck event seq=%d ddl=%v tables=%q",
								ev.Seq, ev.DDL, ev.Tables())
						}
					}
				}
			}
			t.Fatalf("acknowledged insert k=%d: %d rows after elasticity cycles", k, len(res.Rows))
		}
	}
	t.Logf("audit: all %d acknowledged inserts present in final routing", len(acked))
}
