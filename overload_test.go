// Flash-crowd chaos cell (PR 7): drives the full client path —
// database/sql -> wire -> admission control -> master-slave cluster — at 8x
// the admission capacity with a mid-run master kill, and asserts the
// overload-protection contract: goodput does not collapse, successful
// statements stay bounded by the request deadline, and every failure the
// application sees is a typed retryable error, never a hang or an untyped
// failure.
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

func TestOverloadNoCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("flash-crowd soak; skipped in -short")
	}
	if testutil.RaceEnabled {
		t.Skip("asserts throughput ratios; the race detector's slowdown makes them meaningless")
	}
	seed := int64(1)
	if s := os.Getenv("OVERLOAD_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("OVERLOAD_SEED: %v", err)
		}
		seed = v
	}

	const (
		slots       = 8
		satClients  = slots // phase A: exactly saturates the slots
		crowdFactor = 8     // phase B: 8x more clients than slots
		seedRows    = 128
		deadline    = 500 * time.Millisecond
	)
	adm := replication.NewAdmissionController(replication.AdmissionConfig{
		Slots: slots, Queue: 8 * slots,
	})
	newRep := func(name string) *replication.Replica {
		r := replication.NewReplica(replication.ReplicaConfig{Name: name, Concurrency: 4})
		r.Degrade(2*time.Millisecond, 4*time.Millisecond)
		return r
	}
	master := newRep("m")
	ms := replication.NewMasterSlave(master,
		[]*replication.Replica{newRep("s1"), newRep("s2")},
		replication.MasterSlaveConfig{
			Consistency:         replication.SessionConsistent,
			TransparentFailover: true,
			Admission:           adm,
		})
	t.Cleanup(ms.Close)
	mon := replication.NewMonitor(ms, time.Millisecond)
	mon.Start()
	defer mon.Stop()

	srv, err := wire.NewServer("127.0.0.1:0", &wire.ClusterBackend{Cluster: ms},
		wire.WithMaxConns(4*satClients*crowdFactor))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	stmts := []string{
		"CREATE DATABASE shop",
		"USE shop",
		"CREATE TABLE items (id INTEGER PRIMARY KEY, v INTEGER DEFAULT 0)",
	}
	for i := 0; i < seedRows; i += 32 {
		var vals []string
		for j := i; j < i+32; j++ {
			vals = append(vals, fmt.Sprintf("(%d)", j+1))
		}
		stmts = append(stmts, "INSERT INTO items (id) VALUES "+joinComma(vals))
	}
	testutil.ExecAll(t, ms, stmts...)
	testutil.WaitForLag(t, ms)

	dsn := fmt.Sprintf(
		"repl://app@%s/shop?consistency=session&statement_timeout=%s&retry_backoff=2ms&retry_backoff_max=50ms",
		srv.Addr(), deadline)
	db, err := sql.Open("repl", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(2 * satClients * crowdFactor)
	db.SetMaxIdleConns(2 * satClients * crowdFactor)

	var insertID atomic.Int64
	insertID.Store(1 << 20)
	var untypedMu sync.Mutex
	var untyped []error
	var failures atomic.Int64

	// runPhase hammers the pool with `clients` concurrent workers, ~90/10
	// read/write, for `dur`. It returns the success count and latencies.
	runPhase := func(clients int, dur time.Duration) (int64, []time.Duration) {
		var ok atomic.Int64
		latCh := make(chan []time.Duration, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(c)))
				var lats []time.Duration
				for time.Since(start) < dur {
					var err error
					t0 := time.Now()
					if rng.Intn(10) == 0 {
						_, err = db.Exec("INSERT INTO items (id) VALUES (?)", insertID.Add(1))
					} else {
						var rows *sql.Rows
						rows, err = db.Query("SELECT v FROM items WHERE id = ?", 1+rng.Intn(seedRows))
						if err == nil {
							err = rows.Close()
						}
					}
					if err != nil {
						failures.Add(1)
						if !errors.Is(err, driver.ErrBadConn) {
							untypedMu.Lock()
							untyped = append(untyped, err)
							untypedMu.Unlock()
						}
						continue
					}
					ok.Add(1)
					lats = append(lats, time.Since(t0))
				}
				latCh <- lats
			}(c)
		}
		wg.Wait()
		close(latCh)
		var all []time.Duration
		for l := range latCh {
			all = append(all, l...)
		}
		return ok.Load(), all
	}

	// Phase A: measure saturation throughput with exactly `slots` clients.
	const satDur = 500 * time.Millisecond
	satOps, _ := runPhase(satClients, satDur)
	satRate := float64(satOps) / satDur.Seconds()
	if satOps == 0 {
		t.Fatal("saturation phase produced no completed statements")
	}

	// Phase B: flash crowd at 8x capacity, master killed mid-run.
	const crowdDur = 1500 * time.Millisecond
	killTimer := time.AfterFunc(crowdDur/3, func() { master.Fail() })
	defer killTimer.Stop()
	crowdOps, crowdLats := runPhase(satClients*crowdFactor, crowdDur)
	crowdRate := float64(crowdOps) / crowdDur.Seconds()

	st := adm.Stats()
	t.Logf("saturation: %.0f ops/s; flash crowd: %.0f ops/s goodput, %d failures (all retryable), admission: admitted=%d queued=%d shed=%d expired=%d",
		satRate, crowdRate, failures.Load(), st.Admitted, st.Queued, st.ShedTotal(), st.Expired)

	// Contract 1: goodput under 8x overload stays >= 70% of saturation
	// throughput — overload degrades gracefully instead of collapsing.
	if crowdRate < 0.7*satRate {
		t.Errorf("goodput collapsed: %.0f ops/s under crowd vs %.0f ops/s saturated (floor 70%%)",
			crowdRate, satRate)
	}

	// Contract 2: the deadline bounds successful-statement latency. 2x
	// allows for driver retry-after-shed round trips and scheduler noise;
	// without deadlines queue waits at 8x overload would be unbounded.
	sort.Slice(crowdLats, func(i, j int) bool { return crowdLats[i] < crowdLats[j] })
	if len(crowdLats) == 0 {
		t.Fatal("flash crowd produced no completed statements")
	}
	p99 := crowdLats[len(crowdLats)*99/100]
	if p99 > 2*deadline {
		t.Errorf("success p99 %v exceeds 2x the %v statement deadline", p99, deadline)
	}

	// Contract 3: every failure the application saw was typed retryable
	// (surfaced by the driver as ErrBadConn after its backoff) — no
	// statement failed with an unclassified error and none hung.
	untypedMu.Lock()
	defer untypedMu.Unlock()
	if len(untyped) > 0 {
		t.Errorf("%d failures were not typed retryable; first: %v", len(untyped), untyped[0])
	}
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
