package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/qcache"
	"repro/internal/sqlparse"
)

// normalizedSQL renders a statement text the way the cache keys it.
func normalizedSQL(t *testing.T, sql string) string {
	t.Helper()
	st, err := sqlparse.ParseCached(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.SQL()
}

// TestCachedReadServesFromCache: a repeated eligible read is served from
// the cache with zero backend executions.
func TestCachedReadServesFromCache(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{
		Consistency: SessionConsistent,
		QueryCache:  qc,
	})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b')")
	waitCaughtUp(t, ms)

	const q = "SELECT COUNT(*) FROM items"
	res := mustExecC(t, sess.Exec, q) // miss: fills the cache
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("first read: %v", res.Rows)
	}
	execsBefore := uint64(0)
	for _, r := range append(ms.Slaves(), ms.Master()) {
		execsBefore += r.Execs()
	}
	hitsBefore := qc.Stats().Hits
	for i := 0; i < 10; i++ {
		res = mustExecC(t, sess.Exec, q)
		if res.Rows[0][0].Int() != 2 {
			t.Fatalf("cached read %d: %v", i, res.Rows)
		}
	}
	execsAfter := uint64(0)
	for _, r := range append(ms.Slaves(), ms.Master()) {
		execsAfter += r.Execs()
	}
	if execsAfter != execsBefore {
		t.Fatalf("cache hits executed on a backend: %d -> %d", execsBefore, execsAfter)
	}
	if got := qc.Stats().Hits - hitsBefore; got != 10 {
		t.Fatalf("hits = %d, want 10", got)
	}
}

// TestCachedReadHonorsSessionConsistency is the cache mirror of
// TestPinnedReadHonorsSessionConsistency: a session-consistent read issued
// right after a write must not be served the pre-write cached result, even
// though that entry was perfectly fresh a moment earlier. Degraded slaves
// (whose positions tag slave-filled entries) stay deterministically
// stale through the window.
func TestCachedReadHonorsSessionConsistency(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{Consistency: SessionConsistent, QueryCache: qc})
	degradeSlaves(ms, 50*time.Millisecond)
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	waitCaughtUp(t, ms)

	// Fill the cache with the pre-write result.
	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("pre-write count: %v", res.Rows)
	}

	// Write, then read well inside the slaves' 50 ms apply delay. The
	// cached COUNT=3 entry must be refused (position < last write) and the
	// read routed to a fresh replica.
	mustExecC(t, sess.Exec, "DELETE FROM items WHERE id = 1")
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("session-consistent read served stale cached result: COUNT=%d, want 2", got)
	}

	// The post-write result was cached at the master's position: repeated
	// reads now hit the cache and still see the write.
	hitsBefore := qc.Stats().Hits
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("post-write cached read: %v", res.Rows)
	}
	if qc.Stats().Hits == hitsBefore {
		t.Fatal("post-write read did not hit the refilled cache")
	}

	// A second session of the same user that never wrote must not be
	// served the pre-write entry either: invalidation was synchronous
	// with the first session's ack, and the refilled entry carries the
	// post-write state. (A different user would miss — entries are
	// user-keyed — and may legally read a lagging slave under session
	// consistency, having written nothing.)
	other := ms.NewSession("test")
	defer other.Close()
	other.pool.setDB("shop")
	res = mustExecC(t, other.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("same-user session read pre-write state after ack: %v", res.Rows)
	}
}

// TestCacheInvalidatedBeforeWriteAck asserts the ordering contract
// directly: by the time a write returns to its session, the cache no longer
// serves the pre-write entry to anyone — not even a consistency-free
// lookup with minPos 0.
func TestCacheInvalidatedBeforeWriteAck(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{Consistency: SessionConsistent, QueryCache: qc})
	degradeSlaves(ms, 50*time.Millisecond) // slaves stay stale past the ack
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)

	const q = "SELECT name FROM items WHERE id = 1"
	text := normalizedSQL(t, q)
	mustExecC(t, sess.Exec, q)
	if _, ok := ms.QueryCacheScope().Get("test", "shop", text, nil, 0); !ok {
		t.Fatal("warm-up read did not fill the cache")
	}
	mustExecC(t, sess.Exec, "UPDATE items SET name = 'z' WHERE id = 1")
	// The write has been acknowledged; the pre-write entry must be gone.
	if res, ok := ms.QueryCacheScope().Get("test", "shop", text, nil, 0); ok {
		t.Fatalf("pre-write entry still served after write ack: %v", res.Rows)
	}
}

// TestCachedReadSkipsSerializable: serializable reads take 2PL locks; they
// must bypass the cache in both directions (no hits, no fills).
func TestCachedReadSkipsSerializable(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{
		Consistency: SessionConsistent,
		QueryCache:  qc,
	})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)
	mustExecC(t, sess.Exec, "SET ISOLATION LEVEL SERIALIZABLE")

	puts := qc.Stats().Puts
	hits := qc.Stats().Hits
	for i := 0; i < 3; i++ {
		mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	}
	st := qc.Stats()
	if st.Puts != puts || st.Hits != hits {
		t.Fatalf("serializable reads touched the cache: %+v", st)
	}

	// Dropping back to snapshot re-enables caching.
	mustExecC(t, sess.Exec, "SET ISOLATION LEVEL SNAPSHOT")
	mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if qc.Stats().Puts == puts {
		t.Fatal("snapshot read did not fill the cache")
	}
}

// TestCachedReadsConcurrentWriters runs transfer transactions against
// cached readers under -race: every read must observe a committed state
// (the transfer invariant holds), never a stale-cache artifact newer
// sessions shouldn't see.
func TestCachedReadsConcurrentWriters(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	ms, boot := newMSCluster(t, 2, MasterSlaveConfig{Consistency: SessionConsistent, QueryCache: qc})
	degradeSlaves(ms, 2*time.Millisecond)
	mustExecC(t, boot.Exec, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 25), (2, 'b', 25), (3, 'c', 25), (4, 'd', 25)")
	waitCaughtUp(t, ms)

	const total = 100
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := ms.NewSession(fmt.Sprintf("writer%d", w))
			defer sess.Close()
			if _, err := sess.Exec("USE shop"); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				from, to := 1+(i+w)%4, 1+(i+w+1)%4
				for _, sql := range []string{
					"BEGIN",
					fmt.Sprintf("UPDATE items SET stock = stock - 1 WHERE id = %d", from),
					fmt.Sprintf("UPDATE items SET stock = stock + 1 WHERE id = %d", to),
					"COMMIT",
				} {
					if _, err := sess.Exec(sql); err != nil {
						errs <- fmt.Errorf("%s: %w", sql, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := ms.NewSession(fmt.Sprintf("reader%d", r))
			defer sess.Close()
			if _, err := sess.Exec("USE shop"); err != nil {
				errs <- err
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Exec("SELECT SUM(stock) FROM items")
				if err != nil {
					errs <- err
					return
				}
				if got := res.Rows[0][0].Int(); got != total {
					errs <- fmt.Errorf("read observed torn/stale state: SUM=%d, want %d", got, total)
					return
				}
				// Yield so the slave appliers are not starved of the
				// engine lock by a hot read loop.
				time.Sleep(100 * time.Microsecond)
			}
		}(r)
	}

	go func() {
		time.Sleep(300 * time.Millisecond)
		close(stop)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Deterministic epilogue: once the slaves drain, reads must fill and
	// then hit the cache — and still observe the final committed state.
	waitCaughtUp(t, ms)
	sess := ms.NewSession("post")
	defer sess.Close()
	mustExecC(t, sess.Exec, "USE shop")
	hitsBefore := qc.Stats().Hits
	for i := 0; i < 3; i++ {
		res := mustExecC(t, sess.Exec, "SELECT SUM(stock) FROM items")
		if got := res.Rows[0][0].Int(); got != total {
			t.Fatalf("post-workload read %d: SUM=%d, want %d", i, got, total)
		}
	}
	if qc.Stats().Hits == hitsBefore {
		t.Fatal("post-workload reads never hit the cache")
	}
}

// ---- multi-master ----

// TestMMCachedReadHonorsSessionConsistency: after a certified commit, the
// writing session's next read must not be served the pre-write cached
// result.
func TestMMCachedReadHonorsSessionConsistency(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	mm, sessions := newMMCluster(t, 3, MultiMasterConfig{
		Consistency: SessionConsistent,
		QueryCache:  qc,
	})
	sess := sessions[0]
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b')")
	waitMMCaughtUp(t, mm)

	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("pre-write count: %v", res.Rows)
	}
	mustExecC(t, sess.Exec, "DELETE FROM items WHERE id = 2")
	// Direct probe at no freshness floor: the write-set invalidation
	// happened before the commit was acknowledged, so the old entry is gone
	// for everyone.
	text := normalizedSQL(t, "SELECT COUNT(*) FROM items")
	if _, ok := mm.QueryCacheScope().Get("user0", "shop", text, nil, 0); ok {
		t.Fatal("pre-write entry survived certified commit ack")
	}
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if got := res.Rows[0][0].Int(); got != 1 {
		t.Fatalf("session-consistent read served stale cached result: COUNT=%d, want 1", got)
	}
}

// TestMMDDLFlushesDatabase: DDL has no write set; committing it flushes
// the affected database's cached results before the ack, so a table dropped
// and created again never answers from its old incarnation's entries.
func TestMMDDLFlushesDatabase(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	mm, sessions := newMMCluster(t, 2, MultiMasterConfig{
		Consistency: SessionConsistent,
		QueryCache:  qc,
	})
	sess := sessions[0]
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitMMCaughtUp(t, mm)

	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if got := res.Rows[0][0].Int(); got != 1 {
		t.Fatalf("pre-DDL count: %d", got)
	}
	mustExecC(t, sess.Exec, "DROP TABLE items")
	mustExecC(t, sess.Exec, "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")
	// Direct probe at no freshness floor: the pre-DDL entry is gone, not
	// merely too old for this session.
	text := normalizedSQL(t, "SELECT COUNT(*) FROM items")
	if _, ok := mm.QueryCacheScope().Get("user0", "shop", text, nil, 0); ok {
		t.Fatal("pre-DDL entry survived the DDL ack")
	}
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Fatalf("read after DROP/CREATE served the cached count: COUNT=%d, want 0", got)
	}
}

// TestMMCachedReadsConcurrentWriters: certified writers against
// cached readers under -race, same invariant discipline as the
// master-slave variant.
func TestMMCachedReadsConcurrentWriters(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	mm, sessions := newMMCluster(t, 3, MultiMasterConfig{
		Consistency: SessionConsistent,
		QueryCache:  qc,
	})
	mustExecC(t, sessions[0].Exec, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 50), (2, 'b', 50)")
	waitMMCaughtUp(t, mm)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		sess := sessions[1]
		for i := 0; i < 20; i++ {
			// Single-row certified updates keep the sum invariant per
			// commit pair; write both rows in one transaction so every
			// committed state sums to 100.
			for _, sql := range []string{
				"BEGIN",
				"UPDATE items SET stock = stock - 1 WHERE id = 1",
				"UPDATE items SET stock = stock + 1 WHERE id = 2",
				"COMMIT",
			} {
				if _, err := sess.Exec(sql); err != nil {
					errs <- fmt.Errorf("%s: %w", sql, err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := sessions[2]
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := sess.Exec("SELECT SUM(stock) FROM items")
			if err != nil {
				errs <- err
				return
			}
			if got := res.Rows[0][0].Int(); got != 100 {
				errs <- fmt.Errorf("read observed torn/stale state: SUM=%d, want 100", got)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ---- partitioned ----

// TestPartitionedCachedReads: one shared Cache backs every partition
// without result collisions (scopes), keyed and scattered reads are served
// correctly, and a write through one partition invalidates before its ack.
func TestPartitionedCachedReads(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	parts := make([]*MasterSlave, 3)
	for i := range parts {
		reps := newReplicas(t, 1, ReplicaConfig{Name: fmt.Sprintf("p%d", i)})
		reps[0].name = fmt.Sprintf("p%d-r1", i)
		parts[i] = NewMasterSlave(reps[0], nil, MasterSlaveConfig{
			ReadFromMaster: true,
			Consistency:    SessionConsistent,
			QueryCache:     qc, // shared instance, per-cluster scopes
		})
	}
	pc, err := NewPartitioned(parts, []*PartitionRule{{
		Table: "items", Column: "id", Strategy: HashPartition,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)
	sess := pc.NewSession("test")
	t.Cleanup(sess.Close)
	mustExecC(t, sess.Exec, "CREATE DATABASE shop")
	mustExecC(t, sess.Exec, "USE shop")
	mustExecC(t, sess.Exec, "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")

	var values []string
	for i := 1; i <= 30; i++ {
		values = append(values, fmt.Sprintf("(%d, 'n%02d')", i, i))
	}
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES "+strings.Join(values, ", "))

	// Scatter-gather COUNT: each partition's sub-result caches under its
	// own scope; the merged total must be exact, twice.
	for i := 0; i < 2; i++ {
		res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
		if got := res.Rows[0][0].Int(); got != 30 {
			t.Fatalf("scatter COUNT pass %d = %d, want 30 (scope collision?)", i, got)
		}
	}
	if qc.Stats().Hits == 0 {
		t.Fatal("second scatter pass never hit the cache")
	}

	// Keyed read twice: second serves from the owning partition's scope.
	for i := 0; i < 2; i++ {
		res := mustExecC(t, sess.Exec, "SELECT name FROM items WHERE id = 7")
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "n07" {
			t.Fatalf("keyed read pass %d: %v", i, res.Rows)
		}
	}

	// A write through one partition invalidates before its ack: the next
	// scatter COUNT must see 31.
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (31, 'n31')")
	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if got := res.Rows[0][0].Int(); got != 31 {
		t.Fatalf("post-insert scatter COUNT = %d, want 31", got)
	}
}

// TestTempTableReadsNotCached: a read that names a session's temp table
// neither fills nor hits the cache. Writes to a temp table log no event, so
// a cached count would never be invalidated; and the cache key (user,
// database, text) tells neither two sessions' temp tables of one name
// apart nor a temp table from the permanent table it shadows.
func TestTempTableReadsNotCached(t *testing.T) {
	qc := qcache.New(qcache.Config{})
	ms, first := newMSCluster(t, 0, MasterSlaveConfig{Consistency: SessionConsistent, QueryCache: qc})
	newSession := func() *MSSession {
		s := ms.NewSession("test")
		t.Cleanup(s.Close)
		mustExecC(t, s.Exec, "USE shop")
		return s
	}
	second, third := newSession(), newSession()

	const q = "SELECT COUNT(*) FROM pick"
	mustExecC(t, first.Exec, "CREATE TEMP TABLE pick (id INTEGER PRIMARY KEY)")
	mustExecC(t, first.Exec, "INSERT INTO pick (id) VALUES (1)")
	mustExecC(t, first.Exec, q)
	mustExecC(t, first.Exec, q)
	mustExecC(t, first.Exec, "INSERT INTO pick (id) VALUES (2)")
	if got := mustExecC(t, first.Exec, q).Rows[0][0].Int(); got != 2 {
		t.Errorf("count after a second insert = %d, want 2", got)
	}
	mustExecC(t, second.Exec, "CREATE TEMP TABLE pick (id INTEGER PRIMARY KEY)")
	mustExecC(t, second.Exec, "INSERT INTO pick (id) VALUES (1), (2), (3)")
	if got := mustExecC(t, second.Exec, q).Rows[0][0].Int(); got != 3 {
		t.Errorf("second session's count = %d, want 3 (its own temp table)", got)
	}
	if st := qc.Stats(); st.Hits != 0 || st.Puts != 0 {
		t.Errorf("temp-table reads used the cache: %+v", st)
	}
	// A third session caches a read of a permanent pick; the temp tables
	// that shadow it must not be served that entry.
	mustExecC(t, third.Exec, "CREATE TABLE pick (id INTEGER PRIMARY KEY)")
	mustExecC(t, third.Exec, q)
	if got := mustExecC(t, first.Exec, q).Rows[0][0].Int(); got != 2 {
		t.Errorf("count under a cached permanent table of the same name = %d, want 2", got)
	}
}
