package qcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

func res(n int64) *engine.Result {
	return &engine.Result{Columns: []string{"c"}, Rows: []sqltypes.Row{{sqltypes.NewInt(n)}}}
}

func wsEvent(seq uint64, db, table string) engine.Event {
	return engine.Event{
		Seq: seq,
		WriteSet: &engine.WriteSet{Ops: []engine.WriteOp{
			{Database: db, Table: table, Kind: engine.WriteUpdate},
		}},
	}
}

func TestHitMissAndStats(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	if _, ok := s.Get("u", "shop", "SELECT 1", nil, 0); ok {
		t.Fatal("hit on empty cache")
	}
	s.Put("u", "shop", "SELECT 1", nil, []string{"items"}, 5, res(1))
	got, ok := s.Get("u", "shop", "SELECT 1", nil, 0)
	if !ok || got.Rows[0][0].Int() != 1 {
		t.Fatalf("expected hit, got %v %v", got, ok)
	}
	// Different database, different binds: distinct keys.
	if _, ok := s.Get("u", "other", "SELECT 1", nil, 0); ok {
		t.Fatal("cross-database hit")
	}
	if _, ok := s.Get("u", "shop", "SELECT 1", []sqltypes.Value{sqltypes.NewInt(7)}, 0); ok {
		t.Fatal("hit despite different bind values")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Puts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMinPosRejectsStaleEntry(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	s.Put("u", "shop", "q", nil, []string{"items"}, 5, res(1))
	if _, ok := s.Get("u", "shop", "q", nil, 6); ok {
		t.Fatal("entry at pos 5 served to a session requiring pos 6")
	}
	// The entry survives for weaker sessions.
	if _, ok := s.Get("u", "shop", "q", nil, 5); !ok {
		t.Fatal("entry at pos 5 should satisfy minPos 5")
	}
}

func TestTableInvalidation(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	s.Put("u", "shop", "q1", nil, []string{"items"}, 5, res(1))
	s.Put("u", "shop", "q2", nil, []string{"orders"}, 5, res(2))
	s.ApplyEvent(wsEvent(6, "shop", "items"))
	if _, ok := s.Get("u", "shop", "q1", nil, 0); ok {
		t.Fatal("entry survived invalidation of its table")
	}
	if _, ok := s.Get("u", "shop", "q2", nil, 0); !ok {
		t.Fatal("entry on an untouched table was invalidated")
	}
	st := c.Stats()
	if st.InvalidatedEntries != 1 || st.InvalidationEvents != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// A result computed after the write (pos >= 6) is cacheable again.
	s.Put("u", "shop", "q1", nil, []string{"items"}, 6, res(3))
	if got, ok := s.Get("u", "shop", "q1", nil, 0); !ok || got.Rows[0][0].Int() != 3 {
		t.Fatal("post-write refill did not serve")
	}
}

func TestJoinEntryInvalidatedByEitherTable(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	s.Put("u", "shop", "j", nil, []string{"items", "orders"}, 5, res(1))
	s.ApplyEvent(wsEvent(6, "shop", "orders"))
	if _, ok := s.Get("u", "shop", "j", nil, 0); ok {
		t.Fatal("join result survived a write to its second table")
	}
}

func TestDDLFlushesAffectedDatabase(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	s.Put("u", "shop", "q1", nil, []string{"items"}, 5, res(1))
	s.Put("u", "crm", "q2", nil, []string{"leads"}, 5, res(2))
	// Table DDL in shop: only shop entries die.
	s.ApplyEvent(engine.Event{Seq: 6, DDL: true, Database: "shop",
		Stmts: []string{"CREATE TABLE extras (id INTEGER PRIMARY KEY)"}})
	if _, ok := s.Get("u", "shop", "q1", nil, 0); ok {
		t.Fatal("shop entry survived shop DDL")
	}
	if _, ok := s.Get("u", "crm", "q2", nil, 0); !ok {
		t.Fatal("crm entry flushed by shop DDL")
	}
	// DROP DATABASE names its victim explicitly, regardless of the
	// session's current database.
	s.Put("u", "crm", "q2", nil, []string{"leads"}, 7, res(3))
	s.ApplyEvent(engine.Event{Seq: 8, DDL: true, Database: "shop",
		Stmts: []string{"DROP DATABASE crm"}})
	if _, ok := s.Get("u", "crm", "q2", nil, 0); ok {
		t.Fatal("crm entry survived DROP DATABASE crm issued from shop")
	}
}

func TestUnknownFootprintFlushesDatabase(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	s.Put("u", "shop", "q1", nil, []string{"items"}, 5, res(1))
	s.Put("u", "crm", "q2", nil, []string{"leads"}, 5, res(2))
	// A write event whose write set is empty changed no replicated row:
	// nothing is invalidated.
	s.ApplyEvent(engine.Event{Seq: 6, Database: "shop", WriteSet: &engine.WriteSet{}})
	if _, ok := s.Get("u", "shop", "q1", nil, 0); !ok {
		t.Fatal("entry flushed by an event with an empty write set")
	}
	// Table DDL with no database to resolve its unqualified table against:
	// footprint unknown — flush everything.
	s.ApplyEvent(engine.Event{Seq: 7, DDL: true, Database: "",
		Stmts: []string{"CREATE TABLE extras (id INTEGER PRIMARY KEY)"}})
	if _, ok := s.Get("u", "shop", "q1", nil, 0); ok {
		t.Fatal("entry survived an unknown-footprint flush")
	}
	if _, ok := s.Get("u", "crm", "q2", nil, 0); ok {
		t.Fatal("entry survived an unknown-footprint flush")
	}
}

func TestFillRaceRejected(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	// The write at seq 6 invalidates items; a read that computed its
	// result on a replica still at pos 5 must not be inserted afterwards.
	s.ApplyEvent(wsEvent(6, "shop", "items"))
	s.Put("u", "shop", "q", nil, []string{"items"}, 5, res(1))
	if _, ok := s.Get("u", "shop", "q", nil, 0); ok {
		t.Fatal("born-stale entry was inserted (fill race)")
	}
	if st := c.Stats(); st.RejectedPuts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFlushAll(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	s.Put("u", "shop", "q", nil, []string{"items"}, 50, res(1))
	s.FlushAll()
	if _, ok := s.Get("u", "shop", "q", nil, 0); ok {
		t.Fatal("entry survived FlushAll")
	}
	// After the flush the position space restarts: low positions insert.
	s.Put("u", "shop", "q", nil, []string{"items"}, 1, res(2))
	if got, ok := s.Get("u", "shop", "q", nil, 0); !ok || got.Rows[0][0].Int() != 2 {
		t.Fatal("post-flush insert did not serve")
	}
}

func TestScopesIsolateClusters(t *testing.T) {
	c := New(Config{})
	p0, p1 := c.NewScope(), c.NewScope()
	// Two partitions of one table cache different results under the same
	// statement text.
	p0.Put("u", "shop", "q", nil, []string{"items"}, 5, res(10))
	p1.Put("u", "shop", "q", nil, []string{"items"}, 5, res(20))
	if got, _ := p0.Get("u", "shop", "q", nil, 0); got.Rows[0][0].Int() != 10 {
		t.Fatal("scope 0 served scope 1's result")
	}
	if got, _ := p1.Get("u", "shop", "q", nil, 0); got.Rows[0][0].Int() != 20 {
		t.Fatal("scope 1 served scope 0's result")
	}
	// Invalidation in one scope leaves the other alone.
	p0.ApplyEvent(wsEvent(6, "shop", "items"))
	if _, ok := p0.Get("u", "shop", "q", nil, 0); ok {
		t.Fatal("scope 0 entry survived its invalidation")
	}
	if _, ok := p1.Get("u", "shop", "q", nil, 0); !ok {
		t.Fatal("scope 1 entry hit by scope 0 invalidation")
	}
}

func TestLRUBound(t *testing.T) {
	c := New(Config{MaxEntries: shardCount}) // one entry per shard
	s := c.NewScope()
	for i := 0; i < 10*shardCount; i++ {
		s.Put("u", "shop", fmt.Sprintf("q%d", i), nil, []string{"items"}, 1, res(int64(i)))
	}
	if n := c.Len(); n > shardCount {
		t.Fatalf("cache exceeded its bound: %d entries", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

func TestOversizedResultNotCached(t *testing.T) {
	c := New(Config{MaxRows: 2})
	s := c.NewScope()
	big := &engine.Result{Rows: []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}, {sqltypes.NewInt(3)}}}
	s.Put("u", "shop", "q", nil, []string{"items"}, 1, big)
	if _, ok := s.Get("u", "shop", "q", nil, 0); ok {
		t.Fatal("oversized result was cached")
	}
}

// TestConcurrentUse exercises gets, puts, invalidations and flushes from
// many goroutines; run under -race it is the cache's thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	c := New(Config{MaxEntries: 256})
	s := c.NewScope()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("q%d", i%32)
				switch i % 5 {
				case 0:
					s.Put("u", "shop", key, nil, []string{"items"}, uint64(i), res(int64(i)))
				case 1, 2, 3:
					s.Get("u", "shop", key, nil, 0)
				case 4:
					if i%100 == 4 && g == 0 {
						s.FlushAll()
					} else {
						s.ApplyEvent(wsEvent(uint64(i), "shop", "items"))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUsersDoNotShareEntries: the user is part of the key, so a cache hit
// can never hand one user a result another user's authorization produced —
// a user without grants misses and pays the backend's access check.
func TestUsersDoNotShareEntries(t *testing.T) {
	c := New(Config{})
	s := c.NewScope()
	s.Put("alice", "shop", "q", nil, []string{"items"}, 5, res(1))
	if _, ok := s.Get("bob", "shop", "q", nil, 0); ok {
		t.Fatal("bob was served alice's cached result (authorization bypass)")
	}
	if _, ok := s.Get("alice", "shop", "q", nil, 0); !ok {
		t.Fatal("alice's own entry did not serve")
	}
}
