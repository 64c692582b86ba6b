// Package qcache is the middleware query result cache: the headline
// read-scaling feature of the C-JDBC/Sequoia lineage the paper describes.
// It stores immutable result sets keyed on (database, normalized read
// statement, bind values) and invalidates them at table granularity from the
// committed write stream (engine.Event.Tables()); DDL and writes whose table
// footprint is unknown flush the affected database.
//
// Consistency model. Every entry is tagged with the replication position the
// producing replica had applied when the result was computed. A lookup passes
// the minimum position its session's read guarantee demands (the session's
// last-write position for session consistency, the cluster head for strong
// consistency) and an entry older than that is a miss — the same rule the
// routers apply when re-validating a pinned replica. Invalidation is
// synchronous with respect to commit acknowledgement: the routers bump the
// affected tables' invalidation positions before a write returns to the
// writing session, so a surviving entry is never staler than the guarantee
// its reader asked for.
//
// Fill race. A read executed on a lagging replica can race a concurrent
// invalidation: the result is computed, the write invalidates, and only then
// does the reader try to insert the now-stale result. Put therefore
// re-validates the entry's position against the current invalidation
// positions and refuses the insert when the entry would be born stale.
//
// Scopes. One Cache (one memory budget) can back several clusters — e.g.
// every partition of a partitioned deployment — but results from different
// clusters must never collide: the partitions of one table hold different
// rows under the same statement text. Each cluster therefore attaches a
// Scope, which namespaces keys and owns the cluster's invalidation state.
package qcache

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sqltypes"
)

// Config sizes a Cache.
type Config struct {
	// MaxEntries bounds the number of cached result sets across all scopes
	// (rounded up to a multiple of the shard count); zero means 4096.
	MaxEntries int
	// MaxRows is the largest result set worth caching; bigger results are
	// not inserted (they would evict many small hot entries for one cold
	// scan). Zero means 4096.
	MaxRows int
}

// shardCount is the number of independent LRU shards, mirroring the
// statement cache: power of two so shard selection is a mask.
const shardCount = 16

// DefaultMaxEntries bounds a cache built from the zero Config.
const DefaultMaxEntries = 4096

// DefaultMaxRows is the per-result row bound of the zero Config.
const DefaultMaxRows = 4096

// Stats are the cache's cumulative counters.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits uint64
	// Misses counts lookups that went to a backend: absent entries plus
	// entries rejected for the caller's consistency requirement.
	Misses uint64
	// Puts counts inserted entries.
	Puts uint64
	// RejectedPuts counts inserts refused because the result was too large
	// or already stale (fill race with a concurrent invalidation).
	RejectedPuts uint64
	// InvalidationEvents counts committed write/DDL events applied to the
	// invalidation state.
	InvalidationEvents uint64
	// InvalidatedEntries counts entries dropped on lookup because a write
	// had invalidated their tables.
	InvalidatedEntries uint64
	// Evictions counts LRU evictions.
	Evictions uint64
	// Flushes counts whole-scope flushes (epoch bumps).
	Flushes uint64
}

// Cache is a sharded, bounded query result cache. Safe for concurrent use.
// Cached *engine.Result values are shared across sessions: they are
// immutable by convention, exactly like the parsed statements the statement
// cache shares.
type Cache struct {
	shards   []qshard
	mask     uint64
	perShard int
	maxRows  int
	scopeIDs atomic.Uint64

	hits         metrics.Counter
	misses       metrics.Counter
	puts         metrics.Counter
	rejectedPuts metrics.Counter
	invalEvents  metrics.Counter
	invalEntries metrics.Counter
	evictions    metrics.Counter
	flushes      metrics.Counter
}

type qshard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used
}

// qentry is one cached result set.
type qentry struct {
	key string
	// tables are the lowercased db-qualified tables the result read.
	tables []string
	// dbs are the distinct lowercased databases of those tables.
	dbs []string
	// pos is the replication position the producing replica had applied
	// when the result was computed (a lower bound on its freshness).
	pos uint64
	// posHi is the producing replica's applied position observed AFTER the
	// result was computed: an upper bound on the state the result reflects.
	// Sessions enforcing monotonic reads advance their read floor to it on
	// a hit, so a later read can never be routed behind this result.
	posHi uint64
	res   *engine.Result
}

// New builds a cache.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxEntries < shardCount {
		cfg.MaxEntries = shardCount
	}
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = DefaultMaxRows
	}
	c := &Cache{
		shards:   make([]qshard, shardCount),
		mask:     shardCount - 1,
		perShard: (cfg.MaxEntries + shardCount - 1) / shardCount,
		maxRows:  cfg.MaxRows,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
	}
	return c
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Puts:               c.puts.Load(),
		RejectedPuts:       c.rejectedPuts.Load(),
		InvalidationEvents: c.invalEvents.Load(),
		InvalidatedEntries: c.invalEntries.Load(),
		Evictions:          c.evictions.Load(),
		Flushes:            c.flushes.Load(),
	}
}

// Len returns the number of cached entries (including entries orphaned by a
// scope flush that the LRU has not recycled yet).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// NewScope attaches a cluster to the cache: an isolated key namespace with
// its own invalidation state sharing the cache's memory budget.
func (c *Cache) NewScope() *Scope {
	return &Scope{
		c:        c,
		id:       c.scopeIDs.Add(1),
		tableSeq: make(map[string]uint64),
		dbSeq:    make(map[string]uint64),
	}
}

// Scope is one cluster's view of a Cache. Safe for concurrent use.
type Scope struct {
	c  *Cache
	id uint64

	mu sync.RWMutex
	// epoch namespaces keys; FlushAll bumps it, instantly orphaning every
	// entry of this scope (the LRU recycles them).
	epoch uint64
	// tableSeq / dbSeq / allSeq record the highest committed write position
	// known to have touched a table, a whole database, or anything at all.
	// An entry is valid only if its position is at least as fresh as every
	// one that applies to it.
	tableSeq map[string]uint64
	dbSeq    map[string]uint64
	allSeq   uint64
}

// key builds the cache key. The statement text is the normalized rendering
// of the parsed AST, so textual variants of one statement share an entry.
// The user is part of the key: an entry is only ever served to the user
// whose own (authorized) backend execution produced it, so a cache hit can
// never bypass the engine's access checks — grants are only ever added, so
// fill-time authorization stays valid for the entry's lifetime.
func (s *Scope) key(epoch uint64, user, db, stmt string, binds []sqltypes.Value) string {
	var b strings.Builder
	b.Grow(len(user) + len(db) + len(stmt) + 32)
	b.WriteString("s")
	b.WriteString(strconv.FormatUint(s.id, 10))
	b.WriteString(".e")
	b.WriteString(strconv.FormatUint(epoch, 10))
	b.WriteString("|")
	b.WriteString(user)
	b.WriteString("|")
	b.WriteString(strings.ToLower(db))
	b.WriteString("|")
	b.WriteString(stmt)
	for _, v := range binds {
		b.WriteString("|")
		b.WriteString(v.String())
	}
	return b.String()
}

// staleLocked reports whether an entry at pos with the given tables/dbs has
// been invalidated. Caller holds s.mu (read or write).
func (s *Scope) staleLocked(pos uint64, tables, dbs []string) bool {
	if pos < s.allSeq {
		return true
	}
	for _, db := range dbs {
		if pos < s.dbSeq[db] {
			return true
		}
	}
	for _, t := range tables {
		if pos < s.tableSeq[t] {
			return true
		}
	}
	return false
}

// Get looks up a cached result for the given user. minPos is the lowest
// replication position the caller's read guarantee accepts: entries
// produced before it are misses. The returned result is shared and must be
// treated as immutable.
func (s *Scope) Get(user, db, stmt string, binds []sqltypes.Value, minPos uint64) (*engine.Result, bool) {
	res, _, ok := s.GetPos(user, db, stmt, binds, minPos)
	return res, ok
}

// GetPos is Get, additionally returning the upper bound on the replication
// position the cached result reflects (the serving replica's applied
// position right after the fill read). Sessions that guarantee monotonic
// reads advance their read floor to it.
func (s *Scope) GetPos(user, db, stmt string, binds []sqltypes.Value, minPos uint64) (*engine.Result, uint64, bool) {
	s.mu.RLock()
	epoch := s.epoch
	s.mu.RUnlock()
	key := s.key(epoch, user, db, stmt, binds)
	c := s.c
	sh := &c.shards[sqltypes.HashString(key)&c.mask]

	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, 0, false
	}
	e := el.Value.(*qentry)
	sh.mu.Unlock()

	s.mu.RLock()
	stale := s.staleLocked(e.pos, e.tables, e.dbs)
	s.mu.RUnlock()
	if stale {
		sh.mu.Lock()
		if cur, ok := sh.entries[key]; ok && cur == el {
			sh.lru.Remove(el)
			delete(sh.entries, key)
			c.invalEntries.Inc()
		}
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, 0, false
	}
	if e.pos < minPos {
		// Too old for this session's guarantee, but still the freshest
		// committed state for the entry's tables — keep it for sessions
		// with weaker requirements.
		c.misses.Inc()
		return nil, 0, false
	}
	sh.mu.Lock()
	if cur, ok := sh.entries[key]; ok && cur == el {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	c.hits.Inc()
	return e.res, e.posHi, true
}

// Put inserts a result the given user's session produced at replication
// position pos from the given db-qualified tables. The insert is refused
// when the result is too large or when a concurrent invalidation has
// already outpaced pos (fill race).
func (s *Scope) Put(user, db, stmt string, binds []sqltypes.Value, tables []string, pos uint64, res *engine.Result) {
	s.PutAt(user, db, stmt, binds, tables, pos, pos, res)
}

// PutAt is Put with the freshness bounds split: pos is the sound lower
// bound used for invalidation and minimum-position checks (the replica's
// applied position BEFORE the fill read), posHi the upper bound on the
// state the result can reflect (applied position AFTER it), handed back by
// GetPos for monotonic-read floors.
func (s *Scope) PutAt(user, db, stmt string, binds []sqltypes.Value, tables []string, pos, posHi uint64, res *engine.Result) {
	c := s.c
	if res == nil || len(res.Rows) > c.maxRows {
		c.rejectedPuts.Inc()
		return
	}
	if posHi < pos {
		posHi = pos
	}
	qt := qualifyTables(db, tables)
	dbs := distinctDBs(qt)

	s.mu.RLock()
	epoch := s.epoch
	stale := s.staleLocked(pos, qt, dbs)
	s.mu.RUnlock()
	if stale {
		c.rejectedPuts.Inc()
		return
	}
	key := s.key(epoch, user, db, stmt, binds)
	e := &qentry{key: key, tables: qt, dbs: dbs, pos: pos, posHi: posHi, res: res}

	sh := &c.shards[sqltypes.HashString(key)&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		// Keep the freshest result for the key.
		if el.Value.(*qentry).pos <= pos {
			el.Value = e
		}
		sh.lru.MoveToFront(el)
		c.puts.Inc()
		return
	}
	sh.entries[key] = sh.lru.PushFront(e)
	c.puts.Inc()
	if sh.lru.Len() > c.perShard {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*qentry).key)
		c.evictions.Inc()
	}
}

// ApplyEvent folds one committed binlog event into the invalidation state.
// A DDL event flushes the database(s) it can have touched, or everything
// when no database can be named. Every other event invalidates exactly the
// tables its write set names. An empty write set invalidates nothing: the
// engine logs no event for a commit without ops, and a read that names a
// temp table (whose writes are in no write set) bypasses the cache.
func (s *Scope) ApplyEvent(ev engine.Event) {
	if ev.DDL {
		s.flushEventDBs(ev)
		s.c.invalEvents.Inc()
		return
	}
	if tables := ev.Tables(); len(tables) > 0 {
		s.InvalidateTables(tables, ev.Seq)
	}
}

// flushEventDBs flushes the databases a DDL event can have touched (see
// eventDatabases).
func (s *Scope) flushEventDBs(ev engine.Event) {
	dbs := eventDatabases(ev)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(dbs) == 0 {
		if ev.Seq > s.allSeq {
			s.allSeq = ev.Seq
		}
		return
	}
	for _, db := range dbs {
		if ev.Seq > s.dbSeq[db] {
			s.dbSeq[db] = ev.Seq
		}
	}
}

// InvalidateTables records that the given db-qualified tables were written
// at position seq. Tables without a database qualifier invalidate across
// every database (conservative).
func (s *Scope) InvalidateTables(tables []string, seq uint64) {
	s.mu.Lock()
	for _, t := range tables {
		t = strings.ToLower(t)
		if !strings.Contains(t, ".") {
			if seq > s.allSeq {
				s.allSeq = seq
			}
			continue
		}
		if seq > s.tableSeq[t] {
			s.tableSeq[t] = seq
		}
	}
	s.mu.Unlock()
	s.c.invalEvents.Inc()
}

// FlushDatabase invalidates everything cached from one database as of seq;
// an empty database name flushes the whole scope's contents as of seq.
func (s *Scope) FlushDatabase(db string, seq uint64) {
	s.mu.Lock()
	if db == "" {
		if seq > s.allSeq {
			s.allSeq = seq
		}
	} else {
		db = strings.ToLower(db)
		if seq > s.dbSeq[db] {
			s.dbSeq[db] = seq
		}
	}
	s.mu.Unlock()
	s.c.invalEvents.Inc()
}

// FlushAll instantly orphans every entry of this scope, independent of
// position — used at failover, where the replication position space is
// re-aligned and position comparisons stop being meaningful.
func (s *Scope) FlushAll() {
	s.mu.Lock()
	s.epoch++
	s.tableSeq = make(map[string]uint64)
	s.dbSeq = make(map[string]uint64)
	s.allSeq = 0
	s.mu.Unlock()
	s.c.flushes.Inc()
}

// Cache returns the backing cache (for stats).
func (s *Scope) Cache() *Cache { return s.c }

// qualifyTables lowercases table names and qualifies unqualified ones with
// the session database.
func qualifyTables(db string, tables []string) []string {
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		t = strings.ToLower(t)
		if !strings.Contains(t, ".") && db != "" {
			t = strings.ToLower(db) + "." + t
		}
		out = append(out, t)
	}
	return out
}

// distinctDBs extracts the distinct database prefixes of qualified tables.
func distinctDBs(tables []string) []string {
	var out []string
	for _, t := range tables {
		i := strings.IndexByte(t, '.')
		if i < 0 {
			continue
		}
		db := t[:i]
		dup := false
		for _, d := range out {
			if d == db {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, db)
		}
	}
	return out
}
