package sqlparse

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/sqltypes"
)

// StatementCache is a sharded, bounded LRU cache of parsed statements keyed
// by SQL text. It removes the per-statement parse from the hot path: the
// middleware routers and the engine's Exec both re-see the same small set of
// statement texts (parameterized workloads, replicated binlog events), so a
// hit returns the shared AST without touching the lexer.
//
// Cached statements are shared across sessions and goroutines, which is safe
// because parsed ASTs are immutable by convention: the executor only reads
// them, parameters are bound at execution time via ?-placeholders, and
// BindParams is copy-on-write. Anything that needs to
// mutate a statement must rebuild it, never edit it in place.
//
// The cache stores syntax, not plans bound to a schema: table and column
// names resolve at execution time, so DDL cannot invalidate an entry into
// wrongness — re-running a cached statement after DROP/CREATE sees the new
// schema (or the new error) exactly as a fresh parse would. This is what
// keeps invalidation trivial; see TestPlanCacheSurvivesDDL in
// internal/engine.
type StatementCache struct {
	shards   []cacheShard
	mask     uint64
	perShard int

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used
}

type cacheEntry struct {
	sql string
	st  Statement
}

// cacheShardCount is the number of independent LRU shards. Power of two so
// shard selection is a mask; 16 keeps lock contention negligible at the
// session counts the benchmarks drive.
const cacheShardCount = 16

// DefaultCacheCapacity bounds the process-wide cache used by ParseCached.
const DefaultCacheCapacity = 4096

// NewStatementCache builds a cache holding at most capacity statements
// (rounded up to a multiple of the shard count).
func NewStatementCache(capacity int) *StatementCache {
	if capacity < cacheShardCount {
		capacity = cacheShardCount
	}
	c := &StatementCache{
		shards:   make([]cacheShard, cacheShardCount),
		mask:     cacheShardCount - 1,
		perShard: (capacity + cacheShardCount - 1) / cacheShardCount,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
	}
	return c
}

// Parse returns the cached statement for sql, parsing and inserting it on a
// miss. Parse errors are returned without being cached.
func (c *StatementCache) Parse(sql string) (Statement, error) {
	sh := &c.shards[sqltypes.HashString(sql)&c.mask]
	sh.mu.Lock()
	if el, ok := sh.entries[sql]; ok {
		sh.lru.MoveToFront(el)
		st := el.Value.(*cacheEntry).st
		sh.mu.Unlock()
		c.hits.Add(1)
		return st, nil
	}
	sh.mu.Unlock()

	// Parse outside the shard lock: concurrent misses on the same text may
	// parse twice, but all callers converge on the first inserted AST.
	c.misses.Add(1)
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[sql]; ok {
		sh.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).st, nil
	}
	sh.entries[sql] = sh.lru.PushFront(&cacheEntry{sql: sql, st: st})
	if sh.lru.Len() > c.perShard {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).sql)
	}
	return st, nil
}

// Get returns the cached statement for sql without parsing on a miss.
func (c *StatementCache) Get(sql string) (Statement, bool) {
	sh := &c.shards[sqltypes.HashString(sql)&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[sql]; ok {
		sh.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).st, true
	}
	return nil, false
}

// Purge empties the cache.
func (c *StatementCache) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]*list.Element)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}

// Len returns the number of cached statements.
func (c *StatementCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns cumulative hit and miss counts.
func (c *StatementCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// defaultCache backs ParseCached: one process-wide cache, which is exactly
// what lets in-process replication reuse ASTs across every replica engine —
// each distinct DDL statement in the binlog is parsed once per process, not
// once per replica per event.
var defaultCache = NewStatementCache(DefaultCacheCapacity)

// ParseCached parses a single SQL statement through the process-wide
// statement cache. The returned AST is shared: treat it as immutable.
func ParseCached(sql string) (Statement, error) {
	return defaultCache.Parse(sql)
}

// CacheStats reports the process-wide cache's hits, misses and current size.
func CacheStats() (hits, misses uint64, size int) {
	h, m := defaultCache.Stats()
	return h, m, defaultCache.Len()
}

// PurgeCache empties the process-wide statement cache (tests use it to force
// reparses; production code never needs to, see the invalidation note on
// StatementCache).
func PurgeCache() {
	defaultCache.Purge()
}
