package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Statements of the workloads. All are prepared once per connection.
const (
	sqlPointRead = "SELECT id, name, stock FROM kv WHERE id = ?"
	sqlScanRead  = "SELECT id, name, stock FROM scan_t WHERE grp = ? AND stock >= ?"
	sqlUpdate    = "UPDATE kv SET stock = stock - 1 WHERE id = ?"
	sqlSumStock  = "SELECT SUM(stock) FROM kv"
)

const (
	insertBatch = 500
	scanGroups  = 50
	// kvStock is every kv row's initial stock: SUM(stock) falls by one per
	// acknowledged update, which is the invariant checked after a run.
	kvStock = 1_000_000
	// scanStock is every scan_t row's stock. The scan predicate's second
	// bind (the nonce) stays far below it, so it changes the cache key and
	// never the result.
	scanStock = 1_000_000_000
	zipfS     = 1.1
)

// dataset is the size of the loaded tables.
type dataset struct {
	kvRows   int
	scanRows int // a multiple of scanGroups
}

var fullDataset = dataset{kvRows: 100_000, scanRows: 2_000}

func (d dataset) groupRows() int { return d.scanRows / scanGroups }

type tableSpec struct {
	name  string
	rows  int
	stock int64
}

func (d dataset) tables() []tableSpec {
	return []tableSpec{{"kv", d.kvRows, kvStock}, {"scan_t", d.scanRows, scanStock}}
}

func (t tableSpec) ddl() string {
	return "CREATE TABLE " + t.name + " (id INT PRIMARY KEY, grp INT, name VARCHAR, stock INT)"
}

// insertSQL is one multi-row INSERT for ids [lo, hi).
func (t tableSpec) insertSQL(lo, hi int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + t.name + " (id, grp, name, stock) VALUES ")
	for id := lo; id < hi; id++ {
		if id > lo {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%d,'item-%d',%d)", id, id%scanGroups, id, t.stock)
	}
	return b.String()
}

type opKind uint8

const (
	opPointRead opKind = iota
	opScanRead
	opUpdate
)

// op is one generated request: its statement and bind values.
type op struct {
	kind  opKind
	key   int64 // kv id, or scan_t group for opScanRead
	nonce int64 // opScanRead's second bind
}

// workload names one traffic mix. The measured system sees only the ops a
// generator produces for it.
type workload struct {
	name string
	why  string
	// groupCommit makes commit acks wait for the recovery-log fsync.
	groupCommit bool
	// kinds are the statements the workload issues.
	kinds []opKind
	// warmupOps and ladderOps are the fixed operation counts of the set-up's
	// warm-up and of each ladder rung. The warm-up is sized so that a set-up
	// lasts two to three seconds, longer than a scheduler or fsync hiccup;
	// workloads whose operations take milliseconds replay fewer on the
	// ladder, to keep a run inside the driver's budget.
	warmupOps int
	ladderOps int
	next      func(g *generator) op
}

// writes reports whether the workload issues updates, and so whether the
// SUM(stock) invariant is checked after it.
func (w workload) writes() bool {
	for _, k := range w.kinds {
		if k == opUpdate {
			return true
		}
	}
	return false
}

// statements lists the statement texts the workload prepares and executes.
func (w workload) statements() []string {
	out := make([]string, len(w.kinds))
	for i, k := range w.kinds {
		out[i] = opSQL[k]
	}
	return out
}

var workloads = []workload{
	{
		name: "point-read", kinds: []opKind{opPointRead}, warmupOps: 40000, ladderOps: 20000,
		why: "prepared PK lookups, keys uniform over 25x the query cache: driver, wire and router do the work, the engine almost none",
		next: func(g *generator) op {
			return op{kind: opPointRead, key: g.rng.Int63n(int64(g.ds.kvRows))}
		},
	},
	{
		name: "scan-read", kinds: []opKind{opScanRead}, warmupOps: 4500, ladderOps: 2000,
		why: "prepared unindexed 2k-row scans returning 40 rows, never cache hits: engine execution and row encoding do the work, the router little",
		next: func(g *generator) op {
			// The nonce is unique across clients and requests, so no
			// request can hit an entry another one cached.
			return op{kind: opScanRead, key: g.rng.Int63n(scanGroups), nonce: g.n*g.clients + g.client}
		},
	},
	{
		name: "durable-write", kinds: []opKind{opUpdate}, warmupOps: 800, ladderOps: 400, groupCommit: true,
		why: "prepared autocommit updates with acks waiting for fsync: recovery log, group commit, checkpoints and slave shipping do the work",
		next: func(g *generator) op {
			return op{kind: opUpdate, key: g.rng.Int63n(int64(g.ds.kvRows))}
		},
	},
	{
		name: "broker-mixed", kinds: []opKind{opPointRead, opUpdate}, warmupOps: 30000, ladderOps: 20000,
		why: "95% point reads, 5% updates on one connection, Zipf keys that fit the cache: cache hits, invalidation and session freshness work here only",
		next: func(g *generator) op {
			kind := opPointRead
			if g.rng.Intn(100) < 5 {
				kind = opUpdate
			}
			return op{kind: kind, key: int64(g.zipf.Uint64())}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generator produces one client's request stream. The stream is a pure
// function of (workload, dataset, seed, client, clients).
type generator struct {
	w       workload
	ds      dataset
	rng     *rand.Rand
	zipf    *rand.Zipf // keys of broker-mixed
	client  int64
	clients int64
	n       int64 // ops generated so far
}

func newGenerator(w workload, ds dataset, seed int64, client, clients int) *generator {
	// Distinct odd multipliers keep (seed, client) pairs from colliding.
	rng := rand.New(rand.NewSource(seed*2_654_435_761 + int64(client)*40_503 + 1))
	return &generator{
		w: w, ds: ds, rng: rng, client: int64(client), clients: int64(clients),
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(ds.kvRows-1)),
	}
}

func (g *generator) next() op {
	g.n++
	return g.w.next(g)
}
