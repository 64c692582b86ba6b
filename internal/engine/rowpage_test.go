package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// TestRowStorageObjectBudget guards the garbage collector's share of row
// storage: the live heap objects each committed row leaves behind, on a
// master's INSERT path and on a slave's ApplyEvents path. Every replica
// stores every row, and the collector marks every live object on every
// cycle, so the count multiplies with both table size and replica count.
// The row's own data is one object; the storage around it (version chain,
// first version, primary-key index entry) should add next to nothing.
//
// It reads process-wide heap counters, so it must not run in parallel.
func TestRowStorageObjectBudget(t *testing.T) {
	const (
		rows    = 20000
		perStmt = 500
		// Budgets in live objects per row. The INSERT path also keeps each
		// row's VARCHAR value, which the parser allocated; the apply path
		// clones only the row slice and shares the strings.
		insertBudget = 2.2
		applyBudget  = 1.2
	)
	liveObjects := func() uint64 {
		sqlparse.PurgeCache()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	const schema = "CREATE DATABASE d; USE d; CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)"
	master, slave := New(Config{}), New(Config{})
	ms, ss := master.NewSession("app"), slave.NewSession("app")
	defer ms.Close()
	defer ss.Close()
	for _, s := range []*Session{ms, ss} {
		if err := s.ExecScript(schema); err != nil {
			t.Fatal(err)
		}
	}
	from := master.Binlog().Head()

	base := liveObjects()
	var sb strings.Builder
	for i := 0; i < rows; i += perStmt {
		sb.Reset()
		sb.WriteString("INSERT INTO t (id, v) VALUES ")
		for j := i; j < i+perStmt; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'row-%d')", j, j)
		}
		mustExec(t, ms, sb.String())
	}
	perInsert := float64(int64(liveObjects())-int64(base)) / rows

	evs, _ := master.Binlog().ReadFrom(from, 0)
	base = liveObjects()
	if n, err := slave.ApplyEvents(evs); err != nil || n != len(evs) {
		t.Fatalf("apply: %d of %d events: %v", n, len(evs), err)
	}
	perApply := float64(int64(liveObjects())-int64(base)) / rows
	runtime.KeepAlive(master)
	runtime.KeepAlive(slave)
	runtime.KeepAlive(evs)

	if got, err := slave.RowCount("d", "t"); err != nil || got != rows {
		t.Fatalf("slave holds %d rows, want %d (%v)", got, rows, err)
	}
	t.Logf("live objects per row: insert %.2f (budget %.1f), apply %.2f (budget %.1f)",
		perInsert, insertBudget, perApply, applyBudget)
	if perInsert > insertBudget {
		t.Errorf("INSERT path keeps %.2f live objects per row, budget %.1f", perInsert, insertBudget)
	}
	if perApply > applyBudget {
		t.Errorf("ApplyEvents path keeps %.2f live objects per row, budget %.1f", perApply, applyBudget)
	}
}
