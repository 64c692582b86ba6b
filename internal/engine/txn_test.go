package engine

import (
	"slices"
	"testing"

	"repro/internal/sqltypes"
)

// TestWriteSetTablesAllocs bounds what naming a write set's tables costs: a
// 500-row write to one table builds one name, not 500.
func TestWriteSetTablesAllocs(t *testing.T) {
	ws := &WriteSet{}
	for i := 0; i < 500; i++ {
		ws.Ops = append(ws.Ops, WriteOp{Database: "shop", Table: "items", Kind: WriteInsert,
			PK: sqltypes.NewInt(int64(i)), HasPK: true})
	}
	if got := ws.Tables(); !slices.Equal(got, []string{"shop.items"}) {
		t.Fatalf("Tables() = %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { ws.Tables() }); allocs > 3 {
		t.Fatalf("Tables() of a 500-op one-table write set allocates %.0f times, want <= 3", allocs)
	}
	ws.Ops = append(ws.Ops,
		WriteOp{Database: "shop", Table: "orders", Kind: WriteInsert},
		WriteOp{Database: "crm", Table: "items", Kind: WriteInsert},
		WriteOp{Database: "shop", Table: "items", Kind: WriteInsert})
	if got := ws.Tables(); !slices.Equal(got, []string{"shop.items", "shop.orders", "crm.items"}) {
		t.Fatalf("Tables() = %v, want each table once in first-touch order", got)
	}
}
