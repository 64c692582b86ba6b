package elastic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// tailer applies a batch of source binlog events to the destination. It
// returns how many of the events are fully applied; on error the prefix
// before the failing event is durable, so the caller's cursor stays
// contiguous.
type tailer interface {
	apply(events []engine.Event) (int, error)
}

// cloneTail is the fresh-destination tail: the destination was seeded as a
// full clone at the snapshot position, so source events apply one-for-one
// (one event, one destination commit) and the destination head doubles as
// the resume cursor.
type cloneTail struct {
	dest *core.MasterSlave
}

func (t *cloneTail) apply(events []engine.Event) (int, error) {
	return t.dest.Master().Engine().ApplyEvents(events)
}

// filteredTail is the existing-destination tail: only write-set operations
// on ruled tables whose key falls in the moving buckets are shipped. DDL
// and writes to unruled (fully replicated) tables are skipped — the router
// broadcasts those to the destination directly, and re-applying them here
// would double-apply.
type filteredTail struct {
	dest     *core.MasterSlave
	rule     func(table string) *core.PartitionRule
	nbuckets int
	moving   map[int]bool
	// keyIdx maps "db\x00table" to the partition-key column index in row
	// order, taken from the snapshot schema.
	keyIdx map[string]int
	cursor uint64
}

// copySnapshot bulk-loads the moving buckets' rows from the source
// snapshot into the destination as write-set inserts (binlogged on the
// destination master, so its slaves follow).
func (t *filteredTail) copySnapshot(b *engine.Backup) error {
	eng := t.dest.Master().Engine()
	const chunk = 256
	for _, db := range b.Databases {
		for _, td := range db.Tables {
			rule := t.rule(td.Name)
			if rule == nil {
				continue
			}
			ki, ok := t.keyIdx[tableKey(db.Name, td.Name)]
			if !ok {
				return fmt.Errorf("table %s.%s has no %s column in snapshot schema", db.Name, td.Name, rule.Column)
			}
			pkIdx := -1
			for i, c := range td.Columns {
				if c.PrimaryKey {
					pkIdx = i
					break
				}
			}
			var ws *engine.WriteSet
			flush := func() error {
				if ws == nil || len(ws.Ops) == 0 {
					return nil
				}
				_, err := eng.ApplyEvents([]engine.Event{{WriteSet: ws}})
				ws = nil
				return err
			}
			for _, row := range td.Rows {
				if ki >= len(row) {
					return fmt.Errorf("row of %s.%s shorter than key index %d", db.Name, td.Name, ki)
				}
				bk, err := rule.BucketFor(row[ki], t.nbuckets)
				if err != nil {
					return err
				}
				if !t.moving[bk] {
					continue
				}
				op := engine.WriteOp{
					Database: db.Name, Table: td.Name,
					Kind:  engine.WriteInsert,
					After: row.Clone(),
				}
				if pkIdx >= 0 && pkIdx < len(row) {
					op.PK = row[pkIdx]
					op.HasPK = true
				}
				if ws == nil {
					ws = &engine.WriteSet{}
				}
				ws.Ops = append(ws.Ops, op)
				if len(ws.Ops) >= chunk {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// apply filters each event's write-set down to the moving buckets and
// applies the events with surviving operations to the destination master,
// one commit each. An event left with none is dropped and counts as
// applied, so the returned count is of source events.
func (t *filteredTail) apply(events []engine.Event) (int, error) {
	var kept []engine.Event
	var src []int // src[j] is the index in events of kept[j]
	for i, ev := range events {
		if ev.DDL {
			continue // broadcast reaches the destination directly
		}
		var ws *engine.WriteSet
		for _, op := range ev.WriteSet.Ops {
			rule := t.rule(op.Table)
			if rule == nil {
				continue // unruled tables broadcast; skip
			}
			row := op.After
			if row == nil {
				row = op.Before
			}
			ki, ok := t.keyIdx[tableKey(op.Database, op.Table)]
			if !ok || ki >= len(row) {
				return 0, fmt.Errorf("event %d: cannot locate partition key for %s.%s", ev.Seq, op.Database, op.Table)
			}
			bk, err := rule.BucketFor(row[ki], t.nbuckets)
			if err != nil {
				return 0, err
			}
			if !t.moving[bk] {
				continue
			}
			if ws == nil {
				ws = &engine.WriteSet{}
			}
			ws.Ops = append(ws.Ops, op)
		}
		if ws != nil {
			kept = append(kept, engine.Event{WriteSet: ws, User: ev.User, Database: ev.Database})
			src = append(src, i)
		}
	}
	n, err := t.dest.Master().Engine().ApplyEvents(kept)
	if err != nil {
		return src[n], err
	}
	return len(events), nil
}

func tableKey(db, table string) string { return db + "\x00" + table }

// keyIndexes maps every ruled table in the snapshot to its partition-key
// column index (case-insensitive match against the rule's column).
func keyIndexes(b *engine.Backup, rt *core.RouteTable) map[string]int {
	out := make(map[string]int)
	for _, db := range b.Databases {
		for _, td := range db.Tables {
			rule := rt.Rule(td.Name)
			if rule == nil {
				continue
			}
			for i, c := range td.Columns {
				if equalFold(c.Name, rule.Column) {
					out[tableKey(db.Name, td.Name)] = i
					break
				}
			}
		}
	}
	return out
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
