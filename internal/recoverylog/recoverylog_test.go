package recoverylog

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

// updateEvent is a committed single-row UPDATE of d.t, as the binlog
// records it: statement, database, user and write set.
func updateEvent(id int) engine.Event {
	pk := sqltypes.NewInt(int64(id))
	return engine.Event{
		Stmts:    []string{fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", id, id)},
		User:     "app",
		Database: "d",
		WriteSet: &engine.WriteSet{Ops: []engine.WriteOp{{
			Database: "d", Table: "t", Kind: engine.WriteUpdate, PK: pk, HasPK: true,
			Before: sqltypes.Row{pk, sqltypes.Null},
			After:  sqltypes.Row{pk, sqltypes.NewInt(int64(id))},
		}}},
	}
}

func TestAppendAndRead(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		seq, err := l.Append(updateEvent(i))
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("seq = %d, err = %v", seq, err)
		}
	}
	if l.Head() != 5 || l.Len() != 5 {
		t.Fatalf("head=%d len=%d", l.Head(), l.Len())
	}
	out, err := l.ReadFrom(2, 2)
	if err != nil || len(out) != 2 || out[0].Seq != 3 || out[1].Seq != 4 {
		t.Fatalf("read: %+v %v", out, err)
	}
	if out[0].WriteSet == nil || out[0].Database != "d" {
		t.Fatalf("read lost the event's write set or database: %+v", out[0])
	}
	if got, err := l.ReadFrom(5, 0); got != nil || err != nil {
		t.Fatalf("read past head: %v %v", got, err)
	}
}

func TestCheckpoints(t *testing.T) {
	l := New()
	l.Append(updateEvent(1))
	seq := l.Checkpoint("backup-1")
	if seq != 1 {
		t.Fatalf("checkpoint seq = %d", seq)
	}
	l.Append(updateEvent(2))
	l.CheckpointAt("manual", 0)
	got, ok := l.CheckpointSeq("backup-1")
	if !ok || got != 1 {
		t.Fatalf("lookup: %d %v", got, ok)
	}
	names := l.Checkpoints()
	if len(names) != 2 || names[0] != "manual" || names[1] != "backup-1" {
		t.Fatalf("names: %v", names)
	}
}

// TestReadBelowHorizonFails: a read that starts below the compaction
// horizon would silently skip the dropped entries, so it is refused.
func TestReadBelowHorizonFails(t *testing.T) {
	l := New()
	appendN(t, l, 1, 20)
	if err := l.AddCheckpoint("c10", 10, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadFrom(5, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below the horizon: err = %v, want ErrCompacted", err)
	}
	if out, err := l.ReadFrom(10, 0); err != nil || len(out) != 10 || out[0].Seq != 11 {
		t.Fatalf("read at the horizon: %d entries, %v", len(out), err)
	}
}
