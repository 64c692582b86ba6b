package core

import (
	"errors"
	"testing"
)

// PR 8 regression tests: request-path errors introduced (or re-wrapped) for
// the typederr analyzer must actually satisfy errors.Is against their
// sentinels, so drivers and the wire layer can classify them.

func TestMMSessionTxnStateSentinel(t *testing.T) {
	_, sessions := newMMCluster(t, 2, MultiMasterConfig{})
	s := sessions[0]

	if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrTxnState) {
		t.Fatalf("COMMIT without txn: got %v, want ErrTxnState", err)
	}
	if _, err := s.Exec("ROLLBACK"); !errors.Is(err, ErrTxnState) {
		t.Fatalf("ROLLBACK without txn: got %v, want ErrTxnState", err)
	}
	mustExecC(t, s.Exec, "BEGIN")
	if _, err := s.Exec("BEGIN"); !errors.Is(err, ErrTxnState) {
		t.Fatalf("nested BEGIN: got %v, want ErrTxnState", err)
	}
	mustExecC(t, s.Exec, "ROLLBACK")
}

func TestMMSessionDDLInTxnSentinel(t *testing.T) {
	_, sessions := newMMCluster(t, 2, MultiMasterConfig{})
	s := sessions[0]
	mustExecC(t, s.Exec, "BEGIN")
	_, err := s.Exec("CREATE TABLE nope (id INTEGER PRIMARY KEY)")
	if !errors.Is(err, ErrUnsupportedStatement) {
		t.Fatalf("DDL inside txn: got %v, want ErrUnsupportedStatement", err)
	}
	mustExecC(t, s.Exec, "ROLLBACK")
}

func TestPartitionedTxnStateSentinel(t *testing.T) {
	_, sess := newPartitioned(t, 2)
	if _, err := sess.Exec("COMMIT"); !errors.Is(err, ErrTxnState) {
		t.Fatalf("COMMIT without txn: got %v, want ErrTxnState", err)
	}
	mustExecC(t, sess.Exec, "BEGIN")
	if _, err := sess.Exec("BEGIN"); !errors.Is(err, ErrTxnState) {
		t.Fatalf("nested BEGIN: got %v, want ErrTxnState", err)
	}
	mustExecC(t, sess.Exec, "ROLLBACK")
}

func TestPartitionedUnsupportedStatementSentinel(t *testing.T) {
	_, sess := newPartitioned(t, 3)
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")

	if _, err := sess.Exec("INSERT INTO items (name) VALUES ('nokey')"); !errors.Is(err, ErrUnsupportedStatement) {
		t.Fatalf("INSERT without partition key: got %v, want ErrUnsupportedStatement", err)
	}
	if _, err := sess.Query("SELECT AVG(id) FROM items"); !errors.Is(err, ErrUnsupportedStatement) {
		t.Fatalf("scattered AVG: got %v, want ErrUnsupportedStatement", err)
	}
	if _, err := sess.Query("SELECT name, COUNT(*) FROM items GROUP BY name"); !errors.Is(err, ErrUnsupportedStatement) {
		t.Fatalf("scattered GROUP BY: got %v, want ErrUnsupportedStatement", err)
	}
}
