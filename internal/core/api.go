package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// Typed sentinels shared by every topology's session implementation. The
// wire server and the database/sql driver classify errors exclusively via
// errors.Is, so request-path errors must wrap one of these (or another
// package sentinel) — enforced by the typederr analyzer (cmd/repllint).

// ErrTxnState is wrapped by transaction-bracket misuse: BEGIN inside an
// open transaction, COMMIT/ROLLBACK without one. Deliberately not
// retryable — retrying cannot fix a client-side sequencing bug.
var ErrTxnState = errors.New("core: invalid transaction state")

// ErrUnsupportedStatement is wrapped when a statement is valid SQL but
// cannot be executed under the cluster's topology or replication mode
// (DDL inside multi-master transactions, scatter aggregates the partition
// router cannot merge, non-literal partition keys). Not retryable: the
// same statement fails the same way every time.
var ErrUnsupportedStatement = errors.New("core: statement not supported on this cluster topology")

// This file defines the unified client API every replication topology
// implements: the Go equivalent of the paper's central practical lesson that
// middleware replication only wins when applications talk to the cluster
// through one standard contract with the topology hidden behind it (§1,
// §4.3). A Cluster hands out Conns; a Conn executes SQL with bind arguments,
// prepares statements, and brackets transactions — identically whether the
// backend is master-slave, multi-master, partitioned or WAN multi-site. The
// wire server and the database/sql driver are written against these
// interfaces only, which is what lets one daemon serve any topology.

// Health is a topology-agnostic snapshot of cluster state.
type Health struct {
	// Topology names the replication design ("master-slave",
	// "multi-master", "partitioned", "wan").
	Topology string
	// Replicas is the total number of backend replicas.
	Replicas int
	// HealthyReplicas is how many of them are currently serving.
	HealthyReplicas int
	// Head is the highest replication position any replica has committed
	// (for partitioned/WAN deployments: the maximum across sub-clusters).
	Head uint64
	// MaxLag is the largest apply backlog (in events) of any replica.
	MaxLag uint64
	// Faults lists replication that has stopped on an error, one entry
	// each (for a WAN: every site→site link an apply error stopped).
	Faults []string
}

// String renders the health snapshot for logs.
func (h Health) String() string {
	s := fmt.Sprintf("%s: %d/%d replicas healthy, head=%d, max-lag=%d",
		h.Topology, h.HealthyReplicas, h.Replicas, h.Head, h.MaxLag)
	for _, f := range h.Faults {
		s += "; " + f
	}
	return s
}

// Cluster is the topology-agnostic cluster handle. All four controllers
// (MasterSlave, MultiMaster, Partitioned, WAN) implement it.
type Cluster interface {
	// NewConn opens a client connection. Conns model driver connections:
	// they are not safe for concurrent use, but any number can be open.
	NewConn(user string) (Conn, error)
	// Authenticate validates credentials against the cluster's backends
	// (the wire server calls it before opening a session).
	Authenticate(user, password string) error
	// Health reports a topology-agnostic state snapshot.
	Health() Health
	// Close shuts down replication machinery.
	Close()
}

// Conn is the uniform client connection contract. Every topology's session
// type implements it with the same semantics database/sql expects:
// placeholder (?) bind arguments, prepared statements, explicit transaction
// brackets, and per-session consistency/isolation announcements.
type Conn interface {
	// Exec parses (through the process-wide statement cache) and routes one
	// statement with optional ? bind arguments.
	Exec(sql string, args ...Value) (*engine.Result, error)
	// Query is Exec for reads; it exists so application code can express
	// intent, and behaves identically (routing is decided by the parsed
	// statement, not the entry point).
	Query(sql string, args ...Value) (*engine.Result, error)
	// ExecStmt routes a pre-parsed statement.
	ExecStmt(st sqlparse.Statement) (*engine.Result, error)
	// ExecStmtArgs routes a pre-parsed statement with bind arguments; this
	// is the prepared-statement hot path.
	ExecStmtArgs(st sqlparse.Statement, args ...Value) (*engine.Result, error)
	// Prepare parses once and returns a reusable handle whose Exec skips
	// parsing entirely.
	Prepare(sql string) (*Stmt, error)
	// Begin/Commit/Rollback bracket an explicit transaction.
	Begin() error
	Commit() error
	Rollback() error
	// SetIsolation announces the session's isolation level ("READ
	// COMMITTED", "SNAPSHOT", "SERIALIZABLE") across every backend the
	// session may touch.
	SetIsolation(level string) error
	// SetConsistency overrides the session's read guarantee (the cluster
	// config provides the default).
	SetConsistency(c Consistency) error
	// Close releases every backend resource the connection holds.
	Close()
}

// Compile-time checks: every topology implements the unified API.
var (
	_ Cluster = (*MasterSlave)(nil)
	_ Cluster = (*MultiMaster)(nil)
	_ Cluster = (*Partitioned)(nil)
	_ Cluster = (*WAN)(nil)

	_ Conn = (*MSSession)(nil)
	_ Conn = (*MMSession)(nil)
	_ Conn = (*PSession)(nil)
	_ Conn = (*WSession)(nil)
)

// Stmt is a prepared statement on a router connection: the AST is parsed
// once and pinned; Exec binds ? arguments and routes without touching the
// parser. Like the connection it came from, a Stmt is not safe for
// concurrent use.
type Stmt struct {
	x   executor
	st  sqlparse.Statement
	sql string
	n   int // number of ? placeholders
}

// newStmt builds a prepared handle executing through x.
func newStmt(x executor, sql string) (*Stmt, error) {
	st, err := sqlparse.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{x: x, st: st, sql: sql, n: sqlparse.CountParams(st)}, nil
}

// NewStmt builds a prepared handle bound to an arbitrary Conn
// implementation. Decorating Conns (history recording, tracing) need it so
// their Prepare can route the statement back through the wrapper instead
// of the wrapped connection.
func NewStmt(c Conn, sql string) (*Stmt, error) { return newStmt(c, sql) }

// Exec routes the prepared statement with the given bind arguments.
func (s *Stmt) Exec(args ...Value) (*engine.Result, error) {
	return s.x.ExecStmtArgs(s.st, args...)
}

// Query is Exec under a read-intent name.
func (s *Stmt) Query(args ...Value) (*engine.Result, error) {
	return s.x.ExecStmtArgs(s.st, args...)
}

// NumInput returns the number of ? placeholders.
func (s *Stmt) NumInput() int { return s.n }

// SQL returns the text the handle was prepared from.
func (s *Stmt) SQL() string { return s.sql }

// Statement exposes the parsed AST (shared and immutable).
func (s *Stmt) Statement() sqlparse.Statement { return s.st }

// Close releases the handle. Router statements hold no backend state, so
// this is a no-op kept for driver symmetry.
func (s *Stmt) Close() {}

// ParseConsistency maps a textual level ("any", "session", "strong") to the
// Consistency enum; DSNs and SET CONSISTENCY use it.
func ParseConsistency(level string) (Consistency, error) {
	switch strings.ToUpper(strings.TrimSpace(level)) {
	case "ANY":
		return ReadAny, nil
	case "SESSION":
		return SessionConsistent, nil
	case "STRONG":
		return StrongConsistent, nil
	}
	return 0, fmt.Errorf("core: unknown consistency level %q (want any, session or strong)", level)
}

// String renders the consistency level as its SET CONSISTENCY keyword.
func (c Consistency) String() string {
	switch c {
	case ReadAny:
		return "ANY"
	case SessionConsistent:
		return "SESSION"
	case StrongConsistent:
		return "STRONG"
	}
	return fmt.Sprintf("Consistency(%d)", int(c))
}

// normalizeIsolation validates and canonicalizes an isolation level name for
// Conn.SetIsolation.
func normalizeIsolation(level string) (string, error) {
	up := strings.ToUpper(strings.TrimSpace(level))
	switch up {
	case "READ COMMITTED", "SNAPSHOT", "SERIALIZABLE":
		return up, nil
	}
	return "", fmt.Errorf("core: unknown isolation level %q", level)
}
