// Package engine implements an in-memory multi-database SQL engine: the
// RDBMS substrate under the replication middleware.
//
// It deliberately models the engine-level behaviours §4.1–§4.2 of the paper
// identifies as replication hazards:
//
//   - multiple database instances per engine, with cross-database statements
//     and triggers (§4.1.1);
//   - several isolation levels — read committed (the production default),
//     snapshot isolation via MVCC, and serializable via table-level 2PL —
//     selectable per session (§4.1.2);
//   - vendor behaviour profiles: whether an error aborts the transaction
//     (PostgreSQL) or not (MySQL), whether snapshot isolation exists at all
//     (Sybase), temp-table rules (§4.1.2–§4.1.4);
//   - sequences and auto-increment counters that are non-transactional and
//     never roll back (§4.2.3);
//   - write-set capture with the documented blind spots: applying a write
//     set's rows moves no auto-increment counter or sequence (§4.3.2)
//     unless the applier opts in with ApplyOptions.AdvanceCounters;
//   - users/grants kept outside table data so naive backups miss them
//     (§4.1.5).
package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// IsolationLevel selects the concurrency control mode of a session.
type IsolationLevel int

// Supported isolation levels.
const (
	// ReadCommitted reads the latest committed state before each
	// statement. It is the default everywhere in production (§4.1.2).
	ReadCommitted IsolationLevel = iota
	// Snapshot gives each transaction a fixed MVCC snapshot with
	// first-committer-wins write conflicts.
	Snapshot
	// Serializable uses two-phase table-level locking.
	Serializable
)

func (l IsolationLevel) String() string {
	switch l {
	case ReadCommitted:
		return "READ COMMITTED"
	case Snapshot:
		return "SNAPSHOT"
	case Serializable:
		return "SERIALIZABLE"
	}
	return fmt.Sprintf("IsolationLevel(%d)", int(l))
}

// Profile captures the vendor-specific behaviours that §4.1 shows break
// "database-agnostic" middleware.
type Profile struct {
	// Name identifies the profile ("postgres", "mysql", "sybase", ...).
	Name string
	// AbortTxnOnError: when true (PostgreSQL), any statement error poisons
	// the transaction; further statements fail until ROLLBACK. When false
	// (MySQL), the transaction continues (§4.1.2).
	AbortTxnOnError bool
	// SupportsSnapshot: Sybase and older MySQL have no snapshot isolation;
	// SET ISOLATION LEVEL SNAPSHOT fails on such engines (§4.1.2).
	SupportsSnapshot bool
	// TempTablesInTxn: Sybase forbids temporary-table use inside explicit
	// transactions (§4.1.4).
	TempTablesInTxn bool
	// TempTablesDropOnCommit frees temp tables at commit instead of at
	// disconnect (§4.1.4: "other implementations free temporary tables at
	// commit time").
	TempTablesDropOnCommit bool
	// DefaultIsolation is the level a fresh session starts with.
	DefaultIsolation IsolationLevel
}

// Predefined vendor profiles.
var (
	// ProfilePostgres aborts transactions on error and supports SI.
	ProfilePostgres = Profile{Name: "postgres", AbortTxnOnError: true, SupportsSnapshot: true, TempTablesInTxn: true, DefaultIsolation: ReadCommitted}
	// ProfileMySQL continues transactions after errors.
	ProfileMySQL = Profile{Name: "mysql", AbortTxnOnError: false, SupportsSnapshot: true, TempTablesInTxn: true, DefaultIsolation: ReadCommitted}
	// ProfileSybase has no snapshot isolation and forbids temp tables in
	// transactions.
	ProfileSybase = Profile{Name: "sybase", AbortTxnOnError: false, SupportsSnapshot: false, TempTablesInTxn: false, DefaultIsolation: ReadCommitted}
)

// Config parameterizes an Engine.
type Config struct {
	// Profile selects vendor behaviour; zero value behaves like Postgres.
	Profile Profile
	// LockTimeout bounds how long a writer waits for a row lock before
	// giving up — the timeout-based deadlock resolution the paper
	// describes. Zero means 2 s.
	LockTimeout time.Duration
	// RandSeed seeds the engine-local RAND() source. Two replicas given
	// different seeds reproduce the §4.3.2 divergence; same seeds make
	// rand deterministic for tests.
	RandSeed int64
	// Now supplies the clock for now()/current_timestamp; nil means
	// time.Now. Injectable so replicas can disagree about time.
	Now func() time.Time
	// BinlogCapacity bounds the retained binlog; zero keeps everything.
	BinlogCapacity int
	// RequireAuth makes session creation demand a known user (§4.1.5).
	RequireAuth bool
	// ExecCost models per-statement service time spent inside the engine's
	// concurrency scope: shared for parallel read-only statements, exclusive
	// for writes. Zero (the default) executes at memory speed. Benchmarks
	// and tests set it to make lock-model scalability shapes reproducible on
	// a single machine, the same technique ReplicaConfig.ReadCost/WriteCost
	// use one layer up.
	ExecCost time.Duration
}

// Engine is a single replica's database engine: a set of database
// instances plus users, guarded by one reader/writer lock. Write statements
// (DML, DDL, commits, anything that touches lock tables) hold mu
// exclusively; read-only statements — plain SELECT and SHOW under
// non-serializable isolation — hold it shared, so MVCC snapshot scans from
// many sessions proceed in parallel. Serializable sessions stay on the
// exclusive path because their table-level 2PL mutates lock state even for
// reads. Statement execution is short (in-memory) unless Config.ExecCost
// models a service time; the replication layer models additional service
// time outside the engine.
type Engine struct {
	mu        sync.RWMutex
	cfg       Config
	databases map[string]*Database
	users     map[string]*User

	// clock is the logical commit timestamp, incremented at each commit.
	// It is written only under mu held exclusively and may be read under
	// either lock mode.
	clock uint64
	// nextTxnID and nextSess are atomics because transactions and sessions
	// begin on the shared read path too.
	nextTxnID atomic.Uint64
	nextSess  atomic.Int64

	lockWait *sync.Cond // broadcast when any lock is released; waiters hold mu exclusively

	// rngMu guards rng separately from mu: RAND() is legal in read-only
	// statements running on the shared path.
	rngMu  sync.Mutex
	rng    *rand.Rand
	binlog *Binlog

	// movedSeqs names the sequences NEXTVAL advanced since the last
	// committed write set, which publishes their positions (WriteSet.
	// Sequences). Guarded by mu held exclusively, as NEXTVAL is.
	movedSeqs map[seqKey]struct{}
}

// seqKey names a sequence within the engine.
type seqKey struct{ db, name string }

// User is an authentication principal with per-database grants (§4.1.5).
type User struct {
	Name     string
	Password string
	Grants   map[string]bool // database name -> allowed
}

// New creates an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.Profile.Name == "" {
		cfg.Profile = ProfilePostgres
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e := &Engine{
		cfg:       cfg,
		databases: make(map[string]*Database),
		users:     make(map[string]*User),
		rng:       rand.New(rand.NewSource(cfg.RandSeed)),
		binlog:    newBinlog(cfg.BinlogCapacity),
	}
	e.lockWait = sync.NewCond(&e.mu)
	return e
}

// Profile returns the engine's vendor profile.
func (e *Engine) Profile() Profile { return e.cfg.Profile }

// Binlog returns the engine's committed-transaction log.
func (e *Engine) Binlog() *Binlog { return e.binlog }

// CommitTS returns the current logical commit timestamp (the number of
// committed write transactions).
func (e *Engine) CommitTS() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.clock
}

// CreateUser registers an authentication principal.
func (e *Engine) CreateUser(name, password string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.users[name]; ok {
		return fmt.Errorf("engine: user %q already exists", name)
	}
	e.users[name] = &User{Name: name, Password: password, Grants: make(map[string]bool)}
	return nil
}

// SetPassword replaces an existing user's password (operators re-keying a
// daemon principal; a checkpoint restore may have brought the user back
// with an older credential).
func (e *Engine) SetPassword(name, password string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	u, ok := e.users[name]
	if !ok {
		return fmt.Errorf("engine: unknown user %q", name)
	}
	u.Password = password
	return nil
}

// Grant allows user access to database db.
func (e *Engine) Grant(db, user string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	u, ok := e.users[user]
	if !ok {
		return fmt.Errorf("engine: unknown user %q", user)
	}
	u.Grants[db] = true
	return nil
}

// Users returns a copy of the user table (for backup tools that choose to
// capture access control, fixing the §4.1.5 gap).
func (e *Engine) Users() []User {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]User, 0, len(e.users))
	for _, u := range e.users {
		cu := *u
		cu.Grants = make(map[string]bool, len(u.Grants))
		for k, v := range u.Grants {
			cu.Grants[k] = v
		}
		out = append(out, cu)
	}
	return out
}

// Authenticate checks credentials; used by the wire server.
func (e *Engine) Authenticate(user, password string) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.cfg.RequireAuth {
		return nil
	}
	u, ok := e.users[user]
	if !ok || u.Password != password {
		return fmt.Errorf("engine: authentication failed for %q", user)
	}
	return nil
}

// NewSession opens a session for user. When RequireAuth is set, the user
// must exist (the caller should have authenticated already). Sessions can
// be opened concurrently without taking the engine lock.
func (e *Engine) NewSession(user string) *Session {
	return &Session{
		eng:        e,
		id:         e.nextSess.Add(1),
		user:       user,
		iso:        e.cfg.Profile.DefaultIsolation,
		vars:       make(map[string]varEntry),
		tempTables: make(map[string]*Table),
	}
}

// DatabaseNames lists database instances in creation-independent (sorted by
// name at the caller's discretion) order.
func (e *Engine) DatabaseNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.databases))
	for name := range e.databases {
		out = append(out, name)
	}
	return out
}

func (e *Engine) database(name string) (*Database, error) {
	db, ok := e.databases[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown database %q", name)
	}
	return db, nil
}

// nowValue returns the engine clock reading.
func (e *Engine) nowValue() time.Time { return e.cfg.Now() }

// randFloat returns the next engine-local random number. Guarded by rngMu,
// not mu, so RAND() works on the shared read path.
func (e *Engine) randFloat() float64 {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return e.rng.Float64()
}
