// Package sqldriver registers a standard database/sql driver ("repl") that
// speaks the replication wire protocol. This is the reproduction of the
// paper's decisive practical point: middleware replication won in the field
// because applications kept using the standard driver interface (JDBC
// there, database/sql here) while the cluster hid behind it (§1, §4.3).
// Any Go program using database/sql gets stdlib connection pooling,
// prepared statements and transactions against a replicated cluster of any
// topology — master-slave, multi-master or partitioned — with zero
// application changes beyond the DSN.
//
// DSN grammar:
//
//	repl://[user[:password]@]host:port[/database][?option=value...]
//
// Options:
//
//	consistency      any | session | strong — issues SET CONSISTENCY on
//	                 connect, overriding the cluster's default read
//	                 guarantee for this connection's sessions
//	heartbeat        application-level failure-detection interval
//	                 (Go duration, e.g. 250ms; 0 disables — §4.3.4.2)
//	keepalive        per-request read deadline (Go duration)
//	connect_timeout  dial timeout (Go duration)
//	statement_timeout (alias: deadline)
//	                 per-statement deadline — issues SET DEADLINE on
//	                 connect; requests that overrun it (queued or
//	                 executing) fail with a typed retryable error
//	retry_backoff    base for the bounded exponential backoff (with
//	                 jitter) the driver sleeps before surfacing an
//	                 overload/deadline shed as driver.ErrBadConn, so
//	                 pool retries don't hammer a saturated cluster.
//	                 Default 4ms; 0 disables.
//	retry_backoff_max
//	                 backoff ceiling (default 250ms)
//	record           history sink: mem:<name> appends to the process-shared
//	                 in-memory recorder <name> (see internal/history);
//	                 any other value is a file path the history is
//	                 JSON-snapshotted to whenever a pooled connection
//	                 closes. Each pooled connection records as one session.
//	record_table, record_key, record_val
//	                 the key-value schema the recorded workload uses
//	                 (defaults kv/k/v); only valid with record=
//	protocol         binary, the one wire transport (docs/PROTOCOL.md);
//	                 accepted for explicitness, any other value is an error
//
// An option name not listed here is an error.
//
// Example:
//
//	db, err := sql.Open("repl", "repl://app:pw@127.0.0.1:5455/shop?consistency=session")
//
// Prepared statements map to server-side PREPARE/EXEC_STMT handles: the SQL
// text is parsed once at the server and every execution ships only the
// handle id plus bind arguments — the engine's prepared fast path, reachable
// over the wire.
//
// Failover: when the server reports that a connection's backend session has
// become unusable but the cluster survives (e.g. its home replica died and
// a peer was promoted), the driver returns driver.ErrBadConn, so the
// database/sql pool silently discards the connection and retries on a fresh
// one — the application never sees the failure (§4.3.3).
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/sqltypes"
	"repro/internal/wire"
)

func init() {
	sql.Register("repl", &Driver{})
}

// Driver implements driver.Driver for DSNs of the form repl://...
type Driver struct{}

var _ driver.Driver = (*Driver)(nil)

// Open implements driver.Driver.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	cfg, addr, database, consistency, bo, ro, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	cfg.Database = database
	wc, err := wire.Dial(addr, cfg)
	if err != nil {
		if wire.ErrorCode(err) == wire.CodeOverloaded {
			// The server shed this connection at its max-conns limit: back
			// off (per address, shared by the whole pool) before letting
			// database/sql redial, or a flash crowd turns into a dial storm.
			dialFailures.backoff(addr, bo)
		}
		return nil, err
	}
	dialFailures.reset(addr)
	c := &conn{wc: wc, rec: newRecorder(ro), bo: bo}
	if consistency != "" {
		if _, err := wc.Exec("SET CONSISTENCY " + strings.ToUpper(consistency)); err != nil {
			wc.Close()
			return nil, fmt.Errorf("sqldriver: set consistency: %w", err)
		}
	}
	if cfg.StatementTimeout > 0 {
		if _, err := wc.Exec(fmt.Sprintf("SET DEADLINE '%s'", cfg.StatementTimeout)); err != nil {
			wc.Close()
			return nil, fmt.Errorf("sqldriver: set deadline: %w", err)
		}
	}
	return c, nil
}

// backoffOpts is the driver-side retry backoff configuration.
type backoffOpts struct {
	base time.Duration // 0 disables backoff
	max  time.Duration
}

// sleep blocks for the bounded, jittered exponential backoff after the
// given number of consecutive shed requests (0 = first failure).
func (b backoffOpts) sleep(fails int) {
	if b.base <= 0 {
		return
	}
	if fails > 16 {
		fails = 16 // 2^16 × base saturates any sane ceiling
	}
	d := b.base << uint(fails)
	if d > b.max || d <= 0 {
		d = b.max
	}
	// Full jitter in [d/2, d]: concurrent shed clients decorrelate instead
	// of retrying in lockstep against the same saturated cluster.
	half := d / 2
	d = half + time.Duration(rand.Int63n(int64(half)+1))
	time.Sleep(d)
}

// addrBackoff tracks consecutive connection-level sheds per server address,
// shared across the process so every pool hitting one saturated server
// backs off together.
type addrBackoff struct {
	mu    sync.Mutex
	fails map[string]int
}

var dialFailures = &addrBackoff{fails: make(map[string]int)}

func (a *addrBackoff) backoff(addr string, bo backoffOpts) {
	a.mu.Lock()
	n := a.fails[addr]
	a.fails[addr] = n + 1
	a.mu.Unlock()
	bo.sleep(n)
}

func (a *addrBackoff) reset(addr string) {
	a.mu.Lock()
	delete(a.fails, addr)
	a.mu.Unlock()
}

// parseDSN splits a repl:// DSN into the wire driver config, address,
// database, consistency override, backoff and recording options.
func parseDSN(dsn string) (cfg wire.DriverConfig, addr, database, consistency string, bo backoffOpts, ro recordOpts, err error) {
	u, perr := url.Parse(dsn)
	if perr != nil {
		err = fmt.Errorf("sqldriver: bad DSN %q: %w", dsn, perr)
		return
	}
	if u.Scheme != "repl" {
		err = fmt.Errorf("sqldriver: bad DSN %q: scheme must be repl://", dsn)
		return
	}
	if u.Host == "" {
		err = fmt.Errorf("sqldriver: bad DSN %q: missing host:port", dsn)
		return
	}
	addr = u.Host
	database = strings.TrimPrefix(u.Path, "/")
	if u.User != nil {
		cfg.User = u.User.Username()
		cfg.Password, _ = u.User.Password()
	}
	q := u.Query()
	consistency = q.Get("consistency")
	if consistency != "" {
		switch strings.ToLower(consistency) {
		case "any", "session", "strong":
		default:
			err = fmt.Errorf("sqldriver: bad DSN consistency %q (want any, session or strong)", consistency)
			return
		}
	}
	cfg.Protocol = strings.ToLower(q.Get("protocol"))
	if cfg.Protocol != "" && cfg.Protocol != wire.ProtocolBinary {
		err = fmt.Errorf("sqldriver: bad DSN protocol %q (the one transport is binary)", cfg.Protocol)
		return
	}
	bo = backoffOpts{base: 4 * time.Millisecond, max: 250 * time.Millisecond}
	durations := map[string]*time.Duration{
		"heartbeat":         &cfg.HeartbeatInterval,
		"keepalive":         &cfg.KeepAliveTimeout,
		"connect_timeout":   &cfg.ConnectTimeout,
		"statement_timeout": &cfg.StatementTimeout,
		"deadline":          &cfg.StatementTimeout, // alias
		"retry_backoff":     &bo.base,
		"retry_backoff_max": &bo.max,
	}
	for name := range q {
		switch name {
		case "consistency", "protocol", "record", "record_table", "record_key", "record_val":
		default:
			if durations[name] == nil {
				err = fmt.Errorf("sqldriver: bad DSN: unknown option %q", name)
				return
			}
		}
	}
	for name, dst := range durations {
		if v := q.Get(name); v != "" {
			d, derr := time.ParseDuration(v)
			if derr != nil {
				err = fmt.Errorf("sqldriver: bad DSN option %s=%q: %v", name, v, derr)
				return
			}
			*dst = d
		}
	}
	ro, err = parseRecordOpts(q.Get)
	return
}

// conn adapts a wire connection to driver.Conn. database/sql guarantees a
// driver.Conn is used by one goroutine at a time.
type conn struct {
	wc     *wire.Conn
	rec    *recorder // nil unless the DSN asked for history recording
	broken bool
	// bo / fails drive the bounded exponential backoff slept before an
	// overload/deadline shed surfaces as ErrBadConn: database/sql retries
	// ErrBadConn transparently, and without the pause those retries would
	// hammer a cluster that just said it is saturated.
	bo    backoffOpts
	fails int
}

// exec is the recorded round-trip path for text statements: Execer,
// Queryer and BEGIN/COMMIT/ROLLBACK funnel through here. Prepared handles
// keep their server-side fast path and record in stmt with their own SQL
// text.
func (c *conn) exec(query string, vals []sqltypes.Value) (*wire.Response, error) {
	start := history.Now()
	resp, err := c.wc.Exec(query, vals...)
	c.rec.observe(start, query, vals, resp, err)
	if err == nil {
		c.fails = 0
	}
	return resp, err
}

var (
	_ driver.Conn      = (*conn)(nil)
	_ driver.Execer    = (*conn)(nil)
	_ driver.Queryer   = (*conn)(nil)
	_ driver.Pinger    = (*conn)(nil)
	_ driver.Validator = (*conn)(nil)
)

// mapErr converts transport failures and server-reported retryable errors
// to driver.ErrBadConn so the pool discards this connection and retries
// elsewhere; plain statement errors pass through. Overload and deadline
// sheds additionally pay a jittered exponential backoff first — failover
// retries (dead connection / dead home replica) stay immediate, because
// there waiting helps nobody.
func (c *conn) mapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, wire.ErrConnDead) || wire.Retryable(err) {
		switch wire.ErrorCode(err) {
		case wire.CodeOverloaded, wire.CodeDeadline:
			c.bo.sleep(c.fails)
			c.fails++
		}
		c.broken = true
		return driver.ErrBadConn
	}
	return err
}

// Prepare implements driver.Conn with a server-side statement handle.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	st, err := c.wc.Prepare(query)
	if err != nil {
		return nil, c.mapErr(err)
	}
	return &stmt{c: c, st: st, query: query}, nil
}

// Close implements driver.Conn; a recorded connection finalizes its
// session (and file sinks snapshot) before the wire drops.
func (c *conn) Close() error {
	err := c.rec.close()
	c.wc.Close()
	return err
}

// Begin implements driver.Conn.
func (c *conn) Begin() (driver.Tx, error) {
	if _, err := c.exec("BEGIN", nil); err != nil {
		return nil, c.mapErr(err)
	}
	return &tx{c: c}, nil
}

// Exec implements driver.Execer: one round trip, no handle.
func (c *conn) Exec(query string, args []driver.Value) (driver.Result, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	resp, err := c.exec(query, vals)
	if err != nil {
		return nil, c.mapErr(err)
	}
	return result{resp}, nil
}

// Query implements driver.Queryer: one round trip, no handle.
func (c *conn) Query(query string, args []driver.Value) (driver.Rows, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	resp, err := c.exec(query, vals)
	if err != nil {
		return nil, c.mapErr(err)
	}
	return &rows{resp: resp}, nil
}

// Ping implements driver.Pinger. Cancellation is bounded by the wire
// keepalive deadline rather than the context (the wire layer has no
// mid-flight cancellation).
func (c *conn) Ping(_ context.Context) error {
	return c.mapErr(c.wc.Ping())
}

// IsValid implements driver.Validator: a connection that returned
// ErrBadConn is never handed out again.
func (c *conn) IsValid() bool { return !c.broken }

// stmt is a prepared statement backed by a server-side handle. query keeps
// the SQL text so recorded executions can be re-attributed to it.
type stmt struct {
	c     *conn
	st    *wire.Stmt
	query string
}

var _ driver.Stmt = (*stmt)(nil)

// Close implements driver.Stmt.
func (s *stmt) Close() error {
	if s.c.broken {
		return nil // handle died with the connection
	}
	return s.c.mapErr(s.st.Close())
}

// NumInput implements driver.Stmt from the server-reported placeholder
// count, so argument-count mismatches fail client-side.
func (s *stmt) NumInput() int { return s.st.NumInput() }

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	start := history.Now()
	resp, err := s.st.Exec(vals...)
	s.c.rec.observe(start, s.query, vals, resp, err)
	if err != nil {
		return nil, s.c.mapErr(err)
	}
	return result{resp}, nil
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	start := history.Now()
	resp, err := s.st.Exec(vals...)
	s.c.rec.observe(start, s.query, vals, resp, err)
	if err != nil {
		return nil, s.c.mapErr(err)
	}
	return &rows{resp: resp}, nil
}

// tx implements driver.Tx over SQL transaction brackets.
type tx struct{ c *conn }

func (t *tx) Commit() error {
	_, err := t.c.exec("COMMIT", nil)
	return t.c.mapErr(err)
}

func (t *tx) Rollback() error {
	_, err := t.c.exec("ROLLBACK", nil)
	return t.c.mapErr(err)
}

// result implements driver.Result.
type result struct{ resp *wire.Response }

func (r result) LastInsertId() (int64, error) { return r.resp.LastInsertID, nil }
func (r result) RowsAffected() (int64, error) { return r.resp.RowsAffected, nil }

// rows implements driver.Rows over a fully materialized wire response (the
// wire protocol ships complete result sets, like the middleware systems the
// paper surveys).
type rows struct {
	resp *wire.Response
	next int
}

var _ driver.Rows = (*rows)(nil)

func (r *rows) Columns() []string { return r.resp.Columns }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.next >= len(r.resp.Rows) {
		return io.EOF
	}
	row := r.resp.Rows[r.next]
	r.next++
	for i := range dest {
		if i < len(row) {
			dest[i] = fromValue(row[i])
		} else {
			dest[i] = nil
		}
	}
	return nil
}

// toValues converts driver bind arguments to wire values.
func toValues(args []driver.Value) ([]sqltypes.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]sqltypes.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out[i] = sqltypes.Null
		case int64:
			out[i] = sqltypes.NewInt(v)
		case float64:
			out[i] = sqltypes.NewFloat(v)
		case bool:
			out[i] = sqltypes.NewBool(v)
		case string:
			out[i] = sqltypes.NewString(v)
		case []byte:
			out[i] = sqltypes.NewString(string(v))
		case time.Time:
			out[i] = sqltypes.NewTime(v)
		default:
			return nil, fmt.Errorf("sqldriver: unsupported bind argument type %T", a)
		}
	}
	return out, nil
}

// fromValue converts a wire value to its driver representation.
func fromValue(v sqltypes.Value) driver.Value {
	switch v.Kind() {
	case sqltypes.KindNull:
		return nil
	case sqltypes.KindInt:
		return v.Int()
	case sqltypes.KindFloat:
		return v.Float()
	case sqltypes.KindBool:
		return v.Bool()
	case sqltypes.KindTime:
		return v.Time()
	default:
		return v.Str()
	}
}
