// Package wire implements the client/server database protocol: the "DBMS
// native protocol" of the paper's Figures 5–7. A Server fronts anything that
// can open sessions (an engine replica or the replication middleware — the
// protocol is the same, which is what lets middleware interpose
// transparently). The Driver is the client side, with the two failure
// detection modes of §4.3.4.2: TCP-keepalive-style read timeouts (slow) and
// an application-level heartbeat (fast).
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqltypes"
)

// request kinds.
const (
	reqAuth = iota
	reqExec
	reqPing
	reqClose
	// reqPrepare parses SQL once server-side and returns a statement
	// handle id; reqExecStmt executes a handle with fresh bind arguments
	// (no SQL text, no parsing); reqCloseStmt releases a handle. Together
	// they make the engine's prepared fast path reachable from remote
	// clients.
	reqPrepare
	reqExecStmt
	reqCloseStmt
)

// request is one client->server message.
type request struct {
	Kind     int
	SQL      string
	Args     []sqltypes.Value
	User     string
	Password string
	Database string
	// StmtID addresses a server-side prepared statement (EXEC_STMT /
	// CLOSE_STMT).
	StmtID uint64
}

// Error codes carried in Response.Code, classifying server-side failures
// for drivers.
const (
	// CodeOK means no error.
	CodeOK = 0
	// CodeError is a plain statement error; the connection stays usable.
	CodeError = 1
	// CodeRetryable means this connection's backend session has become
	// unusable (e.g. its home replica died) but the cluster may well serve
	// a fresh connection. Pooled drivers map it to driver.ErrBadConn so
	// the pool discards the connection and retries transparently — the
	// application-invisible failover of §4.3.3.
	CodeRetryable = 2
	// CodeOverloaded means admission control shed the request (or the
	// server refused the connection at its -max-conns limit). Retryable:
	// the cluster is healthy, just saturated — back off and try again.
	CodeOverloaded = 3
	// CodeDeadline means the request's statement deadline expired while it
	// was queued or executing. Retryable: a later attempt may find a
	// shorter queue.
	CodeDeadline = 4
)

// Response is one server->client message: the wire form of a statement
// result.
type Response struct {
	Columns      []string
	Rows         []sqltypes.Row
	RowsAffected int64
	LastInsertID int64
	// AtSeq is the replication position the statement's commit landed at
	// (engine.Result.AtSeq over the wire): zero for reads and statements
	// inside a still-open transaction. Client-side history recorders use it
	// to order observed versions without server cooperation.
	AtSeq uint64
	Err   string
	// Code classifies Err (CodeOK, CodeError, CodeRetryable).
	Code int
	// StmtID and NumInput describe the handle a PREPARE created.
	StmtID   uint64
	NumInput int
}

// Err returns the response error, if any.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	return &ServerError{Msg: r.Err, Code: r.Code}
}

// ServerError is a statement error reported by the server, preserving its
// classification code across the wire.
type ServerError struct {
	Msg  string
	Code int
}

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// Retryable reports whether err is a server error that a pooled driver
// should treat as "discard this connection and retry on a fresh one".
func Retryable(err error) bool {
	var se *ServerError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case CodeRetryable, CodeOverloaded, CodeDeadline:
		return true
	}
	return false
}

// ErrorCode extracts a ServerError's classification code; CodeOK when err
// is nil or carries no server classification.
func ErrorCode(err error) int {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Code
	}
	return CodeOK
}

// SessionHandler executes statements for one client connection.
type SessionHandler interface {
	// Exec runs one statement with optional bound parameters.
	Exec(sql string, args []sqltypes.Value) (*Response, error)
	// Close releases the session.
	Close()
}

// StmtHandler is a server-side prepared statement.
type StmtHandler interface {
	// Exec runs the prepared statement with the given bindings.
	Exec(args []sqltypes.Value) (*Response, error)
	// NumInput returns the number of ? placeholders.
	NumInput() int
	// Close releases the handle.
	Close()
}

// Preparer is implemented by session handlers that support server-side
// prepared statements (PREPARE / EXEC_STMT / CLOSE_STMT). Handlers without
// it still serve text Exec; clients get a clean error on PREPARE.
type Preparer interface {
	Prepare(sql string) (StmtHandler, error)
}

// Backend opens sessions for authenticated users. Implemented by engine
// replicas and by the replication middleware.
type Backend interface {
	// Authenticate validates credentials before a session is opened.
	Authenticate(user, password string) error
	// OpenSession creates a session for the user on the given database
	// ("" = none selected yet).
	OpenSession(user, database string) (SessionHandler, error)
}

// Server accepts wire connections and dispatches them to a Backend.
type Server struct {
	backend  Backend
	ln       net.Listener
	maxConns int

	mu       sync.Mutex
	conns    map[net.Conn]bool
	rejected uint64
	closed   bool
	wg       sync.WaitGroup

	// depth is the most requests of one connection the server has held at
	// once: the one executing plus those queued behind it. It stays at 1
	// unless clients pipeline.
	depth atomic.Int64
}

// noteDepth raises the recorded pipeline depth to n.
func (s *Server) noteDepth(n int64) {
	for {
		cur := s.depth.Load()
		if n <= cur || s.depth.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithMaxConns bounds concurrent client connections (0 = unbounded). A
// connection over the limit is refused BEFORE its handshake with a typed
// retryable overload error — a flash crowd costs one short-lived goroutine
// per refusal instead of an unbounded serving goroutine per socket.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// helloTimeout bounds how long a new connection may take to send its hello
// (and, for a refused one, its first frame): a peer that connects and stays
// silent must not hold a serving goroutine and a -max-conns slot forever.
var helloTimeout = 2 * time.Second

// NewServer starts a server on addr ("127.0.0.1:0" picks a free port).
func NewServer(addr string, backend Backend, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{backend: backend, ln: ln, conns: make(map[net.Conn]bool)}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// RejectedConns reports how many connections the -max-conns guard refused.
func (s *Server) RejectedConns() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and closes all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		_ = conn.SetDeadline(time.Now().Add(helloTimeout))
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.rejected++
			s.mu.Unlock()
			go rejectConn(conn, s.maxConns)
			continue
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// overloadedResp is the typed retryable answer the -max-conns guard gives.
func overloadedResp(limit int) *Response {
	return &Response{
		Err:  fmt.Sprintf("wire: server at max-conns limit (%d), try again later", limit),
		Code: CodeOverloaded,
	}
}

// rejectConn answers an over-limit connection's first frame (the auth
// request, or a heartbeat's first ping) with a typed retryable overload
// error, then hangs up. Reading the frame first matters: responding before
// the client writes would race its send and could surface as a bare
// connection reset instead of the typed error. The hello deadline the
// accept loop set bounds both reads.
func rejectConn(conn net.Conn, limit int) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := acceptHello(br, conn); err != nil {
		return
	}
	_, _, id, _, err := newFrameReader(br).readFrame()
	if err != nil {
		return
	}
	fw := newFrameWriter(conn)
	resp := overloadedResp(limit)
	if err := fw.writeFrame(opResult, 0, id, func(b []byte) []byte { return appendResponse(b, resp) }); err != nil {
		return
	}
	_ = fw.flush()
}

// serverSession holds one connection's server-side state — the backend
// session and its prepared-statement handles — and executes requests
// against it.
type serverSession struct {
	backend  Backend
	session  SessionHandler
	stmts    map[uint64]StmtHandler
	nextStmt uint64
}

func newServerSession(backend Backend) *serverSession {
	return &serverSession{backend: backend, stmts: make(map[uint64]StmtHandler)}
}

// handle executes one request and returns its response; ok=false means the
// request kind is unknown and the connection should be dropped (a framing
// or version bug — answering could desynchronize the stream).
func (ss *serverSession) handle(kind int, req *request) (resp *Response, ok bool) {
	switch kind {
	case reqAuth:
		resp = &Response{}
		if err := ss.backend.Authenticate(req.User, req.Password); err != nil {
			resp.Err = err.Error()
			resp.Code = CodeError
		} else {
			sess, err := ss.backend.OpenSession(req.User, req.Database)
			if err != nil {
				resp.Err = err.Error()
				resp.Code = CodeError
			} else {
				ss.session = sess
			}
		}
		return resp, true
	case reqPing:
		return &Response{}, true
	case reqExec:
		if ss.session == nil {
			return &Response{Err: "wire: not authenticated", Code: CodeError}, true
		}
		r, err := ss.session.Exec(req.SQL, req.Args)
		if err != nil {
			return errResponse(err), true
		}
		return r, true
	case reqPrepare:
		switch p := ss.session.(type) {
		case nil:
			return &Response{Err: "wire: not authenticated", Code: CodeError}, true
		case Preparer:
			st, err := p.Prepare(req.SQL)
			if err != nil {
				return errResponse(err), true
			}
			ss.nextStmt++
			ss.stmts[ss.nextStmt] = st
			return &Response{StmtID: ss.nextStmt, NumInput: st.NumInput()}, true
		default:
			return &Response{Err: "wire: backend does not support prepared statements", Code: CodeError}, true
		}
	case reqExecStmt:
		if st, found := ss.stmts[req.StmtID]; found {
			r, err := st.Exec(req.Args)
			if err != nil {
				return errResponse(err), true
			}
			return r, true
		}
		return &Response{Err: fmt.Sprintf("wire: unknown statement handle %d", req.StmtID), Code: CodeError}, true
	case reqCloseStmt:
		if st, found := ss.stmts[req.StmtID]; found {
			delete(ss.stmts, req.StmtID)
			st.Close()
		}
		return &Response{}, true
	default:
		return nil, false
	}
}

func (ss *serverSession) close() {
	for _, st := range ss.stmts {
		st.Close()
	}
	if ss.session != nil {
		ss.session.Close()
	}
}

// serverWindow bounds requests a connection may have queued server-side.
// Combined with the client's own window it caps per-connection memory; a
// client that ignores its window just blocks in the TCP send buffer
// (natural backpressure), it cannot balloon the server.
const serverWindow = 128

// serveConn runs the handshake, then a three-stage per-connection pipeline
// of reader (this goroutine) → executor → writer. Execution stays serial
// per connection — sessions are stateful — but decode, execute and encode
// of consecutive pipelined requests overlap, and the writer coalesces
// bursts of responses into one flush. A peer that does not open with the
// hello within helloTimeout is dropped before any session exists.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	if err := acceptHello(br, conn); err != nil {
		return
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return
	}
	type job struct {
		op  byte
		id  uint32
		req request
	}
	jobs := make(chan job, serverWindow)
	type outFrame struct {
		id   uint32
		resp *Response
	}
	resps := make(chan outFrame, serverWindow)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // executor: owns all session state, strictly serial
		defer wg.Done()
		defer close(resps)
		ss := newServerSession(s.backend)
		defer ss.close()
		var depth int64
		for j := range jobs {
			if n := int64(len(jobs)) + 1; n > depth {
				depth = n
				s.noteDepth(n)
			}
			resp, ok := ss.handle(int(j.op), &j.req)
			if !ok {
				// Unknown op: stop executing. Closing the conn errors the
				// reader out; draining jobs keeps it from blocking on a
				// full channel until it gets there.
				conn.Close()
				for range jobs {
				}
				return
			}
			resps <- outFrame{id: j.id, resp: resp}
		}
	}()
	go func() { // writer: one flush per burst, not per response
		defer wg.Done()
		fw := newFrameWriter(conn)
		for of := range resps {
			err := fw.writeFrame(opResult, 0, of.id, func(b []byte) []byte { return appendResponse(b, of.resp) })
			if err == nil && len(resps) == 0 {
				err = fw.flush()
			}
			if err != nil {
				conn.Close()
				for range resps { // unblock the executor
				}
				return
			}
		}
		_ = fw.flush()
	}()

	fr := newFrameReader(br)
	for {
		op, _, id, payload, err := fr.readFrame()
		if err != nil {
			break
		}
		if op == byte(reqClose) {
			break
		}
		var req request
		if op != byte(reqPing) {
			if err := decodeRequest(payload, &req); err != nil {
				break // corrupt payload: framing is untrustworthy, hang up
			}
		}
		jobs <- job{op: op, id: id, req: req}
	}
	close(jobs)
	wg.Wait()
}

// errResponse wraps a backend error in its wire form, preserving the
// retryable classification when the backend provided one.
func errResponse(err error) *Response {
	resp := &Response{Err: err.Error(), Code: CodeError}
	var se *ServerError
	if errors.As(err, &se) {
		resp.Code = se.Code
	}
	return resp
}

// ---- Client driver ----

// ErrConnDead is returned for calls on a connection whose failure has been
// detected (by heartbeat or timeout).
var ErrConnDead = errors.New("wire: connection is dead")

// ProtocolBinary names the one wire transport, the binary framed protocol
// of docs/PROTOCOL.md. DriverConfig.Protocol accepts it or "".
const ProtocolBinary = "binary"

// DefaultPipelineWindow is the in-flight request cap per connection when
// DriverConfig.PipelineWindow is zero.
const DefaultPipelineWindow = 64

// DriverConfig configures a client connection.
type DriverConfig struct {
	User     string
	Password string
	Database string
	// Protocol names the wire transport: "" or ProtocolBinary, the only
	// one. Any other value fails Dial.
	Protocol string
	// PipelineWindow bounds in-flight pipelined requests per connection;
	// zero means DefaultPipelineWindow. Submitting past the window blocks
	// until a response frees a slot.
	PipelineWindow int
	// ConnectTimeout bounds Dial; zero means 2 s.
	ConnectTimeout time.Duration
	// KeepAliveTimeout is the per-request read deadline, modelling the
	// OS-level TCP keepalive of §4.3.4.2 ("30 seconds to 2 hours").
	// Zero means 30 s, like a typical system default.
	KeepAliveTimeout time.Duration
	// HeartbeatInterval, when non-zero, runs an application-level
	// heartbeat on a second connection; a missed heartbeat kills the
	// main connection immediately, unblocking in-flight calls. This is
	// the driver-level fix the paper calls for.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one heartbeat round trip; zero means
	// 3× HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// StatementTimeout, when non-zero, is announced to the server (SET
	// DEADLINE) by callers that layer session setup over Dial; the wire
	// layer itself does not act on it.
	StatementTimeout time.Duration
}

// Conn is a client connection. Many calls may be in flight at once, matched
// to response frames by request id, with the in-flight count bounded by the
// pipeline window. stateMu guards liveness so the heartbeat can kill a
// connection while calls are blocked.
type Conn struct {
	cfg  DriverConfig
	addr string
	conn net.Conn

	// sendMu serializes frame writes; pendMu guards the pending map and
	// read-deadline arming; window is the in-flight slot semaphore;
	// readerDone closes when the read loop exits (after it has failed
	// every pending call).
	sendMu     sync.Mutex
	fw         *frameWriter
	pendMu     sync.Mutex
	pending    map[uint32]chan *Response
	nextID     uint32
	window     chan struct{}
	readerDone chan struct{}

	stateMu sync.Mutex
	dead    error

	hbConn net.Conn
	hbStop chan struct{}
	hbOnce sync.Once
}

// Dial connects, performs the handshake, and authenticates. A server that
// refuses the hello is a dial error wrapping errHandshakeRejected.
func Dial(addr string, cfg DriverConfig) (*Conn, error) {
	if cfg.Protocol != "" && cfg.Protocol != ProtocolBinary {
		return nil, fmt.Errorf("wire: unknown protocol %q (the one transport is %q)", cfg.Protocol, ProtocolBinary)
	}
	if cfg.ConnectTimeout == 0 {
		cfg.ConnectTimeout = 2 * time.Second
	}
	if cfg.KeepAliveTimeout == 0 {
		cfg.KeepAliveTimeout = 30 * time.Second
	}
	if cfg.PipelineWindow <= 0 {
		cfg.PipelineWindow = DefaultPipelineWindow
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	if err := clientHello(nc, time.Now().Add(cfg.ConnectTimeout)); err != nil {
		nc.Close()
		return nil, err
	}
	c := &Conn{
		cfg:        cfg,
		addr:       addr,
		conn:       nc,
		fw:         newFrameWriter(nc),
		pending:    make(map[uint32]chan *Response),
		window:     make(chan struct{}, cfg.PipelineWindow),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	resp, err := c.roundTrip(request{Kind: reqAuth, User: cfg.User, Password: cfg.Password, Database: cfg.Database})
	if err == nil {
		// Keep the server's classification (e.g. CodeOverloaded from the
		// max-conns guard) so drivers can tell "back off and retry" from
		// "bad credentials".
		err = resp.Error()
	}
	if err == nil && cfg.HeartbeatInterval > 0 {
		err = c.startHeartbeat()
	}
	if err != nil {
		c.conn.Close()
		return nil, err
	}
	return c, nil
}

// readLoop is the connection's single reader: it dispatches response
// frames to pending calls by request id and manages the read deadline (armed
// while anything is in flight, cleared when the connection goes idle). On
// exit it fails every pending call, so no waiter can hang on a dead conn.
func (c *Conn) readLoop() {
	fr := newFrameReader(c.conn)
	for {
		_, _, id, payload, err := fr.readFrame()
		if err != nil {
			c.markDead(err)
			break
		}
		resp := new(Response)
		if err := decodeResponse(payload, resp); err != nil {
			c.markDead(err)
			break
		}
		c.pendMu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		if len(c.pending) == 0 {
			_ = c.conn.SetReadDeadline(time.Time{})
		} else {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.KeepAliveTimeout))
		}
		c.pendMu.Unlock()
		if !ok {
			c.markDead(fmt.Errorf("%w: unmatched response id %d", ErrProtocolDesync, id))
			break
		}
		ch <- resp
	}
	// Closing readerDone BEFORE draining lets submitters distinguish the
	// two orders: a call registered before the close is failed by the
	// drain below; one that arrives after sees readerDone closed under
	// pendMu and aborts without registering. No window for a lost waiter.
	close(c.readerDone)
	c.pendMu.Lock()
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.pendMu.Unlock()
}

// Pending is an in-flight pipelined request. Wait must be called exactly
// once; until then the request occupies one slot of the connection's
// pipeline window.
type Pending struct {
	c  *Conn
	ch chan *Response
}

// submit acquires a window slot, registers the call, and sends its frame.
func (c *Conn) submit(req *request) (*Pending, error) {
	select {
	case c.window <- struct{}{}:
	case <-c.readerDone:
		return nil, c.deadErr()
	}
	ch := make(chan *Response, 1)
	c.pendMu.Lock()
	select {
	case <-c.readerDone:
		c.pendMu.Unlock()
		<-c.window
		return nil, c.deadErr()
	default:
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	// Arm the read deadline before the frame leaves: the read loop owns
	// clearing it, and a response can't arrive before the send below.
	_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.KeepAliveTimeout))
	c.pendMu.Unlock()

	c.sendMu.Lock()
	err := c.fw.writeFrame(byte(req.Kind), 0, id, func(b []byte) []byte { return appendRequest(b, req) })
	if err == nil {
		err = c.fw.flush()
	}
	c.sendMu.Unlock()
	if err != nil {
		c.pendMu.Lock()
		delete(c.pending, id)
		if len(c.pending) == 0 {
			_ = c.conn.SetReadDeadline(time.Time{})
		}
		c.pendMu.Unlock()
		<-c.window
		if errors.Is(err, ErrFrameTooLarge) {
			// The size check fires before any byte is buffered, so the
			// stream is still in sync: surface the typed error and keep
			// the connection alive.
			return nil, err
		}
		c.markDead(err)
		return nil, c.deadErr()
	}
	return &Pending{c: c, ch: ch}, nil
}

// wait blocks for the raw response and releases the window slot.
func (p *Pending) wait() (*Response, error) {
	resp, ok := <-p.ch
	<-p.c.window
	if !ok {
		return nil, p.c.deadErr()
	}
	return resp, nil
}

// Wait blocks for the response. Statement errors surface exactly like
// Exec's: the Response carries them and the error is typed.
func (p *Pending) Wait() (*Response, error) {
	resp, err := p.wait()
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, resp.Error()
	}
	return resp, nil
}

func (c *Conn) roundTrip(req request) (*Response, error) {
	p, err := c.submit(&req)
	if err != nil {
		return nil, err
	}
	return p.wait()
}

// Addr returns the server address this connection targets.
func (c *Conn) Addr() string { return c.addr }

// Exec sends a statement and waits for its result.
func (c *Conn) Exec(sql string, args ...sqltypes.Value) (*Response, error) {
	resp, err := c.roundTrip(request{Kind: reqExec, SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, resp.Error()
	}
	return resp, nil
}

// Prepare creates a server-side prepared statement: the SQL crosses the
// wire and is parsed exactly once; every Exec on the returned handle ships
// only the handle id and the bind arguments.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	resp, err := c.roundTrip(request{Kind: reqPrepare, SQL: sql})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, resp.Error()
	}
	return &Stmt{c: c, id: resp.StmtID, numInput: resp.NumInput}, nil
}

// Stmt is a client handle to a server-side prepared statement.
type Stmt struct {
	c        *Conn
	id       uint64
	numInput int
}

// Exec runs the prepared statement with the given bindings.
func (s *Stmt) Exec(args ...sqltypes.Value) (*Response, error) {
	resp, err := s.c.roundTrip(request{Kind: reqExecStmt, StmtID: s.id, Args: args})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, resp.Error()
	}
	return resp, nil
}

// NumInput returns the number of ? placeholders the statement declares.
func (s *Stmt) NumInput() int { return s.numInput }

// Close releases the server-side handle.
func (s *Stmt) Close() error {
	_, err := s.c.roundTrip(request{Kind: reqCloseStmt, StmtID: s.id})
	return err
}

// Ping checks liveness over the main connection.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(request{Kind: reqPing})
	return err
}

// ExecAsync submits a statement without waiting for its result, pipelining
// it behind whatever is already in flight.
func (c *Conn) ExecAsync(sql string, args ...sqltypes.Value) (*Pending, error) {
	return c.submit(&request{Kind: reqExec, SQL: sql, Args: args})
}

// ExecAsync pipelines an execution of the prepared statement.
func (s *Stmt) ExecAsync(args ...sqltypes.Value) (*Pending, error) {
	return s.c.submit(&request{Kind: reqExecStmt, StmtID: s.id, Args: args})
}

func (c *Conn) deadErr() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.dead
}

// markDead records the first failure cause and closes the socket, which
// unblocks the read loop and every waiting call immediately.
func (c *Conn) markDead(cause error) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.dead == nil {
		// Double-wrap so callers can match both the liveness sentinel and
		// the typed cause (ErrFrameTooLarge, ErrProtocolDesync, ...).
		c.dead = fmt.Errorf("%w: %w", ErrConnDead, cause)
		c.conn.Close()
	}
}

// Close terminates the connection.
func (c *Conn) Close() {
	c.hbOnce.Do(func() {
		if c.hbStop != nil {
			close(c.hbStop)
		}
	})
	c.stateMu.Lock()
	if c.dead == nil {
		_ = c.conn.SetDeadline(time.Now().Add(100 * time.Millisecond))
		c.stateMu.Unlock()
		c.sendMu.Lock()
		_ = c.fw.writeFrame(byte(reqClose), 0, 0, func(b []byte) []byte { return b })
		_ = c.fw.flush()
		c.sendMu.Unlock()
		c.stateMu.Lock()
		if c.dead == nil {
			c.dead = ErrConnDead
		}
	}
	c.stateMu.Unlock()
	c.conn.Close()
	if c.hbConn != nil {
		c.hbConn.Close()
	}
}

// startHeartbeat opens the heartbeat connection and monitors it. It has its
// own socket because the server runs one connection's requests serially: a
// ping queued behind a long statement would declare a healthy server dead.
// The hello and the first ping run here, inside Dial, so a server that
// refuses the heartbeat connection (its max-conns guard) fails Dial with its
// typed error instead of killing the admitted connection a tick later.
func (c *Conn) startHeartbeat() error {
	hb, err := net.DialTimeout("tcp", c.addr, c.cfg.ConnectTimeout)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(c.cfg.ConnectTimeout)
	fw, fr := newFrameWriter(hb), newFrameReader(hb)
	err = clientHello(hb, deadline)
	if err == nil {
		err = heartbeatPing(hb, fw, fr, deadline)
	}
	if err != nil {
		hb.Close()
		return err
	}
	c.hbConn = hb
	c.hbStop = make(chan struct{})
	timeout := c.cfg.HeartbeatTimeout
	if timeout == 0 {
		timeout = 3 * c.cfg.HeartbeatInterval
	}
	go func() {
		ticker := time.NewTicker(c.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-c.hbStop:
				return
			case <-ticker.C:
			}
			if err := heartbeatPing(hb, fw, fr, time.Now().Add(timeout)); err != nil {
				// Heartbeat failed: kill the main connection so blocked
				// calls return promptly (§4.3.4.2).
				c.markDead(fmt.Errorf("heartbeat failed: %w", err))
				return
			}
		}
	}()
	return nil
}

// heartbeatPing sends one ping frame on the heartbeat connection and reads
// its answer by deadline. A refusal comes back as the server's typed error.
func heartbeatPing(hb net.Conn, fw *frameWriter, fr *frameReader, deadline time.Time) error {
	if err := hb.SetDeadline(deadline); err != nil {
		return err
	}
	err := fw.writeFrame(byte(reqPing), 0, 0, func(b []byte) []byte { return b })
	if err == nil {
		err = fw.flush()
	}
	if err != nil {
		return err
	}
	_, _, _, payload, err := fr.readFrame()
	if err != nil {
		return err
	}
	var resp Response
	if err := decodeResponse(payload, &resp); err != nil {
		return err
	}
	return resp.Error()
}
