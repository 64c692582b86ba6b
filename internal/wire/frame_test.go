package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	reqs := []request{
		{},
		{Kind: reqAuth, User: "app", Password: "s3cret", Database: "shop"},
		{Kind: reqExec, SQL: "SELECT * FROM items WHERE id = ?", Args: []sqltypes.Value{
			sqltypes.NewInt(-42),
			sqltypes.NewFloat(3.25),
			sqltypes.NewString("héllo \x00 world"),
			sqltypes.NewBool(true),
			sqltypes.Value{},
			sqltypes.NewTime(time.Unix(1700000000, 123456789)),
		}},
		{Kind: reqExecStmt, StmtID: 1 << 40, Args: []sqltypes.Value{sqltypes.NewInt(7)}},
	}
	for _, in := range reqs {
		b := appendRequest(make([]byte, 0, 128), &in)
		var out request
		if err := decodeRequest(b, &out); err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		out.Kind = in.Kind // travels in the frame header, not the payload
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resps := []Response{
		{},
		{Err: "boom", Code: CodeRetryable},
		{StmtID: 9, NumInput: 3},
		{
			Columns:      []string{"id", "name"},
			Rows:         []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewString("x")}, {sqltypes.NewInt(2), sqltypes.Value{}}},
			RowsAffected: -1,
			LastInsertID: 12345,
			AtSeq:        1 << 50,
		},
	}
	for _, in := range resps {
		b := appendResponse(make([]byte, 0, 128), &in)
		var out Response
		if err := decodeResponse(b, &out); err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	}
}

// TestCorruptPayloadsError feeds systematically truncated and corrupted
// payloads to both decoders: every one must produce a typed error, never a
// panic and never a huge allocation.
func TestCorruptPayloadsError(t *testing.T) {
	req := request{Kind: reqExec, SQL: "SELECT 1", User: "u", Args: []sqltypes.Value{sqltypes.NewString("abc"), sqltypes.NewInt(5)}}
	rb := appendRequest(nil, &req)
	for i := 0; i < len(rb); i++ {
		var out request
		if err := decodeRequest(rb[:i], &out); err != nil && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("truncated request at %d: untyped error %v", i, err)
		}
	}
	resp := Response{Columns: []string{"a"}, Rows: []sqltypes.Row{{sqltypes.NewInt(1)}}}
	pb := appendResponse(nil, &resp)
	for i := 0; i < len(pb); i++ {
		var out Response
		if err := decodeResponse(pb[:i], &out); err != nil && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("truncated response at %d: untyped error %v", i, err)
		}
	}
	// A count field claiming more elements than bytes remain must be
	// rejected before any allocation is sized by it.
	huge := binary.AppendUvarint(nil, 1<<40) // "args count = 2^40"
	var out request
	err := decodeRequest(append(appendString(appendString(appendString(appendString(nil, "sql"), "u"), "p"), "db"), append([]byte{0}, huge...)...), &out)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized count: err = %v, want ErrFrameCorrupt", err)
	}
}

// TestServerEnforcesMaxFrameSize sends a frame header with a corrupt
// multi-gigabyte length prefix after a valid handshake: the server must
// hang up without attempting the allocation (the regression this PR's
// bugfix satellite exists for).
func TestServerEnforcesMaxFrameSize(t *testing.T) {
	srv, _ := newServer(t)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := clientHello(nc, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xFFFFFFF0) // ~4 GiB payload
	hdr[4] = byte(reqPing)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server answered a frame with a 4 GiB length prefix; want hangup")
	}
}

// TestClientEnforcesMaxFrameSize runs a fake server that completes the
// handshake, then answers the auth frame with an oversized length prefix:
// the client must fail with a typed ErrFrameTooLarge (wrapped in the
// connection-death error), not attempt the allocation.
func TestClientEnforcesMaxFrameSize(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if err := acceptHello(br, conn); err != nil {
			return
		}
		fr := newFrameReader(br)
		_, _, id, _, err := fr.readFrame() // the auth frame
		if err != nil {
			return
		}
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 0xFFFFFFF0)
		hdr[4] = opResult
		binary.LittleEndian.PutUint32(hdr[6:10], id)
		_, _ = conn.Write(hdr[:])
		_, _ = io.Copy(io.Discard, conn)
	}()
	_, err = Dial(ln.Addr().String(), DriverConfig{User: "app"})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestClientRejectsOversizedRequest: the limit binds on the way out too — a
// request that would exceed MaxFrameSize fails client-side with the typed
// error instead of being written and desynchronizing the server.
func TestClientRejectsOversizedRequest(t *testing.T) {
	srv, _ := newServer(t)
	c, err := Dial(srv.Addr(), DriverConfig{User: "app", Database: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("INSERT INTO items (name) VALUES (?)", sqltypes.NewString(strings.Repeat("x", MaxFrameSize+1)))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// The size check fires before any byte leaves, so the connection
	// survives the refused request.
	if _, err := c.Exec("SELECT COUNT(*) FROM items"); err != nil {
		t.Fatalf("conn unusable after refused oversized request: %v", err)
	}
}

// TestProtocolDesyncDetected: a response id that matches nothing in flight
// must kill the connection with the typed desync error (the invariant the
// wire-soak job asserts at 10k connections).
func TestProtocolDesyncDetected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if err := acceptHello(br, conn); err != nil {
			return
		}
		fr := newFrameReader(br)
		_, _, id, _, err := fr.readFrame()
		if err != nil {
			return
		}
		fw := newFrameWriter(conn)
		resp := &Response{}
		// Answer with a wrong id.
		_ = fw.writeFrame(opResult, 0, id+1000, func(b []byte) []byte { return appendResponse(b, resp) })
		_ = fw.flush()
		_, _ = io.Copy(io.Discard, conn)
	}()
	_, err = Dial(ln.Addr().String(), DriverConfig{User: "app"})
	if !errors.Is(err, ErrProtocolDesync) {
		t.Fatalf("err = %v, want ErrProtocolDesync", err)
	}
}

// recordingBackend counts sessions opened, so a test can show a refused
// peer never got one.
type recordingBackend struct {
	Backend
	opened atomic.Int32
}

func (b *recordingBackend) OpenSession(user, database string) (SessionHandler, error) {
	b.opened.Add(1)
	return b.Backend.OpenSession(user, database)
}

// TestPreBinaryPeerRefused: one wire protocol, no fallback. A client that
// opens with a gob-encoded request (what clients spoke before the binary
// protocol) is dropped before any session is opened; a server that hangs
// up on the hello fails Dial at once with errHandshakeRejected, not after
// ConnectTimeout.
func TestPreBinaryPeerRefused(t *testing.T) {
	t.Run("gob-client", func(t *testing.T) {
		_, e := newServer(t)
		backend := &recordingBackend{Backend: &EngineBackend{Engine: e}}
		srv, err := NewServer("127.0.0.1:0", backend)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		type gobRequest struct {
			Kind     int
			User     string
			Database string
		}
		if err := gob.NewEncoder(nc).Encode(gobRequest{Kind: reqAuth, User: "app", Database: "shop"}); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		// A hangup shows as EOF, or as a reset when the server left the
		// rest of the gob message unread; a timeout means it kept the
		// connection open.
		n, err := io.Copy(io.Discard, nc)
		var ne net.Error
		if n != 0 || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("server answered a gob request (%d bytes, err %v); want a silent hangup", n, err)
		}
		if got := backend.opened.Load(); got != 0 {
			t.Fatalf("%d sessions opened for a gob client, want 0", got)
		}
		// The listener still serves binary clients, through the same backend.
		c, err := Dial(srv.Addr(), DriverConfig{User: "app", Database: "shop"})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if got := backend.opened.Load(); got != 1 {
			t.Fatalf("%d sessions opened for one binary client, want 1", got)
		}
	})

	t.Run("hangup-on-hello", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var hello [5]byte
			_, _ = io.ReadFull(conn, hello[:])
			conn.Close()
		}()
		const connectTimeout = 5 * time.Second
		start := time.Now()
		_, err = Dial(ln.Addr().String(), DriverConfig{User: "app", ConnectTimeout: connectTimeout})
		elapsed := time.Since(start)
		if !errors.Is(err, errHandshakeRejected) {
			t.Fatalf("err = %v, want errHandshakeRejected", err)
		}
		if elapsed > connectTimeout/2 {
			t.Fatalf("refusal took %v; a hangup must fail Dial at once, not at ConnectTimeout (%v)", elapsed, connectTimeout)
		}
	})
}

// TestPipelinedConcurrentCallers hammers ONE binary connection from many
// goroutines: responses must be matched to their calls by request id (a
// cross-wired response would return the wrong row and fail the value
// check).
func TestPipelinedConcurrentCallers(t *testing.T) {
	srv, _ := newServer(t)
	c, err := Dial(srv.Addr(), DriverConfig{User: "app", Database: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	for i := 1; i <= n; i++ {
		if _, err := c.Exec("INSERT INTO items (name) VALUES (?)", sqltypes.NewString(fmt.Sprintf("name-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Prepare("SELECT name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := (g*100+i)%n + 1
				out, err := st.Exec(sqltypes.NewInt(int64(id)))
				if err != nil {
					errCh <- err
					return
				}
				want := fmt.Sprintf("name-%d", id)
				if len(out.Rows) != 1 || out.Rows[0][0].Str() != want {
					errCh <- fmt.Errorf("id %d: got %v, want %q", id, out.Rows, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestExecAsyncPipelines issues a burst of async calls before waiting on
// any of them, then checks each result against its own request.
func TestExecAsyncPipelines(t *testing.T) {
	srv, _ := newServer(t)
	c, err := Dial(srv.Addr(), DriverConfig{User: "app", Database: "shop", PipelineWindow: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 32; i++ {
		if _, err := c.Exec("INSERT INTO items (name) VALUES (?)", sqltypes.NewString(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Prepare("SELECT name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pend := make([]*Pending, 0, 32)
	for i := 1; i <= 32; i++ {
		p, err := st.ExecAsync(sqltypes.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for i, p := range pend {
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("v%d", i+1)
		if len(out.Rows) != 1 || out.Rows[0][0].Str() != want {
			t.Fatalf("async result %d: got %v, want %q", i, out.Rows, want)
		}
	}
	// A statement error inside the pipeline surfaces on its own Wait and
	// leaves the connection usable.
	bad, err := c.ExecAsync("SELECT * FROM nosuch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("err = %v, want unknown table", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("conn unusable after pipelined error: %v", err)
	}
}
