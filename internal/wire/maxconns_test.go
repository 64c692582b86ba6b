package wire

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestMaxConnsRejectsTyped exercises the -max-conns guard: connections over
// the limit are refused before the handshake with a typed retryable
// overload error, and a slot freed by a disconnect becomes usable again.
func TestMaxConnsRejectsTyped(t *testing.T) {
	e := engine.New(engine.Config{})
	srv, err := NewServer("127.0.0.1:0", &EngineBackend{Engine: e}, WithMaxConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := Dial(srv.Addr(), DriverConfig{User: "app"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr(), DriverConfig{User: "app"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Third connection: over the limit, must get the typed rejection.
	_, err = Dial(srv.Addr(), DriverConfig{User: "app"})
	if err == nil {
		t.Fatal("over-limit dial succeeded")
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeOverloaded {
		t.Fatalf("over-limit dial error = %v (want ServerError CodeOverloaded)", err)
	}
	if !Retryable(err) {
		t.Fatalf("overload rejection not classified retryable: %v", err)
	}
	if got := srv.RejectedConns(); got != 1 {
		t.Fatalf("RejectedConns = %d, want 1", got)
	}

	// Admitted connections keep working while the server sheds.
	if err := c1.Ping(); err != nil {
		t.Fatalf("admitted conn broken after rejection: %v", err)
	}

	// Freeing a slot readmits: close one, retry until the server notices
	// the disconnect (asynchronous).
	c2.Close()
	readmitted := false
	for i := 0; i < 200; i++ {
		c3, err := Dial(srv.Addr(), DriverConfig{User: "app"})
		if err == nil {
			c3.Close()
			readmitted = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !readmitted {
		t.Fatal("slot never freed after disconnect")
	}

	// A heartbeat's side connection counts against the limit too. Once the
	// server holds only c1, a dial with a heartbeat gets the last slot for
	// its main connection and is refused for the heartbeat: Dial must fail
	// with the typed overload error, not hand out a connection that the
	// refused heartbeat kills a tick later.
	for deadline := time.Now().Add(2 * time.Second); srv.openConns() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d connections, want 1", srv.openConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rejected := srv.RejectedConns() // the readmission loop may have added refusals
	hc, err := Dial(srv.Addr(), DriverConfig{User: "app", HeartbeatInterval: 20 * time.Millisecond})
	if err == nil {
		hc.Close()
		t.Fatal("dial whose heartbeat was refused at the limit succeeded")
	}
	if !errors.As(err, &se) || se.Code != CodeOverloaded || !Retryable(err) {
		t.Fatalf("refused heartbeat: dial error = %v (want retryable ServerError CodeOverloaded)", err)
	}
	if got := srv.RejectedConns(); got != rejected+1 {
		t.Fatalf("RejectedConns = %d, want %d", got, rejected+1)
	}
	if err := c1.Ping(); err != nil {
		t.Fatalf("admitted conn broken after a refused heartbeat: %v", err)
	}
}

// openConns reports how many connections the server is serving.
func (s *Server) openConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestMaxConnsSilentPeerTimesOut: a peer that connects and never sends its
// hello holds its -max-conns slot only until the hello timeout, after which
// a real client is admitted.
func TestMaxConnsSilentPeerTimesOut(t *testing.T) {
	saved := helloTimeout
	helloTimeout = 100 * time.Millisecond
	t.Cleanup(func() { helloTimeout = saved })
	srv, err := NewServer("127.0.0.1:0", &EngineBackend{Engine: engine.New(engine.Config{})}, WithMaxConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for deadline := time.Now().Add(2 * time.Second); srv.openConns() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("server never registered the silent connection")
		}
		time.Sleep(time.Millisecond)
	}

	var lastErr error
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		c, err := Dial(srv.Addr(), DriverConfig{User: "app"})
		if err == nil {
			c.Close()
			return
		}
		lastErr = err
	}
	t.Fatalf("silent peer still holds the only slot after the hello timeout: %v", lastErr)
}
