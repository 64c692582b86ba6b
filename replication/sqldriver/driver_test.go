package sqldriver

import (
	"database/sql"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

func TestParseDSN(t *testing.T) {
	cfg, addr, db, cons, bo, ro, err := parseDSN("repl://app:pw@10.0.0.1:5455/shop?consistency=strong&heartbeat=250ms&keepalive=5s&connect_timeout=1s")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "10.0.0.1:5455" || db != "shop" || cons != "strong" {
		t.Fatalf("addr=%q db=%q cons=%q", addr, db, cons)
	}
	if cfg.User != "app" || cfg.Password != "pw" {
		t.Fatalf("user=%q password=%q", cfg.User, cfg.Password)
	}
	if cfg.HeartbeatInterval != 250*time.Millisecond || cfg.KeepAliveTimeout != 5*time.Second || cfg.ConnectTimeout != time.Second {
		t.Fatalf("durations: %+v", cfg)
	}
	if bo.base != 4*time.Millisecond || bo.max != 250*time.Millisecond {
		t.Fatalf("default backoff: %+v", bo)
	}
	if ro.sink != "" {
		t.Fatalf("recording on without record=: %+v", ro)
	}
}

func TestParseDSNOverloadOptions(t *testing.T) {
	cfg, _, _, _, bo, _, err := parseDSN("repl://h:1/db?statement_timeout=300ms&retry_backoff=2ms&retry_backoff_max=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StatementTimeout != 300*time.Millisecond {
		t.Fatalf("statement_timeout: %v", cfg.StatementTimeout)
	}
	if bo.base != 2*time.Millisecond || bo.max != 50*time.Millisecond {
		t.Fatalf("backoff: %+v", bo)
	}
	// The deadline alias maps to the same knob; 0 disables backoff.
	cfg, _, _, _, bo, _, err = parseDSN("repl://h:1/db?deadline=1s&retry_backoff=0s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StatementTimeout != time.Second || bo.base != 0 {
		t.Fatalf("alias/disable: timeout=%v backoff=%+v", cfg.StatementTimeout, bo)
	}
}

func TestParseDSNProtocolOptions(t *testing.T) {
	// Default: the one transport, window defaulted by wire.Dial.
	cfg, _, _, _, _, _, err := parseDSN("repl://h:1/db")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol != "" || cfg.PipelineWindow != 0 {
		t.Fatalf("defaults: protocol=%q pipeline=%d", cfg.Protocol, cfg.PipelineWindow)
	}
	cfg, _, _, _, _, _, err = parseDSN("repl://h:1/db?protocol=binary")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol != wire.ProtocolBinary {
		t.Fatalf("protocol=binary parsed as %q", cfg.Protocol)
	}
}

func TestBackoffSleepBounded(t *testing.T) {
	bo := backoffOpts{base: time.Millisecond, max: 8 * time.Millisecond}
	for fails := 0; fails < 20; fails++ {
		start := time.Now()
		bo.sleep(fails)
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("fails=%d slept %v, want bounded by ~max", fails, d)
		}
	}
	// Disabled backoff never sleeps.
	off := backoffOpts{}
	start := time.Now()
	off.sleep(10)
	if time.Since(start) > 5*time.Millisecond {
		t.Fatal("disabled backoff slept")
	}
}

func TestParseDSNErrors(t *testing.T) {
	for _, dsn := range []string{
		"mysql://host:1/db",              // wrong scheme
		"repl:///db",                     // no host
		"repl://h:1/db?consistency=bad",  // bad level
		"repl://h:1/db?heartbeat=nonsap", // bad duration
		"repl://h:1/db?record_table=kv",  // record_* without record=
		"repl://h:1/db?protocol=grpc",    // unknown transport
		"repl://h:1/db?protocol=gob",     // removed transport
		"repl://h:1/db?protocol=auto",    // removed negotiation
		"repl://h:1/db?pipeline=8",       // removed option
	} {
		if _, _, _, _, _, _, err := parseDSN(dsn); err == nil {
			t.Errorf("parseDSN(%q) accepted", dsn)
		}
	}
	// An unknown option is named, so a misspelling is found at once.
	if _, _, _, _, _, _, err := parseDSN("repl://h:1/db?consistancy=strong"); err == nil || !strings.Contains(err.Error(), `"consistancy"`) {
		t.Errorf("misspelt option: err = %v, want it named", err)
	}
}

// TestNumInputMismatch proves the server-reported placeholder count reaches
// database/sql: an argument-count mismatch fails client-side, before
// execution.
func TestNumInputMismatch(t *testing.T) {
	e := engine.New(engine.Config{})
	s := e.NewSession("setup")
	for _, q := range []string{"CREATE DATABASE d", "USE d", "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := wire.NewServer("127.0.0.1:0", &wire.EngineBackend{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	db, err := sql.Open("repl", "repl://app@"+srv.Addr()+"/d")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stmt, err := db.Prepare("INSERT INTO t (id, v) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.Exec(1); err == nil || !strings.Contains(err.Error(), "expected 2 arguments") {
		t.Fatalf("err = %v", err)
	}
	if _, err := stmt.Exec(1, "ok"); err != nil {
		t.Fatal(err)
	}
}
