package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/recoverylog"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// Aliases keeping test tables readable.
type sqltypesValue = sqltypes.Value

func sqlInt(i int64) sqltypes.Value  { return sqltypes.NewInt(i) }
func sqlStr(s string) sqltypes.Value { return sqltypes.NewString(s) }

func newRecoveryLog() *recoverylog.Log { return recoverylog.New() }

// setDB points every backend session of the pool at db, bypassing the
// client session's settings path.
func (p *sessionPool) setDB(db string) error {
	return p.announce(&sqlparse.UseDatabase{Name: db})
}

// committedEvents runs each statement on a fresh engine and returns the
// engine's binlog: what a recorder following it logs.
func committedEvents(t testing.TB, sqls ...string) []engine.Event {
	t.Helper()
	eng := engine.New(engine.Config{})
	s := eng.NewSession("app")
	defer s.Close()
	for _, sql := range sqls {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	evs, _ := eng.Binlog().ReadFrom(0, 0)
	return evs
}
