package qcache

import (
	"strings"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// eventDatabases names the databases a DDL event can have touched, from its
// one statement: CREATE/DROP DATABASE name their target, table DDL names its
// tables, and an unqualified name resolves against the event's session
// database. An empty result means "could be anything": the caller flushes
// everything.
func eventDatabases(ev engine.Event) []string {
	if len(ev.Stmts) != 1 {
		return nil
	}
	st, err := sqlparse.ParseCached(ev.Stmts[0])
	if err != nil {
		return nil
	}
	switch s := st.(type) {
	case *sqlparse.CreateDatabase:
		return []string{strings.ToLower(s.Name)}
	case *sqlparse.DropDatabase:
		return []string{strings.ToLower(s.Name)}
	}
	var out []string
	for _, t := range st.Tables() {
		if i := strings.IndexByte(t, '.'); i >= 0 {
			out = append(out, strings.ToLower(t[:i]))
		}
	}
	if len(out) == 0 && ev.Database != "" {
		out = append(out, strings.ToLower(ev.Database))
	}
	return out
}
