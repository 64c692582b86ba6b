package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// BackupOptions controls what a dump captures. The zero value reproduces
// the behaviour the paper complains about (§4.1.5, §4.4.1): data only — no
// users, no triggers, no stored procedures, and sequences reset — so a
// restored replica is subtly incomplete. Set the Include* fields to build a
// faithful clone.
type BackupOptions struct {
	// Databases restricts the dump; empty means all.
	Databases []string
	// IncludeUsers captures users and grants.
	IncludeUsers bool
	// IncludeCode captures triggers and stored procedures.
	IncludeCode bool
	// IncludeSequences captures sequence positions. Without it, restored
	// sequences restart and regenerate already-used keys — the §4.2.3
	// backup/restore workaround problem.
	IncludeSequences bool
}

// ColumnSpec is the gob-friendly form of a column definition (the default
// expression travels as SQL text).
type ColumnSpec struct {
	Name          string
	Type          sqltypes.Kind
	PrimaryKey    bool
	Unique        bool
	AutoIncrement bool
	NotNull       bool
	DefaultSQL    string
}

// TableDump is the serialized content and schema of one table.
type TableDump struct {
	Name    string
	Columns []ColumnSpec
	Rows    []sqltypes.Row
	AutoInc int64
}

// SequenceDump is a serialized sequence position.
type SequenceDump struct {
	Name      string
	Next      int64
	Increment int64
}

// CodeDump carries trigger and procedure definitions as SQL text.
type CodeDump struct {
	Triggers   []string
	Procedures []string
}

// DatabaseDump is one database instance in a backup.
type DatabaseDump struct {
	Name      string
	Tables    []TableDump
	Sequences []SequenceDump
	Code      CodeDump
}

// Backup is a consistent snapshot of an engine, taken at a single commit
// timestamp via MVCC (a "hot backup" that does not block writers).
type Backup struct {
	AtCommitTS uint64
	// AtSeq is the binlog position the snapshot reflects: every event with
	// Seq <= AtSeq is included, none after (binlog appends happen under the
	// engine write lock the dump shares). Replay resumes at AtSeq+1, which
	// is what ties recovery-log checkpoints to backups.
	AtSeq     uint64
	Databases []DatabaseDump
	Users     []User
}

// Dump takes a consistent snapshot at the current commit timestamp. It
// holds the engine lock as a reader, so it blocks writers for the dump's
// time but runs alongside other read-only statements — a hot backup. The
// backup's rows are the committed row images themselves, not copies: a
// committed image is never written again (a later UPDATE stores a new one),
// so the backup keeps the rows it was taken with. Its readers must not
// modify them.
func (e *Engine) Dump(opts BackupOptions) (*Backup, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ts := e.clock
	b := &Backup{AtCommitTS: ts, AtSeq: e.binlog.Head()}

	want := make(map[string]bool)
	for _, n := range opts.Databases {
		want[n] = true
	}
	names := make([]string, 0, len(e.databases))
	for n := range e.databases {
		if len(want) == 0 || want[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, dbName := range names {
		d := e.databases[dbName]
		dd := DatabaseDump{Name: dbName}
		for _, tn := range d.TableNames() {
			t := d.tables[tn]
			td := TableDump{Name: tn, Columns: specsFromColumns(t.Columns)}
			td.Rows = make([]sqltypes.Row, 0, len(t.rowOrder))
			for _, id := range t.rowOrder {
				if v := t.chain(id).visible(ts); v != nil {
					td.Rows = append(td.Rows, v.data)
				}
			}
			if opts.IncludeSequences {
				td.AutoInc = t.autoInc
			}
			dd.Tables = append(dd.Tables, td)
		}
		if opts.IncludeSequences {
			seqNames := make([]string, 0, len(d.sequences))
			for sn := range d.sequences {
				seqNames = append(seqNames, sn)
			}
			sort.Strings(seqNames)
			for _, sn := range seqNames {
				sq := d.sequences[sn]
				dd.Sequences = append(dd.Sequences, SequenceDump{Name: sn, Next: sq.Next, Increment: sq.Increment})
			}
		}
		if opts.IncludeCode {
			tabNames := make([]string, 0, len(d.triggers))
			for tn := range d.triggers {
				tabNames = append(tabNames, tn)
			}
			sort.Strings(tabNames)
			for _, tn := range tabNames {
				for _, tr := range d.triggers[tn] {
					dd.Code.Triggers = append(dd.Code.Triggers,
						"CREATE TRIGGER "+tr.Name+" AFTER "+tr.Event+" ON "+tr.Table+" DO "+tr.Body.SQL())
				}
			}
			procNames := make([]string, 0, len(d.procedures))
			for pn := range d.procedures {
				procNames = append(procNames, pn)
			}
			sort.Strings(procNames)
			for _, pn := range procNames {
				p := d.procedures[pn]
				stub := &procedureSQL{p}
				dd.Code.Procedures = append(dd.Code.Procedures, stub.SQL())
			}
		}
		b.Databases = append(b.Databases, dd)
	}
	if opts.IncludeUsers {
		for name, u := range e.users {
			cu := *u
			cu.Grants = make(map[string]bool, len(u.Grants))
			for k, v := range u.Grants {
				cu.Grants[k] = v
			}
			_ = name
			b.Users = append(b.Users, cu)
		}
		sort.Slice(b.Users, func(i, j int) bool { return b.Users[i].Name < b.Users[j].Name })
	}
	return b, nil
}

// procedureSQL renders a procedure back to CREATE PROCEDURE text.
type procedureSQL struct{ p *Procedure }

func (ps *procedureSQL) SQL() string {
	var buf bytes.Buffer
	buf.WriteString("CREATE PROCEDURE " + ps.p.Name + "(")
	for i, pr := range ps.p.Params {
		if i > 0 {
			buf.WriteString(", ")
		}
		buf.WriteString(pr)
	}
	buf.WriteString(") BEGIN ")
	for _, st := range ps.p.Body {
		buf.WriteString(st.SQL())
		buf.WriteString("; ")
	}
	buf.WriteString("END")
	return buf.String()
}

// Restore loads a backup into the engine, replacing any existing database
// of the same name. The engine's commit clock advances so subsequent events
// order after the restore.
func (e *Engine) Restore(b *Backup) error {
	// Re-create schema objects through sessions so the code path is the
	// same as regular DDL. Triggers/procedures restore via their SQL.
	s := e.NewSession("restore")
	defer s.Close()
	e.mu.Lock()
	for _, dd := range b.Databases {
		delete(e.databases, dd.Name)
		e.databases[dd.Name] = newDatabase(dd.Name)
		d := e.databases[dd.Name]
		for _, td := range dd.Tables {
			cols, err := columnsFromSpecs(td.Columns)
			if err != nil {
				e.mu.Unlock()
				return err
			}
			t := newTable(td.Name, cols, false)
			for _, row := range td.Rows {
				id := t.nextRowID
				t.nextRowID++
				t.newChain(id, rowVersion{createdTS: e.clock, data: row.Clone()})
				t.indexPK(row, id)
			}
			t.autoInc = td.AutoInc
			d.tables[td.Name] = t
		}
		for _, sd := range dd.Sequences {
			d.sequences[sd.Name] = &Sequence{Name: sd.Name, Next: sd.Next, Increment: sd.Increment}
		}
	}
	for _, u := range b.Users {
		cu := u
		e.users[u.Name] = &cu
	}
	e.clock++
	e.mu.Unlock()

	// Code objects go through the SQL path (needs the session's DB).
	for _, dd := range b.Databases {
		if len(dd.Code.Triggers)+len(dd.Code.Procedures) == 0 {
			continue
		}
		if _, err := s.Exec("USE " + dd.Name); err != nil {
			return err
		}
		for _, sql := range dd.Code.Triggers {
			if _, err := s.Exec(sql); err != nil {
				return fmt.Errorf("engine: restore trigger: %w", err)
			}
		}
		for _, sql := range dd.Code.Procedures {
			if _, err := s.Exec(sql); err != nil {
				return fmt.Errorf("engine: restore procedure: %w", err)
			}
		}
	}
	return nil
}

// Encode serializes the backup (gob) for transport to another node.
func (b *Backup) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBackup deserializes a backup produced by Encode.
func DecodeBackup(data []byte) (*Backup, error) {
	var b Backup
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return nil, err
	}
	return &b, nil
}

// specsFromColumns converts engine columns to their serializable form.
func specsFromColumns(cols []Column) []ColumnSpec {
	out := make([]ColumnSpec, len(cols))
	for i, c := range cols {
		out[i] = ColumnSpec{
			Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey,
			Unique: c.Unique, AutoIncrement: c.AutoIncrement, NotNull: c.NotNull,
		}
		if c.Default != nil {
			out[i].DefaultSQL = c.Default.SQL()
		}
	}
	return out
}

// columnsFromSpecs converts serialized column specs back, re-parsing any
// default expression.
func columnsFromSpecs(specs []ColumnSpec) ([]Column, error) {
	out := make([]Column, len(specs))
	for i, sp := range specs {
		out[i] = Column{
			Name: sp.Name, Type: sp.Type, PrimaryKey: sp.PrimaryKey,
			Unique: sp.Unique, AutoIncrement: sp.AutoIncrement, NotNull: sp.NotNull,
		}
		if sp.DefaultSQL != "" {
			st, err := sqlparse.Parse("SELECT " + sp.DefaultSQL)
			if err != nil {
				return nil, fmt.Errorf("engine: bad default expression %q: %v", sp.DefaultSQL, err)
			}
			out[i].Default = st.(*sqlparse.Select).Items[0].Expr
		}
	}
	return out, nil
}
