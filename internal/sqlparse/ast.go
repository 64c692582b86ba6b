package sqlparse

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sqltypes"
)

// Statement is implemented by every parsed SQL statement.
type Statement interface {
	stmt()
	// SQL renders the statement back to executable text (DDL events, cache
	// keys).
	SQL() string
	// IsRead reports whether the statement only reads data.
	IsRead() bool
	// Tables returns the names of the tables the statement touches, used
	// for middleware-level (table-granularity) conflict scheduling.
	Tables() []string
}

// TableRef names a table, optionally qualified by a database instance.
type TableRef struct {
	Database string // empty means the session's current database
	Name     string
}

// String renders the reference as [db.]name.
func (t TableRef) String() string {
	if t.Database != "" {
		return t.Database + "." + t.Name
	}
	return t.Name
}

// ColumnDef describes one column in CREATE TABLE.
type ColumnDef struct {
	Name          string
	Type          sqltypes.Kind
	PrimaryKey    bool
	Unique        bool
	AutoIncrement bool
	NotNull       bool
	Default       Expr // nil when absent
}

// CreateDatabase is CREATE DATABASE name.
type CreateDatabase struct {
	Name        string
	IfNotExists bool
}

// DropDatabase is DROP DATABASE name.
type DropDatabase struct{ Name string }

// UseDatabase is USE name.
type UseDatabase struct{ Name string }

// CreateTable is CREATE [TEMP] TABLE name (cols...).
type CreateTable struct {
	Table       TableRef
	Columns     []ColumnDef
	Temp        bool
	IfNotExists bool
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Table    TableRef
	IfExists bool
}

// CreateSequence is CREATE SEQUENCE name [START n] [INCREMENT n].
type CreateSequence struct {
	Name      TableRef
	Start     int64
	Increment int64
}

// DropSequence is DROP SEQUENCE name.
type DropSequence struct{ Name TableRef }

// CreateTrigger is CREATE TRIGGER name AFTER <event> ON table DO <stmt>.
// The body executes in the same transaction as the triggering statement and
// may target a different database instance (§4.1.1 of the paper).
type CreateTrigger struct {
	Name  string
	Event string // "INSERT", "UPDATE" or "DELETE"
	Table TableRef
	Body  Statement
}

// DropTrigger is DROP TRIGGER name.
type DropTrigger struct{ Name string }

// CreateProcedure is CREATE PROCEDURE name(params) BEGIN stmts END.
type CreateProcedure struct {
	Name   string
	Params []string
	Body   []Statement
}

// DropProcedure is DROP PROCEDURE name.
type DropProcedure struct{ Name string }

// Call is CALL name(args).
type Call struct {
	Name string
	Args []Expr
}

// Insert is INSERT INTO t (cols) VALUES (...),(...).
type Insert struct {
	Table   TableRef
	Columns []string // empty means all columns in definition order
	Rows    [][]Expr
}

// Update is UPDATE t SET c=e,... [WHERE e].
type Update struct {
	Table TableRef
	Set   []Assignment
	Where Expr // nil means all rows
}

// Assignment is one c = expr item of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM t [WHERE e].
type Delete struct {
	Table TableRef
	Where Expr
}

// Select is SELECT items FROM t [JOIN t2 ON e] [WHERE e] [GROUP BY cols]
// [ORDER BY ...] [LIMIT n [OFFSET m]] [FOR UPDATE].
type Select struct {
	Items     []SelectItem
	From      TableRef
	FromAlias string
	Join      *JoinClause
	Where     Expr
	GroupBy   []Expr
	OrderBy   []OrderItem
	Limit     int64 // -1 when absent
	Offset    int64
	ForUpdate bool
	Distinct  bool
	NoTable   bool // SELECT expr with no FROM
}

// SelectItem is one projection of a SELECT: either * or an expression with an
// optional alias.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// JoinClause is an inner join.
type JoinClause struct {
	Table TableRef
	Alias string
	On    Expr
}

// OrderItem is one key of ORDER BY.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// BeginTxn is BEGIN / START TRANSACTION.
type BeginTxn struct{}

// CommitTxn is COMMIT.
type CommitTxn struct{}

// RollbackTxn is ROLLBACK.
type RollbackTxn struct{}

// SetIsolation is SET ISOLATION LEVEL <level>.
type SetIsolation struct{ Level string } // "READ COMMITTED", "SNAPSHOT", "SERIALIZABLE"

// SetConsistency is SET CONSISTENCY <level>: the session-level read
// guarantee announcement (§3.3). The engine itself treats it as a no-op —
// consistency is a middleware concept — but routers intercept it, which lets
// remote clients (wire protocol, database/sql driver) pick their guarantee
// with plain SQL.
type SetConsistency struct{ Level string } // "ANY", "SESSION", "STRONG"

// SetDeadline is SET DEADLINE '<duration>' | <ms> | OFF: the per-statement
// timeout for subsequent statements on this session. Like SET CONSISTENCY it
// is a middleware announcement — routers intercept it (bounding both
// admission-queue wait and execution), the engine honors it directly for
// embedded use — and having it in SQL means remote clients (wire protocol,
// database/sql driver `statement_timeout=` DSN option) can set it with no
// protocol extension. D == 0 means OFF.
type SetDeadline struct{ D time.Duration }

// SetVar is SET @name = expr (session variable).
type SetVar struct {
	Name  string
	Value Expr
}

// Show is SHOW TABLES | SHOW DATABASES.
type Show struct{ What string }

// CreateUser is CREATE USER name IDENTIFIED BY 'pw'.
type CreateUser struct {
	Name     string
	Password string
}

// Grant is GRANT ON db TO user.
type Grant struct {
	Database string
	User     string
}

func (*CreateDatabase) stmt()  {}
func (*DropDatabase) stmt()    {}
func (*UseDatabase) stmt()     {}
func (*CreateTable) stmt()     {}
func (*DropTable) stmt()       {}
func (*CreateSequence) stmt()  {}
func (*DropSequence) stmt()    {}
func (*CreateTrigger) stmt()   {}
func (*DropTrigger) stmt()     {}
func (*CreateProcedure) stmt() {}
func (*DropProcedure) stmt()   {}
func (*Call) stmt()            {}
func (*Insert) stmt()          {}
func (*Update) stmt()          {}
func (*Delete) stmt()          {}
func (*Select) stmt()          {}
func (*BeginTxn) stmt()        {}
func (*CommitTxn) stmt()       {}
func (*RollbackTxn) stmt()     {}
func (*SetIsolation) stmt()    {}
func (*SetConsistency) stmt()  {}
func (*SetDeadline) stmt()     {}
func (*SetVar) stmt()          {}
func (*Show) stmt()            {}
func (*CreateUser) stmt()      {}
func (*Grant) stmt()           {}

// IsRead implementations. Only SELECT without FOR UPDATE and SHOW are reads.
func (s *Select) IsRead() bool        { return !s.ForUpdate }
func (*Show) IsRead() bool            { return true }
func (*CreateDatabase) IsRead() bool  { return false }
func (*DropDatabase) IsRead() bool    { return false }
func (*UseDatabase) IsRead() bool     { return true }
func (*CreateTable) IsRead() bool     { return false }
func (*DropTable) IsRead() bool       { return false }
func (*CreateSequence) IsRead() bool  { return false }
func (*DropSequence) IsRead() bool    { return false }
func (*CreateTrigger) IsRead() bool   { return false }
func (*DropTrigger) IsRead() bool     { return false }
func (*CreateProcedure) IsRead() bool { return false }
func (*DropProcedure) IsRead() bool   { return false }
func (*Call) IsRead() bool            { return false } // conservatively a write (§4.2.1)
func (*Insert) IsRead() bool          { return false }
func (*Update) IsRead() bool          { return false }
func (*Delete) IsRead() bool          { return false }
func (*BeginTxn) IsRead() bool        { return true }
func (*CommitTxn) IsRead() bool       { return false }
func (*RollbackTxn) IsRead() bool     { return false }
func (*SetIsolation) IsRead() bool    { return true }
func (*SetConsistency) IsRead() bool  { return true }
func (*SetDeadline) IsRead() bool     { return true }
func (*SetVar) IsRead() bool          { return true }
func (*CreateUser) IsRead() bool      { return false }
func (*Grant) IsRead() bool           { return false }

// IsDDL reports whether the statement changes schema or catalog objects.
// Such a statement has no write set, so replication ships its text (§4.3.2).
func IsDDL(st Statement) bool {
	switch st.(type) {
	case *CreateDatabase, *DropDatabase,
		*CreateTable, *DropTable,
		*CreateSequence, *DropSequence,
		*CreateTrigger, *DropTrigger,
		*CreateProcedure, *DropProcedure,
		*CreateUser, *Grant:
		return true
	}
	return false
}

// Tables implementations.
func (s *CreateTable) Tables() []string { return []string{s.Table.String()} }
func (s *DropTable) Tables() []string   { return []string{s.Table.String()} }
func (s *Insert) Tables() []string      { return []string{s.Table.String()} }
func (s *Update) Tables() []string      { return []string{s.Table.String()} }
func (s *Delete) Tables() []string      { return []string{s.Table.String()} }
func (s *Select) Tables() []string {
	if s.NoTable {
		return nil
	}
	out := []string{s.From.String()}
	if s.Join != nil {
		out = append(out, s.Join.Table.String())
	}
	// Subqueries can appear in every expression position, not just WHERE;
	// consumers that invalidate or schedule by table footprint (the query
	// result cache, parallel log replay) need all of them.
	exprs := []Expr{s.Where}
	for _, it := range s.Items {
		if !it.Star {
			exprs = append(exprs, it.Expr)
		}
	}
	if s.Join != nil {
		exprs = append(exprs, s.Join.On)
	}
	exprs = append(exprs, s.GroupBy...)
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		for _, sub := range subqueries(e) {
			out = append(out, sub.Tables()...)
		}
	}
	return out
}
func (s *CreateTrigger) Tables() []string { return []string{s.Table.String()} }
func (s *Call) Tables() []string          { return nil } // unknown: no schema describes the body (§4.2.1)
func (*CreateDatabase) Tables() []string  { return nil }
func (*DropDatabase) Tables() []string    { return nil }
func (*UseDatabase) Tables() []string     { return nil }
func (*CreateSequence) Tables() []string  { return nil }
func (*DropSequence) Tables() []string    { return nil }
func (*DropTrigger) Tables() []string     { return nil }
func (*CreateProcedure) Tables() []string { return nil }
func (*DropProcedure) Tables() []string   { return nil }
func (*BeginTxn) Tables() []string        { return nil }
func (*CommitTxn) Tables() []string       { return nil }
func (*RollbackTxn) Tables() []string     { return nil }
func (*SetIsolation) Tables() []string    { return nil }
func (*SetConsistency) Tables() []string  { return nil }
func (*SetDeadline) Tables() []string     { return nil }
func (*SetVar) Tables() []string          { return nil }
func (*Show) Tables() []string            { return nil }
func (*CreateUser) Tables() []string      { return nil }
func (*Grant) Tables() []string           { return nil }

// subqueries extracts nested SELECTs from an expression tree.
func subqueries(e Expr) []*Select {
	var out []*Select
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.Operand)
		case *InExpr:
			walk(x.Left)
			for _, it := range x.List {
				walk(it)
			}
			if x.Sub != nil {
				out = append(out, x.Sub)
			}
		case *BetweenExpr:
			walk(x.Operand)
			walk(x.Lo)
			walk(x.Hi)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *IsNullExpr:
			walk(x.Operand)
		}
	}
	walk(e)
	return out
}

// ---- Expressions ----

// Expr is an expression tree node.
type Expr interface {
	expr()
	// SQL renders the expression back to SQL text.
	SQL() string
}

// Literal is a constant value.
type Literal struct{ Val sqltypes.Value }

// ColumnRef names a column, optionally qualified (alias.col or table.col).
type ColumnRef struct {
	Qualifier string
	Name      string
}

// VarRef is a session variable reference (@name).
type VarRef struct{ Name string }

// Param is a ? placeholder bound at execution time.
type Param struct{ Index int }

// BinaryExpr applies Op to Left and Right. Op is one of
// + - * / % = != <> < <= > >= AND OR LIKE ||.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr applies Op ("-" or "NOT") to Operand.
type UnaryExpr struct {
	Op      string
	Operand Expr
}

// InExpr is left IN (list) or left IN (SELECT ...). Negate inverts it.
type InExpr struct {
	Left   Expr
	List   []Expr
	Sub    *Select
	Negate bool
}

// BetweenExpr is operand BETWEEN lo AND hi.
type BetweenExpr struct {
	Operand, Lo, Hi Expr
	Negate          bool
}

// IsNullExpr is operand IS [NOT] NULL.
type IsNullExpr struct {
	Operand Expr
	Negate  bool
}

// FuncExpr is a function call. Aggregates (COUNT, SUM, AVG, MIN, MAX) are
// parsed as FuncExpr and recognized by the executor; Star marks COUNT(*).
type FuncExpr struct {
	Name string // upper-case
	Args []Expr
	Star bool
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*VarRef) expr()      {}
func (*Param) expr()       {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*IsNullExpr) expr()  {}
func (*FuncExpr) expr()    {}

// ---- SQL rendering ----

func (e *Literal) SQL() string { return e.Val.String() }
func (e *ColumnRef) SQL() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}
func (e *VarRef) SQL() string { return "@" + e.Name }
func (e *Param) SQL() string  { return "?" }
func (e *BinaryExpr) SQL() string {
	return "(" + e.Left.SQL() + " " + e.Op + " " + e.Right.SQL() + ")"
}
func (e *UnaryExpr) SQL() string {
	if e.Op == "NOT" {
		return "(NOT " + e.Operand.SQL() + ")"
	}
	return "(" + e.Op + e.Operand.SQL() + ")"
}
func (e *InExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString(e.Left.SQL())
	if e.Negate {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if e.Sub != nil {
		sb.WriteString(e.Sub.SQL())
	} else {
		for i, it := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(it.SQL())
		}
	}
	sb.WriteString(")")
	return sb.String()
}
func (e *BetweenExpr) SQL() string {
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return e.Operand.SQL() + not + " BETWEEN " + e.Lo.SQL() + " AND " + e.Hi.SQL()
}
func (e *IsNullExpr) SQL() string {
	if e.Negate {
		return e.Operand.SQL() + " IS NOT NULL"
	}
	return e.Operand.SQL() + " IS NULL"
}
func (e *FuncExpr) SQL() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.SQL()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func (s *CreateDatabase) SQL() string {
	ine := ""
	if s.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	return "CREATE DATABASE " + ine + s.Name
}
func (s *DropDatabase) SQL() string { return "DROP DATABASE " + s.Name }
func (s *UseDatabase) SQL() string  { return "USE " + s.Name }

func kindTypeName(k sqltypes.Kind) string { return k.String() }

func (s *CreateTable) SQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if s.Temp {
		sb.WriteString("TEMP ")
	}
	sb.WriteString("TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(s.Table.String())
	sb.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name + " " + kindTypeName(c.Type))
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
		if c.Unique {
			sb.WriteString(" UNIQUE")
		}
		if c.AutoIncrement {
			sb.WriteString(" AUTO_INCREMENT")
		}
		if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
		if c.Default != nil {
			sb.WriteString(" DEFAULT " + c.Default.SQL())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

func (s *DropTable) SQL() string {
	ifx := ""
	if s.IfExists {
		ifx = "IF EXISTS "
	}
	return "DROP TABLE " + ifx + s.Table.String()
}

func (s *CreateSequence) SQL() string {
	return fmt.Sprintf("CREATE SEQUENCE %s START %d INCREMENT %d", s.Name, s.Start, s.Increment)
}
func (s *DropSequence) SQL() string { return "DROP SEQUENCE " + s.Name.String() }

func (s *CreateTrigger) SQL() string {
	return "CREATE TRIGGER " + s.Name + " AFTER " + s.Event + " ON " + s.Table.String() + " DO " + s.Body.SQL()
}
func (s *DropTrigger) SQL() string { return "DROP TRIGGER " + s.Name }

func (s *CreateProcedure) SQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE PROCEDURE " + s.Name + "(" + strings.Join(s.Params, ", ") + ") BEGIN ")
	for _, st := range s.Body {
		sb.WriteString(st.SQL())
		sb.WriteString("; ")
	}
	sb.WriteString("END")
	return sb.String()
}
func (s *DropProcedure) SQL() string { return "DROP PROCEDURE " + s.Name }

func (s *Call) SQL() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.SQL()
	}
	return "CALL " + s.Name + "(" + strings.Join(args, ", ") + ")"
}

func (s *Insert) SQL() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + s.Table.String())
	if len(s.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

func (s *Update) SQL() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + s.Table.String() + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column + " = " + a.Value.SQL())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	return sb.String()
}

func (s *Delete) SQL() string {
	out := "DELETE FROM " + s.Table.String()
	if s.Where != nil {
		out += " WHERE " + s.Where.SQL()
	}
	return out
}

func (s *Select) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if !s.NoTable {
		sb.WriteString(" FROM " + s.From.String())
		if s.FromAlias != "" {
			sb.WriteString(" " + s.FromAlias)
		}
		if s.Join != nil {
			sb.WriteString(" JOIN " + s.Join.Table.String())
			if s.Join.Alias != "" {
				sb.WriteString(" " + s.Join.Alias)
			}
			sb.WriteString(" ON " + s.Join.On.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.SQL())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
		if s.Offset > 0 {
			sb.WriteString(fmt.Sprintf(" OFFSET %d", s.Offset))
		}
	}
	if s.ForUpdate {
		sb.WriteString(" FOR UPDATE")
	}
	return sb.String()
}

func (*BeginTxn) SQL() string    { return "BEGIN" }
func (*CommitTxn) SQL() string   { return "COMMIT" }
func (*RollbackTxn) SQL() string { return "ROLLBACK" }
func (s *SetIsolation) SQL() string {
	return "SET ISOLATION LEVEL " + s.Level
}
func (s *SetConsistency) SQL() string {
	return "SET CONSISTENCY " + s.Level
}
func (s *SetDeadline) SQL() string {
	if s.D <= 0 {
		return "SET DEADLINE OFF"
	}
	return "SET DEADLINE '" + s.D.String() + "'"
}
func (s *SetVar) SQL() string { return "SET @" + s.Name + " = " + s.Value.SQL() }
func (s *Show) SQL() string   { return "SHOW " + s.What }
func (s *CreateUser) SQL() string {
	return "CREATE USER " + s.Name + " IDENTIFIED BY '" + s.Password + "'"
}
func (s *Grant) SQL() string { return "GRANT ON " + s.Database + " TO " + s.User }
