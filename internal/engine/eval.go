package engine

import (
	"fmt"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// Expressions are evaluated in two steps. bindLocked runs once per statement
// execution: it resolves every column reference to a position in the
// statement's row scope, every operator and function name to an opcode, and
// every literal, ? parameter, session variable, procedure parameter and
// (uncorrelated) IN subquery to its value. eval then runs the bound tree
// directly on a stored row — no name lookup, no string compare and no
// allocation per row — which is what lets a scan examine rows it will drop
// without producing garbage for them.

type opcode uint8

const (
	opConst opcode = iota // *val
	opCol                 // row[col]
	opAnd
	opOr
	opNot
	opNeg
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd // opAdd..opMod index arithSym
	opSub
	opMul
	opDiv
	opMod
	opLike
	opIsNull
	opBetween // operands: value, low, high
	opIn      // operands: value, then the list
	opNow
	opRand
	opNextval
	opAbs
	opLower
	opUpper
	opLength
	opCoalesce
	opBucket
)

var binaryOps = map[string]opcode{
	"AND": opAnd, "OR": opOr, "LIKE": opLike,
	"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
}

var arithSym = [...]string{"+", "-", "*", "/", "%"}

// funcOps maps a scalar function to its opcode and the number of arguments
// it reads (COALESCE reads all of them).
var funcOps = map[string]struct {
	op    opcode
	arity int
}{
	"NOW": {opNow, 0}, "CURRENT_TIMESTAMP": {opNow, 0}, "RAND": {opRand, 0}, "RANDOM": {opRand, 0},
	"ABS": {opAbs, 1}, "LOWER": {opLower, 1}, "UPPER": {opUpper, 1}, "LENGTH": {opLength, 1},
	"MOD": {opMod, 2}, "BUCKET": {opBucket, 2}, "COALESCE": {opCoalesce, 0}, "NEXTVAL": {opNextval, 1},
}

// bexpr is one node of a bound expression. first is its first operand; the
// others follow through next.
type bexpr struct {
	op    opcode
	neg   bool            // IS NOT NULL, NOT BETWEEN, NOT IN
	col   int32           // opCol: position in the scope's row
	val   *sqltypes.Value // opConst: points into the AST, the arguments or a subquery result
	first *bexpr
	next  *bexpr
}

// scopeTable is one table of a statement's row scope; its columns sit at
// row[off:off+len(t.Columns)]. It answers to its alias and to its name.
type scopeTable struct {
	t           *Table
	alias, name string
	off         int
}

// binder binds and evaluates the expressions of one statement execution. Its
// scope is the statement's FROM table, that table joined with a second one,
// or empty (INSERT values, SET, CALL arguments), where a bare identifier can
// only be a procedure parameter. Nodes come from an inline slab, so binding a
// typical statement costs the one allocation of the binder itself.
type binder struct {
	s      *Session
	tx     *Txn // nil where subqueries are not allowed
	args   []sqltypes.Value
	tables []scopeTable
	free   []bexpr // unused tail of the current slab
	tabBuf [2]scopeTable
	slab   [10]bexpr
}

func newBinder(s *Session, tx *Txn, args []sqltypes.Value) *binder {
	b := &binder{s: s, tx: tx, args: args}
	b.tables, b.free = b.tabBuf[:0], b.slab[:]
	return b
}

// addTable appends t's columns to the row scope.
func (b *binder) addTable(t *Table, alias, name string) {
	off := 0
	if n := len(b.tables); n > 0 {
		off = b.tables[n-1].off + len(b.tables[n-1].t.Columns)
	}
	b.tables = append(b.tables, scopeTable{t: t, alias: alias, name: name, off: off})
}

func (b *binder) node(op opcode) *bexpr {
	if len(b.free) == 0 {
		b.free = make([]bexpr, 2*len(b.slab))
	}
	n := &b.free[0]
	b.free = b.free[1:]
	*n = bexpr{op: op}
	return n
}

func (b *binder) constant(v *sqltypes.Value) *bexpr {
	n := b.node(opConst)
	n.val = v
	return n
}

// constLocked evaluates an expression that is used exactly once and sees no
// row. The nodes of the previous call are recycled, so a 500-row INSERT of
// literals binds in place rather than building 2 000 nodes.
func (b *binder) constLocked(e sqlparse.Expr) (sqltypes.Value, error) {
	b.free = b.slab[:]
	n, err := b.bindLocked(e)
	if err != nil {
		return sqltypes.Null, err
	}
	return b.eval(n, nil)
}

// bindOptLocked binds an optional clause (WHERE); nil stays nil.
func (b *binder) bindOptLocked(e sqlparse.Expr) (*bexpr, error) {
	if e == nil {
		return nil, nil
	}
	return b.bindLocked(e)
}

// bindLocked resolves e against the binder's scope. Unknown columns, unbound
// parameters, unknown operators and functions are reported here, before any
// row is examined. The engine lock is held: an IN subquery executes now.
func (b *binder) bindLocked(e sqlparse.Expr) (*bexpr, error) {
	switch e := e.(type) {
	case *sqlparse.Literal:
		return b.constant(&e.Val), nil
	case *sqlparse.Param:
		if e.Index >= len(b.args) {
			return nil, fmt.Errorf("engine: parameter %d not bound", e.Index+1)
		}
		return b.constant(&b.args[e.Index]), nil
	case *sqlparse.VarRef:
		v := b.s.vars[e.Name].val // unset variables are NULL
		return b.constant(&v), nil
	case *sqlparse.ColumnRef:
		return b.bindColumn(e)
	case *sqlparse.BinaryExpr:
		op, ok := binaryOps[e.Op]
		if !ok {
			return nil, fmt.Errorf("engine: unknown operator %q", e.Op)
		}
		return b.bindOperandsLocked(b.node(op), e.Left, e.Right)
	case *sqlparse.UnaryExpr:
		switch e.Op {
		case "-":
			return b.bindOperandsLocked(b.node(opNeg), e.Operand)
		case "NOT":
			return b.bindOperandsLocked(b.node(opNot), e.Operand)
		}
		return nil, fmt.Errorf("engine: unknown unary operator %q", e.Op)
	case *sqlparse.IsNullExpr:
		n := b.node(opIsNull)
		n.neg = e.Negate
		return b.bindOperandsLocked(n, e.Operand)
	case *sqlparse.BetweenExpr:
		n := b.node(opBetween)
		n.neg = e.Negate
		return b.bindOperandsLocked(n, e.Operand, e.Lo, e.Hi)
	case *sqlparse.InExpr:
		n := b.node(opIn)
		n.neg = e.Negate
		if _, err := b.bindOperandsLocked(n, e.Left); err != nil {
			return nil, err
		}
		if e.Sub == nil {
			return b.bindOperandsLocked(n, e.List...)
		}
		// Uncorrelated subqueries only (the inner SELECT binds in a scope of
		// its own), so one execution per statement serves every outer row.
		if b.tx == nil {
			return nil, fmt.Errorf("engine: subquery not allowed in this context")
		}
		res, err := b.s.execSelectLocked(b.tx, e.Sub, b.args)
		if err != nil {
			return nil, err
		}
		last := n.first
		for _, row := range res.Rows {
			if len(row) > 0 {
				last.next = b.constant(&row[0])
				last = last.next
			}
		}
		return n, nil
	case *sqlparse.FuncExpr:
		name := strings.ToUpper(e.Name)
		f, ok := funcOps[name]
		if !ok {
			return nil, fmt.Errorf("engine: unknown function %q", name)
		}
		args := e.Args
		switch {
		case f.op == opNextval && len(args) != 1:
			return nil, fmt.Errorf("engine: nextval wants one argument")
		case len(args) < f.arity:
			return nil, fmt.Errorf("engine: %s: missing argument %d", name, len(args)+1)
		case f.op != opCoalesce:
			args = args[:f.arity]
		}
		return b.bindOperandsLocked(b.node(f.op), args...)
	}
	return nil, fmt.Errorf("engine: cannot evaluate %T", e)
}

// bindOperandsLocked binds operands and appends them to n's operand list.
func (b *binder) bindOperandsLocked(n *bexpr, operands ...sqlparse.Expr) (*bexpr, error) {
	slot := &n.first
	for *slot != nil {
		slot = &(*slot).next
	}
	for _, e := range operands {
		c, err := b.bindLocked(e)
		if err != nil {
			return nil, err
		}
		*slot, slot = c, &c.next
	}
	return n, nil
}

// bindColumn resolves a column reference: the first scope table that answers
// to the qualifier (any table when there is none) and has the column wins;
// an unqualified name no table has may be a procedure parameter.
func (b *binder) bindColumn(cr *sqlparse.ColumnRef) (*bexpr, error) {
	for i := range b.tables {
		tab := &b.tables[i]
		if cr.Qualifier != "" && !equalFold(cr.Qualifier, tab.alias) && !equalFold(cr.Qualifier, tab.name) {
			continue
		}
		if ci := tab.t.colIndex(cr.Name); ci >= 0 {
			n := b.node(opCol)
			n.col = int32(tab.off + ci)
			return n, nil
		}
	}
	if cr.Qualifier == "" {
		if v, ok := b.s.lookupParam(cr.Name); ok {
			return b.constant(&v), nil
		}
	}
	if len(b.tables) == 0 {
		return nil, fmt.Errorf("engine: column %q referenced outside row context", cr.SQL())
	}
	return nil, fmt.Errorf("engine: unknown column %q", cr.SQL())
}

// matches reports whether row satisfies the predicate (nil accepts every
// row) with SQL semantics: NULL counts as false.
func (b *binder) matches(where *bexpr, row sqltypes.Row) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := b.eval(where, row)
	return !v.IsNull() && v.Bool(), err
}

// eval evaluates a bound expression on row (nil in a scope with no tables).
// Operands are evaluated left to right and all of them before NULL is
// considered; only AND, OR, COALESCE and an IN list stop early.
func (b *binder) eval(n *bexpr, row sqltypes.Row) (sqltypes.Value, error) {
	switch n.op {
	case opConst:
		return *n.val, nil
	case opCol:
		return row[n.col], nil
	case opNow:
		// Engine-local clock: replicas may disagree (§4.3.2).
		return sqltypes.NewTime(b.s.eng.nowValue()), nil
	case opRand:
		// Engine-local PRNG: evaluated per call (and therefore per row in
		// UPDATE t SET x = rand()), the canonical statement-replication
		// divergence of §4.3.2.
		return sqltypes.NewFloat(b.s.eng.randFloat()), nil
	case opCoalesce:
		for a := n.first; a != nil; a = a.next {
			if v, err := b.eval(a, row); err != nil || !v.IsNull() {
				return v, err
			}
		}
		return sqltypes.Null, nil
	}
	l, err := b.eval(n.first, row)
	if err != nil {
		return sqltypes.Null, err
	}
	second := n.first.next
	switch n.op {
	case opAnd, opOr:
		// Kleene logic: FALSE absorbs AND and TRUE absorbs OR even when the
		// other side is NULL; otherwise a NULL operand makes the result NULL.
		absorbing := n.op == opOr
		if !l.IsNull() && l.Bool() == absorbing {
			return sqltypes.NewBool(absorbing), nil
		}
		r, err := b.eval(second, row)
		switch {
		case err != nil:
			return sqltypes.Null, err
		case !r.IsNull() && r.Bool() == absorbing:
			return sqltypes.NewBool(absorbing), nil
		case l.IsNull() || r.IsNull():
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(!absorbing), nil
	case opIsNull:
		return sqltypes.NewBool(l.IsNull() != n.neg), nil
	case opNextval:
		return b.s.nextval(l.Str())
	case opIn:
		if l.IsNull() {
			return sqltypes.Null, nil
		}
		found := false
		for a := second; a != nil && !found; a = a.next {
			v, err := b.eval(a, row)
			if err != nil {
				return sqltypes.Null, err
			}
			found = sqltypes.Equal(v, l)
		}
		return sqltypes.NewBool(found != n.neg), nil
	}
	var r sqltypes.Value
	if second != nil {
		if r, err = b.eval(second, row); err != nil {
			return sqltypes.Null, err
		}
	}
	if n.op == opBetween {
		hi, err := b.eval(second.next, row)
		if err != nil || l.IsNull() || r.IsNull() || hi.IsNull() {
			return sqltypes.Null, err
		}
		in := sqltypes.Compare(l, r) >= 0 && sqltypes.Compare(l, hi) <= 0
		return sqltypes.NewBool(in != n.neg), nil
	}
	if l.IsNull() || (second != nil && r.IsNull()) {
		return sqltypes.Null, nil
	}
	switch n.op {
	case opNot:
		return sqltypes.NewBool(!l.Bool()), nil
	case opNeg:
		if l.Kind() == sqltypes.KindFloat {
			return sqltypes.NewFloat(-l.Float()), nil
		}
		return sqltypes.NewInt(-l.Int()), nil
	case opEq, opNe, opLt, opLe, opGt, opGe:
		return sqltypes.NewBool(compareHolds(n.op, sqltypes.Compare(l, r))), nil
	case opAdd, opSub, opMul, opDiv, opMod:
		return sqltypes.Arith(arithSym[n.op-opAdd], l, r)
	case opLike:
		return sqltypes.NewBool(likeMatch(l.Str(), r.Str())), nil
	case opAbs:
		if l.Kind() == sqltypes.KindFloat {
			if f := l.Float(); f < 0 {
				return sqltypes.NewFloat(-f), nil
			}
			return l, nil
		}
		if i := l.Int(); i < 0 {
			return sqltypes.NewInt(-i), nil
		}
		return sqltypes.NewInt(l.Int()), nil
	case opLower:
		return sqltypes.NewString(strings.ToLower(l.Str())), nil
	case opUpper:
		return sqltypes.NewString(strings.ToUpper(l.Str())), nil
	case opLength:
		return sqltypes.NewInt(int64(len(l.Str()))), nil
	case opBucket:
		// BUCKET(v, n) is the router's hash-bucket function (HashValue % n),
		// exposed to the engine so migration ownership predicates evaluate
		// with exactly the routing layer's arithmetic.
		if r.Int() <= 0 {
			return sqltypes.Null, fmt.Errorf("engine: BUCKET needs a positive bucket count, got %d", r.Int())
		}
		return sqltypes.NewInt(int64(sqltypes.HashValue(l) % uint64(r.Int()))), nil
	}
	return sqltypes.Null, fmt.Errorf("engine: cannot evaluate opcode %d", n.op)
}

func compareHolds(op opcode, c int) bool {
	switch op {
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	}
	return c >= 0
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatch(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// nextval advances a sequence. Sequences are non-transactional: the value is
// consumed immediately and never returned on rollback, producing holes
// (§4.2.3).
func (s *Session) nextval(name string) (sqltypes.Value, error) {
	dbName := s.currentDB
	if i := strings.IndexByte(name, '.'); i > 0 {
		dbName, name = name[:i], name[i+1:]
	}
	if dbName == "" {
		return sqltypes.Null, ErrNoDatabase
	}
	d, err := s.eng.database(dbName)
	if err != nil {
		return sqltypes.Null, err
	}
	seq, ok := d.sequences[name]
	if !ok {
		return sqltypes.Null, fmt.Errorf("engine: unknown sequence %q", name)
	}
	v := seq.Next
	seq.Next += seq.Increment
	if s.eng.movedSeqs == nil {
		s.eng.movedSeqs = make(map[seqKey]struct{})
	}
	s.eng.movedSeqs[seqKey{dbName, name}] = struct{}{}
	return sqltypes.NewInt(v), nil
}
