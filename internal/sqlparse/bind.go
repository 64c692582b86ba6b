package sqlparse

import (
	"fmt"

	"repro/internal/sqltypes"
)

// This file implements parameter binding at the AST level: substituting the
// ? placeholders of a parsed statement with literal values. The partition and
// WAN routers need it because they inspect literal key values, so a
// parameterized statement must have its bindings inlined before they see it.
// The original statement is never modified: parsed ASTs are shared
// immutably through the statement cache.

// CountParams returns the number of ? placeholders in the statement,
// including those inside subqueries. Prepared-statement handles report it to
// drivers (database/sql uses it to reject argument-count mismatches before
// touching the wire).
func CountParams(st Statement) int {
	n := 0
	walkStatementExprs(st, func(e Expr) {
		if _, ok := e.(*Param); ok {
			n++
		}
	})
	return n
}

// BindParams returns a copy of the statement with every ? placeholder
// replaced by the corresponding literal from args. Statements without
// placeholders come back unchanged (the speculative copy is discarded —
// one AST walk either way, since this sits on per-execution router paths).
// Binding fails when a placeholder has no argument AND when arguments are
// left over: a surplus argument almost always means a literal where a ?
// was intended, and dropping it silently would run the wrong statement.
func BindParams(st Statement, args []sqltypes.Value) (Statement, error) {
	b := &binder{args: args}
	out := b.bindStatement(st)
	if b.err != nil {
		return nil, b.err
	}
	if len(args) > b.params {
		return nil, fmt.Errorf("sql: statement has %d placeholders, got %d arguments", b.params, len(args))
	}
	if b.bound == 0 {
		return st, nil
	}
	return out, nil
}

type binder struct {
	args   []sqltypes.Value
	params int // placeholders seen
	bound  int // placeholders substituted
	err    error
}

func (b *binder) bindStatement(st Statement) Statement {
	switch s := st.(type) {
	case *Insert:
		out := *s
		out.Rows = make([][]Expr, len(s.Rows))
		for i, row := range s.Rows {
			nr := make([]Expr, len(row))
			for j, e := range row {
				nr[j] = b.bindExpr(e)
			}
			out.Rows[i] = nr
		}
		return &out
	case *Update:
		out := *s
		out.Set = make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			out.Set[i] = Assignment{Column: a.Column, Value: b.bindExpr(a.Value)}
		}
		out.Where = b.bindExpr(s.Where)
		return &out
	case *Delete:
		out := *s
		out.Where = b.bindExpr(s.Where)
		return &out
	case *Select:
		return b.bindSelect(s)
	case *Call:
		out := *s
		out.Args = make([]Expr, len(s.Args))
		for i, a := range s.Args {
			out.Args[i] = b.bindExpr(a)
		}
		return &out
	case *SetVar:
		out := *s
		out.Value = b.bindExpr(s.Value)
		return &out
	}
	// Statements that cannot carry placeholders pass through.
	return st
}

func (b *binder) bindSelect(s *Select) *Select {
	out := *s
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = SelectItem{Star: it.Star, Expr: b.bindExpr(it.Expr), Alias: it.Alias}
	}
	if s.Join != nil {
		j := *s.Join
		j.On = b.bindExpr(s.Join.On)
		out.Join = &j
	}
	out.Where = b.bindExpr(s.Where)
	out.GroupBy = make([]Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		out.GroupBy[i] = b.bindExpr(g)
	}
	out.OrderBy = make([]OrderItem, len(s.OrderBy))
	for i, o := range s.OrderBy {
		out.OrderBy[i] = OrderItem{Expr: b.bindExpr(o.Expr), Desc: o.Desc}
	}
	return &out
}

func (b *binder) bindExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Param:
		b.params++
		if x.Index >= len(b.args) {
			if b.err == nil {
				b.err = fmt.Errorf("sql: parameter %d not bound (%d args)", x.Index+1, len(b.args))
			}
			return x
		}
		b.bound++
		return &Literal{Val: b.args[x.Index]}
	case *BinaryExpr:
		out := *x
		out.Left = b.bindExpr(x.Left)
		out.Right = b.bindExpr(x.Right)
		return &out
	case *UnaryExpr:
		out := *x
		out.Operand = b.bindExpr(x.Operand)
		return &out
	case *InExpr:
		out := *x
		out.Left = b.bindExpr(x.Left)
		out.List = make([]Expr, len(x.List))
		for i, it := range x.List {
			out.List[i] = b.bindExpr(it)
		}
		if x.Sub != nil {
			out.Sub = b.bindSelect(x.Sub)
		}
		return &out
	case *BetweenExpr:
		out := *x
		out.Operand = b.bindExpr(x.Operand)
		out.Lo = b.bindExpr(x.Lo)
		out.Hi = b.bindExpr(x.Hi)
		return &out
	case *IsNullExpr:
		out := *x
		out.Operand = b.bindExpr(x.Operand)
		return &out
	case *FuncExpr:
		out := *x
		out.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			out.Args[i] = b.bindExpr(a)
		}
		return &out
	}
	return e
}

// walkStatementExprs visits every expression of a statement, descending into
// subqueries.
func walkStatementExprs(st Statement, visit func(Expr)) {
	var walk func(Expr)
	var walkSel func(*Select)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		visit(e)
		switch x := e.(type) {
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
				walkSel(x.Sub)
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
	walkSel = func(s *Select) {
		for _, it := range s.Items {
			if !it.Star {
				walk(it.Expr)
			}
		}
		if s.Join != nil {
			walk(s.Join.On)
		}
		walk(s.Where)
		for _, g := range s.GroupBy {
			walk(g)
		}
		for _, o := range s.OrderBy {
			walk(o.Expr)
		}
	}
	switch s := st.(type) {
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				walk(e)
			}
		}
	case *Update:
		for _, a := range s.Set {
			walk(a.Value)
		}
		walk(s.Where)
	case *Delete:
		walk(s.Where)
	case *Select:
		walkSel(s)
	case *Call:
		for _, a := range s.Args {
			walk(a)
		}
	case *SetVar:
		walk(s.Value)
	}
}
