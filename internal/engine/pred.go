package engine

import "repro/internal/sqltypes"

// A predicate kernel tests a bound WHERE or ON clause on a row. It walks the
// bound tree like eval, but answers a three-valued truth and, at the nodes a
// filter is made of — AND, OR, NOT, and a comparison, IS NULL, BETWEEN or IN
// whose operands are all columns or constants — reads the operands where
// they are stored instead of copying them out as values. A comparison of
// two INTs runs inline; any other comparison, BETWEEN and IN go through
// sqltypes.Compare and sqltypes.Equal as in eval. Every other node is a leaf
// that runs eval, so its value and its errors are eval's. The kernel keeps
// nothing per statement: which test a node gets is read from its opcode
// and its operands' opcodes on each row.

// truth is a three-valued SQL truth value.
type truth uint8

const (
	tFalse truth = iota
	tTrue
	tNull
)

func truthOf(b bool) truth {
	if b {
		return tTrue
	}
	return tFalse
}

// isOperand reports whether n is a column or a constant, which test reads
// in place.
func (n *bexpr) isOperand() bool { return n.op == opConst || n.op == opCol }

// operands reports whether every operand of n is a column or a constant.
func operands(n *bexpr) bool {
	for a := n.first; a != nil; a = a.next {
		if !a.isOperand() {
			return false
		}
	}
	return true
}

// operand returns where an operand node's value is: the constant, or the
// row's column (a column node has no val).
func (n *bexpr) operand(row sqltypes.Row) *sqltypes.Value {
	if n.val != nil {
		return n.val
	}
	return &row[n.col]
}

// matches reports whether row satisfies the predicate where (nil accepts
// every row) with SQL semantics: NULL counts as false.
func (b *binder) matches(where *bexpr, row sqltypes.Row) (bool, error) {
	if where == nil {
		return true, nil
	}
	t, err := b.test(where, row)
	return t == tTrue, err
}

// test evaluates the bound predicate n on row. A comparison, IS NULL,
// BETWEEN or IN over operands alone is answered in place; any other node
// but AND, OR and NOT is a leaf that runs eval. Results, errors and
// evaluation order are eval's.
func (b *binder) test(n *bexpr, row sqltypes.Row) (truth, error) {
	switch n.op {
	case opAnd, opOr:
		// Kleene logic: FALSE absorbs AND and TRUE absorbs OR even when the
		// other side is NULL; otherwise a NULL operand makes the result NULL.
		absorbing := truthOf(n.op == opOr)
		l, err := b.test(n.first, row)
		if err != nil || l == absorbing {
			return l, err
		}
		r, err := b.test(n.first.next, row)
		if err != nil || r == absorbing || r == tNull {
			return r, err
		}
		return l, nil
	case opNot:
		t, err := b.test(n.first, row)
		if t != tNull {
			t ^= 1
		}
		return t, err
	case opEq, opNe, opLt, opLe, opGt, opGe:
		if !n.first.isOperand() || !n.first.next.isOperand() {
			break
		}
		x, y := n.first.operand(row), n.first.next.operand(row)
		var c int
		switch {
		case x.K == sqltypes.KindInt && y.K == sqltypes.KindInt:
			c = cmpInt(x.I, y.I)
		case x.K == sqltypes.KindNull || y.K == sqltypes.KindNull:
			return tNull, nil
		default:
			c = sqltypes.Compare(*x, *y)
		}
		return truthOf(compareHolds(n.op, c)), nil
	case opIsNull:
		if !operands(n) {
			break
		}
		return truthOf((n.first.operand(row).K == sqltypes.KindNull) != n.neg), nil
	case opBetween:
		if !operands(n) {
			break
		}
		lo := n.first.next
		x, low, high := n.first.operand(row), lo.operand(row), lo.next.operand(row)
		if x.K == sqltypes.KindNull || low.K == sqltypes.KindNull || high.K == sqltypes.KindNull {
			return tNull, nil
		}
		in := sqltypes.Compare(*x, *low) >= 0 && sqltypes.Compare(*x, *high) <= 0
		return truthOf(in != n.neg), nil
	case opIn:
		if !operands(n) {
			break
		}
		x := n.first.operand(row)
		if x.K == sqltypes.KindNull {
			return tNull, nil
		}
		found := false
		for a := n.first.next; a != nil && !found; a = a.next {
			found = sqltypes.Equal(*a.operand(row), *x)
		}
		return truthOf(found != n.neg), nil
	}
	v, err := b.eval(n, row)
	if v.IsNull() {
		return tNull, err
	}
	return truthOf(v.Bool()), err
}

// cmpInt orders two INTs as sqltypes.Compare does: -1, 0 or 1.
func cmpInt(x, y int64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
