package sqltypes

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "FLOAT",
		KindString: "TEXT", KindBool: "BOOLEAN", KindTime: "TIMESTAMP",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value should be NULL")
	}
	if v.Bool() {
		t.Error("NULL should be falsy")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("NewInt(42).Int() = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("NewFloat(2.5).Float() = %v", got)
	}
	if got := NewString("x").Str(); got != "x" {
		t.Errorf("NewString(x).Str() = %q", got)
	}
	if !NewBool(true).Bool() {
		t.Error("NewBool(true).Bool() = false")
	}
	now := time.Unix(100, 25)
	if got := NewTime(now).Time(); !got.Equal(now) {
		t.Errorf("NewTime round trip = %v, want %v", got, now)
	}
}

func TestCoercions(t *testing.T) {
	if got := NewFloat(3.9).Int(); got != 3 {
		t.Errorf("float->int = %d, want 3", got)
	}
	if got := NewBool(true).Int(); got != 1 {
		t.Errorf("bool->int = %d, want 1", got)
	}
	if got := NewString("17").Int(); got != 17 {
		t.Errorf("string->int = %d, want 17", got)
	}
	if got := NewString("2.5").Float(); got != 2.5 {
		t.Errorf("string->float = %v, want 2.5", got)
	}
	if got := NewInt(7).Float(); got != 7 {
		t.Errorf("int->float = %v, want 7", got)
	}
	if got := NewInt(123).Str(); got != "123" {
		t.Errorf("int->string = %q", got)
	}
}

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewBool(true), NewInt(1), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareNull(t *testing.T) {
	if Compare(Null, Null) != 0 {
		t.Error("NULL should equal NULL in Compare")
	}
	if Compare(Null, NewInt(0)) != -1 {
		t.Error("NULL should sort before values")
	}
	if Compare(NewInt(0), Null) != 1 {
		t.Error("values should sort after NULL")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithInt(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{"+", 2, 3, 5}, {"-", 2, 3, -1}, {"*", 4, 3, 12}, {"/", 7, 2, 3}, {"%", 7, 2, 1},
	}
	for _, c := range cases {
		got, err := Arith(c.op, NewInt(c.a), NewInt(c.b))
		if err != nil {
			t.Fatalf("Arith(%q): %v", c.op, err)
		}
		if got.Int() != c.want {
			t.Errorf("%d %s %d = %d, want %d", c.a, c.op, c.b, got.Int(), c.want)
		}
	}
}

func TestArithFloatPromotion(t *testing.T) {
	got, err := Arith("+", NewInt(1), NewFloat(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindFloat || got.Float() != 1.5 {
		t.Errorf("1 + 0.5 = %v, want 1.5 float", got)
	}
}

func TestArithStringConcat(t *testing.T) {
	got, err := Arith("+", NewString("a"), NewString("b"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Str() != "ab" {
		t.Errorf("'a' + 'b' = %q", got.Str())
	}
}

func TestArithNullPropagates(t *testing.T) {
	got, err := Arith("+", Null, NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
}

func TestArithDivZero(t *testing.T) {
	if _, err := Arith("/", NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Arith("%", NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float modulo by zero should error")
	}
	// The float modulus works on integer parts: 0.5 truncates to a zero
	// divisor, which used to panic instead of erroring.
	if _, err := Arith("%", NewInt(3), NewFloat(0.5)); err == nil {
		t.Error("modulo by a float inside (-1, 1) should error")
	}
}

func TestStringQuoting(t *testing.T) {
	v := NewString("it's")
	if got := v.String(); got != "'it''s'" {
		t.Errorf("String() = %q, want quoted with escape", got)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone should not share backing array")
	}
}

func TestHashRowDeterministic(t *testing.T) {
	r1 := Row{NewInt(1), NewString("x"), NewBool(true), Null}
	r2 := Row{NewInt(1), NewString("x"), NewBool(true), Null}
	if HashRow(r1) != HashRow(r2) {
		t.Error("equal rows must hash equal")
	}
	r3 := Row{NewInt(2), NewString("x"), NewBool(true), Null}
	if HashRow(r1) == HashRow(r3) {
		t.Error("different rows should (almost surely) hash differently")
	}
}

func TestHashValueKindSensitive(t *testing.T) {
	if HashValue(NewInt(0)) == HashValue(Null) {
		t.Error("0 and NULL should hash differently")
	}
	if HashValue(NewString("1")) == HashValue(NewInt(1)) {
		t.Error("'1' and 1 should hash differently")
	}
}

func TestBoolTruthiness(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{NewInt(0), false}, {NewInt(5), true},
		{NewFloat(0), false}, {NewFloat(0.1), true},
		{NewString(""), false}, {NewString("x"), true},
		{Null, false},
	}
	for _, c := range cases {
		if got := c.v.Bool(); got != c.want {
			t.Errorf("%v.Bool() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Transitivity on a random triple of mixed ints/floats.
	f := func(a, b, c int32, fa, fb, fc bool) bool {
		mk := func(n int32, float bool) Value {
			if float {
				return NewFloat(float64(n) / 2)
			}
			return NewInt(int64(n))
		}
		x, y, z := mk(a, fa), mk(b, fb), mk(c, fc)
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
