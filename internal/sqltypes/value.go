// Package sqltypes defines the dynamically typed SQL value used throughout
// the engine, the wire protocol and the replication middleware.
//
// Values are small immutable structs. They deliberately support only the
// types the paper's workloads need: NULL, 64-bit integers, floats, strings,
// booleans and timestamps (stored as Unix nanoseconds).
package sqltypes

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL value. The zero value is NULL.
//
// Fields are exported so that encoding/gob can store values in the recovery
// log and in backups (the wire protocol has its own codec); user code should
// treat Value as immutable and use the accessors.
type Value struct {
	K Kind
	I int64   // KindInt, KindTime (Unix nanoseconds)
	F float64 // KindFloat
	S string  // KindString
	B bool    // KindBool
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{K: KindBool, B: b} }

// NewTime returns a timestamp value.
func NewTime(t time.Time) Value { return Value{K: KindTime, I: t.UnixNano()} }

// Kind returns the runtime type of v.
func (v Value) Kind() Kind { return v.K }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Int returns the value as an int64, coercing floats and booleans.
func (v Value) Int() int64 {
	switch v.K {
	case KindInt, KindTime:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindBool:
		if v.B {
			return 1
		}
		return 0
	case KindString:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	}
	return 0
}

// Float returns the value as a float64, coercing integers and booleans.
func (v Value) Float() float64 {
	switch v.K {
	case KindFloat:
		return v.F
	case KindInt, KindTime:
		return float64(v.I)
	case KindBool:
		if v.B {
			return 1
		}
		return 0
	case KindString:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	}
	return 0
}

// Str returns the value as a string using SQL literal formatting.
func (v Value) Str() string {
	switch v.K {
	case KindString:
		return v.S
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindTime:
		return v.Time().UTC().Format(time.RFC3339Nano)
	}
	return "NULL"
}

// Bool returns the SQL truthiness of the value. NULL is false.
func (v Value) Bool() bool {
	switch v.K {
	case KindBool:
		return v.B
	case KindInt, KindTime:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	}
	return false
}

// Time returns the value as a time.Time. Only meaningful for KindTime.
func (v Value) Time() time.Time { return time.Unix(0, v.I) }

// String implements fmt.Stringer; strings are quoted like SQL literals and
// timestamps render as TIMESTAMP '...' so the output re-parses.
func (v Value) String() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindTime:
		return "TIMESTAMP '" + v.Str() + "'"
	}
	return v.Str()
}

// numericKind reports whether k participates in numeric coercion.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool || k == KindTime
}

// Compare orders two values: -1 if a < b, 0 if equal, +1 if a > b.
// NULL sorts before everything and equals only NULL. Numeric kinds are
// mutually comparable; everything else compares as strings when kinds differ.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(a.K) && numericKind(b.K) {
		if a.K == KindFloat || b.K == KindFloat {
			af, bf := a.Float(), b.Float()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			}
			return 0
		}
		ai, bi := a.Int(), b.Int()
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	}
	as, bs := a.Str(), b.Str()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	}
	return 0
}

// Equal reports whether a and b compare equal (NULL equals NULL here;
// three-valued logic is applied by the expression evaluator, not Compare).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Arith applies the binary arithmetic operator op ("+", "-", "*", "/", "%")
// and returns the result. Any NULL operand yields NULL. Division by zero
// returns an error, matching typical engine behaviour.
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if op == "+" && (a.K == KindString || b.K == KindString) {
		return NewString(a.Str() + b.Str()), nil
	}
	if a.K == KindFloat || b.K == KindFloat {
		af, bf := a.Float(), b.Float()
		switch op {
		case "+":
			return NewFloat(af + bf), nil
		case "-":
			return NewFloat(af - bf), nil
		case "*":
			return NewFloat(af * bf), nil
		case "/":
			if bf == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			return NewFloat(af / bf), nil
		case "%":
			// The modulus is taken on the integer parts, so a divisor
			// inside (-1, 1) is a zero divisor too.
			if int64(bf) == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			return NewFloat(float64(int64(af) % int64(bf))), nil
		}
		return Null, fmt.Errorf("sqltypes: unknown operator %q", op)
	}
	ai, bi := a.Int(), b.Int()
	switch op {
	case "+":
		return NewInt(ai + bi), nil
	case "-":
		return NewInt(ai - bi), nil
	case "*":
		return NewInt(ai * bi), nil
	case "/":
		if bi == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewInt(ai / bi), nil
	case "%":
		if bi == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewInt(ai % bi), nil
	}
	return Null, fmt.Errorf("sqltypes: unknown operator %q", op)
}

// Row is a tuple of values.
type Row []Value

// Clone returns a deep copy of the row (values are immutable, so a shallow
// copy of the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// FNV-1a, inlined: hashing sits on the engine's pk-index hot path (every
// point lookup, every per-insert uniqueness probe), so it must not allocate
// the way hash/fnv's interface-backed hasher does.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashRow mixes a row into a 64-bit hash; used for divergence checksums and
// hash partitioning.
func HashRow(r Row) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range r {
		h = hashValue(h, v)
	}
	return h
}

// HashValue returns a 64-bit hash of a single value.
func HashValue(v Value) uint64 {
	return hashValue(fnvOffset64, v)
}

// HashString hashes a string with the same allocation-free FNV-1a; the
// statement cache uses it for shard selection.
func HashString(s string) uint64 {
	return fnvString(fnvOffset64, s)
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func hashValue(h uint64, v Value) uint64 {
	h = (h ^ uint64(v.K)) * fnvPrime64
	switch v.K {
	case KindInt, KindTime:
		h = fnvUint64(h, uint64(v.I))
	case KindFloat:
		h = fnvUint64(h, uint64(v.Float()*1e6))
	case KindBool:
		var b byte
		if v.B {
			b = 1
		}
		h = (h ^ uint64(b)) * fnvPrime64
	case KindString:
		h = fnvString(h, v.S)
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}
