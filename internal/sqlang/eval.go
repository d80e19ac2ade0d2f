package sqlang

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"genalg/internal/db"
)

// evalCtx carries what expression evaluation needs. Names are resolved
// before evaluation (see bind.go).
type evalCtx struct {
	row db.Row
	// breakJoinKeys mirrors Engine.UnsafeBreakJoinKeys into join-key
	// encoding (fault injection for the regression harness).
	breakJoinKeys bool
	// key is the statement's reused tuple-key buffer (join, GROUP BY and
	// DISTINCT keys).
	key []byte
}

// eval evaluates an expression against the current row. Aggregates are
// rejected here; the executor computes them separately.
func eval(ctx *evalCtx, e Expr) (any, error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, nil
	case *boundCol:
		return ctx.row[x.pos], nil
	case *unbound:
		return nil, x.err
	case *UnOp:
		v, err := eval(ctx, x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			b, ok := v.(bool)
			if !ok {
				if v == nil {
					return nil, nil
				}
				return nil, fmt.Errorf("sqlang: NOT of non-boolean %T", v)
			}
			return !b, nil
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, fmt.Errorf("sqlang: unary minus of %T", v)
		}
		return nil, fmt.Errorf("sqlang: unknown unary op %q", x.Op)
	case *IsNull:
		v, err := eval(ctx, x.E)
		if err != nil {
			return nil, err
		}
		isNull := v == nil
		if x.Negate {
			return !isNull, nil
		}
		return isNull, nil
	case *BinOp:
		return evalBinOp(ctx, x)
	case *boundFunc:
		args := make([]any, len(x.args))
		for i, a := range x.args {
			v, err := eval(ctx, a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		out, err := x.fn.Fn(args)
		if err != nil {
			return nil, fmt.Errorf("sqlang: %s: %w", x.src.Name, err)
		}
		return out, nil
	case *Aggregate:
		return nil, fmt.Errorf("sqlang: aggregate %s not allowed here", x.Fn)
	}
	return nil, fmt.Errorf("sqlang: cannot evaluate %T", e)
}

func evalBinOp(ctx *evalCtx, x *BinOp) (any, error) {
	// AND/OR with standard SQL three-valued-ish shortcut (we treat NULL
	// operands as NULL result, and filters treat NULL as false).
	if x.Op == "AND" || x.Op == "OR" {
		l, err := eval(ctx, x.L)
		if err != nil {
			return nil, err
		}
		lb, lok := l.(bool)
		if x.Op == "AND" && lok && !lb {
			return false, nil
		}
		if x.Op == "OR" && lok && lb {
			return true, nil
		}
		r, err := eval(ctx, x.R)
		if err != nil {
			return nil, err
		}
		rb, rok := r.(bool)
		if !lok || !rok {
			if l == nil || r == nil {
				return nil, nil
			}
			return nil, fmt.Errorf("sqlang: %s of non-boolean operands (%T, %T)", x.Op, l, r)
		}
		if x.Op == "AND" {
			return lb && rb, nil
		}
		return lb || rb, nil
	}

	l, err := eval(ctx, x.L)
	if err != nil {
		return nil, err
	}
	r, err := eval(ctx, x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l == nil || r == nil {
			return nil, nil // NULL comparisons are NULL
		}
		c, err := compareVals(l, r)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
	case "+", "-", "*", "/":
		return arith(x.Op, l, r)
	}
	return nil, fmt.Errorf("sqlang: unknown operator %q", x.Op)
}

// compareVals orders two scalar values, coercing int64/float64 mixes.
func compareVals(l, r any) (int, error) {
	switch lv := l.(type) {
	case int64:
		switch rv := r.(type) {
		case int64:
			return cmpOrd(lv, rv), nil
		case float64:
			return cmpOrd(float64(lv), rv), nil
		}
	case float64:
		switch rv := r.(type) {
		case int64:
			return cmpOrd(lv, float64(rv)), nil
		case float64:
			return cmpOrd(lv, rv), nil
		}
	case string:
		if rv, ok := r.(string); ok {
			return strings.Compare(lv, rv), nil
		}
	case bool:
		if rv, ok := r.(bool); ok {
			return cmpOrd(b2i(lv), b2i(rv)), nil
		}
	}
	return 0, fmt.Errorf("sqlang: cannot compare %T with %T", l, r)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cmpOrd orders two numbers. NaN equals NaN and sorts above every other
// number, as in PostgreSQL, which keeps the order total and agrees with
// appendKeyVal's single canonical NaN key.
func cmpOrd[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b, a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

func arith(op string, l, r any) (any, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("sqlang: division by zero")
			}
			return li / ri, nil
		}
	}
	lf, err := toFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := toFloat(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("sqlang: division by zero")
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("sqlang: unknown arithmetic op %q", op)
}

func toFloat(v any) (float64, error) {
	switch n := v.(type) {
	case int64:
		return float64(n), nil
	case float64:
		return n, nil
	}
	return 0, fmt.Errorf("sqlang: %T is not numeric", v)
}

// truthy interprets a WHERE result: only true passes (NULL and false drop
// the row).
func truthy(v any) bool {
	b, ok := v.(bool)
	return ok && b
}

// joinKey evaluates the equi-join key expressions against the current row
// and encodes them into buf. ok=false reports a NULL key component: the row
// joins nothing, matching `=` three-valued semantics.
func joinKey(ctx *evalCtx, keys []Expr, buf []byte) ([]byte, bool, error) {
	for _, kx := range keys {
		v, err := eval(ctx, kx)
		if err != nil {
			return buf, false, err
		}
		if v == nil {
			return buf, false, nil
		}
		var ok bool
		if buf, ok = appendKeyVal(buf, v, ctx.breakJoinKeys); !ok {
			return buf, false, fmt.Errorf("sqlang: cannot compare %T in join key", v)
		}
	}
	return buf, true, nil
}

// appendGroupKey appends one GROUP BY / DISTINCT tuple component to a key.
// Opaque values (GDT values, byte strings) have no ordering, so they key
// by their formatted form — GDT String methods include identity — under a
// tag of their own, length-prefixed like strings.
func appendGroupKey(b []byte, v any) []byte {
	b, ok := appendKeyVal(b, v, false)
	if !ok {
		s := fmt.Sprint(v)
		b = append(b, 'o')
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// appendKeyVal appends the typed, self-delimiting encoding of one scalar
// to a tuple key: a tag byte, then a fixed-width or length-prefixed body,
// so distinct tuples never share an encoding. ok=false reports a value of
// no scalar type (nothing is appended).
//
// The encoding equates exactly the value pairs compareVals calls equal:
// integral floats within the exact-int64 window (±2^53) key as integers
// so int64/float64 mixes hash together. (An int64 beyond 2^53 joined
// against its rounded float64 image is the one divergence from
// compareVals' lossy float coercion; that coercion is itself the
// approximation.)
//
// breakUnify (Engine.UnsafeBreakJoinKeys) deliberately skips the
// int/float unification — the seeded executor bug the regression
// harness's differential fuzzer proves it can catch.
func appendKeyVal(b []byte, v any, breakUnify bool) ([]byte, bool) {
	const exactInt = 1 << 53
	switch x := v.(type) {
	case nil:
		b = append(b, 'n')
	case int64:
		b = append(b, 'i')
		b = binary.BigEndian.AppendUint64(b, uint64(x))
	case float64:
		switch {
		case !breakUnify && x == math.Trunc(x) && x >= -exactInt && x <= exactInt:
			b = append(b, 'i')
			b = binary.BigEndian.AppendUint64(b, uint64(int64(x)))
		case x != x:
			b = append(b, 'f')
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(math.NaN()))
		default:
			b = append(b, 'f')
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
		}
	case string:
		b = append(b, 's')
		b = binary.AppendUvarint(b, uint64(len(x)))
		b = append(b, x...)
	case bool:
		if x {
			b = append(b, 'T')
		} else {
			b = append(b, 'F')
		}
	default:
		return b, false
	}
	return b, true
}
