package sqldb

import (
	"fmt"
	"math"
	"strings"

	"infera/internal/dataframe"
)

// value is a runtime SQL value: one of float, int or string. Booleans are
// ints 0/1.
type value struct {
	kind dataframe.Kind
	f    float64
	i    int64
	s    string
}

func floatVal(f float64) value { return value{kind: dataframe.Float, f: f} }
func intVal(i int64) value     { return value{kind: dataframe.Int, i: i} }
func stringVal(s string) value { return value{kind: dataframe.String, s: s} }
func boolVal(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

func (v value) asFloat() float64 {
	switch v.kind {
	case dataframe.Float:
		return v.f
	case dataframe.Int:
		return float64(v.i)
	default:
		return math.NaN()
	}
}

func (v value) truthy() bool {
	switch v.kind {
	case dataframe.Float:
		return v.f != 0 && !math.IsNaN(v.f)
	case dataframe.Int:
		return v.i != 0
	default:
		return v.s != ""
	}
}

func (v value) display() string {
	switch v.kind {
	case dataframe.Float:
		return fmt.Sprintf("%g", v.f)
	case dataframe.Int:
		return fmt.Sprintf("%d", v.i)
	default:
		return v.s
	}
}

// evalContext resolves identifiers during expression evaluation.
type evalContext interface {
	lookup(name string) (value, error)
	// aggValue resolves a pre-computed aggregate node (group queries only).
	aggValue(e *aggExpr) (value, bool)
}

// rowContext evaluates over one row of a frame.
type rowContext struct {
	frame *dataframe.Frame
	row   int
}

func (c *rowContext) lookup(name string) (value, error) {
	col, err := c.frame.Column(name)
	if err != nil {
		return value{}, err
	}
	return cellValue(col, c.row), nil
}

// cellValue returns row r of c as a value.
func cellValue(c *dataframe.Column, r int) value {
	switch c.Kind {
	case dataframe.Float:
		return floatVal(c.F[r])
	case dataframe.Int:
		return intVal(c.I[r])
	default:
		return stringVal(c.S[r])
	}
}

func (c *rowContext) aggValue(*aggExpr) (value, bool) { return value{}, false }

// EvalError reports a runtime evaluation failure.
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "SQL evaluation error: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

func evalExpr(e expr, ctx evalContext) (value, error) {
	switch v := e.(type) {
	case *numberExpr:
		if v.val == math.Trunc(v.val) && math.Abs(v.val) < 1e15 {
			return intVal(int64(v.val)), nil
		}
		return floatVal(v.val), nil
	case *stringExpr:
		return stringVal(v.val), nil
	case *identExpr:
		return ctx.lookup(v.name)
	case *unaryExpr:
		sub, err := evalExpr(v.sub, ctx)
		if err != nil {
			return value{}, err
		}
		switch v.op {
		case "-":
			if sub.kind == dataframe.Int {
				return intVal(-sub.i), nil
			}
			return floatVal(-sub.asFloat()), nil
		case "NOT":
			return boolVal(!sub.truthy()), nil
		}
		return value{}, evalErrf("unknown unary operator %q", v.op)
	case *binaryExpr:
		return evalBinary(v, ctx)
	case *inExpr:
		sub, err := evalExpr(v.sub, ctx)
		if err != nil {
			return value{}, err
		}
		found := false
		for _, item := range v.list {
			iv, err := evalExpr(item, ctx)
			if err != nil {
				return value{}, err
			}
			if valuesEqual(sub, iv) {
				found = true
				break
			}
		}
		return boolVal(found != v.negate), nil
	case *betweenExpr:
		sub, err := evalExpr(v.sub, ctx)
		if err != nil {
			return value{}, err
		}
		lo, err := evalExpr(v.lo, ctx)
		if err != nil {
			return value{}, err
		}
		hi, err := evalExpr(v.hi, ctx)
		if err != nil {
			return value{}, err
		}
		x := sub.asFloat()
		in := x >= lo.asFloat() && x <= hi.asFloat()
		return boolVal(in != v.negate), nil
	case *callExpr:
		return evalCall(v, ctx)
	case *aggExpr:
		if val, ok := ctx.aggValue(v); ok {
			return val, nil
		}
		return value{}, evalErrf("aggregate %s used outside an aggregating query", v.fn)
	}
	return value{}, evalErrf("unhandled expression %T", e)
}

func valuesEqual(a, b value) bool {
	if a.kind == dataframe.String || b.kind == dataframe.String {
		return a.kind == b.kind && a.s == b.s
	}
	return a.asFloat() == b.asFloat()
}

func evalBinary(e *binaryExpr, ctx evalContext) (value, error) {
	// Short-circuit boolean operators.
	switch e.op {
	case "AND":
		l, err := evalExpr(e.left, ctx)
		if err != nil {
			return value{}, err
		}
		if !l.truthy() {
			return boolVal(false), nil
		}
		r, err := evalExpr(e.right, ctx)
		if err != nil {
			return value{}, err
		}
		return boolVal(r.truthy()), nil
	case "OR":
		l, err := evalExpr(e.left, ctx)
		if err != nil {
			return value{}, err
		}
		if l.truthy() {
			return boolVal(true), nil
		}
		r, err := evalExpr(e.right, ctx)
		if err != nil {
			return value{}, err
		}
		return boolVal(r.truthy()), nil
	}
	l, err := evalExpr(e.left, ctx)
	if err != nil {
		return value{}, err
	}
	r, err := evalExpr(e.right, ctx)
	if err != nil {
		return value{}, err
	}
	switch e.op {
	case "+", "-", "*", "/", "%":
		return evalArith(e.op, l, r)
	case "=", "!=":
		eq := valuesEqual(l, r)
		return boolVal(eq == (e.op == "=")), nil
	case "<", "<=", ">", ">=":
		var cmp int
		if l.kind == dataframe.String && r.kind == dataframe.String {
			cmp = strings.Compare(l.s, r.s)
		} else {
			lf, rf := l.asFloat(), r.asFloat()
			switch {
			case lf < rf:
				cmp = -1
			case lf > rf:
				cmp = 1
			}
		}
		switch e.op {
		case "<":
			return boolVal(cmp < 0), nil
		case "<=":
			return boolVal(cmp <= 0), nil
		case ">":
			return boolVal(cmp > 0), nil
		default:
			return boolVal(cmp >= 0), nil
		}
	case "LIKE":
		if l.kind != dataframe.String || r.kind != dataframe.String {
			return value{}, evalErrf("LIKE requires string operands")
		}
		return boolVal(likeMatch(l.s, r.s)), nil
	}
	return value{}, evalErrf("unknown operator %q", e.op)
}

// evalArith is + - * / % with the promotion rule: Int op Int stays Int
// except "/", everything else computes in float64.
func evalArith(op string, l, r value) (value, error) {
	if l.kind == dataframe.String || r.kind == dataframe.String {
		return value{}, evalErrf("arithmetic on string operand")
	}
	if l.kind == dataframe.Int && r.kind == dataframe.Int && op != "/" {
		switch op {
		case "+":
			return intVal(l.i + r.i), nil
		case "-":
			return intVal(l.i - r.i), nil
		case "*":
			return intVal(l.i * r.i), nil
		}
		if r.i == 0 {
			return value{}, evalErrf("integer modulo by zero")
		}
		return intVal(l.i % r.i), nil
	}
	lf, rf := l.asFloat(), r.asFloat()
	switch op {
	case "+":
		return floatVal(lf + rf), nil
	case "-":
		return floatVal(lf - rf), nil
	case "*":
		return floatVal(lf * rf), nil
	case "/":
		return floatVal(lf / rf), nil
	}
	return floatVal(math.Mod(lf, rf)), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one char).
// Two-pointer greedy matching with single backtrack point: on mismatch,
// retry from the most recent %, consuming one more source byte. O(len(s) *
// len(pattern)) worst case — no exponential blowup on patterns like
// %a%a%a%… that the old recursive expansion choked on.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, mark = pi, si
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func evalCall(e *callExpr, ctx evalContext) (value, error) {
	args := make([]float64, len(e.args))
	for i, a := range e.args {
		v, err := evalExpr(a, ctx)
		if err != nil {
			return value{}, err
		}
		if v.kind == dataframe.String {
			return value{}, evalErrf("function %s applied to string argument", e.fn)
		}
		args[i] = v.asFloat()
	}
	switch e.fn {
	case "ABS":
		return floatVal(math.Abs(args[0])), nil
	case "SQRT":
		return floatVal(math.Sqrt(args[0])), nil
	case "LOG10":
		return floatVal(math.Log10(args[0])), nil
	case "LOG":
		return floatVal(math.Log(args[0])), nil
	case "EXP":
		return floatVal(math.Exp(args[0])), nil
	case "FLOOR":
		return floatVal(math.Floor(args[0])), nil
	case "CEIL":
		return floatVal(math.Ceil(args[0])), nil
	case "ROUND":
		return floatVal(math.Round(args[0])), nil
	case "POW":
		return floatVal(math.Pow(args[0], args[1])), nil
	}
	return value{}, evalErrf("unknown function %q", e.fn)
}
