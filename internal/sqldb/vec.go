package sqldb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"infera/internal/dataframe"
)

// This file is the vectorized expression backend: the parsed AST compiles
// into a tree of typed kernels that evaluate whole column blocks at a time,
// instead of boxing one value per row through evalExpr. Kernels are total,
// so compileVec refuses every shape whose row-at-a-time result can be an
// error the row engine might skip or reach in another order (dynamic
// integer modulo, aggregates in scalar position, arithmetic over strings,
// …). The planner runs each refused expression on the reference evaluator
// as one rowNode, so behavior never diverges from the tree-walk.

// vec is one expression result over a block: a typed vector of block length,
// or a single broadcast constant (cnst). Exactly one of f/i/s is populated
// per kind, and non-constant float/int/string slices may alias resident
// column storage — they are read-only.
type vec struct {
	kind dataframe.Kind
	cnst bool
	f    []float64
	i    []int64
	s    []string
}

// floats returns the vector as a dense []float64 of length n, applying the
// same coercions as value.asFloat: ints convert, strings are NaN (the SQL
// layer never parses strings as numbers).
func (v vec) floats(n int) []float64 {
	switch v.kind {
	case dataframe.Float:
		if !v.cnst {
			return v.f
		}
		out := make([]float64, n)
		for j := range out {
			out[j] = v.f[0]
		}
		return out
	case dataframe.Int:
		out := make([]float64, n)
		if v.cnst {
			c := float64(v.i[0])
			for j := range out {
				out[j] = c
			}
		} else {
			for j, x := range v.i {
				out[j] = float64(x)
			}
		}
		return out
	default:
		out := make([]float64, n)
		nan := math.NaN()
		for j := range out {
			out[j] = nan
		}
		return out
	}
}

// ints returns the vector as a dense []int64 of length n; only valid for
// Int-kind vectors.
func (v vec) ints(n int) []int64 {
	if !v.cnst {
		return v.i
	}
	out := make([]int64, n)
	for j := range out {
		out[j] = v.i[0]
	}
	return out
}

// strs returns the vector as a dense []string of length n; only valid for
// String-kind vectors.
func (v vec) strs(n int) []string {
	if !v.cnst {
		return v.s
	}
	out := make([]string, n)
	for j := range out {
		out[j] = v.s[0]
	}
	return out
}

// column returns the vector as a column of n rows, of the vector's kind.
func (v vec) column(n int) *dataframe.Column {
	switch v.kind {
	case dataframe.Float:
		return dataframe.NewFloat("", v.floats(n))
	case dataframe.Int:
		return dataframe.NewInt("", v.ints(n))
	default:
		return dataframe.NewString("", v.strs(n))
	}
}

// truthyMask reports value.truthy per element.
func (v vec) truthyMask(n int) []bool {
	out := make([]bool, n)
	switch v.kind {
	case dataframe.Float:
		f := v.floats(n)
		for j, x := range f {
			out[j] = x != 0 && !math.IsNaN(x)
		}
	case dataframe.Int:
		i := v.ints(n)
		for j, x := range i {
			out[j] = x != 0
		}
	default:
		s := v.strs(n)
		for j, x := range s {
			out[j] = x != ""
		}
	}
	return out
}

// block is one evaluation window: rows [lo, hi) of a resident segment.
// Column lookups are cached per block so a kernel tree touching the same
// column repeatedly resolves it once, not once per node per batch.
type block struct {
	seg    *dataframe.Frame
	lo, hi int
	cols   map[string]*dataframe.Column
}

func (b *block) n() int { return b.hi - b.lo }

func (b *block) column(name string) *dataframe.Column {
	if c, ok := b.cols[name]; ok {
		return c
	}
	c := b.seg.MustColumn(name) // compile validated the name against the schema
	if b.cols == nil {
		b.cols = map[string]*dataframe.Column{}
	}
	b.cols[name] = c
	return c
}

// vecNode is one compiled kernel. kind is the statically known result kind —
// it matches the dynamic kind evalExpr would produce for every row, which is
// what lets the planner build typed output columns without inspecting
// values (rowNode, which evaluates rows, is the one exception). eval never
// fails.
type vecNode interface {
	kind() dataframe.Kind
	eval(b *block) vec
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// colNode streams a column slice zero-copy.
type colNode struct {
	name string
	k    dataframe.Kind
}

func (nd *colNode) kind() dataframe.Kind { return nd.k }
func (nd *colNode) eval(b *block) vec    { return columnVec(b.column(nd.name), b.lo, b.hi) }

// columnVec views rows [lo, hi) of c as a vector, zero-copy.
func columnVec(c *dataframe.Column, lo, hi int) vec {
	switch c.Kind {
	case dataframe.Float:
		return vec{kind: dataframe.Float, f: c.F[lo:hi]}
	case dataframe.Int:
		return vec{kind: dataframe.Int, i: c.I[lo:hi]}
	default:
		return vec{kind: dataframe.String, s: c.S[lo:hi]}
	}
}

// rowErr is the first row error of a plan's scan. at is the failing row's
// index in its block, so when several keys of one block fail, the one the
// tree-walk reaches first (row by row, key by key) wins.
type rowErr struct {
	err error
	at  int
}

// rowNode runs an expression compileVec refuses on the reference evaluator,
// row by row, exactly as the tree-walk does. Every refused shape computes a
// number or fails, so kind reports Float, the class its values order and
// aggregate in; eval returns an Int vector when every value is Int, as
// valuesToColumn would. A row error is recorded in *err, which ends the
// scan, and eval stays total.
type rowNode struct {
	ex    expr
	names []string // the table's columns, in table order
	err   *rowErr
}

func (nd *rowNode) kind() dataframe.Kind { return dataframe.Float }
func (nd *rowNode) eval(b *block) vec {
	vals, at, err := nd.values(b.seg, b.lo, b.hi)
	if err != nil {
		if nd.err.err == nil || at < nd.err.at {
			*nd.err = rowErr{err: err, at: at}
		}
		return vec{kind: dataframe.Float, f: make([]float64, b.n())}
	}
	return columnVec(valuesToColumn("", vals), 0, len(vals))
}

// values evaluates rows [lo, hi) of f; on error it also returns the failing
// row's offset from lo.
func (nd *rowNode) values(f *dataframe.Frame, lo, hi int) ([]value, int, error) {
	vals := make([]value, hi-lo)
	ctx := &rowContext{frame: f}
	for r := lo; r < hi; r++ {
		ctx.row = r
		v, err := evalExpr(nd.ex, ctx)
		var ce *dataframe.ColumnError
		if errors.As(err, &ce) {
			// f may hold only the plan's columns; the tree-walk lists the table's.
			err = &dataframe.ColumnError{Name: ce.Name, Available: nd.names}
		}
		if err != nil {
			return nil, r - lo, err
		}
		vals[r-lo] = v
	}
	return vals, 0, nil
}

// constNode broadcasts a literal.
type constNode struct{ v value }

func (nd *constNode) kind() dataframe.Kind { return nd.v.kind }
func (nd *constNode) eval(*block) vec {
	switch nd.v.kind {
	case dataframe.Float:
		return vec{kind: dataframe.Float, cnst: true, f: []float64{nd.v.f}}
	case dataframe.Int:
		return vec{kind: dataframe.Int, cnst: true, i: []int64{nd.v.i}}
	default:
		return vec{kind: dataframe.String, cnst: true, s: []string{nd.v.s}}
	}
}

// arithNode is + - * / % with the row engine's promotion rule: Int op Int
// stays Int except "/", everything else computes in float64.
type arithNode struct {
	op   string
	l, r vecNode
	k    dataframe.Kind
}

func (nd *arithNode) kind() dataframe.Kind { return nd.k }
func (nd *arithNode) eval(b *block) vec {
	n := b.n()
	lv, rv := nd.l.eval(b), nd.r.eval(b)
	if nd.k == dataframe.Int {
		li, ri := lv.ints(n), rv.ints(n)
		out := make([]int64, n)
		switch nd.op {
		case "+":
			for j := range out {
				out[j] = li[j] + ri[j]
			}
		case "-":
			for j := range out {
				out[j] = li[j] - ri[j]
			}
		case "*":
			for j := range out {
				out[j] = li[j] * ri[j]
			}
		case "%":
			// Compilation only admits a constant nonzero divisor.
			for j := range out {
				out[j] = li[j] % ri[j]
			}
		}
		return vec{kind: dataframe.Int, i: out}
	}
	lf, rf := lv.floats(n), rv.floats(n)
	out := make([]float64, n)
	switch nd.op {
	case "+":
		for j := range out {
			out[j] = lf[j] + rf[j]
		}
	case "-":
		for j := range out {
			out[j] = lf[j] - rf[j]
		}
	case "*":
		for j := range out {
			out[j] = lf[j] * rf[j]
		}
	case "/":
		for j := range out {
			out[j] = lf[j] / rf[j]
		}
	case "%":
		for j := range out {
			out[j] = math.Mod(lf[j], rf[j])
		}
	}
	return vec{kind: dataframe.Float, f: out}
}

// cmpNode is = != < <= > >=, reproducing evalBinary exactly: string/string
// compares lexicographically, mixed string/number equality is always false,
// and ordering over NaN keeps the row engine's cmp==0 quirk (NaN < x is
// false, but NaN <= x is true) by negating the opposite strict comparison.
type cmpNode struct {
	op   string
	l, r vecNode
}

// tryFusedCmp handles the hot "column op constant" comparison shapes
// without materializing the constant as a block-wide slice or the Int
// column as a converted float slice. The per-element semantics are
// identical to the generic path: Int elements still go through float64,
// and the NaN quirk (<= as negated >) is preserved. Returns false when the
// shape is not column-vs-numeric-constant, leaving the generic path to run.
func tryFusedCmp(out []int64, op string, lv, rv vec) bool {
	if lv.cnst && !rv.cnst {
		lv, rv = rv, lv
		op = flipCmp(op)
	}
	if !rv.cnst || lv.cnst {
		return false
	}
	var c float64
	switch rv.kind {
	case dataframe.Float:
		c = rv.f[0]
	case dataframe.Int:
		c = float64(rv.i[0])
	default:
		return false
	}
	switch lv.kind {
	case dataframe.Float:
		cmpFloatConst(out, op, lv.f, c)
	case dataframe.Int:
		cmpIntConst(out, op, lv.i, c)
	default:
		return false
	}
	return true
}

func cmpFloatConst(out []int64, op string, lf []float64, c float64) {
	switch op {
	case "=":
		for j, x := range lf {
			out[j] = b2i(x == c)
		}
	case "!=":
		for j, x := range lf {
			out[j] = b2i(x != c)
		}
	case "<":
		for j, x := range lf {
			out[j] = b2i(x < c)
		}
	case "<=":
		for j, x := range lf {
			out[j] = b2i(!(x > c))
		}
	case ">":
		for j, x := range lf {
			out[j] = b2i(x > c)
		}
	default:
		for j, x := range lf {
			out[j] = b2i(!(x < c))
		}
	}
}

func cmpIntConst(out []int64, op string, li []int64, c float64) {
	switch op {
	case "=":
		for j, x := range li {
			out[j] = b2i(float64(x) == c)
		}
	case "!=":
		for j, x := range li {
			out[j] = b2i(float64(x) != c)
		}
	case "<":
		for j, x := range li {
			out[j] = b2i(float64(x) < c)
		}
	case "<=":
		for j, x := range li {
			out[j] = b2i(!(float64(x) > c))
		}
	case ">":
		for j, x := range li {
			out[j] = b2i(float64(x) > c)
		}
	default:
		for j, x := range li {
			out[j] = b2i(!(float64(x) < c))
		}
	}
}

func (nd *cmpNode) kind() dataframe.Kind { return dataframe.Int }
func (nd *cmpNode) eval(b *block) vec {
	n := b.n()
	lv, rv := nd.l.eval(b), nd.r.eval(b)
	lk, rk := nd.l.kind(), nd.r.kind()
	out := make([]int64, n)
	switch nd.op {
	case "=", "!=":
		want := nd.op == "="
		switch {
		case lk == dataframe.String && rk == dataframe.String:
			ls, rs := lv.strs(n), rv.strs(n)
			for j := range out {
				out[j] = b2i((ls[j] == rs[j]) == want)
			}
		case lk == dataframe.String || rk == dataframe.String:
			// valuesEqual over mismatched kinds is false for every row.
			c := b2i(!want)
			for j := range out {
				out[j] = c
			}
		default:
			if !tryFusedCmp(out, nd.op, lv, rv) {
				lf, rf := lv.floats(n), rv.floats(n)
				for j := range out {
					out[j] = b2i((lf[j] == rf[j]) == want)
				}
			}
		}
	default:
		if lk == dataframe.String && rk == dataframe.String {
			ls, rs := lv.strs(n), rv.strs(n)
			switch nd.op {
			case "<":
				for j := range out {
					out[j] = b2i(ls[j] < rs[j])
				}
			case "<=":
				for j := range out {
					out[j] = b2i(ls[j] <= rs[j])
				}
			case ">":
				for j := range out {
					out[j] = b2i(ls[j] > rs[j])
				}
			default:
				for j := range out {
					out[j] = b2i(ls[j] >= rs[j])
				}
			}
			break
		}
		if tryFusedCmp(out, nd.op, lv, rv) {
			break
		}
		lf, rf := lv.floats(n), rv.floats(n)
		switch nd.op {
		case "<":
			for j := range out {
				out[j] = b2i(lf[j] < rf[j])
			}
		case "<=":
			for j := range out {
				out[j] = b2i(!(lf[j] > rf[j]))
			}
		case ">":
			for j := range out {
				out[j] = b2i(lf[j] > rf[j])
			}
		default:
			for j := range out {
				out[j] = b2i(!(lf[j] < rf[j]))
			}
		}
	}
	return vec{kind: dataframe.Int, i: out}
}

// logicNode is AND/OR. Both sides evaluate fully — safe because compiled
// kernels cannot fail at runtime, so skipping the row engine's
// short-circuit changes nothing observable.
type logicNode struct {
	op   string
	l, r vecNode
}

func (nd *logicNode) kind() dataframe.Kind { return dataframe.Int }
func (nd *logicNode) eval(b *block) vec {
	n := b.n()
	lv, rv := nd.l.eval(b), nd.r.eval(b)
	out := make([]int64, n)
	// Comparison and logic kernels yield non-const Int vectors whose
	// truthiness is simply != 0; combining them directly skips two
	// intermediate bool masks on the hot predicate path.
	if lv.kind == dataframe.Int && rv.kind == dataframe.Int && !lv.cnst && !rv.cnst {
		li, ri := lv.i, rv.i
		if nd.op == "AND" {
			for j := range out {
				out[j] = b2i(li[j] != 0 && ri[j] != 0)
			}
		} else {
			for j := range out {
				out[j] = b2i(li[j] != 0 || ri[j] != 0)
			}
		}
		return vec{kind: dataframe.Int, i: out}
	}
	lm, rm := lv.truthyMask(n), rv.truthyMask(n)
	if nd.op == "AND" {
		for j := range out {
			out[j] = b2i(lm[j] && rm[j])
		}
	} else {
		for j := range out {
			out[j] = b2i(lm[j] || rm[j])
		}
	}
	return vec{kind: dataframe.Int, i: out}
}

type notNode struct{ sub vecNode }

func (nd *notNode) kind() dataframe.Kind { return dataframe.Int }
func (nd *notNode) eval(b *block) vec {
	n := b.n()
	m := nd.sub.eval(b).truthyMask(n)
	out := make([]int64, n)
	for j := range out {
		out[j] = b2i(!m[j])
	}
	return vec{kind: dataframe.Int, i: out}
}

// negNode is unary minus: Int negates in place, everything else negates the
// float coercion (strings become -NaN, matching the row engine).
type negNode struct{ sub vecNode }

func (nd *negNode) kind() dataframe.Kind {
	if nd.sub.kind() == dataframe.Int {
		return dataframe.Int
	}
	return dataframe.Float
}
func (nd *negNode) eval(b *block) vec {
	n := b.n()
	sv := nd.sub.eval(b)
	if nd.sub.kind() == dataframe.Int {
		in := sv.ints(n)
		out := make([]int64, n)
		for j := range out {
			out[j] = -in[j]
		}
		return vec{kind: dataframe.Int, i: out}
	}
	in := sv.floats(n)
	out := make([]float64, n)
	for j := range out {
		out[j] = -in[j]
	}
	return vec{kind: dataframe.Float, f: out}
}

// inNode is IN/NOT IN over a constant member list. valuesEqual semantics:
// string subjects match only string members, numeric subjects compare as
// float64 against numeric members, and NaN never equals anything.
type inNode struct {
	sub    vecNode
	negate bool
	nums   []float64
	strsL  []string
}

func (nd *inNode) kind() dataframe.Kind { return dataframe.Int }
func (nd *inNode) eval(b *block) vec {
	n := b.n()
	sv := nd.sub.eval(b)
	out := make([]int64, n)
	if nd.sub.kind() == dataframe.String {
		ss := sv.strs(n)
		for j := range out {
			found := false
			for _, m := range nd.strsL {
				if ss[j] == m {
					found = true
					break
				}
			}
			out[j] = b2i(found != nd.negate)
		}
		return vec{kind: dataframe.Int, i: out}
	}
	sf := sv.floats(n)
	for j := range out {
		found := false
		for _, m := range nd.nums {
			if sf[j] == m {
				found = true
				break
			}
		}
		out[j] = b2i(found != nd.negate)
	}
	return vec{kind: dataframe.Int, i: out}
}

// betweenNode is BETWEEN/NOT BETWEEN over float coercions, exactly the row
// engine's x >= lo && x <= hi (NaN subjects fail, so NOT BETWEEN keeps
// them).
type betweenNode struct {
	sub, lo, hi vecNode
	negate      bool
}

func (nd *betweenNode) kind() dataframe.Kind { return dataframe.Int }
func (nd *betweenNode) eval(b *block) vec {
	n := b.n()
	x := nd.sub.eval(b).floats(n)
	lo := nd.lo.eval(b).floats(n)
	hi := nd.hi.eval(b).floats(n)
	out := make([]int64, n)
	for j := range out {
		in := x[j] >= lo[j] && x[j] <= hi[j]
		out[j] = b2i(in != nd.negate)
	}
	return vec{kind: dataframe.Int, i: out}
}

// likeNode is LIKE over two string-kind operands.
type likeNode struct{ l, r vecNode }

func (nd *likeNode) kind() dataframe.Kind { return dataframe.Int }
func (nd *likeNode) eval(b *block) vec {
	n := b.n()
	ls := nd.l.eval(b).strs(n)
	ps := nd.r.eval(b).strs(n)
	out := make([]int64, n)
	for j := range out {
		out[j] = b2i(likeMatch(ls[j], ps[j]))
	}
	return vec{kind: dataframe.Int, i: out}
}

// callNode applies a scalar math function over float coercions.
type callNode struct {
	args []vecNode
	f1   func(float64) float64 // single-argument functions
	f2   func(a, b float64) float64
}

func (nd *callNode) kind() dataframe.Kind { return dataframe.Float }
func (nd *callNode) eval(b *block) vec {
	n := b.n()
	a0 := nd.args[0].eval(b).floats(n)
	out := make([]float64, n)
	if nd.f2 != nil {
		a1 := nd.args[1].eval(b).floats(n)
		for j := range out {
			out[j] = nd.f2(a0[j], a1[j])
		}
	} else {
		for j := range out {
			out[j] = nd.f1(a0[j])
		}
	}
	return vec{kind: dataframe.Float, f: out}
}

var scalarKernels = map[string]func(float64) float64{
	"ABS":   math.Abs,
	"SQRT":  math.Sqrt,
	"LOG10": math.Log10,
	"LOG":   math.Log,
	"EXP":   math.Exp,
	"FLOOR": math.Floor,
	"CEIL":  math.Ceil,
	"ROUND": math.Round,
}

// constValue extracts the literal value of an expression the way evalExpr
// would produce it: integral numbers under 1e15 are Int, unary minus folds.
func constValue(e expr) (value, bool) {
	switch v := e.(type) {
	case *numberExpr:
		if v.val == math.Trunc(v.val) && math.Abs(v.val) < 1e15 {
			return intVal(int64(v.val)), true
		}
		return floatVal(v.val), true
	case *stringExpr:
		return stringVal(v.val), true
	case *unaryExpr:
		if v.op != "-" {
			return value{}, false
		}
		sub, ok := constValue(v.sub)
		if !ok {
			return value{}, false
		}
		if sub.kind == dataframe.Int {
			return intVal(-sub.i), true
		}
		return floatVal(-sub.asFloat()), true
	}
	return value{}, false
}

// compileVec lowers an expression to a kernel tree, or reports why no
// kernel covers it. kinds is the table schema.
func compileVec(e expr, kinds map[string]dataframe.Kind) (vecNode, error) {
	switch v := e.(type) {
	case *numberExpr, *stringExpr:
		cv, _ := constValue(v)
		return &constNode{v: cv}, nil
	case *identExpr:
		k, ok := kinds[v.name]
		if !ok {
			return nil, fmt.Errorf("column %q not in table schema", v.name)
		}
		return &colNode{name: v.name, k: k}, nil
	case *unaryExpr:
		sub, err := compileVec(v.sub, kinds)
		if err != nil {
			return nil, err
		}
		switch v.op {
		case "-":
			if c, ok := sub.(*constNode); ok && c.v.kind != dataframe.String {
				if c.v.kind == dataframe.Int {
					return &constNode{v: intVal(-c.v.i)}, nil
				}
				return &constNode{v: floatVal(-c.v.f)}, nil
			}
			return &negNode{sub: sub}, nil
		case "NOT":
			return &notNode{sub: sub}, nil
		}
		return nil, fmt.Errorf("unary operator %q", v.op)
	case *binaryExpr:
		return compileBinary(v, kinds)
	case *inExpr:
		sub, err := compileVec(v.sub, kinds)
		if err != nil {
			return nil, err
		}
		nd := &inNode{sub: sub, negate: v.negate}
		for _, item := range v.list {
			cv, ok := constValue(item)
			if !ok {
				return nil, fmt.Errorf("non-constant IN list member %s", item)
			}
			if cv.kind == dataframe.String {
				nd.strsL = append(nd.strsL, cv.s)
			} else {
				nd.nums = append(nd.nums, cv.asFloat())
			}
		}
		return nd, nil
	case *betweenExpr:
		sub, err := compileVec(v.sub, kinds)
		if err != nil {
			return nil, err
		}
		lo, err := compileVec(v.lo, kinds)
		if err != nil {
			return nil, err
		}
		hi, err := compileVec(v.hi, kinds)
		if err != nil {
			return nil, err
		}
		return &betweenNode{sub: sub, lo: lo, hi: hi, negate: v.negate}, nil
	case *callExpr:
		return compileCall(v, kinds)
	case *aggExpr:
		return nil, fmt.Errorf("aggregate %s in scalar position", v.fn)
	}
	return nil, fmt.Errorf("expression %T has no kernel", e)
}

func compileBinary(v *binaryExpr, kinds map[string]dataframe.Kind) (vecNode, error) {
	l, err := compileVec(v.left, kinds)
	if err != nil {
		return nil, err
	}
	r, err := compileVec(v.right, kinds)
	if err != nil {
		return nil, err
	}
	switch v.op {
	case "AND", "OR":
		return &logicNode{op: v.op, l: l, r: r}, nil
	case "+", "-", "*", "/", "%":
		if l.kind() == dataframe.String || r.kind() == dataframe.String {
			return nil, fmt.Errorf("arithmetic over string operand")
		}
		k := dataframe.Float
		if l.kind() == dataframe.Int && r.kind() == dataframe.Int && v.op != "/" {
			k = dataframe.Int
		}
		if v.op == "%" && k == dataframe.Int {
			// Integer modulo is the one kernel with a dynamic error
			// (modulo by zero), and AND/OR short-circuiting can make the
			// row engine skip it; only a provably nonzero constant
			// divisor is vectorized.
			c, ok := r.(*constNode)
			if !ok || c.v.i == 0 {
				return nil, fmt.Errorf("integer modulo with non-constant or zero divisor")
			}
		}
		return &arithNode{op: v.op, l: l, r: r, k: k}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		return &cmpNode{op: v.op, l: l, r: r}, nil
	case "LIKE":
		if l.kind() != dataframe.String || r.kind() != dataframe.String {
			return nil, fmt.Errorf("LIKE over non-string operands")
		}
		return &likeNode{l: l, r: r}, nil
	}
	return nil, fmt.Errorf("operator %q", v.op)
}

func compileCall(v *callExpr, kinds map[string]dataframe.Kind) (vecNode, error) {
	args := make([]vecNode, len(v.args))
	for i, a := range v.args {
		an, err := compileVec(a, kinds)
		if err != nil {
			return nil, err
		}
		if an.kind() == dataframe.String {
			return nil, fmt.Errorf("function %s over string argument", v.fn)
		}
		args[i] = an
	}
	if v.fn == "POW" {
		return &callNode{args: args, f2: math.Pow}, nil
	}
	if f1, ok := scalarKernels[v.fn]; ok {
		return &callNode{args: args, f1: f1}, nil
	}
	return nil, fmt.Errorf("function %s has no kernel", v.fn)
}

// exprColumns returns the sorted set of schema columns referenced by exprs.
// Only a rowNode can name a column the table lacks, and it reports that row
// by row.
func exprColumns(kinds map[string]dataframe.Kind, exprs ...expr) []string {
	set := map[string]bool{}
	for _, e := range exprs {
		if e != nil {
			e.columns(set)
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		if _, ok := kinds[k]; ok {
			out = append(out, k)
		}
	}
	// Deterministic ordering keeps compacted mini-frames stable.
	sort.Strings(out)
	return out
}
