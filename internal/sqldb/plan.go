package sqldb

import (
	"container/heap"
	"errors"
	"math"
	"slices"
	"sort"

	"infera/internal/dataframe"
)

// This file is the query planner and executor. A SELECT compiles into a
// vecPlan — kernel trees for the WHERE predicate, projections, order keys,
// group keys and aggregate arguments — that runs directly over a table's
// resident shared-vector segments in blocks of <= blockSize rows: no
// up-front materialization of the segment concat. The plan is
// segment-aware: per-column min/max/NaN stats let WHERE skip whole
// segments, LIMIT without ORDER BY stops at the first k surviving rows,
// and ORDER BY + LIMIT keeps a bounded top-k heap instead of sorting every
// survivor. An expression no kernel covers runs on the reference evaluator
// as one rowNode; a plan holding one evaluates it on exactly the rows, and
// in the order, that the tree-walk does, so its errors are the tree-walk's.

// execStats counts scan work for telemetry, filled by both backends.
type execStats struct {
	rowsScanned  int64
	rowsFiltered int64
}

// segScan is the input to a vectorized run: a snapshot of the table's
// resident segments plus per-segment prune decisions.
type segScan struct {
	segs   []*dataframe.Frame
	pruned []bool
}

// rowRef addresses one row inside a segment list.
type rowRef struct {
	seg, row int32
}

// vecOut is one output column of a non-aggregating plan: either a
// pass-through of source column src, or a computed kernel tree.
type vecOut struct {
	name string
	src  string
	node vecNode
	kind dataframe.Kind
}

// vecPlan is a compiled SELECT.
type vecPlan struct {
	stmt  *selectStmt
	kinds map[string]dataframe.Kind
	names []string // the table's columns, in table order

	where   vecNode // nil when the statement has no WHERE
	grouped bool
	starAgg bool // "*" in an aggregating query: fails once WHERE has run

	// Row evaluation: the scan's first row error, the first kernel refusal,
	// and whether a key or an output is a rowNode (or, for an output, a
	// pass-through of a column the table lacks).
	rowErr    rowErr
	rowReason string
	rowKeys   bool
	rowOuts   bool

	// Non-aggregating plans.
	outs        []vecOut
	computeCols []string // columns referenced by computed outputs
	orderNodes  []vecNode
	orderDesc   []bool
	orderStr    []bool
	orderCols   []string // columns referenced by order keys

	// Aggregating plans.
	aggNodes  []*aggExpr
	aggArgs   []vecNode // parallel to aggNodes; nil for COUNT(*)
	groupKeys []vecNode
	groupCols []string // columns referenced by group keys and agg arguments
}

// planVectorized compiles stmt against a table schema. Its one error is
// the tree-walk's up-front one: without a "*", the tree-walk reads exactly
// the referenced columns, so the first one the table lacks fails the
// statement before any row is read.
func planVectorized(stmt *selectStmt, schema []ColumnMeta) (*vecPlan, error) {
	p := &vecPlan{stmt: stmt, kinds: make(map[string]dataframe.Kind, len(schema))}
	for _, cm := range schema {
		p.kinds[cm.Name] = cm.Kind
		p.names = append(p.names, cm.Name)
	}
	star := stmt.hasStar()
	if !star {
		for _, name := range stmt.referencedColumns() {
			if _, ok := p.kinds[name]; !ok {
				return nil, &dataframe.ColumnError{Name: name, Available: p.names}
			}
		}
	}
	if stmt.where != nil {
		p.where = p.compile(stmt.where)
	}
	if stmt.hasAggregates() || len(stmt.groupBy) > 0 {
		p.grouped, p.starAgg = true, star
		if !star {
			p.planGroups()
		}
		return p, nil
	}
	p.planOutputs()
	if len(stmt.orderBy) > 0 {
		p.planOrder(star)
	}
	return p, nil
}

// compile lowers e to kernels or, when compileVec refuses it, to one
// rowNode; the first refusal becomes the plan's rowReason.
func (p *vecPlan) compile(e expr) vecNode {
	nd, err := compileVec(e, p.kinds)
	if err == nil {
		return nd
	}
	if p.rowReason == "" {
		p.rowReason = err.Error()
	}
	return &rowNode{ex: e, names: p.names, err: &p.rowErr}
}

func anyRow(nodes []vecNode) bool {
	for _, nd := range nodes {
		if _, ok := nd.(*rowNode); ok {
			return true
		}
	}
	return false
}

// planGroups compiles the aggregate arguments and group keys. Select items
// render per group through the row evaluator (renderGroups) over O(groups)
// rows, so they need no kernels, and neither does grouped ORDER BY, which
// sorts the output frame.
func (p *vecPlan) planGroups() {
	for _, item := range p.stmt.items {
		collectAggs(item.ex, &p.aggNodes)
	}
	var refExprs []expr
	for _, a := range p.aggNodes {
		var an vecNode
		if !a.star {
			an = p.compile(a.arg)
			refExprs = append(refExprs, a.arg)
		}
		p.aggArgs = append(p.aggArgs, an)
	}
	for _, g := range p.stmt.groupBy {
		p.groupKeys = append(p.groupKeys, p.compile(g))
		refExprs = append(refExprs, g)
	}
	p.rowKeys = anyRow(p.aggArgs) || anyRow(p.groupKeys)
	p.groupCols = exprColumns(p.kinds, refExprs...)
}

// planOutputs compiles the select list of a non-aggregating plan.
func (p *vecPlan) planOutputs() {
	var computeExprs []expr
	for _, item := range p.stmt.items {
		if item.star {
			for _, name := range p.names {
				p.outs = append(p.outs, vecOut{name: name, src: name, kind: p.kinds[name]})
			}
			continue
		}
		if id, ok := item.ex.(*identExpr); ok {
			// A column the table lacks (only possible beside a "*") fails
			// even over zero rows, as the tree-walk's projection does.
			k, found := p.kinds[id.name]
			p.rowOuts = p.rowOuts || !found
			p.outs = append(p.outs, vecOut{name: item.outName(), src: id.name, kind: k})
			continue
		}
		nd := p.compile(item.ex)
		_, isRow := nd.(*rowNode)
		p.rowOuts = p.rowOuts || isRow
		p.outs = append(p.outs, vecOut{name: item.outName(), node: nd, kind: nd.kind()})
		computeExprs = append(computeExprs, item.ex)
	}
	p.computeCols = exprColumns(p.kinds, computeExprs...)
}

// planOrder compiles the ORDER BY keys of a non-aggregating plan.
func (p *vecPlan) planOrder(star bool) {
	// Mirror orderKeep's alias rule: an ORDER BY identifier resolves to
	// the select item it aliases only when the scanned source has no
	// column of that name (source columns shadow aliases).
	srcHas := map[string]bool{}
	src := p.stmt.referencedColumns()
	if star {
		src = p.names
	}
	for _, name := range src {
		srcHas[name] = true
	}
	var ordExprs []expr
	for _, o := range p.stmt.orderBy {
		ex := o.ex
		if id, ok := o.ex.(*identExpr); ok && !srcHas[id.name] {
			for _, sel := range p.stmt.items {
				if !sel.star && sel.outName() == id.name {
					ex = sel.ex
					break
				}
			}
		}
		nd := p.compile(ex)
		p.orderNodes = append(p.orderNodes, nd)
		p.orderDesc = append(p.orderDesc, o.desc)
		p.orderStr = append(p.orderStr, nd.kind() == dataframe.String)
		ordExprs = append(ordExprs, ex)
	}
	p.rowKeys = anyRow(p.orderNodes)
	p.orderCols = exprColumns(p.kinds, ordExprs...)
}

// run executes the plan over the segment scan. A plan with a row-evaluated
// output takes the ordered path, which projects after the scan.
func (p *vecPlan) run(scan segScan, st *execStats) (*dataframe.Frame, error) {
	switch {
	case p.grouped:
		return p.runGrouped(scan, st)
	case len(p.stmt.orderBy) > 0 || p.rowOuts:
		return p.runOrdered(scan, st)
	case p.projection():
		return p.runProjection(scan, st)
	}
	return p.runRows(scan, st)
}

// projection reports whether the plan only names columns (aliases and
// "*" allowed): no WHERE, LIMIT, DISTINCT or computed output. run has
// already sent grouped, ordered and row-evaluated plans elsewhere.
func (p *vecPlan) projection() bool {
	if p.stmt.where != nil || p.stmt.limit >= 0 || p.stmt.distinct {
		return false
	}
	for _, o := range p.outs {
		if o.node != nil {
			return false
		}
	}
	return true
}

// runProjection executes a projection: each output is its source column's
// segment vectors copied back to back (dataframe.ConcatColumn), one copy
// per segment and a copy even of a single segment, so no result aliases a
// segment's vector — a stage buffer that is only lent for the ask's lease.
// The result keeps the segments' column origins, so it has an origin key
// when every segment's column has one (dataframe.Frame.OriginKey) and
// the provenance store copies a repeat of it instead of formatting it.
func (p *vecPlan) runProjection(scan segScan, st *execStats) (*dataframe.Frame, error) {
	out := dataframe.New()
	cols := make([]*dataframe.Column, len(scan.segs))
	for _, o := range p.outs {
		for si, seg := range scan.segs {
			cols[si] = seg.MustColumn(o.src)
		}
		if err := out.AddColumn(dataframe.ConcatColumn(o.name, cols...)); err != nil {
			return nil, err
		}
	}
	for _, seg := range scan.segs {
		st.rowsScanned += int64(seg.NumRows())
	}
	return out, nil
}

// selection evaluates WHERE over the block and appends surviving local row
// indices to sel.
func (p *vecPlan) selection(b *block, sel []int) []int {
	n := b.n()
	if p.where == nil {
		for j := 0; j < n; j++ {
			sel = append(sel, j)
		}
		return sel
	}
	mask := p.where.eval(b).truthyMask(n)
	for j, m := range mask {
		if m {
			sel = append(sel, j)
		}
	}
	return sel
}

// scanBlocks walks every unpruned segment in blocks, filters each block,
// and hands surviving rows to fn (nil only filters). Column-lookup caches
// persist per segment. A row error ends the scan and is returned.
func (p *vecPlan) scanBlocks(scan segScan, st *execStats, fn func(si int, b *block, sel []int) error) error {
	if _, rowWhere := p.where.(*rowNode); rowWhere && p.rowKeys && fn != nil {
		// The tree-walk filters every row before it computes any key, so
		// a WHERE error wins over a key error wherever the two fall.
		if err := p.scanBlocks(scan, &execStats{}, nil); err != nil {
			return err
		}
	}
	sel := make([]int, 0, blockSize)
	for si, seg := range scan.segs {
		if scan.pruned[si] {
			continue
		}
		b := &block{seg: seg}
		n := seg.NumRows()
		for lo := 0; lo < n; lo += blockSize {
			b.lo, b.hi = lo, min(lo+blockSize, n)
			sel = p.selection(b, sel[:0])
			st.rowsScanned += int64(b.n())
			st.rowsFiltered += int64(b.n() - len(sel))
			if fn != nil && len(sel) > 0 && p.rowErr.err == nil {
				if err := fn(si, b, sel); err != nil {
					return err
				}
			}
			if p.rowErr.err != nil {
				return p.rowErr.err
			}
		}
	}
	return nil
}

// compactBlock gathers the named columns at the selected rows into a small
// owned frame, so projection/key kernels evaluate only surviving rows.
func compactBlock(b *block, sel []int, names []string) *block {
	idx := make([]int, len(sel))
	for j, s := range sel {
		idx[j] = b.lo + s
	}
	sub := dataframe.New()
	for _, name := range names {
		_ = sub.AddColumn(b.column(name)) // schema columns, each named once
	}
	return &block{seg: sub.Gather(idx), lo: 0, hi: len(sel)}
}

// colBuilder accumulates one typed output column across blocks. A computed
// output that ends up empty collapses to Int, matching valuesToColumn over
// zero values; pass-through outputs keep their column kind.
type colBuilder struct {
	name     string
	kind     dataframe.Kind
	computed bool
	n        int
	f        []float64
	i        []int64
	s        []string
}

func (cb *colBuilder) appendColumnRows(c *dataframe.Column, lo int, sel []int) {
	switch cb.kind {
	case dataframe.Float:
		for _, j := range sel {
			cb.f = append(cb.f, c.F[lo+j])
		}
	case dataframe.Int:
		for _, j := range sel {
			cb.i = append(cb.i, c.I[lo+j])
		}
	default:
		for _, j := range sel {
			cb.s = append(cb.s, c.S[lo+j])
		}
	}
	cb.n += len(sel)
}

func (cb *colBuilder) appendVec(v vec, n int) {
	switch cb.kind {
	case dataframe.Float:
		cb.f = append(cb.f, v.floats(n)...)
	case dataframe.Int:
		cb.i = append(cb.i, v.ints(n)...)
	default:
		cb.s = append(cb.s, v.strs(n)...)
	}
	cb.n += n
}

func (cb *colBuilder) column() *dataframe.Column {
	if cb.computed && cb.n == 0 {
		return dataframe.NewInt(cb.name, []int64{})
	}
	switch cb.kind {
	case dataframe.Float:
		if cb.f == nil {
			cb.f = []float64{}
		}
		return dataframe.NewFloat(cb.name, cb.f)
	case dataframe.Int:
		if cb.i == nil {
			cb.i = []int64{}
		}
		return dataframe.NewInt(cb.name, cb.i)
	default:
		if cb.s == nil {
			cb.s = []string{}
		}
		return dataframe.NewString(cb.name, cb.s)
	}
}

func (p *vecPlan) newBuilders() []*colBuilder {
	bs := make([]*colBuilder, len(p.outs))
	for i, o := range p.outs {
		bs[i] = &colBuilder{name: o.name, kind: o.kind, computed: o.node != nil}
	}
	return bs
}

func buildersFrame(builders []*colBuilder) (*dataframe.Frame, error) {
	out := dataframe.New()
	for _, cb := range builders {
		if err := out.AddColumn(cb.column()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// finish applies DISTINCT and LIMIT to a projected frame.
func (p *vecPlan) finish(out *dataframe.Frame) *dataframe.Frame {
	if p.stmt.distinct {
		out = out.Distinct()
	}
	if p.stmt.limit >= 0 {
		out = out.Head(p.stmt.limit)
	}
	return out
}

// errLimit ends runRows' scan once LIMIT rows have survived.
var errLimit = errors.New("sqldb: limit reached")

// runRows executes a non-aggregating, unordered plan in one streaming pass.
// With a LIMIT and no DISTINCT it stops as soon as k rows survive, unless
// WHERE runs on the row evaluator: the tree-walk filters every row.
func (p *vecPlan) runRows(scan segScan, st *execStats) (*dataframe.Frame, error) {
	builders := p.newBuilders()
	limit := p.stmt.limit
	if _, rowWhere := p.where.(*rowNode); rowWhere || p.stmt.distinct {
		limit = -1
	}
	total := 0
	err := p.scanBlocks(scan, st, func(_ int, b *block, sel []int) error {
		if limit >= 0 && total+len(sel) > limit {
			sel = sel[:limit-total]
		}
		p.appendOutputs(builders, b, sel)
		if total += len(sel); total == limit {
			return errLimit
		}
		return nil
	})
	if err != nil && !errors.Is(err, errLimit) {
		return nil, err
	}
	out, err := buildersFrame(builders)
	if err != nil {
		return nil, err
	}
	return p.finish(out), nil
}

// appendOutputs appends the selected rows of one block to every output
// builder. Computed outputs over a partial selection evaluate on a
// compacted mini-frame so kernels only touch surviving rows — exactly the
// rows the tree-walk engine would evaluate.
func (p *vecPlan) appendOutputs(builders []*colBuilder, b *block, sel []int) {
	if len(sel) == 0 {
		return
	}
	var cb *block
	for i, o := range p.outs {
		if o.node == nil {
			builders[i].appendColumnRows(b.column(o.src), b.lo, sel)
			continue
		}
		if len(sel) == b.n() {
			builders[i].appendVec(o.node.eval(b), b.n())
			continue
		}
		if cb == nil {
			cb = compactBlock(b, sel, p.computeCols)
		}
		builders[i].appendVec(o.node.eval(cb), cb.n())
	}
}

// runOrdered executes a non-aggregating plan that sorts or has a
// row-evaluated output. Key kernels evaluate per block; survivors are
// either fed through a bounded top-k heap (a LIMIT, no DISTINCT and no
// row-evaluated output) or collected and stably sorted. The outputs are
// built from the final row list afterwards, so non-key columns are only
// touched for rows that appear in the result — or, with a row-evaluated
// output, for every survivor, as the tree-walk's projection does.
func (p *vecPlan) runOrdered(scan segScan, st *execStats) (*dataframe.Frame, error) {
	var refs []rowRef
	var err error
	if p.stmt.limit >= 0 && !p.stmt.distinct && !p.rowOuts {
		refs, err = p.topKRefs(scan, st)
	} else {
		refs, err = p.sortedRefs(scan, st)
	}
	if err != nil {
		return nil, err
	}
	out, err := p.buildFromRefs(scan.segs, refs)
	if err != nil {
		return nil, err
	}
	return p.finish(out), nil
}

// evalKeys evaluates every order key over the selected rows of a block.
func (p *vecPlan) evalKeys(b *block, sel []int, keyF [][]float64, keyS [][]string) {
	eb := b
	if len(sel) != b.n() {
		eb = compactBlock(b, sel, p.orderCols)
	}
	for oi, nd := range p.orderNodes {
		v := nd.eval(eb)
		if p.orderStr[oi] {
			keyS[oi] = v.strs(len(sel))
		} else {
			keyF[oi] = v.floats(len(sel))
		}
	}
}

// topKRefs returns the first LIMIT surviving rows in sort order. A plan
// with one non-string key takes the threshold path (topK.offerKeys): once
// the heap is full, a row that does not sort before the root is rejected
// by one compare. Multi-key and string-key plans offer row by row.
func (p *vecPlan) topKRefs(scan segScan, st *execStats) ([]rowRef, error) {
	nk := len(p.orderNodes)
	keyF, keyS := make([][]float64, nk), make([][]string, nk)
	rowF, rowS := make([]float64, nk), make([]string, nk)
	h := &topK{k: p.stmt.limit, desc: p.orderDesc, keys: p.orderKeys()}
	oneKey := nk == 1 && !p.orderStr[0]
	err := p.scanBlocks(scan, st, func(si int, b *block, sel []int) error {
		p.evalKeys(b, sel, keyF, keyS)
		if oneKey {
			h.offerKeys(keyF[0], si, b.lo, sel)
			return nil
		}
		for j := range sel {
			for oi := 0; oi < nk; oi++ {
				if p.orderStr[oi] {
					rowS[oi] = keyS[oi][j]
				} else {
					rowF[oi] = keyF[oi][j]
				}
			}
			h.offer(rowF, rowS, rowRef{seg: int32(si), row: int32(b.lo + sel[j])})
		}
		return nil
	})
	return h.finalize(), err
}

// sortedRefs returns every surviving row, stably sorted by the order keys.
func (p *vecPlan) sortedRefs(scan segScan, st *execStats) ([]rowRef, error) {
	nk := len(p.orderNodes)
	keyF, keyS := make([][]float64, nk), make([][]string, nk)
	keys := p.orderKeys()
	var refs []rowRef
	err := p.scanBlocks(scan, st, func(si int, b *block, sel []int) error {
		p.evalKeys(b, sel, keyF, keyS)
		for oi, key := range keys { // evalKeys fills one of keyS[oi], keyF[oi]
			key.Col.S = append(key.Col.S, keyS[oi]...)
			key.Col.F = append(key.Col.F, keyF[oi]...)
		}
		for j := range sel {
			refs = append(refs, rowRef{seg: int32(si), row: int32(b.lo + sel[j])})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx := dataframe.SortRows(keys, len(refs))
	sorted := make([]rowRef, len(refs))
	for i, j := range idx {
		sorted[i] = refs[j]
	}
	return sorted, nil
}

// buildFromRefs projects the plan's outputs for an ordered list of row
// references: pass-through columns gather straight from the segments,
// computed outputs evaluate over a frame of gathered source columns, one
// output after another, as the tree-walk's projection does.
func (p *vecPlan) buildFromRefs(segs []*dataframe.Frame, refs []rowRef) (*dataframe.Frame, error) {
	needed := map[string]bool{}
	for _, o := range p.outs {
		if _, ok := p.kinds[o.src]; ok && o.node == nil {
			needed[o.src] = true
		}
	}
	for _, c := range p.computeCols {
		needed[c] = true
	}
	names := make([]string, 0, len(needed))
	for n := range needed {
		names = append(names, n)
	}
	sort.Strings(names)

	gf := dataframe.New()
	for _, name := range names {
		col, err := gatherRefs(segs, refs, name, p.kinds[name])
		if err != nil {
			return nil, err
		}
		if err := gf.AddColumn(col); err != nil {
			return nil, err
		}
	}

	out := dataframe.New()
	used := map[string]bool{}
	for _, o := range p.outs {
		var use *dataframe.Column
		switch nd := o.node.(type) {
		case nil:
			c, err := gf.Column(o.src)
			if err != nil {
				return nil, &dataframe.ColumnError{Name: o.src, Available: p.names}
			}
			if used[o.src] {
				use = c.Clone()
			} else {
				sh := *c
				use = &sh
				used[o.src] = true
			}
			use.Name = o.name
		case *rowNode:
			vals, _, err := nd.values(gf, 0, len(refs))
			if err != nil {
				return nil, err
			}
			use = valuesToColumn(o.name, vals)
		default:
			cb := &colBuilder{name: o.name, kind: o.kind, computed: true}
			for lo := 0; lo < len(refs); lo += blockSize {
				eb := &block{seg: gf, lo: lo, hi: min(lo+blockSize, len(refs))}
				cb.appendVec(nd.eval(eb), eb.n())
			}
			use = cb.column()
		}
		if err := out.AddColumn(use); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gatherRefs copies one source column at the referenced rows, in order.
func gatherRefs(segs []*dataframe.Frame, refs []rowRef, name string, kind dataframe.Kind) (*dataframe.Column, error) {
	cols := make([]*dataframe.Column, len(segs))
	for _, r := range refs {
		if cols[r.seg] == nil {
			c, err := segs[r.seg].Column(name)
			if err != nil {
				return nil, err
			}
			cols[r.seg] = c
		}
	}
	out := &dataframe.Column{Name: name, Kind: kind}
	switch kind {
	case dataframe.Float:
		out.F = gatherCells(refs, cols, func(c *dataframe.Column) []float64 { return c.F })
	case dataframe.Int:
		out.I = gatherCells(refs, cols, func(c *dataframe.Column) []int64 { return c.I })
	default:
		out.S = gatherCells(refs, cols, func(c *dataframe.Column) []string { return c.S })
	}
	return out, nil
}

// gatherCells reads the cell at every ref from its segment's vector.
func gatherCells[T any](refs []rowRef, cols []*dataframe.Column, cells func(*dataframe.Column) []T) []T {
	vals := make([][]T, len(cols))
	for si, c := range cols {
		if c != nil {
			vals[si] = cells(c)
		}
	}
	out := make([]T, len(refs))
	for j, r := range refs {
		out[j] = vals[r.seg][r.row]
	}
	return out
}

// topK is a bounded max-heap keeping the k rows that sort first; the root
// is the current worst survivor. Ties break by arrival order, which
// reproduces the first k rows of the engine's stable full sort. A
// candidate's keys are the row of keys at its slot; a row on offer to a
// full heap is written at slot k and compared there.
type topkCand struct {
	fk   []float64 // the first key's cell at slot, where offerKeys reads it
	slot int
	ref  rowRef
	pos  int64
}

type topK struct {
	k     int
	desc  []bool
	keys  []dataframe.OrderKey
	cands []*topkCand
	next  int64
}

// orderKeys returns empty key columns of the plan's order keys: Float for
// a non-string key (SQL orders Int as float64), String for a string key.
func (p *vecPlan) orderKeys() []dataframe.OrderKey {
	keys := make([]dataframe.OrderKey, len(p.orderNodes))
	for oi := range keys {
		col := dataframe.NewFloat("", nil)
		if p.orderStr[oi] {
			col = dataframe.NewString("", nil)
		}
		keys[oi] = dataframe.OrderKey{Col: col, Desc: p.orderDesc[oi]}
	}
	return keys
}

// cmp orders two candidates by their keys (dataframe.CompareRows), then
// by arrival.
func (t *topK) cmp(a, b *topkCand) int {
	if c := dataframe.CompareRows(t.keys, a.slot, t.keys, b.slot); c != 0 {
		return c
	}
	switch {
	case a.pos < b.pos:
		return -1
	case a.pos > b.pos:
		return 1
	}
	return 0
}

// set writes a row's keys at slot s, one past the last slot growing the
// key columns by a row.
func (t *topK) set(s int, fk []float64, sk []string) {
	for oi, key := range t.keys {
		c := key.Col
		switch {
		case c.Kind == dataframe.String && s == len(c.S):
			c.S = append(c.S, sk[oi])
		case c.Kind == dataframe.String:
			c.S[s] = sk[oi]
		case s == len(c.F):
			c.F = append(c.F, fk[oi])
		default:
			c.F[s] = fk[oi]
		}
	}
}

func (t *topK) offer(fk []float64, sk []string, ref rowRef) {
	if t.k == 0 {
		return
	}
	if len(t.cands) == t.k {
		// A row that ties the root arrived later, so it sorts after it.
		t.set(t.k, fk, sk)
		if t.cmp(&topkCand{slot: t.k, pos: t.next}, t.cands[0]) >= 0 {
			return
		}
	}
	t.push(fk, sk, ref)
}

// offerKeys offers the selected rows of one block to a heap over a single
// float key (Int keys arrive as the float64 that vec.floats yields, which
// is what the tree-walk compares). With the heap full, the root's key
// stays in thr and a row enters only when it sorts strictly before it,
// as cmp decides: a tie goes to the earlier row, and NaN sorts last
// ascending and first descending, as dataframe.CompareRows orders it.
func (t *topK) offerKeys(keys []float64, si, lo int, sel []int) {
	if t.k == 0 {
		return
	}
	j := 0
	for ; j < len(sel) && len(t.cands) < t.k; j++ {
		t.push(keys[j:j+1], nil, rowRef{seg: int32(si), row: int32(lo + sel[j])})
	}
	if j == len(sel) {
		return
	}
	desc := t.desc[0]
	thr := t.cands[0].fk[0]
	for ; j < len(sel); j++ {
		x := keys[j]
		if desc {
			if !(x > thr || math.IsNaN(x) && !math.IsNaN(thr)) {
				continue
			}
		} else if !(x < thr || math.IsNaN(thr) && !math.IsNaN(x)) {
			continue
		}
		t.push(keys[j:j+1], nil, rowRef{seg: int32(si), row: int32(lo + sel[j])})
		thr = t.cands[0].fk[0]
	}
}

// push adds a row to a heap with room, or in place of the root of a full
// heap when the row sorts before it.
func (t *topK) push(fk []float64, sk []string, ref rowRef) {
	slot := len(t.cands)
	if slot == t.k {
		slot = t.cands[0].slot
	}
	t.set(slot, fk, sk)
	cand := &topkCand{slot: slot, ref: ref, pos: t.next}
	if c := t.keys[0].Col; c.Kind == dataframe.Float {
		cand.fk = c.F[slot : slot+1]
	}
	t.next++
	if len(t.cands) < t.k {
		heap.Push(t, cand)
		return
	}
	t.cands[0] = cand
	heap.Fix(t, 0)
}

// The heap.Interface of the candidates: the root sorts last.
func (t *topK) Len() int           { return len(t.cands) }
func (t *topK) Less(i, j int) bool { return t.cmp(t.cands[i], t.cands[j]) > 0 }
func (t *topK) Swap(i, j int)      { t.cands[i], t.cands[j] = t.cands[j], t.cands[i] }
func (t *topK) Push(c any)         { t.cands = append(t.cands, c.(*topkCand)) }
func (t *topK) Pop() any           { panic("sqldb: the top-k heap never pops") }

// finalize returns the surviving row refs in final sort order.
func (t *topK) finalize() []rowRef {
	slices.SortFunc(t.cands, t.cmp)
	refs := make([]rowRef, len(t.cands))
	for i, c := range t.cands {
		refs[i] = c.ref
	}
	return refs
}

// runGrouped executes aggregate/GROUP BY plans: a single streaming pass
// reduces the groups, and the O(groups)-sized select list renders
// through the shared renderGroups path.
func (p *vecPlan) runGrouped(scan segScan, st *execStats) (*dataframe.Frame, error) {
	if p.starAgg {
		if err := p.scanBlocks(scan, st, nil); err != nil {
			return nil, err
		}
		return nil, evalErrf("SELECT * cannot be combined with aggregates")
	}
	order, reds, err := p.accumulate(scan, st)
	if err != nil {
		return nil, err
	}
	if len(p.groupKeys) == 0 && len(order) == 0 {
		order = append(order, aggGroup{row: -1})
	}
	out, err := renderGroups(p.stmt, p.aggNodes, reds, order)
	if err != nil {
		return nil, err
	}
	if p.stmt.distinct {
		out = out.Distinct()
	}
	if len(p.stmt.orderBy) > 0 {
		if out, err = orderRows(p.stmt, out); err != nil {
			return nil, err
		}
	}
	if p.stmt.limit >= 0 {
		out = out.Head(p.stmt.limit)
	}
	return out, nil
}

// accumulate streams the scan into one reducer per aggregate node and
// returns each group's exemplar row, in first-seen group order: group keys
// and aggregate arguments evaluate as vectors per block, and
// dataframe.KeyIndex numbers the groups.
func (p *vecPlan) accumulate(scan segScan, st *execStats) ([]aggGroup, []*dataframe.Reducer, error) {
	var order []aggGroup
	reds := newReducers(p.aggNodes)
	keys := make([]*dataframe.Column, len(p.groupKeys))
	argF := make([][]float64, len(p.aggNodes))
	var groups dataframe.KeyIndex
	var ids []int
	err := p.scanBlocks(scan, st, func(si int, b *block, sel []int) error {
		kn := len(sel)
		// Kernels are total functions, so evaluating rows the filter
		// rejected is safe. Unless the filter is highly selective,
		// evaluating the whole block and indexing the survivors beats
		// gathering a compact copy of every referenced column — column
		// references evaluate as zero-copy aliases.
		dense := 4*kn >= b.n() && !p.rowKeys // a rowNode may fail on a rejected row
		eb, rows := b, sel
		if !dense {
			eb, rows = compactBlock(b, sel, p.groupCols), blockRows[:kn]
		}
		en := eb.n()
		for i, g := range p.groupKeys {
			keys[i] = g.eval(eb).column(en)
		}
		for i, a := range p.aggArgs {
			if a != nil {
				argF[i] = a.eval(eb).floats(en)
			}
		}
		ids = groups.Add(ids[:0], keys, rows)
		for j, g := range ids {
			if g == len(order) {
				order = append(order, aggGroup{frame: b.seg, row: b.lo + sel[j]})
			}
		}
		for i, red := range reds {
			if argF[i] == nil {
				for _, g := range ids {
					red.Add(g, 1)
				}
				continue
			}
			for j, g := range ids {
				red.Add(g, argF[i][rows[j]])
			}
		}
		return nil
	})
	return order, reds, err
}

// blockRows lists the rows of a whole block, 0 … blockSize-1.
var blockRows = func() []int {
	rows := make([]int, blockSize)
	for i := range rows {
		rows[i] = i
	}
	return rows
}()

// ---------------------------------------------------------------------------
// Segment pruning

// tri is a three-valued predicate summary over one whole segment.
type tri int8

const (
	triMaybe tri = iota // some rows may match
	triFalse            // provably no row matches — the segment can be skipped
	triTrue             // provably every row matches
)

// pruneExpr evaluates whether a WHERE expression can be decided for an
// entire segment from per-column min/max/NaN stats. The rules bake in the
// engine's comparison semantics over NaN: NaN < c is false but NaN <= c is
// true (the cmp==0 quirk), NaN never equals anything (so != keeps it), and
// BETWEEN rejects it. stats returns the segment's stats for a column.
func pruneExpr(e expr, stats func(string) (dataframe.Stats, bool)) tri {
	switch v := e.(type) {
	case *binaryExpr:
		switch v.op {
		case "AND":
			l, r := pruneExpr(v.left, stats), pruneExpr(v.right, stats)
			if l == triFalse || r == triFalse {
				return triFalse
			}
			if l == triTrue && r == triTrue {
				return triTrue
			}
			return triMaybe
		case "OR":
			l, r := pruneExpr(v.left, stats), pruneExpr(v.right, stats)
			if l == triTrue || r == triTrue {
				return triTrue
			}
			if l == triFalse && r == triFalse {
				return triFalse
			}
			return triMaybe
		case "=", "!=", "<", "<=", ">", ">=":
			return pruneCmp(v, stats)
		}
		return triMaybe
	case *unaryExpr:
		if v.op == "NOT" {
			switch pruneExpr(v.sub, stats) {
			case triFalse:
				return triTrue
			case triTrue:
				return triFalse
			}
		}
		return triMaybe
	case *inExpr:
		return pruneIn(v, stats)
	case *betweenExpr:
		return pruneBetween(v, stats)
	}
	return triMaybe
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// identStats resolves "column op constant" shapes (either orientation) to
// the column's stats and the constant as float.
func identStats(l, r expr, stats func(string) (dataframe.Stats, bool)) (st dataframe.Stats, c float64, flipped, ok bool) {
	if id, isID := l.(*identExpr); isID {
		if cv, isC := constValue(r); isC && cv.kind != dataframe.String {
			if s, found := stats(id.name); found && s.Valid {
				return s, cv.asFloat(), false, true
			}
		}
		return dataframe.Stats{}, 0, false, false
	}
	if id, isID := r.(*identExpr); isID {
		if cv, isC := constValue(l); isC && cv.kind != dataframe.String {
			if s, found := stats(id.name); found && s.Valid {
				return s, cv.asFloat(), true, true
			}
		}
	}
	return dataframe.Stats{}, 0, false, false
}

func pruneCmp(v *binaryExpr, stats func(string) (dataframe.Stats, bool)) tri {
	st, c, flipped, ok := identStats(v.left, v.right, stats)
	if !ok {
		return triMaybe
	}
	op := v.op
	if flipped {
		op = flipCmp(op)
	}
	switch op {
	case "<": // NaN rows never match
		if st.Min >= c {
			return triFalse
		}
		if st.NaNs == 0 && st.Max < c {
			return triTrue
		}
	case "<=": // NaN rows always match (cmp==0 quirk)
		if st.NaNs == 0 && st.Min > c {
			return triFalse
		}
		if st.Max <= c {
			return triTrue
		}
	case ">": // NaN rows never match
		if st.Max <= c {
			return triFalse
		}
		if st.NaNs == 0 && st.Min > c {
			return triTrue
		}
	case ">=": // NaN rows always match
		if st.NaNs == 0 && st.Max < c {
			return triFalse
		}
		if st.Min >= c {
			return triTrue
		}
	case "=": // NaN rows never match
		if c < st.Min || c > st.Max {
			return triFalse
		}
		if st.NaNs == 0 && st.Min == c && st.Max == c {
			return triTrue
		}
	case "!=": // NaN rows always match
		if st.NaNs == 0 && st.Min == c && st.Max == c {
			return triFalse
		}
		if c < st.Min || c > st.Max {
			return triTrue
		}
	}
	return triMaybe
}

func pruneIn(v *inExpr, stats func(string) (dataframe.Stats, bool)) tri {
	if v.negate {
		return triMaybe
	}
	id, isID := v.sub.(*identExpr)
	if !isID {
		return triMaybe
	}
	st, found := stats(id.name)
	if !found || !st.Valid {
		return triMaybe
	}
	for _, item := range v.list {
		cv, ok := constValue(item)
		if !ok {
			return triMaybe
		}
		if cv.kind == dataframe.String {
			// A string member never equals a numeric column value.
			continue
		}
		c := cv.asFloat()
		if c >= st.Min && c <= st.Max {
			return triMaybe
		}
	}
	return triFalse // every member is outside [min, max]; NaN matches nothing
}

func pruneBetween(v *betweenExpr, stats func(string) (dataframe.Stats, bool)) tri {
	id, isID := v.sub.(*identExpr)
	if !isID {
		return triMaybe
	}
	loV, okLo := constValue(v.lo)
	hiV, okHi := constValue(v.hi)
	if !okLo || !okHi || loV.kind == dataframe.String || hiV.kind == dataframe.String {
		return triMaybe
	}
	st, found := stats(id.name)
	if !found || !st.Valid {
		return triMaybe
	}
	lo, hi := loV.asFloat(), hiV.asFloat()
	allOut := st.Max < lo || st.Min > hi // no non-NaN row inside; NaN rows are outside too
	allIn := st.NaNs == 0 && st.Min >= lo && st.Max <= hi
	if v.negate {
		if allIn {
			return triFalse
		}
		if allOut {
			return triTrue
		}
		return triMaybe
	}
	if allOut {
		return triFalse
	}
	if allIn {
		return triTrue
	}
	return triMaybe
}
