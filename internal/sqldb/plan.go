package sqldb

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"infera/internal/dataframe"
)

// This file is the vectorized query planner and executor. A SELECT compiles
// into a vecPlan — kernel trees for the WHERE predicate, projections,
// order keys, group keys and aggregate arguments — that runs directly over
// a table's resident shared-vector segments in blocks of <= blockSize rows:
// no up-front materialization of the segment concat. The plan is
// segment-aware: per-column min/max/NaN stats let WHERE skip whole
// segments, LIMIT without ORDER BY stops at the first k surviving rows,
// and ORDER BY + LIMIT keeps a bounded top-k heap instead of sorting every
// survivor. Statements that don't compile run on the tree-walk engine with
// identical semantics.

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

	where   vecNode // nil when the statement has no WHERE
	grouped bool

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

// planVectorized compiles stmt against a table schema, or reports why the
// statement must run on the tree-walk backend.
func planVectorized(stmt *selectStmt, schema []ColumnMeta) (*vecPlan, error) {
	kinds := make(map[string]dataframe.Kind, len(schema))
	for _, cm := range schema {
		kinds[cm.Name] = cm.Kind
	}
	p := &vecPlan{stmt: stmt, kinds: kinds}
	if stmt.where != nil {
		w, err := compileVec(stmt.where, kinds)
		if err != nil {
			return nil, err
		}
		p.where = w
	}

	if stmt.hasAggregates() || len(stmt.groupBy) > 0 {
		p.grouped = true
		for _, item := range stmt.items {
			if item.star {
				// The row engine rejects this shape at runtime; let it.
				return nil, fallbackf("star projection combined with aggregates")
			}
			collectAggs(item.ex, &p.aggNodes)
		}
		var refExprs []expr
		for _, a := range p.aggNodes {
			if a.star {
				p.aggArgs = append(p.aggArgs, nil)
				continue
			}
			an, err := compileVec(a.arg, kinds)
			if err != nil {
				return nil, err
			}
			p.aggArgs = append(p.aggArgs, an)
			refExprs = append(refExprs, a.arg)
		}
		for _, g := range stmt.groupBy {
			gn, err := compileVec(g, kinds)
			if err != nil {
				return nil, err
			}
			p.groupKeys = append(p.groupKeys, gn)
			refExprs = append(refExprs, g)
		}
		// Select items render per group through the row evaluator
		// (renderGroups) over O(groups) rows, so they need no kernels —
		// any expression shape is fine there, as is grouped ORDER BY,
		// which sorts the output frame.
		p.groupCols = exprColumns(refExprs...)
		return p, nil
	}

	var computeExprs []expr
	for _, item := range stmt.items {
		if item.star {
			for _, cm := range schema {
				p.outs = append(p.outs, vecOut{name: cm.Name, src: cm.Name, kind: cm.Kind})
			}
			continue
		}
		if id, ok := item.ex.(*identExpr); ok {
			k, found := kinds[id.name]
			if !found {
				return nil, fallbackf("column %q not in table schema", id.name)
			}
			p.outs = append(p.outs, vecOut{name: item.outName(), src: id.name, kind: k})
			continue
		}
		nd, err := compileVec(item.ex, kinds)
		if err != nil {
			return nil, err
		}
		p.outs = append(p.outs, vecOut{name: item.outName(), node: nd, kind: nd.kind()})
		computeExprs = append(computeExprs, item.ex)
	}
	p.computeCols = exprColumns(computeExprs...)

	if len(stmt.orderBy) > 0 {
		// Mirror orderKeep's alias rule: an ORDER BY identifier resolves to
		// the select item it aliases only when the scanned source has no
		// column of that name (source columns shadow aliases).
		srcHas := map[string]bool{}
		star := false
		for _, it := range stmt.items {
			if it.star {
				star = true
			}
		}
		if star {
			for _, cm := range schema {
				srcHas[cm.Name] = true
			}
		} else {
			for _, name := range stmt.referencedColumns() {
				if _, ok := kinds[name]; ok {
					srcHas[name] = true
				}
			}
		}
		var ordExprs []expr
		for _, o := range stmt.orderBy {
			ex := o.ex
			if id, ok := o.ex.(*identExpr); ok && !srcHas[id.name] {
				for _, sel := range stmt.items {
					if !sel.star && sel.outName() == id.name {
						ex = sel.ex
						break
					}
				}
			}
			nd, err := compileVec(ex, kinds)
			if err != nil {
				return nil, err
			}
			p.orderNodes = append(p.orderNodes, nd)
			p.orderDesc = append(p.orderDesc, o.desc)
			p.orderStr = append(p.orderStr, nd.kind() == dataframe.String)
			ordExprs = append(ordExprs, ex)
		}
		p.orderCols = exprColumns(ordExprs...)
	}
	return p, nil
}

// run executes the plan over the segment scan.
func (p *vecPlan) run(scan segScan, st *execStats) (*dataframe.Frame, error) {
	if p.grouped {
		return p.runGrouped(scan, st)
	}
	if len(p.stmt.orderBy) > 0 {
		return p.runOrdered(scan, st)
	}
	return p.runRows(scan, st)
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
// and hands surviving rows to fn. Column-lookup caches persist per segment.
func (p *vecPlan) scanBlocks(scan segScan, st *execStats, fn func(si int, b *block, sel []int) error) error {
	sel := make([]int, 0, blockSize)
	for si, seg := range scan.segs {
		if scan.pruned[si] {
			continue
		}
		b := &block{seg: seg}
		n := seg.NumRows()
		for lo := 0; lo < n; lo += blockSize {
			hi := lo + blockSize
			if hi > n {
				hi = n
			}
			b.lo, b.hi = lo, hi
			sel = p.selection(b, sel[:0])
			st.rowsScanned += int64(hi - lo)
			st.rowsFiltered += int64(hi - lo - len(sel))
			if len(sel) == 0 {
				continue
			}
			if err := fn(si, b, sel); err != nil {
				return err
			}
		}
	}
	return nil
}

// compactBlock gathers the named columns at the selected rows into a small
// owned frame, so projection/key kernels evaluate only surviving rows.
func compactBlock(b *block, sel []int, names []string) (*block, error) {
	idx := make([]int, len(sel))
	for j, s := range sel {
		idx[j] = b.lo + s
	}
	sub, err := b.seg.Select(names...)
	if err != nil {
		return nil, err
	}
	return &block{seg: sub.Gather(idx), lo: 0, hi: len(sel)}, nil
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

// runRows executes a non-aggregating, unordered plan in one streaming pass.
// With a LIMIT and no DISTINCT it stops as soon as k rows survive.
func (p *vecPlan) runRows(scan segScan, st *execStats) (*dataframe.Frame, error) {
	builders := p.newBuilders()
	earlyStop := p.stmt.limit >= 0 && !p.stmt.distinct
	if !(earlyStop && p.stmt.limit == 0) {
		total := 0
		sel := make([]int, 0, blockSize)
	scanLoop:
		for si, seg := range scan.segs {
			if scan.pruned[si] {
				continue
			}
			b := &block{seg: seg}
			n := seg.NumRows()
			for lo := 0; lo < n; lo += blockSize {
				hi := lo + blockSize
				if hi > n {
					hi = n
				}
				b.lo, b.hi = lo, hi
				sel = p.selection(b, sel[:0])
				st.rowsScanned += int64(hi - lo)
				st.rowsFiltered += int64(hi - lo - len(sel))
				if earlyStop && total+len(sel) > p.stmt.limit {
					sel = sel[:p.stmt.limit-total]
				}
				if err := p.appendOutputs(builders, b, sel); err != nil {
					return nil, err
				}
				total += len(sel)
				if earlyStop && total >= p.stmt.limit {
					break scanLoop
				}
			}
		}
	}
	out, err := buildersFrame(builders)
	if err != nil {
		return nil, err
	}
	if p.stmt.distinct {
		out = distinctRows(out)
	}
	if p.stmt.limit >= 0 {
		out = out.Head(p.stmt.limit)
	}
	return out, nil
}

// appendOutputs appends the selected rows of one block to every output
// builder. Computed outputs over a partial selection evaluate on a
// compacted mini-frame so kernels only touch surviving rows — exactly the
// rows the tree-walk engine would evaluate.
func (p *vecPlan) appendOutputs(builders []*colBuilder, b *block, sel []int) error {
	if len(sel) == 0 {
		return nil
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
			var err error
			cb, err = compactBlock(b, sel, p.computeCols)
			if err != nil {
				return err
			}
		}
		builders[i].appendVec(o.node.eval(cb), cb.n())
	}
	return nil
}

func floatCmpNaNLast(x, y float64) int {
	switch {
	case math.IsNaN(x) && math.IsNaN(y):
		return 0
	case math.IsNaN(x):
		return 1
	case math.IsNaN(y):
		return -1
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// runOrdered executes a non-aggregating ORDER BY plan: key kernels evaluate
// per block, survivors are either fully collected and stably sorted, or —
// with a LIMIT and no DISTINCT — fed through a bounded top-k heap. The
// final rows gather from the segments afterwards, so non-key columns are
// only touched for rows that actually appear in the result.
func (p *vecPlan) runOrdered(scan segScan, st *execStats) (*dataframe.Frame, error) {
	nk := len(p.orderNodes)
	useTopK := p.stmt.limit >= 0 && !p.stmt.distinct
	keyF := make([][]float64, nk)
	keyS := make([][]string, nk)
	evalKeys := func(b *block, sel []int) error {
		eb := b
		if len(sel) != b.n() {
			var err error
			eb, err = compactBlock(b, sel, p.orderCols)
			if err != nil {
				return err
			}
		}
		kn := len(sel)
		for oi, nd := range p.orderNodes {
			v := nd.eval(eb)
			if p.orderStr[oi] {
				keyS[oi] = v.strs(kn)
			} else {
				keyF[oi] = v.floats(kn)
			}
		}
		return nil
	}

	var refs []rowRef
	if useTopK {
		h := newTopK(p.stmt.limit, p.orderDesc, p.orderStr)
		rowF := make([]float64, nk)
		rowS := make([]string, nk)
		err := p.scanBlocks(scan, st, func(si int, b *block, sel []int) error {
			if p.stmt.limit == 0 {
				return nil
			}
			if err := evalKeys(b, sel); err != nil {
				return err
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
		if err != nil {
			return nil, err
		}
		refs = h.finalize()
	} else {
		accF := make([][]float64, nk)
		accS := make([][]string, nk)
		err := p.scanBlocks(scan, st, func(si int, b *block, sel []int) error {
			if err := evalKeys(b, sel); err != nil {
				return err
			}
			for oi := 0; oi < nk; oi++ {
				if p.orderStr[oi] {
					accS[oi] = append(accS[oi], keyS[oi]...)
				} else {
					accF[oi] = append(accF[oi], keyF[oi]...)
				}
			}
			for j := range sel {
				refs = append(refs, rowRef{seg: int32(si), row: int32(b.lo + sel[j])})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(refs))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			for oi := 0; oi < nk; oi++ {
				var cmp int
				if p.orderStr[oi] {
					cmp = strings.Compare(accS[oi][ia], accS[oi][ib])
				} else {
					cmp = floatCmpNaNLast(accF[oi][ia], accF[oi][ib])
				}
				if p.orderDesc[oi] {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		sorted := make([]rowRef, len(refs))
		for i, j := range idx {
			sorted[i] = refs[j]
		}
		refs = sorted
	}

	out, err := p.buildFromRefs(scan.segs, refs)
	if err != nil {
		return nil, err
	}
	if p.stmt.distinct {
		out = distinctRows(out)
	}
	if p.stmt.limit >= 0 {
		out = out.Head(p.stmt.limit)
	}
	return out, nil
}

// buildFromRefs projects the plan's outputs for an ordered list of row
// references: pass-through columns gather straight from the segments,
// computed outputs evaluate over a frame of gathered source columns.
func (p *vecPlan) buildFromRefs(segs []*dataframe.Frame, refs []rowRef) (*dataframe.Frame, error) {
	needed := map[string]bool{}
	for _, o := range p.outs {
		if o.node == nil {
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
		if o.node == nil {
			c, err := gf.Column(o.src)
			if err != nil {
				return nil, err
			}
			var use *dataframe.Column
			if used[o.src] {
				use = c.Clone()
			} else {
				sh := *c
				use = &sh
				used[o.src] = true
			}
			use.Name = o.name
			if err := out.AddColumn(use); err != nil {
				return nil, err
			}
			continue
		}
		cb := &colBuilder{name: o.name, kind: o.kind, computed: true}
		n := len(refs)
		for lo := 0; lo < n; lo += blockSize {
			hi := lo + blockSize
			if hi > n {
				hi = n
			}
			eb := &block{seg: gf, lo: lo, hi: hi}
			cb.appendVec(o.node.eval(eb), hi-lo)
		}
		if err := out.AddColumn(cb.column()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gatherRefs copies one source column at the referenced rows, in order.
func gatherRefs(segs []*dataframe.Frame, refs []rowRef, name string, kind dataframe.Kind) (*dataframe.Column, error) {
	cols := make([]*dataframe.Column, len(segs))
	colAt := func(si int32) (*dataframe.Column, error) {
		if cols[si] == nil {
			c, err := segs[si].Column(name)
			if err != nil {
				return nil, err
			}
			cols[si] = c
		}
		return cols[si], nil
	}
	switch kind {
	case dataframe.Float:
		out := make([]float64, len(refs))
		for j, r := range refs {
			c, err := colAt(r.seg)
			if err != nil {
				return nil, err
			}
			out[j] = c.F[r.row]
		}
		return dataframe.NewFloat(name, out), nil
	case dataframe.Int:
		out := make([]int64, len(refs))
		for j, r := range refs {
			c, err := colAt(r.seg)
			if err != nil {
				return nil, err
			}
			out[j] = c.I[r.row]
		}
		return dataframe.NewInt(name, out), nil
	default:
		out := make([]string, len(refs))
		for j, r := range refs {
			c, err := colAt(r.seg)
			if err != nil {
				return nil, err
			}
			out[j] = c.S[r.row]
		}
		return dataframe.NewString(name, out), nil
	}
}

// topK is a bounded max-heap keeping the k rows that sort first; the root
// is the current worst survivor. Ties break by arrival order, which
// reproduces the first k rows of the engine's stable full sort.
type topkCand struct {
	fk  []float64
	sk  []string
	ref rowRef
	pos int64
}

type topK struct {
	k     int
	desc  []bool
	isStr []bool
	cands []*topkCand
	next  int64
}

func newTopK(k int, desc, isStr []bool) *topK {
	return &topK{k: k, desc: desc, isStr: isStr}
}

func (t *topK) cmp(a, b *topkCand) int {
	for oi := range t.desc {
		var c int
		if t.isStr[oi] {
			c = strings.Compare(a.sk[oi], b.sk[oi])
		} else {
			c = floatCmpNaNLast(a.fk[oi], b.fk[oi])
		}
		if t.desc[oi] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	switch {
	case a.pos < b.pos:
		return -1
	case a.pos > b.pos:
		return 1
	}
	return 0
}

// cmpRow compares an incoming row's keys against candidate c without
// allocating; key ties mean the newer row sorts after (stable order).
func (t *topK) cmpRow(fk []float64, sk []string, c *topkCand) int {
	for oi := range t.desc {
		var v int
		if t.isStr[oi] {
			v = strings.Compare(sk[oi], c.sk[oi])
		} else {
			v = floatCmpNaNLast(fk[oi], c.fk[oi])
		}
		if t.desc[oi] {
			v = -v
		}
		if v != 0 {
			return v
		}
	}
	return 1
}

func (t *topK) offer(fk []float64, sk []string, ref rowRef) {
	if t.k == 0 {
		return
	}
	pos := t.next
	t.next++
	if len(t.cands) < t.k {
		cand := &topkCand{
			fk:  append([]float64(nil), fk...),
			sk:  append([]string(nil), sk...),
			ref: ref, pos: pos,
		}
		t.cands = append(t.cands, cand)
		t.siftUp(len(t.cands) - 1)
		return
	}
	if t.cmpRow(fk, sk, t.cands[0]) >= 0 {
		return
	}
	t.cands[0] = &topkCand{
		fk:  append([]float64(nil), fk...),
		sk:  append([]string(nil), sk...),
		ref: ref, pos: pos,
	}
	t.siftDown(0)
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.cmp(t.cands[i], t.cands[parent]) <= 0 {
			return
		}
		t.cands[i], t.cands[parent] = t.cands[parent], t.cands[i]
		i = parent
	}
}

func (t *topK) siftDown(i int) {
	n := len(t.cands)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && t.cmp(t.cands[l], t.cands[big]) > 0 {
			big = l
		}
		if r < n && t.cmp(t.cands[r], t.cands[big]) > 0 {
			big = r
		}
		if big == i {
			return
		}
		t.cands[i], t.cands[big] = t.cands[big], t.cands[i]
		i = big
	}
}

// finalize returns the surviving row refs in final sort order.
func (t *topK) finalize() []rowRef {
	sort.Slice(t.cands, func(a, b int) bool { return t.cmp(t.cands[a], t.cands[b]) < 0 })
	refs := make([]rowRef, len(t.cands))
	for i, c := range t.cands {
		refs[i] = c.ref
	}
	return refs
}

// appendDisplay renders element j of a key vector exactly as
// value.display() would (%g floats, %d ints, raw strings) for group-key
// hashing.
func appendDisplay(dst []byte, v vec, j int) []byte {
	if v.cnst {
		j = 0
	}
	switch v.kind {
	case dataframe.Float:
		return strconv.AppendFloat(dst, v.f[j], 'g', -1, 64)
	case dataframe.Int:
		return strconv.AppendInt(dst, v.i[j], 10)
	default:
		return append(dst, v.s[j]...)
	}
}

func newAccs(aggNodes []*aggExpr) []*aggAccumulator {
	accs := make([]*aggAccumulator, len(aggNodes))
	for i, a := range aggNodes {
		accs[i] = newAccumulator(a.fn)
	}
	return accs
}

// runGrouped executes aggregate/GROUP BY plans: group keys and aggregate
// arguments evaluate as vectors per block, accumulation is a single
// streaming pass, and the O(groups)-sized select list renders through the
// shared renderGroups path.
func (p *vecPlan) runGrouped(scan segScan, st *execStats) (*dataframe.Frame, error) {
	var order []*aggGroup
	nKeys := len(p.groupKeys)
	nAggs := len(p.aggNodes)
	keyVecs := make([]vec, nKeys)
	argF := make([][]float64, nAggs)
	keyBuf := make([]byte, 0, 64)

	// Key fast paths: a single Int or String group key needs no rendered
	// composite key — the raw value is an equivalent group identity
	// (display() is injective for int64 and the identity for strings).
	intKey := nKeys == 1 && p.groupKeys[0].kind() == dataframe.Int
	strKey := nKeys == 1 && p.groupKeys[0].kind() == dataframe.String
	groupOf := map[string]*aggGroup{}
	intGroups := map[int64]*aggGroup{}

	err := p.scanBlocks(scan, st, func(si int, b *block, sel []int) error {
		kn := len(sel)
		// Kernels are total functions, so evaluating rows the filter
		// rejected is safe. Unless the filter is highly selective,
		// evaluating the whole block and indexing the survivors beats
		// gathering a compact copy of every referenced column — column
		// references evaluate as zero-copy aliases.
		dense := 4*kn >= b.n()
		eb := b
		if !dense {
			var err error
			eb, err = compactBlock(b, sel, p.groupCols)
			if err != nil {
				return err
			}
		}
		en := eb.n()
		for i, g := range p.groupKeys {
			keyVecs[i] = g.eval(eb)
		}
		var intKeys []int64
		var strKeys []string
		if intKey {
			intKeys = keyVecs[0].ints(en)
		} else if strKey {
			strKeys = keyVecs[0].strs(en)
		}
		for i, a := range p.aggArgs {
			if a != nil {
				argF[i] = a.eval(eb).floats(en)
			}
		}
		for j := 0; j < kn; j++ {
			r := j
			if dense {
				r = sel[j]
			}
			var grp *aggGroup
			var ok bool
			switch {
			case intKey:
				grp, ok = intGroups[intKeys[r]]
			case strKey:
				grp, ok = groupOf[strKeys[r]]
			case nKeys == 0:
				grp, ok = groupOf[""]
			default:
				keyBuf = keyBuf[:0]
				for _, kv := range keyVecs {
					keyBuf = appendDisplay(keyBuf, kv, r)
					keyBuf = append(keyBuf, '\x1f')
				}
				grp, ok = groupOf[string(keyBuf)]
			}
			if !ok {
				grp = &aggGroup{frame: b.seg, row: b.lo + sel[j], accs: newAccs(p.aggNodes)}
				switch {
				case intKey:
					intGroups[intKeys[r]] = grp
				case strKey:
					groupOf[strKeys[r]] = grp
				case nKeys == 0:
					groupOf[""] = grp
				default:
					groupOf[string(keyBuf)] = grp
				}
				order = append(order, grp)
			}
			for i := range p.aggNodes {
				if p.aggArgs[i] == nil {
					grp.accs[i].addFloat(1)
					continue
				}
				grp.accs[i].addFloat(argF[i][r])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.groupKeys) == 0 && len(order) == 0 {
		order = append(order, &aggGroup{row: -1, accs: newAccs(p.aggNodes)})
	}
	out, err := renderGroups(p.stmt, p.aggNodes, order)
	if err != nil {
		return nil, err
	}
	if p.stmt.distinct {
		out = distinctRows(out)
	}
	if len(p.stmt.orderBy) > 0 {
		out, err = orderRows(p.stmt, out)
		if err != nil {
			return nil, err
		}
	}
	if p.stmt.limit >= 0 {
		out = out.Head(p.stmt.limit)
	}
	return out, nil
}

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
