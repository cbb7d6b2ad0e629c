package sqldb

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"infera/internal/dataframe"
)

// blockSize is the number of rows evaluated per batch in filters and
// aggregations; it bounds transient allocation independent of table size.
const blockSize = 8192

// execute runs a parsed statement over a source frame whose columns have
// already been pruned to stmt.referencedColumns() (or the full schema if a
// star projection is present). st (nil-tolerant) receives scan counts.
func execute(stmt *selectStmt, src *dataframe.Frame, st *execStats) (*dataframe.Frame, error) {
	keep, err := filterRows(stmt, src)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.rowsScanned += int64(src.NumRows())
		st.rowsFiltered += int64(src.NumRows() - len(keep))
	}

	var out *dataframe.Frame
	if stmt.hasAggregates() || len(stmt.groupBy) > 0 {
		// Grouped path: ORDER BY resolves against the output frame.
		out, err = executeGrouped(stmt, src, keep)
		if err != nil {
			return nil, err
		}
		if stmt.distinct {
			out = out.Distinct()
		}
		if len(stmt.orderBy) > 0 {
			out, err = orderRows(stmt, out)
			if err != nil {
				return nil, err
			}
		}
	} else {
		// Row path: ORDER BY may reference input columns that the
		// projection drops, so sort the kept row indices first.
		if len(stmt.orderBy) > 0 {
			keep, err = orderKeep(stmt, src, keep)
			if err != nil {
				return nil, err
			}
		}
		out, err = project(stmt, src, keep)
		if err != nil {
			return nil, err
		}
		if stmt.distinct {
			out = out.Distinct()
		}
	}
	if stmt.limit >= 0 {
		out = out.Head(stmt.limit)
	}
	return out, nil
}

// orderKeep stably sorts filtered row indices by the ORDER BY expressions
// evaluated over the source frame.
func orderKeep(stmt *selectStmt, src *dataframe.Frame, keep []int) ([]int, error) {
	nOrd := len(stmt.orderBy)
	// ORDER BY may name an output alias; resolve it to the select item's
	// expression when the source has no such column (SQL lets source
	// columns shadow aliases).
	ordExprs := make([]expr, nOrd)
	for oi, item := range stmt.orderBy {
		ordExprs[oi] = item.ex
		if id, ok := item.ex.(*identExpr); ok && !src.Has(id.name) {
			for _, sel := range stmt.items {
				if !sel.star && sel.outName() == id.name {
					ordExprs[oi] = sel.ex
					break
				}
			}
		}
	}
	kv := make([][]value, len(keep)) // per kept row, per order item
	ctx := &rowContext{frame: src}
	for j, r := range keep {
		ctx.row = r
		vals := make([]value, nOrd)
		for oi := range stmt.orderBy {
			v, err := evalExpr(ordExprs[oi], ctx)
			if err != nil {
				return nil, err
			}
			vals[oi] = v
		}
		kv[j] = vals
	}
	idx := make([]int, len(keep))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for oi, item := range stmt.orderBy {
			cmp := compareValues(kv[idx[a]][oi], kv[idx[b]][oi])
			if item.desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	out := make([]int, len(keep))
	for i, j := range idx {
		out[i] = keep[j]
	}
	return out, nil
}

// compareValues orders two SQL values; NaN sorts last ascending.
func compareValues(a, b value) int {
	if a.kind == dataframe.String && b.kind == dataframe.String {
		return strings.Compare(a.s, b.s)
	}
	return floatCmpNaNLast(a.asFloat(), b.asFloat())
}

// floatCmpNaNLast is the tree-walk's number order: NaN after every
// number, NaNs tie.
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

// filterRows applies WHERE block by block and returns surviving row indices.
func filterRows(stmt *selectStmt, src *dataframe.Frame) ([]int, error) {
	n := src.NumRows()
	keep := make([]int, 0, n)
	if stmt.where == nil {
		for i := 0; i < n; i++ {
			keep = append(keep, i)
		}
		return keep, nil
	}
	ctx := &rowContext{frame: src}
	for lo := 0; lo < n; lo += blockSize {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		for r := lo; r < hi; r++ {
			ctx.row = r
			v, err := evalExpr(stmt.where, ctx)
			if err != nil {
				return nil, err
			}
			if v.truthy() {
				keep = append(keep, r)
			}
		}
	}
	return keep, nil
}

// project evaluates a non-aggregating select list over the kept rows.
func project(stmt *selectStmt, src *dataframe.Frame, keep []int) (*dataframe.Frame, error) {
	out := dataframe.New()
	ctx := &rowContext{frame: src}
	for _, item := range stmt.items {
		if item.star {
			sub := src.Gather(keep)
			for i := 0; i < sub.NumCols(); i++ {
				if err := out.AddColumn(sub.ColumnAt(i)); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Fast path: plain column reference passes through with its kind.
		if id, ok := item.ex.(*identExpr); ok {
			sel, err := src.Select(id.name)
			if err != nil {
				return nil, err
			}
			col := sel.Gather(keep).ColumnAt(0)
			col.Name = item.outName()
			if err := out.AddColumn(col); err != nil {
				return nil, err
			}
			continue
		}
		vals := make([]value, len(keep))
		for j, r := range keep {
			ctx.row = r
			v, err := evalExpr(item.ex, ctx)
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		if err := out.AddColumn(valuesToColumn(item.outName(), vals)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// valuesToColumn converts evaluated values to a typed column: all-int stays
// Int, any float promotes to Float, any string forces String.
func valuesToColumn(name string, vals []value) *dataframe.Column {
	allInt, anyString := true, false
	for _, v := range vals {
		if v.kind != dataframe.Int {
			allInt = false
		}
		if v.kind == dataframe.String {
			anyString = true
		}
	}
	switch {
	case anyString:
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = v.display()
		}
		return dataframe.NewString(name, out)
	case allInt:
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = v.i
		}
		return dataframe.NewInt(name, out)
	default:
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v.asFloat()
		}
		return dataframe.NewFloat(name, out)
	}
}

// groupContext serves identifier lookups from group g's first row and
// aggregate lookups from row g of each aggregate's result column.
type groupContext struct {
	row  *rowContext
	aggs map[*aggExpr]*dataframe.Column
	g    int
}

func (c *groupContext) lookup(name string) (value, error) { return c.row.lookup(name) }
func (c *groupContext) aggValue(e *aggExpr) (value, bool) {
	col, ok := c.aggs[e]
	if !ok {
		return value{}, false
	}
	return cellValue(col, c.g), true
}

// aggGroup is one group's exemplar row (frame + row index) for
// non-aggregate select items; the group's aggregates live in the query's
// reducers, under the group's number. The synthetic empty global group has
// row = -1 and never resolves identifiers (renderGroups rejects
// non-pure-aggregate items first).
type aggGroup struct {
	frame *dataframe.Frame
	row   int
}

// newReducers returns one group reducer per aggregate node.
func newReducers(aggNodes []*aggExpr) []*dataframe.Reducer {
	reds := make([]*dataframe.Reducer, len(aggNodes))
	for i, a := range aggNodes {
		reds[i] = dataframe.NewReducer(a.op)
	}
	return reds
}

// executeGrouped handles aggregate and GROUP BY queries. Group keys are the
// GROUP BY expressions (or one global group when absent), told apart by
// their length-prefixed text, independently of dataframe.KeyIndex; each
// aggregate node reduces per group in a single streaming pass.
func executeGrouped(stmt *selectStmt, src *dataframe.Frame, keep []int) (*dataframe.Frame, error) {
	// Collect distinct aggregate nodes across select items.
	var aggNodes []*aggExpr
	for _, item := range stmt.items {
		if item.star {
			return nil, evalErrf("SELECT * cannot be combined with aggregates")
		}
		collectAggs(item.ex, &aggNodes)
	}

	groupOf := map[string]int{}
	var order []aggGroup
	reds := newReducers(aggNodes)
	ctx := &rowContext{frame: src}
	var sb strings.Builder

	for _, r := range keep {
		ctx.row = r
		sb.Reset()
		for _, g := range stmt.groupBy {
			v, err := evalExpr(g, ctx)
			if err != nil {
				return nil, err
			}
			// Length-prefixed, so no two key tuples render alike.
			d := v.display()
			sb.WriteString(strconv.Itoa(len(d)))
			sb.WriteByte(':')
			sb.WriteString(d)
		}
		key := sb.String()
		g, ok := groupOf[key]
		if !ok {
			g = len(order)
			groupOf[key] = g
			order = append(order, aggGroup{frame: src, row: r})
		}
		for i, a := range aggNodes {
			if a.star {
				reds[i].Add(g, 1)
				continue
			}
			v, err := evalExpr(a.arg, ctx)
			if err != nil {
				return nil, err
			}
			reds[i].Add(g, v.asFloat())
		}
	}
	// A global aggregate over zero rows still yields one row (COUNT = 0).
	if len(stmt.groupBy) == 0 && len(order) == 0 {
		order = append(order, aggGroup{frame: src, row: -1})
	}
	return renderGroups(stmt, aggNodes, reds, order)
}

// renderGroups evaluates the select list once per group, reading group
// gi's aggregates from row gi of each reducer's results, and assembles the
// output frame. Shared by the tree-walk and vectorized backends, so
// grouped projection semantics cannot diverge.
func renderGroups(stmt *selectStmt, aggNodes []*aggExpr, reds []*dataframe.Reducer, order []aggGroup) (*dataframe.Frame, error) {
	itemVals := make([][]value, len(stmt.items))
	for i := range itemVals {
		itemVals[i] = make([]value, len(order))
	}
	aggs := make(map[*aggExpr]*dataframe.Column, len(aggNodes))
	for i, a := range aggNodes {
		aggs[a] = reds[i].Column("", len(order))
	}
	for gi, grp := range order {
		gctx := &groupContext{row: &rowContext{frame: grp.frame, row: grp.row}, aggs: aggs, g: gi}
		for ii, item := range stmt.items {
			if grp.row < 0 && !isPureAggregate(item.ex) {
				return nil, evalErrf("non-aggregate select item over empty input")
			}
			v, err := evalExpr(item.ex, gctx)
			if err != nil {
				return nil, err
			}
			itemVals[ii][gi] = v
		}
	}

	out := dataframe.New()
	for ii, item := range stmt.items {
		if err := out.AddColumn(valuesToColumn(item.outName(), itemVals[ii])); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func isPureAggregate(e expr) bool {
	switch v := e.(type) {
	case *aggExpr:
		return true
	case *numberExpr, *stringExpr:
		return true
	case *unaryExpr:
		return isPureAggregate(v.sub)
	case *binaryExpr:
		return isPureAggregate(v.left) && isPureAggregate(v.right)
	case *callExpr:
		for _, a := range v.args {
			if !isPureAggregate(a) {
				return false
			}
		}
		return true
	}
	return false
}

func collectAggs(e expr, dst *[]*aggExpr) {
	switch v := e.(type) {
	case *aggExpr:
		*dst = append(*dst, v)
	case *unaryExpr:
		collectAggs(v.sub, dst)
	case *binaryExpr:
		collectAggs(v.left, dst)
		collectAggs(v.right, dst)
	case *callExpr:
		for _, a := range v.args {
			collectAggs(a, dst)
		}
	case *inExpr:
		collectAggs(v.sub, dst)
	case *betweenExpr:
		collectAggs(v.sub, dst)
		collectAggs(v.lo, dst)
		collectAggs(v.hi, dst)
	}
}

// orderRows sorts the output frame by the ORDER BY items, which must be
// resolvable against output column names: an item that names an output
// column sorts by it, any other evaluates over the output rows into a key
// column of its own.
func orderRows(stmt *selectStmt, out *dataframe.Frame) (*dataframe.Frame, error) {
	keys := make([]dataframe.OrderKey, len(stmt.orderBy))
	for oi, item := range stmt.orderBy {
		keys[oi].Desc = item.desc
		if id, ok := item.ex.(*identExpr); ok && out.Has(id.name) {
			keys[oi].Col = out.MustColumn(id.name)
			continue
		}
		vals := make([]value, out.NumRows())
		ctx := &rowContext{frame: out}
		for r := range vals {
			ctx.row = r
			v, err := evalExpr(item.ex, ctx)
			if err != nil {
				return nil, err
			}
			vals[r] = v
		}
		keys[oi].Col = valuesToColumn("", vals)
	}
	return out.Gather(dataframe.SortRows(keys, out.NumRows())), nil
}
