package dataframe

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// AggOp enumerates group-by aggregation operators.
type AggOp uint8

// Aggregation operators.
const (
	Sum AggOp = iota
	Mean
	Min
	Max
	Count
	Std   // population standard deviation
	First // first value in group order
	Median
)

// String returns the SQL-ish name of the operator.
func (op AggOp) String() string {
	switch op {
	case Sum:
		return "sum"
	case Mean:
		return "mean"
	case Min:
		return "min"
	case Max:
		return "max"
	case Count:
		return "count"
	case Std:
		return "std"
	case First:
		return "first"
	case Median:
		return "median"
	default:
		return fmt.Sprintf("AggOp(%d)", uint8(op))
	}
}

// ParseAggOp maps a name ("sum", "avg", "mean", ...) to an operator.
func ParseAggOp(name string) (AggOp, error) {
	switch strings.ToLower(name) {
	case "sum":
		return Sum, nil
	case "mean", "avg", "average":
		return Mean, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "count":
		return Count, nil
	case "std", "stddev":
		return Std, nil
	case "first":
		return First, nil
	case "median":
		return Median, nil
	default:
		return 0, fmt.Errorf("dataframe: unknown aggregate %q", name)
	}
}

// Agg describes one aggregation: apply Op to column Col, naming the result
// As (defaulting to "op_col").
type Agg struct {
	Col string
	Op  AggOp
	As  string
}

func (a Agg) outName() string {
	if a.As != "" {
		return a.As
	}
	return a.Op.String() + "_" + a.Col
}

// GroupBy groups rows by the exact values of the key columns and applies
// each aggregation within every group. Groups appear in order of first
// occurrence. Key columns are carried through with their first-row values.
func (f *Frame) GroupBy(keys []string, aggs []Agg) (*Frame, error) {
	keyCols := make([]*Column, len(keys))
	for i, k := range keys {
		c, err := f.Column(k)
		if err != nil {
			return nil, err
		}
		keyCols[i] = c
	}
	for _, a := range aggs {
		if a.Op != Count || a.Col != "" {
			if _, err := f.Column(a.Col); err != nil {
				return nil, err
			}
		}
	}

	ids, first := Group(f.NumRows(), keyCols...)
	out := New()
	for i, kc := range keyCols {
		col := kc.gather(first)
		col.Name = keys[i]
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	for _, a := range aggs {
		if err := out.AddColumn(f.aggregate(a, ids, first)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aggregate applies a within the groups of ids (every row's group, as
// Group numbers them), whose first rows are first. First gathers those
// rows; every other operator streams the rows, in order, into a Reducer.
func (f *Frame) aggregate(a Agg, ids, first []int) *Column {
	name := a.outName()
	if a.Op == First {
		col := f.MustColumn(a.Col).gather(first)
		col.Name = name
		return col
	}
	red := NewReducer(a.Op)
	red.grow(len(first))
	if a.Op == Median {
		red.reserve(ids)
	}
	switch src, _ := f.Column(a.Col); {
	case a.Op == Count:
		for _, g := range ids {
			red.Add(g, 0)
		}
	case src.Kind == Float:
		for r, g := range ids {
			red.Add(g, src.F[r])
		}
	default:
		for r, g := range ids {
			red.Add(g, src.FloatAt(r))
		}
	}
	return red.Column(name, len(first))
}

// Reducer is the one group aggregate: it reduces values fed to groups
// numbered densely from 0 (as KeyIndex and Group number them) under one
// operator. The script's groupby and SQL's aggregates, on both engines,
// reduce through it, under one rule: NaN is skipped, so an aggregate over
// no value but NaN is NaN, while Count counts rows, NaN or not. Sum, Mean
// and Std add values in the order Add sees them; Std is the population
// deviation sqrt(sumsq/n − mean²), with a negative variance read as 0;
// Median sorts a group's values with sort.Float64s and takes the middle
// one or the mean of the middle two. First is not a reduction (GroupBy
// gathers each group's first row), and reads NaN here.
type Reducer struct {
	op    AggOp
	n     []int64     // rows (Count) or values that are not NaN
	sum   []float64   // Sum, Mean, Std
	sumsq []float64   // Std
	best  []float64   // Min, Max: the least or greatest value so far
	vals  [][]float64 // Median: the values that are not NaN, in Add order
}

// NewReducer returns an empty reducer for op.
func NewReducer(op AggOp) *Reducer { return &Reducer{op: op} }

// Add feeds v to group g. A group number not seen before grows the state.
func (r *Reducer) Add(g int, v float64) {
	if g >= len(r.n) {
		r.grow(g + 1)
	}
	if v != v && r.op != Count {
		return
	}
	r.n[g]++
	switch r.op {
	case Sum, Mean:
		r.sum[g] += v
	case Std:
		r.sum[g] += v
		r.sumsq[g] += v * v
	case Min:
		if r.n[g] == 1 || v < r.best[g] {
			r.best[g] = v
		}
	case Max:
		if r.n[g] == 1 || v > r.best[g] {
			r.best[g] = v
		}
	case Median:
		r.vals[g] = append(r.vals[g], v)
	}
}

// grow extends the state to n groups.
func (r *Reducer) grow(n int) {
	if n <= len(r.n) {
		return
	}
	k := n - len(r.n)
	r.n = append(r.n, make([]int64, k)...)
	switch r.op {
	case Sum, Mean:
		r.sum = append(r.sum, make([]float64, k)...)
	case Std:
		r.sum = append(r.sum, make([]float64, k)...)
		r.sumsq = append(r.sumsq, make([]float64, k)...)
	case Min, Max:
		r.best = append(r.best, make([]float64, k)...)
	case Median:
		r.vals = append(r.vals, make([][]float64, k)...)
	}
}

// reserve gives each group's Median values room for the group's rows in
// ids, as windows of one buffer, so that Add fills them in place.
func (r *Reducer) reserve(ids []int) {
	count := make([]int, len(r.vals))
	for _, g := range ids {
		count[g]++
	}
	buf := make([]float64, len(ids))
	for g, c := range count {
		r.vals[g], buf = buf[:0:c], buf[c:]
	}
}

// Column returns the results of groups 0 … groups-1, at least every group
// Add has fed, as a column named name: Int for Count, Float otherwise. A
// group Add never fed holds the result over no rows, 0 for Count and NaN
// otherwise.
func (r *Reducer) Column(name string, groups int) *Column {
	r.grow(groups)
	if r.op == Count {
		return NewInt(name, append([]int64(nil), r.n[:groups]...))
	}
	out := make([]float64, groups)
	for g := range out {
		n := float64(r.n[g])
		switch {
		case r.n[g] == 0:
			out[g] = math.NaN()
		case r.op == Sum:
			out[g] = r.sum[g]
		case r.op == Mean:
			out[g] = r.sum[g] / n
		case r.op == Std:
			m := r.sum[g] / n
			v := r.sumsq[g]/n - m*m
			if v < 0 {
				v = 0
			}
			out[g] = math.Sqrt(v)
		case r.op == Min || r.op == Max:
			out[g] = r.best[g]
		case r.op == Median:
			vals := r.vals[g]
			sort.Float64s(vals)
			mid := len(vals) / 2
			if len(vals)%2 == 1 {
				out[g] = vals[mid]
			} else {
				out[g] = (vals[mid-1] + vals[mid]) / 2
			}
		default: // First
			out[g] = math.NaN()
		}
	}
	return NewFloat(name, out)
}
