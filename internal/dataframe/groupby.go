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
	groups := Members(ids, len(first))
	out := New()
	for i, kc := range keyCols {
		col := kc.gather(first)
		col.Name = keys[i]
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	for _, a := range aggs {
		col, err := f.aggregate(a, groups, first)
		if err != nil {
			return nil, err
		}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f *Frame) aggregate(a Agg, groups [][]int, first []int) (*Column, error) {
	name := a.outName()
	if a.Op == Count {
		vals := make([]int64, len(groups))
		for g, rows := range groups {
			vals[g] = int64(len(rows))
		}
		return NewInt(name, vals), nil
	}
	src, err := f.Column(a.Col)
	if err != nil {
		return nil, err
	}
	if a.Op == First {
		col := src.gather(first)
		col.Name = name
		return col, nil
	}
	vals := make([]float64, len(groups))
	for g, rows := range groups {
		vals[g] = reduce(src, rows, a.Op)
	}
	return NewFloat(name, vals), nil
}

func reduce(c *Column, rows []int, op AggOp) float64 {
	switch op {
	case Sum, Mean, Std:
		var sum, sumsq float64
		n := 0
		for _, r := range rows {
			v := c.FloatAt(r)
			if math.IsNaN(v) {
				continue
			}
			sum += v
			sumsq += v * v
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		switch op {
		case Sum:
			return sum
		case Mean:
			return sum / float64(n)
		default:
			m := sum / float64(n)
			v := sumsq/float64(n) - m*m
			if v < 0 {
				v = 0
			}
			return math.Sqrt(v)
		}
	case Min, Max:
		best := math.NaN()
		for _, r := range rows {
			v := c.FloatAt(r)
			if math.IsNaN(v) {
				continue
			}
			if math.IsNaN(best) || (op == Min && v < best) || (op == Max && v > best) {
				best = v
			}
		}
		return best
	case Median:
		vals := make([]float64, 0, len(rows))
		for _, r := range rows {
			v := c.FloatAt(r)
			if !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return math.NaN()
		}
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			return vals[mid]
		}
		return (vals[mid-1] + vals[mid]) / 2
	default:
		return math.NaN()
	}
}
