package dataframe

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// The reference row order and row identity the kernels in rows.go are
// checked against: SortBy and compareCell as they were before the order
// kernel (a boxed comparison per cell under sort.SliceStable), and the
// text-key grouping GroupBy, distinct and the joins each used (a map from
// the rows' StringAt text). The one change is the composite key: each part
// is length-prefixed instead of ending in '\x1f', so that ("x\x1f", "y")
// and ("x", "\x1fy") stay two keys.
//
// refReduce is the group aggregate the script's groupby used before the
// Reducer, unchanged: one operator over one group's member rows, in input
// order.

// refSortBy returns f's rows stably sorted by keys.
func refSortBy(f *Frame, keys ...SortKey) *Frame {
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		cols[i] = f.MustColumn(k.Col)
	}
	idx := make([]int, f.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for j, c := range cols {
			cmp := refCompareCell(c, ia, ib)
			if keys[j].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return f.Gather(idx)
}

func refCompareCell(c *Column, i, j int) int {
	switch c.Kind {
	case Float:
		a, b := c.F[i], c.F[j]
		// NaN sorts last in ascending order.
		switch {
		case math.IsNaN(a) && math.IsNaN(b):
			return 0
		case math.IsNaN(a):
			return 1
		case math.IsNaN(b):
			return -1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case Int:
		a, b := c.I[i], c.I[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default:
		a, b := c.S[i], c.S[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
}

// refKey is row r's text key over cols.
func refKey(cols []*Column, r int) string {
	var sb strings.Builder
	for _, c := range cols {
		s := c.StringAt(r)
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

// refGroup numbers rows [0, n) of cols by their text keys in first-seen
// order, as Group does.
func refGroup(n int, cols ...*Column) (ids, first []int) {
	groupOf := map[string]int{}
	for r := 0; r < n; r++ {
		k := refKey(cols, r)
		g, ok := groupOf[k]
		if !ok {
			g = len(first)
			groupOf[k] = g
			first = append(first, r)
		}
		ids = append(ids, g)
	}
	return ids, first
}

// refFind returns, for each row of probe, the group of the build row with
// the same text key, or -1.
func refFind(build, probe *Column) []int {
	groupOf := map[string]int{}
	ids, _ := refGroup(build.Len(), build)
	for r, g := range ids {
		groupOf[refKey([]*Column{build}, r)] = g
	}
	out := make([]int, probe.Len())
	for r := range out {
		g, ok := groupOf[refKey([]*Column{probe}, r)]
		if !ok {
			g = -1
		}
		out[r] = g
	}
	return out
}

func refReduce(c *Column, rows []int, op AggOp) float64 {
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
