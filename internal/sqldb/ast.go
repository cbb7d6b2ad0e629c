package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"infera/internal/dataframe"
)

// Expression AST. Expressions appear in select lists, WHERE, GROUP BY and
// ORDER BY clauses.
type expr interface {
	// columns appends the column names the expression references.
	columns(dst map[string]bool)
	String() string
}

type identExpr struct{ name string }

func (e *identExpr) columns(dst map[string]bool) { dst[e.name] = true }
func (e *identExpr) String() string              { return e.name }

type numberExpr struct{ val float64 }

func (e *numberExpr) columns(map[string]bool) {}
func (e *numberExpr) String() string          { return fmt.Sprintf("%g", e.val) }

type stringExpr struct{ val string }

func (e *stringExpr) columns(map[string]bool) {}
func (e *stringExpr) String() string          { return "'" + e.val + "'" }

type unaryExpr struct {
	op  string // "-" or "NOT"
	sub expr
}

func (e *unaryExpr) columns(dst map[string]bool) { e.sub.columns(dst) }
func (e *unaryExpr) String() string              { return e.op + " " + e.sub.String() }

type binaryExpr struct {
	op          string // + - * / % = != < <= > >= AND OR LIKE
	left, right expr
}

func (e *binaryExpr) columns(dst map[string]bool) {
	e.left.columns(dst)
	e.right.columns(dst)
}
func (e *binaryExpr) String() string {
	return "(" + e.left.String() + " " + e.op + " " + e.right.String() + ")"
}

type inExpr struct {
	sub    expr
	list   []expr
	negate bool
}

func (e *inExpr) columns(dst map[string]bool) {
	e.sub.columns(dst)
	for _, l := range e.list {
		l.columns(dst)
	}
}
func (e *inExpr) String() string {
	items := make([]string, len(e.list))
	for i, l := range e.list {
		items[i] = l.String()
	}
	op := " IN ("
	if e.negate {
		op = " NOT IN ("
	}
	return e.sub.String() + op + strings.Join(items, ", ") + ")"
}

type betweenExpr struct {
	sub, lo, hi expr
	negate      bool
}

func (e *betweenExpr) columns(dst map[string]bool) {
	e.sub.columns(dst)
	e.lo.columns(dst)
	e.hi.columns(dst)
}
func (e *betweenExpr) String() string {
	op := " BETWEEN "
	if e.negate {
		op = " NOT BETWEEN "
	}
	return e.sub.String() + op + e.lo.String() + " AND " + e.hi.String()
}

type callExpr struct {
	fn   string // upper-cased function name
	args []expr
}

func (e *callExpr) columns(dst map[string]bool) {
	for _, a := range e.args {
		a.columns(dst)
	}
}
func (e *callExpr) String() string {
	items := make([]string, len(e.args))
	for i, a := range e.args {
		items[i] = a.String()
	}
	return e.fn + "(" + strings.Join(items, ", ") + ")"
}

// aggExpr is an aggregate invocation: COUNT(*), SUM(x), AVG(x), MIN, MAX,
// STDDEV, MEDIAN.
type aggExpr struct {
	fn   string          // upper-cased
	op   dataframe.AggOp // fn's reduction (AVG is Mean, STDDEV is Std)
	arg  expr            // nil for COUNT(*)
	star bool
}

func (e *aggExpr) columns(dst map[string]bool) {
	if e.arg != nil {
		e.arg.columns(dst)
	}
}
func (e *aggExpr) String() string {
	if e.star {
		return e.fn + "(*)"
	}
	return e.fn + "(" + e.arg.String() + ")"
}

// selectItem is one projection in the select list.
type selectItem struct {
	ex    expr
	alias string
	star  bool // bare "*"
}

func (s selectItem) outName() string {
	if s.alias != "" {
		return s.alias
	}
	if id, ok := s.ex.(*identExpr); ok {
		return id.name
	}
	return s.ex.String()
}

type orderItem struct {
	ex   expr
	desc bool
}

// selectStmt is a parsed SELECT.
type selectStmt struct {
	distinct bool
	items    []selectItem
	table    string
	where    expr
	groupBy  []expr
	orderBy  []orderItem
	limit    int // -1 if absent
}

// referencedColumns lists every input column the statement touches — the
// scan-pruning set — sorted, so the first missing one is the same on every
// run.
func (s *selectStmt) referencedColumns() []string {
	set := map[string]bool{}
	for _, it := range s.items {
		if !it.star && it.ex != nil {
			it.ex.columns(set)
		}
	}
	if s.where != nil {
		s.where.columns(set)
	}
	for _, g := range s.groupBy {
		g.columns(set)
	}
	// ORDER BY identifiers that name a select alias resolve against the
	// output, not the scan; don't request them from storage.
	aliases := map[string]bool{}
	for _, it := range s.items {
		if !it.star && it.alias != "" {
			aliases[it.alias] = true
		}
	}
	for _, o := range s.orderBy {
		if id, ok := o.ex.(*identExpr); ok && aliases[id.name] {
			continue
		}
		o.ex.columns(set)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// hasStar reports whether the select list has a bare "*".
func (s *selectStmt) hasStar() bool {
	for _, it := range s.items {
		if it.star {
			return true
		}
	}
	return false
}

// hasAggregates reports whether any select item contains an aggregate call.
func (s *selectStmt) hasAggregates() bool {
	for _, it := range s.items {
		if it.star {
			continue
		}
		if containsAgg(it.ex) {
			return true
		}
	}
	return false
}

func containsAgg(e expr) bool {
	switch v := e.(type) {
	case *aggExpr:
		return true
	case *unaryExpr:
		return containsAgg(v.sub)
	case *binaryExpr:
		return containsAgg(v.left) || containsAgg(v.right)
	case *callExpr:
		for _, a := range v.args {
			if containsAgg(a) {
				return true
			}
		}
	case *inExpr:
		if containsAgg(v.sub) {
			return true
		}
	case *betweenExpr:
		return containsAgg(v.sub) || containsAgg(v.lo) || containsAgg(v.hi)
	}
	return false
}
