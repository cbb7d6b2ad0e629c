package sqldb

import (
	"fmt"
	"strconv"
	"strings"

	"infera/internal/dataframe"
)

type parser struct {
	toks  []token
	pos   int
	depth int
}

// maxParseDepth bounds expression recursion (nested parens, NOT/unary
// chains, function arguments) so pathological generated SQL fails with a
// SyntaxError instead of overflowing the goroutine stack.
const maxParseDepth = 100

// enter guards one level of expression recursion; callers must pair a
// successful enter with leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errf("expression too deeply nested")
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// parseSelect parses one SELECT statement; trailing tokens are an error.
func parseSelect(sql string) (*selectStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, found %q", sym, p.cur().text)
	}
	return nil
}

func (p *parser) selectStmt() (*selectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &selectStmt{limit: -1}
	st.distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.items = append(st.items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, p.errf("expected table name, found %q", p.cur().text)
	}
	st.table = p.cur().text
	p.pos++

	if p.acceptKeyword("WHERE") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			st.groupBy = append(st.groupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			item := orderItem{ex: e}
			if p.acceptKeyword("DESC") {
				item.desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.orderBy = append(st.orderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.cur().kind != tokNumber {
			return nil, p.errf("expected LIMIT count, found %q", p.cur().text)
		}
		n, err := strconv.Atoi(p.cur().text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT count %q", p.cur().text)
		}
		st.limit = n
		p.pos++
	}
	return st, nil
}

func (p *parser) selectItem() (selectItem, error) {
	if p.acceptSymbol("*") {
		return selectItem{star: true}, nil
	}
	e, err := p.orExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{ex: e}
	if p.acceptKeyword("AS") {
		if p.cur().kind != tokIdent {
			return selectItem{}, p.errf("expected alias after AS, found %q", p.cur().text)
		}
		item.alias = p.cur().text
		p.pos++
	} else if p.cur().kind == tokIdent {
		// Implicit alias: SELECT expr name
		item.alias = p.cur().text
		p.pos++
	}
	return item, nil
}

// Expression grammar, loosest first:
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((=|!=|<>|<|<=|>|>=|LIKE) add | [NOT] IN (...) | [NOT] BETWEEN add AND add)?
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/|%) unary)*
//	unary  := - unary | primary
//	primary:= number | string | ident | func(args) | agg | ( or )
func (p *parser) orExpr() (expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "OR", left: left, right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "AND", left: left, right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.acceptKeyword("NOT") {
		sub, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "NOT", sub: sub}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.cur().kind == tokKeyword && p.cur().text == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "BETWEEN") {
		negate = true
		p.pos++
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []expr
		for {
			e, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &inExpr{sub: left, list: list, negate: negate}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &betweenExpr{sub: left, lo: lo, hi: hi, negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		right, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &binaryExpr{op: "LIKE", left: left, right: right}, nil
	}
	for _, op := range []string{"=", "!=", "<>", "<=", ">=", "<", ">"} {
		if p.acceptSymbol(op) {
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return &binaryExpr{op: op, left: left, right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) addExpr() (expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			right, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "+", left: left, right: right}
		case p.acceptSymbol("-"):
			right, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "-", left: left, right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) mulExpr() (expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			right, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "*", left: left, right: right}
		case p.acceptSymbol("/"):
			right, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "/", left: left, right: right}
		case p.acceptSymbol("%"):
			right, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "%", left: left, right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) unaryExpr() (expr, error) {
	if p.acceptSymbol("-") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		sub, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "-", sub: sub}, nil
	}
	return p.primary()
}

var scalarFuncs = map[string]int{ // name -> arity (-1 variadic>=1)
	"ABS": 1, "SQRT": 1, "LOG10": 1, "LOG": 1, "EXP": 1, "FLOOR": 1,
	"CEIL": 1, "POW": 2, "ROUND": 1,
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		p.pos++
		return &numberExpr{val: v}, nil
	case tokString:
		p.pos++
		return &stringExpr{val: t.text}, nil
	case tokKeyword:
		// The aggregate keywords are the SQL names of dataframe's
		// reductions: COUNT, SUM, AVG, MIN, MAX, STDDEV and MEDIAN.
		if op, err := dataframe.ParseAggOp(t.text); err == nil {
			fn := t.text
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			if p.acceptSymbol("*") {
				if fn != "COUNT" {
					return nil, p.errf("%s(*) is only valid for COUNT", fn)
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &aggExpr{fn: fn, op: op, star: true}, nil
			}
			arg, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &aggExpr{fn: fn, op: op, arg: arg}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		name := t.text
		// Function call?
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			up := strings.ToUpper(name)
			arity, ok := scalarFuncs[up]
			if !ok {
				return nil, p.errf("unknown function %q", name)
			}
			p.pos += 2 // ident and "("
			var args []expr
			for {
				e, err := p.orExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			if arity >= 0 && len(args) != arity {
				return nil, p.errf("function %s expects %d arguments, got %d", up, arity, len(args))
			}
			return &callExpr{fn: up, args: args}, nil
		}
		p.pos++
		return &identExpr{name: name}, nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}
