// Package script implements the small imperative analysis language that
// InferA's code-generating agents emit and the sandbox executes — the
// stand-in for LLM-generated Python operating on pandas dataframes.
//
// A program is a sequence of statements:
//
//	halos = load_table("halos")
//	big = filter_gt(halos, "fof_halo_mass", 1e14)
//	top = head(sort(big, "fof_halo_mass", true), 100)
//	save_csv(top, "top100.csv")
//	result(top)
//
// Values are dataframes, numbers, strings, booleans and lists. Functions
// come from a Registry; the built-ins cover dataframe manipulation, the
// stats substrate and plotting, and hosts can register custom domain tools
// (halo tracking, ParaView scenes) exactly as §3 describes. Runtime errors
// carry Python-like messages ("KeyError: ...") because the QA repair loop
// keys off them.
package script

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"infera/internal/dataframe"
)

// Value is a runtime value of the DSL.
type Value struct {
	Frame *dataframe.Frame // non-nil for frame values
	Num   float64
	Str   string
	Bool  bool
	List  []Value
	Kind  ValueKind
}

// ValueKind discriminates Value.
type ValueKind uint8

// Value kinds.
const (
	KindFrame ValueKind = iota
	KindNum
	KindStr
	KindBool
	KindList
	KindNull
)

// FrameValue wraps a dataframe.
func FrameValue(f *dataframe.Frame) Value { return Value{Kind: KindFrame, Frame: f} }

// NumValue wraps a number.
func NumValue(v float64) Value { return Value{Kind: KindNum, Num: v} }

// StrValue wraps a string.
func StrValue(s string) Value { return Value{Kind: KindStr, Str: s} }

// BoolValue wraps a bool.
func BoolValue(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// ListValue wraps a list.
func ListValue(items []Value) Value { return Value{Kind: KindList, List: items} }

// NullValue is the unit value returned by side-effecting functions.
func NullValue() Value { return Value{Kind: KindNull} }

// String renders the value compactly for logs.
func (v Value) String() string {
	switch v.Kind {
	case KindFrame:
		return fmt.Sprintf("frame[%dx%d]", v.Frame.NumRows(), v.Frame.NumCols())
	case KindNum:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindStr:
		return strconv.Quote(v.Str)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindList:
		parts := make([]string, len(v.List))
		for i, it := range v.List {
			parts[i] = it.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "null"
	}
}

// RuntimeError is a DSL execution failure with the offending line.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// Func is a callable registered in the interpreter.
type Func func(env *Env, args []Value) (Value, error)

// Registry maps function names to implementations.
type Registry map[string]Func

// Env is the execution environment: variable bindings, the function
// registry, and host-provided context (input tables, working directory for
// file functions, artifact sink).
type Env struct {
	Vars  map[string]Value
	Funcs Registry
	// Tables are the host's input tables. load_table(name) and
	// read_csv(name+".csv") hand the script dataframe.CanonicalView of the
	// entry — the frame its CSV would parse to, over the same immutable
	// vectors — and only look under WorkDir for names not found here. The
	// map and its frames are read, never written.
	Tables    map[string]*dataframe.Frame
	WorkDir   string            // sandbox root for file reads/writes
	Artifacts map[string][]byte // files produced by plot/scene/save functions
	Result    *dataframe.Frame  // set by result()
	Stdout    []string          // lines from print()

	// Budgets bounds the execution; the zero value runs unrestricted.
	Budgets Budgets
	// FuelUsed is the instruction budget consumed so far — identical on
	// every run of a given script, so it doubles as the per-ask CPU
	// accounting unit stamped onto step_finished events.
	FuelUsed int64
	// MemUsed is the cumulative tracked allocation (see Budgets.MaxMemBytes).
	MemUsed int64

	sinceWallCheck int   // charges since the last deadline check
	artifactBytes  int64 // total artifact payload recorded via AddArtifact
	// saved holds the WorkDir paths the script wrote (save_csv, plots),
	// which from then on shadow a same-named entry of Tables as the file
	// always did.
	saved map[string]bool
}

// NewEnv returns an environment with the given registry and working dir.
func NewEnv(funcs Registry, workDir string) *Env {
	return &Env{
		Vars:      map[string]Value{},
		Funcs:     funcs,
		WorkDir:   workDir,
		Artifacts: map[string][]byte{},
	}
}

// stmt is one parsed statement.
type stmt struct {
	line   int
	assign string // variable name, or "" for bare expression
	ex     node
}

// node is an expression AST node.
type node interface{}

type numNode float64
type strNode string
type boolNode bool
type identNode string
type listNode []node
type callNode struct {
	fn   string
	args []node
}

// Program is a parsed script ready to run.
type Program struct {
	stmts []stmt
	src   string
}

// Source returns the original script text.
func (p *Program) Source() string { return p.src }

// Backend is a runnable script.
//
// Deprecated: Program is the only engine; only bench/probes.go names this.
type Backend interface {
	Run(env *Env) error
	Source() string
}

// Compiled is Program.
//
// Deprecated: there is no bytecode form; only bench/probes.go names this.
type Compiled = Program

// Compile is Parse.
//
// Deprecated: use Parse; only bench/probes.go still calls this.
func Compile(src string) (*Compiled, error) { return Parse(src) }

// Parse compiles source text. Blank lines and lines starting with '#' are
// ignored.
func Parse(src string) (*Program, error) {
	prog := &Program{src: src}
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		st, err := parseLine(line, i+1)
		if err != nil {
			return nil, err
		}
		prog.stmts = append(prog.stmts, st)
	}
	return prog, nil
}

func parseLine(line string, lineNo int) (stmt, error) {
	toks, err := lexLine(line, lineNo)
	if err != nil {
		return stmt{}, err
	}
	p := &lineParser{toks: toks, line: lineNo}
	st := stmt{line: lineNo}
	// assignment?
	if len(toks) >= 2 && toks[0].kind == tIdent && toks[1].kind == tSym && toks[1].text == "=" {
		st.assign = toks[0].text
		p.pos = 2
	}
	ex, err := p.expr()
	if err != nil {
		return stmt{}, err
	}
	if p.pos != len(p.toks) {
		return stmt{}, &RuntimeError{lineNo, fmt.Sprintf("SyntaxError: unexpected %q", p.toks[p.pos].text)}
	}
	st.ex = ex
	return st, nil
}

type tokKind uint8

const (
	tIdent tokKind = iota
	tNum
	tStr
	tSym // = ( ) , [ ] true/false handled as ident
)

type tok struct {
	kind tokKind
	text string
}

func lexLine(line string, lineNo int) ([]tok, error) {
	var toks []tok
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '#':
			i = len(line)
		case unicode.IsDigit(rune(c)) || c == '-' || (c == '.' && i+1 < len(line) && unicode.IsDigit(rune(line[i+1]))):
			start := i
			if c == '-' {
				i++
				if i >= len(line) || !(unicode.IsDigit(rune(line[i])) || line[i] == '.') {
					return nil, &RuntimeError{lineNo, "SyntaxError: stray '-'"}
				}
			}
			for i < len(line) && (unicode.IsDigit(rune(line[i])) || line[i] == '.' ||
				line[i] == 'e' || line[i] == 'E' ||
				((line[i] == '+' || line[i] == '-') && (line[i-1] == 'e' || line[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, tok{tNum, line[start:i]})
		case c == '"':
			i++
			var sb strings.Builder
			for {
				if i >= len(line) {
					return nil, &RuntimeError{lineNo, "SyntaxError: unterminated string"}
				}
				if line[i] == '\\' && i+1 < len(line) {
					sb.WriteByte(line[i+1])
					i += 2
					continue
				}
				if line[i] == '"' {
					i++
					break
				}
				sb.WriteByte(line[i])
				i++
			}
			toks = append(toks, tok{tStr, sb.String()})
		case isIdentByte(c):
			start := i
			for i < len(line) && (isIdentByte(line[i]) || unicode.IsDigit(rune(line[i]))) {
				i++
			}
			toks = append(toks, tok{tIdent, line[start:i]})
		case c == '=' || c == '(' || c == ')' || c == ',' || c == '[' || c == ']':
			toks = append(toks, tok{tSym, string(c)})
			i++
		default:
			return nil, &RuntimeError{lineNo, fmt.Sprintf("SyntaxError: unexpected character %q", string(c))}
		}
	}
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

type lineParser struct {
	toks  []tok
	pos   int
	line  int
	depth int
}

// maxExprDepth bounds expression nesting in both the parser and the
// evaluator, so a generated one-liner of a megabyte of "[[[[..." fails
// with a SyntaxError instead of overflowing the daemon's stack.
const maxExprDepth = 100

func (p *lineParser) errf(format string, args ...any) error {
	return &RuntimeError{p.line, fmt.Sprintf(format, args...)}
}

func (p *lineParser) expr() (node, error) {
	if p.pos >= len(p.toks) {
		return nil, p.errf("SyntaxError: unexpected end of line")
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxExprDepth {
		return nil, p.errf("SyntaxError: expression too deeply nested")
	}
	t := p.toks[p.pos]
	switch t.kind {
	case tNum:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("SyntaxError: bad number %q", t.text)
		}
		p.pos++
		return numNode(v), nil
	case tStr:
		p.pos++
		return strNode(t.text), nil
	case tIdent:
		switch t.text {
		case "true":
			p.pos++
			return boolNode(true), nil
		case "false":
			p.pos++
			return boolNode(false), nil
		}
		// call?
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tSym && p.toks[p.pos+1].text == "(" {
			name := t.text
			p.pos += 2
			var args []node
			if !(p.pos < len(p.toks) && p.toks[p.pos].kind == tSym && p.toks[p.pos].text == ")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.pos < len(p.toks) && p.toks[p.pos].kind == tSym && p.toks[p.pos].text == "," {
						p.pos++
						continue
					}
					break
				}
			}
			if !(p.pos < len(p.toks) && p.toks[p.pos].kind == tSym && p.toks[p.pos].text == ")") {
				return nil, p.errf("SyntaxError: expected ')' in call to %s", name)
			}
			p.pos++
			return callNode{fn: name, args: args}, nil
		}
		p.pos++
		return identNode(t.text), nil
	case tSym:
		if t.text == "[" {
			p.pos++
			var items []node
			if !(p.pos < len(p.toks) && p.toks[p.pos].kind == tSym && p.toks[p.pos].text == "]") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					items = append(items, a)
					if p.pos < len(p.toks) && p.toks[p.pos].kind == tSym && p.toks[p.pos].text == "," {
						p.pos++
						continue
					}
					break
				}
			}
			if !(p.pos < len(p.toks) && p.toks[p.pos].kind == tSym && p.toks[p.pos].text == "]") {
				return nil, p.errf("SyntaxError: expected ']'")
			}
			p.pos++
			return listNode(items), nil
		}
	}
	return nil, p.errf("SyntaxError: unexpected token %q", t.text)
}

// Run executes the program in env by walking its syntax tree, charging
// env.Budgets as it goes. Execution stops at the first error.
func (p *Program) Run(env *Env) error {
	for _, st := range p.stmts {
		v, err := evalNode(st.ex, env, st.line, 0)
		if err != nil {
			return err
		}
		if st.assign != "" {
			env.Vars[st.assign] = v
		}
	}
	return nil
}

func evalNode(n node, env *Env, line, depth int) (Value, error) {
	if depth > maxExprDepth {
		return Value{}, &RuntimeError{line, "SyntaxError: expression too deeply nested"}
	}
	if err := env.charge(line, 1); err != nil {
		return Value{}, err
	}
	switch v := n.(type) {
	case numNode:
		return NumValue(float64(v)), nil
	case strNode:
		return StrValue(string(v)), nil
	case boolNode:
		return BoolValue(bool(v)), nil
	case identNode:
		val, ok := env.Vars[string(v)]
		if !ok {
			return Value{}, &RuntimeError{line, fmt.Sprintf("NameError: name %q is not defined", string(v))}
		}
		return val, nil
	case listNode:
		items := make([]Value, len(v))
		for i, it := range v {
			iv, err := evalNode(it, env, line, depth+1)
			if err != nil {
				return Value{}, err
			}
			items[i] = iv
		}
		lv := ListValue(items)
		if err := env.alloc(line, lv); err != nil {
			return Value{}, err
		}
		return lv, nil
	case callNode:
		fn, ok := env.Funcs[v.fn]
		if !ok {
			return Value{}, &RuntimeError{line, fmt.Sprintf("NameError: function %q is not defined", v.fn)}
		}
		args := make([]Value, len(v.args))
		for i, a := range v.args {
			av, err := evalNode(a, env, line, depth+1)
			if err != nil {
				return Value{}, err
			}
			args[i] = av
		}
		if err := env.charge(line, callCost(args)); err != nil {
			return Value{}, err
		}
		out, err := fn(env, args)
		if err != nil {
			return Value{}, wrapCallError(err, line)
		}
		if err := env.alloc(line, out); err != nil {
			return Value{}, err
		}
		return out, nil
	}
	return Value{}, &RuntimeError{line, "SyntaxError: bad expression"}
}
