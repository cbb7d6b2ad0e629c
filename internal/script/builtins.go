package script

import (
	"bytes"
	"fmt"
	"math"
	"path"
	"strings"

	"infera/internal/dataframe"
	"infera/internal/stats"
)

// DefaultRegistry returns the built-in function set: dataframe verbs, the
// stats substrate and plotting. Hosts add domain tools (halo tracking,
// ParaView scenes over ensembles) on top, mirroring the paper's "custom
// algorithmic functions ... added to the system".
func DefaultRegistry() Registry {
	r := Registry{}
	r["load_table"] = biLoadTable
	r["read_csv"] = biReadCSV
	r["save_csv"] = biSaveCSV
	r["result"] = biResult
	r["print"] = biPrint
	r["nrows"] = biNRows

	r["select"] = biSelect
	r["rename"] = biRename
	r["sort"] = biSort
	r["head"] = biHead
	r["join"] = biJoin
	r["concat"] = biConcat
	r["groupby"] = biGroupBy
	r["distinct"] = biDistinct

	r["filter_gt"] = cmpFilter(func(a, b float64) bool { return a > b })
	r["filter_ge"] = cmpFilter(func(a, b float64) bool { return a >= b })
	r["filter_lt"] = cmpFilter(func(a, b float64) bool { return a < b })
	r["filter_le"] = cmpFilter(func(a, b float64) bool { return a <= b })
	r["filter_eq"] = biFilterEq
	r["filter_ne"] = biFilterNe
	r["filter_in"] = biFilterIn

	r["derive_ratio"] = arith2(func(a, b float64) float64 { return a / b })
	r["derive_product"] = arith2(func(a, b float64) float64 { return a * b })
	r["derive_sum"] = arith2(func(a, b float64) float64 { return a + b })
	r["derive_sub"] = arith2(func(a, b float64) float64 { return a - b })
	r["derive_log10"] = arith1(math.Log10)
	r["derive_abs"] = arith1(math.Abs)
	r["derive_scale"] = biDeriveScale
	r["derive_const"] = biDeriveConst
	r["derive_zscore"] = biDeriveZScore
	r["derive_mag3"] = biDeriveMag3

	r["linfit"] = biLinFit
	r["linfit_by"] = biLinFitBy
	r["corr"] = biCorr
	r["corr_matrix"] = biCorrMatrix
	r["zscore_sum"] = biZScoreSum
	r["umap2d"] = biUMAP2D
	r["histogram"] = biHistogram

	registerRelational(r)

	r["line_plot"] = biLinePlot
	r["line_plot_by"] = biLinePlotBy
	r["scatter_plot"] = biScatterPlot
	r["scatter_plot_highlight"] = biScatterPlotHighlight
	r["hist_plot"] = biHistPlot
	return r
}

// Argument helpers ----------------------------------------------------------

func argErr(fn string, i int, want string, got Value) error {
	return fmt.Errorf("TypeError: %s() argument %d must be %s, got %s", fn, i+1, want, kindName(got.Kind))
}

func kindName(k ValueKind) string {
	switch k {
	case KindFrame:
		return "dataframe"
	case KindNum:
		return "number"
	case KindStr:
		return "string"
	case KindBool:
		return "bool"
	case KindList:
		return "list"
	default:
		return "null"
	}
}

func wantArgs(fn string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("TypeError: %s() takes %d arguments, got %d", fn, n, len(args))
	}
	return nil
}

func wantFrame(fn string, args []Value, i int) (*dataframe.Frame, error) {
	if args[i].Kind != KindFrame {
		return nil, argErr(fn, i, "a dataframe", args[i])
	}
	return args[i].Frame, nil
}

func wantStr(fn string, args []Value, i int) (string, error) {
	if args[i].Kind != KindStr {
		return "", argErr(fn, i, "a string", args[i])
	}
	return args[i].Str, nil
}

func wantNum(fn string, args []Value, i int) (float64, error) {
	if args[i].Kind != KindNum {
		return 0, argErr(fn, i, "a number", args[i])
	}
	return args[i].Num, nil
}

func wantBool(fn string, args []Value, i int) (bool, error) {
	if args[i].Kind != KindBool {
		return false, argErr(fn, i, "a bool", args[i])
	}
	return args[i].Bool, nil
}

func wantStrList(fn string, args []Value, i int) ([]string, error) {
	if args[i].Kind != KindList {
		return nil, argErr(fn, i, "a list of strings", args[i])
	}
	out := make([]string, len(args[i].List))
	for j, v := range args[i].List {
		if v.Kind != KindStr {
			return nil, argErr(fn, i, "a list of strings", args[i])
		}
		out[j] = v.Str
	}
	return out, nil
}

// safePath cleans a script's file name into its key in the script's file
// namespace, whose root "/" and "." both name, and refuses a name that
// climbs out of it — the isolation guarantee of §3.2.
func safePath(name string) (string, error) {
	clean := path.Clean(strings.TrimLeft(name, "/"))
	if clean == ".." || strings.HasPrefix(clean, "../") {
		return "", fmt.Errorf("PermissionError: path %q escapes the sandbox", name)
	}
	return clean, nil
}

// writeFile saves data as the artifact name and in the script's file
// namespace, where a later read finds it before an input table. The
// namespace is one flat directory in memory: a write fails as it would in
// a fresh directory on Linux, with the cleaned name in the error.
func writeFile(env *Env, name string, data []byte) error {
	clean, err := safePath(name)
	if err != nil {
		return err
	}
	first, _, nested := strings.Cut(clean, "/")
	_, underFile := env.saved[first]
	why := ""
	switch {
	case clean == ".":
		why = "is a directory"
	case strings.IndexByte(clean, 0) >= 0:
		why = "invalid argument"
	case len(first) > 255:
		why = "file name too long"
	case nested && underFile:
		why = "not a directory"
	case nested:
		why = "no such file or directory"
	}
	if why != "" {
		return fmt.Errorf("OSError: cannot write %q: %s", clean, why)
	}
	env.saved[clean] = data
	return env.AddArtifact(name, data)
}

// IO -------------------------------------------------------------------------

// load_table(name) returns the input table name: a canonical view of
// env.Tables[name] (see Env.Tables), unless the script saved name+".csv".
func biLoadTable(env *Env, args []Value) (Value, error) {
	if err := wantArgs("load_table", args, 1); err != nil {
		return Value{}, err
	}
	name, err := wantStr("load_table", args, 0)
	if err != nil {
		return Value{}, err
	}
	return loadCSV(env, name+".csv", fmt.Errorf("KeyError: table %q not found in sandbox", name))
}

// read_csv(file) returns the frame held by a CSV file — one the script
// saved, or an input table under its file name (name+".csv"), which
// resolves like load_table(name).
func biReadCSV(env *Env, args []Value) (Value, error) {
	if err := wantArgs("read_csv", args, 1); err != nil {
		return Value{}, err
	}
	name, err := wantStr("read_csv", args, 0)
	if err != nil {
		return Value{}, err
	}
	return loadCSV(env, name, fmt.Errorf("FileNotFoundError: %q", name))
}

// loadCSV resolves file to the bytes the script saved under it, else to
// env.Tables, where "<name>.csv" is the table <name>, else to a file under
// env.WorkDir. The script gets what parsing the CSV yields; notFound is
// the error for a file that is none of these.
func loadCSV(env *Env, file string, notFound error) (Value, error) {
	clean, err := safePath(file)
	if err != nil {
		return Value{}, err
	}
	data, ok := env.saved[clean]
	if name, isCSV := strings.CutSuffix(clean, ".csv"); !ok && isCSV && env.Tables[name] != nil {
		return FrameValue(env.Tables[name].CanonicalView()), nil
	}
	if !ok {
		if data, ok = readWorkDir(env, clean); !ok {
			return Value{}, notFound
		}
	}
	f, err := dataframe.ReadCSV(bytes.NewReader(data))
	if err != nil {
		return Value{}, err
	}
	return FrameValue(f), nil
}

func biSaveCSV(env *Env, args []Value) (Value, error) {
	if err := wantArgs("save_csv", args, 2); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("save_csv", args, 0)
	if err != nil {
		return Value{}, err
	}
	name, err := wantStr("save_csv", args, 1)
	if err != nil {
		return Value{}, err
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		return Value{}, err
	}
	if err := writeFile(env, name, buf.Bytes()); err != nil {
		return Value{}, err
	}
	return NullValue(), nil
}

func biResult(env *Env, args []Value) (Value, error) {
	if err := wantArgs("result", args, 1); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("result", args, 0)
	if err != nil {
		return Value{}, err
	}
	env.Result = f
	return NullValue(), nil
}

func biPrint(env *Env, args []Value) (Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		if a.Kind == KindStr {
			parts[i] = a.Str // strings print raw, Python-style
		} else {
			parts[i] = a.String()
		}
	}
	if err := env.AddStdout(strings.Join(parts, " ")); err != nil {
		return Value{}, err
	}
	return NullValue(), nil
}

func biNRows(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("nrows", args, 1); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("nrows", args, 0)
	if err != nil {
		return Value{}, err
	}
	return NumValue(float64(f.NumRows())), nil
}

// Frame verbs -----------------------------------------------------------------

func biSelect(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("select", args, 2); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("select", args, 0)
	if err != nil {
		return Value{}, err
	}
	cols, err := wantStrList("select", args, 1)
	if err != nil {
		return Value{}, err
	}
	out, err := f.Select(cols...)
	if err != nil {
		return Value{}, err
	}
	return FrameValue(out), nil
}

func biRename(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("rename", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("rename", args, 0)
	if err != nil {
		return Value{}, err
	}
	oldName, err := wantStr("rename", args, 1)
	if err != nil {
		return Value{}, err
	}
	newName, err := wantStr("rename", args, 2)
	if err != nil {
		return Value{}, err
	}
	out, err := f.Rename(oldName, newName)
	if err != nil {
		return Value{}, err
	}
	return FrameValue(out), nil
}

func biSort(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("sort", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("sort", args, 0)
	if err != nil {
		return Value{}, err
	}
	col, err := wantStr("sort", args, 1)
	if err != nil {
		return Value{}, err
	}
	desc, err := wantBool("sort", args, 2)
	if err != nil {
		return Value{}, err
	}
	out, err := f.SortBy(dataframe.SortKey{Col: col, Desc: desc})
	if err != nil {
		return Value{}, err
	}
	return FrameValue(out), nil
}

func biHead(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("head", args, 2); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("head", args, 0)
	if err != nil {
		return Value{}, err
	}
	n, err := wantNum("head", args, 1)
	if err != nil {
		return Value{}, err
	}
	return FrameValue(f.Head(int(n))), nil
}

func biJoin(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("join", args, 3); err != nil {
		return Value{}, err
	}
	l, err := wantFrame("join", args, 0)
	if err != nil {
		return Value{}, err
	}
	r, err := wantFrame("join", args, 1)
	if err != nil {
		return Value{}, err
	}
	on, err := wantStr("join", args, 2)
	if err != nil {
		return Value{}, err
	}
	out, err := dataframe.Join(l, r, on, dataframe.Inner)
	if err != nil {
		return Value{}, err
	}
	return FrameValue(out), nil
}

func biConcat(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("concat", args, 2); err != nil {
		return Value{}, err
	}
	a, err := wantFrame("concat", args, 0)
	if err != nil {
		return Value{}, err
	}
	b, err := wantFrame("concat", args, 1)
	if err != nil {
		return Value{}, err
	}
	out := a.Clone()
	if err := out.Append(b); err != nil {
		return Value{}, err
	}
	return FrameValue(out), nil
}

func biGroupBy(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("groupby", args, 5); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("groupby", args, 0)
	if err != nil {
		return Value{}, err
	}
	keys, err := wantStrList("groupby", args, 1)
	if err != nil {
		return Value{}, err
	}
	col, err := wantStr("groupby", args, 2)
	if err != nil {
		return Value{}, err
	}
	opName, err := wantStr("groupby", args, 3)
	if err != nil {
		return Value{}, err
	}
	as, err := wantStr("groupby", args, 4)
	if err != nil {
		return Value{}, err
	}
	op, err := dataframe.ParseAggOp(opName)
	if err != nil {
		return Value{}, err
	}
	agg := dataframe.Agg{Col: col, Op: op, As: as}
	if op == dataframe.Count {
		agg.Col = ""
	}
	out, err := f.GroupBy(keys, []dataframe.Agg{agg})
	if err != nil {
		return Value{}, err
	}
	return FrameValue(out), nil
}

func biDistinct(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("distinct", args, 2); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("distinct", args, 0)
	if err != nil {
		return Value{}, err
	}
	cols, err := wantStrList("distinct", args, 1)
	if err != nil {
		return Value{}, err
	}
	sub, err := f.Select(cols...)
	if err != nil {
		return Value{}, err
	}
	seen := map[string]bool{}
	var keepIdx []int
	for r := 0; r < sub.NumRows(); r++ {
		var sb strings.Builder
		for c := 0; c < sub.NumCols(); c++ {
			sb.WriteString(sub.ColumnAt(c).StringAt(r))
			sb.WriteByte('\x1f')
		}
		if !seen[sb.String()] {
			seen[sb.String()] = true
			keepIdx = append(keepIdx, r)
		}
	}
	return FrameValue(sub.Gather(keepIdx)), nil
}

// Filters ----------------------------------------------------------------------

func cmpFilter(pred func(a, b float64) bool) Func {
	return func(_ *Env, args []Value) (Value, error) {
		if len(args) != 3 {
			return Value{}, fmt.Errorf("TypeError: filter takes 3 arguments, got %d", len(args))
		}
		f, err := wantFrame("filter", args, 0)
		if err != nil {
			return Value{}, err
		}
		col, err := wantStr("filter", args, 1)
		if err != nil {
			return Value{}, err
		}
		threshold, err := wantNum("filter", args, 2)
		if err != nil {
			return Value{}, err
		}
		c, err := f.Column(col)
		if err != nil {
			return Value{}, err
		}
		out := f.Filter(func(i int) bool { return pred(c.FloatAt(i), threshold) })
		return FrameValue(out), nil
	}
}

func biFilterEq(_ *Env, args []Value) (Value, error) {
	return filterEqImpl(args, true)
}

func biFilterNe(_ *Env, args []Value) (Value, error) {
	return filterEqImpl(args, false)
}

func filterEqImpl(args []Value, wantEqual bool) (Value, error) {
	if len(args) != 3 {
		return Value{}, fmt.Errorf("TypeError: filter_eq takes 3 arguments, got %d", len(args))
	}
	f, err := wantFrame("filter_eq", args, 0)
	if err != nil {
		return Value{}, err
	}
	col, err := wantStr("filter_eq", args, 1)
	if err != nil {
		return Value{}, err
	}
	c, err := f.Column(col)
	if err != nil {
		return Value{}, err
	}
	var pred func(i int) bool
	switch args[2].Kind {
	case KindNum:
		want := args[2].Num
		pred = func(i int) bool { return (c.FloatAt(i) == want) == wantEqual }
	case KindStr:
		want := args[2].Str
		pred = func(i int) bool { return (c.StringAt(i) == want) == wantEqual }
	default:
		return Value{}, argErr("filter_eq", 2, "a number or string", args[2])
	}
	return FrameValue(f.Filter(pred)), nil
}

func biFilterIn(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("filter_in", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("filter_in", args, 0)
	if err != nil {
		return Value{}, err
	}
	col, err := wantStr("filter_in", args, 1)
	if err != nil {
		return Value{}, err
	}
	if args[2].Kind != KindList {
		return Value{}, argErr("filter_in", 2, "a list", args[2])
	}
	c, err := f.Column(col)
	if err != nil {
		return Value{}, err
	}
	nums := map[float64]bool{}
	strs := map[string]bool{}
	for _, v := range args[2].List {
		switch v.Kind {
		case KindNum:
			nums[v.Num] = true
		case KindStr:
			strs[v.Str] = true
		default:
			return Value{}, argErr("filter_in", 2, "a list of numbers or strings", args[2])
		}
	}
	out := f.Filter(func(i int) bool {
		return nums[c.FloatAt(i)] || strs[c.StringAt(i)]
	})
	return FrameValue(out), nil
}

// Derivations -------------------------------------------------------------------

func arith2(op func(a, b float64) float64) Func {
	return func(_ *Env, args []Value) (Value, error) {
		if len(args) != 4 {
			return Value{}, fmt.Errorf("TypeError: derive takes 4 arguments, got %d", len(args))
		}
		f, err := wantFrame("derive", args, 0)
		if err != nil {
			return Value{}, err
		}
		name, err := wantStr("derive", args, 1)
		if err != nil {
			return Value{}, err
		}
		a, err := wantStr("derive", args, 2)
		if err != nil {
			return Value{}, err
		}
		b, err := wantStr("derive", args, 3)
		if err != nil {
			return Value{}, err
		}
		ca, err := f.Column(a)
		if err != nil {
			return Value{}, err
		}
		cb, err := f.Column(b)
		if err != nil {
			return Value{}, err
		}
		vals := make([]float64, f.NumRows())
		for i := range vals {
			vals[i] = op(ca.FloatAt(i), cb.FloatAt(i))
		}
		out := shallowWith(f, dataframe.NewFloat(name, vals))
		return FrameValue(out), nil
	}
}

func arith1(op func(a float64) float64) Func {
	return func(_ *Env, args []Value) (Value, error) {
		if len(args) != 3 {
			return Value{}, fmt.Errorf("TypeError: derive takes 3 arguments, got %d", len(args))
		}
		f, err := wantFrame("derive", args, 0)
		if err != nil {
			return Value{}, err
		}
		name, err := wantStr("derive", args, 1)
		if err != nil {
			return Value{}, err
		}
		a, err := wantStr("derive", args, 2)
		if err != nil {
			return Value{}, err
		}
		ca, err := f.Column(a)
		if err != nil {
			return Value{}, err
		}
		vals := make([]float64, f.NumRows())
		for i := range vals {
			vals[i] = op(ca.FloatAt(i))
		}
		return FrameValue(shallowWith(f, dataframe.NewFloat(name, vals))), nil
	}
}

// shallowWith returns a frame sharing f's columns plus col (replacing any
// same-named column).
func shallowWith(f *dataframe.Frame, col *dataframe.Column) *dataframe.Frame {
	out := dataframe.New()
	for i := 0; i < f.NumCols(); i++ {
		c := f.ColumnAt(i)
		if c.Name == col.Name {
			continue
		}
		_ = out.AddColumn(c)
	}
	_ = out.AddColumn(col)
	return out
}

func biDeriveScale(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("derive_scale", args, 4); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("derive_scale", args, 0)
	if err != nil {
		return Value{}, err
	}
	name, err := wantStr("derive_scale", args, 1)
	if err != nil {
		return Value{}, err
	}
	a, err := wantStr("derive_scale", args, 2)
	if err != nil {
		return Value{}, err
	}
	k, err := wantNum("derive_scale", args, 3)
	if err != nil {
		return Value{}, err
	}
	ca, err := f.Column(a)
	if err != nil {
		return Value{}, err
	}
	vals := make([]float64, f.NumRows())
	for i := range vals {
		vals[i] = ca.FloatAt(i) * k
	}
	return FrameValue(shallowWith(f, dataframe.NewFloat(name, vals))), nil
}

func biDeriveConst(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("derive_const", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("derive_const", args, 0)
	if err != nil {
		return Value{}, err
	}
	name, err := wantStr("derive_const", args, 1)
	if err != nil {
		return Value{}, err
	}
	k, err := wantNum("derive_const", args, 2)
	if err != nil {
		return Value{}, err
	}
	vals := make([]float64, f.NumRows())
	for i := range vals {
		vals[i] = k
	}
	return FrameValue(shallowWith(f, dataframe.NewFloat(name, vals))), nil
}

func biDeriveZScore(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("derive_zscore", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("derive_zscore", args, 0)
	if err != nil {
		return Value{}, err
	}
	name, err := wantStr("derive_zscore", args, 1)
	if err != nil {
		return Value{}, err
	}
	a, err := wantStr("derive_zscore", args, 2)
	if err != nil {
		return Value{}, err
	}
	ca, err := f.Column(a)
	if err != nil {
		return Value{}, err
	}
	return FrameValue(shallowWith(f, dataframe.NewFloat(name, stats.ZScores(ca.Floats())))), nil
}

func biDeriveMag3(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("derive_mag3", args, 5); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("derive_mag3", args, 0)
	if err != nil {
		return Value{}, err
	}
	name, err := wantStr("derive_mag3", args, 1)
	if err != nil {
		return Value{}, err
	}
	var cols [3]*dataframe.Column
	for k := 0; k < 3; k++ {
		cn, err := wantStr("derive_mag3", args, 2+k)
		if err != nil {
			return Value{}, err
		}
		c, err := f.Column(cn)
		if err != nil {
			return Value{}, err
		}
		cols[k] = c
	}
	vals := make([]float64, f.NumRows())
	for i := range vals {
		x, y, z := cols[0].FloatAt(i), cols[1].FloatAt(i), cols[2].FloatAt(i)
		vals[i] = math.Sqrt(x*x + y*y + z*z)
	}
	return FrameValue(shallowWith(f, dataframe.NewFloat(name, vals))), nil
}
