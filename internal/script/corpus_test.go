package script

import (
	"fmt"
	"strings"
)

// differentialCorpus builds the input-path corpus: ~200+ statements across
// success paths (every dataframe verb, stats, plotting, printing, list
// literals), error paths (NameError, TypeError, KeyError, parse errors)
// and budget-sensitive shapes. Each entry is one script; every way its
// input table can reach it must produce identical values, errors,
// artifacts, stdout and fuel for every one of them (TestInputPathsAgree).
func differentialCorpus() []string {
	var corpus []string
	add := func(lines ...string) { corpus = append(corpus, strings.Join(lines, "\n")) }

	// Literals, lists, variables, printing.
	add(`x = 1`, `y = 2.5`, `z = "s"`, `b = true`, `l = [x, y, z, b]`, `print(l)`)
	add(`n = -1.5e10`, `print(n, -0.25, 1e-3)`)
	add(`l = [[1, 2], [3, [4, 5]], []]`, `print(l)`)
	add(`x = ((((((42))))))`, `print(x)`)
	add(`print("a", "b", "c")`, `print(1)`, `print(true, false)`)
	add(`x = 1`, `x = 2`, `x = [x, x]`, `print(x)`)

	// Loading and basic verbs.
	add(`w = load_table("work")`, `print(nrows(w))`, `result(w)`)
	add(`w = load_table("work")`, `s = select(w, ["x", "y"])`, `result(s)`)
	add(`w = load_table("work")`, `r = rename(w, "y", "value")`, `result(r)`)
	add(`w = load_table("work")`, `t = head(sort(w, "y", true), 2)`, `result(t)`)
	add(`w = load_table("work")`, `t = head(sort(w, "y", false), 3)`, `result(t)`)
	add(`w = load_table("work")`, `d = distinct(w, "name")`, `result(d)`)
	add(`w = load_table("work")`, `c = concat(w, w)`, `print(nrows(c))`, `result(c)`)
	add(`w = load_table("work")`, `j = join(w, w, "x")`, `result(j)`)

	// Filters: every comparator over both numeric columns at several
	// thresholds — the bulk of the generated corpus.
	for _, fn := range []string{"filter_gt", "filter_ge", "filter_lt", "filter_le"} {
		for _, col := range []string{"x", "y"} {
			for _, th := range []string{"0", "2", "-3", "10.5"} {
				add(`w = load_table("work")`,
					fmt.Sprintf(`f = %s(w, %q, %s)`, fn, col, th),
					`print(nrows(f))`, `result(f)`)
			}
		}
	}
	add(`w = load_table("work")`, `f = filter_eq(w, "name", "a")`, `result(f)`)
	add(`w = load_table("work")`, `f = filter_ne(w, "name", "a")`, `result(f)`)
	add(`w = load_table("work")`, `f = filter_in(w, "x", [1, 3])`, `result(f)`)

	// Derivations.
	for _, fn := range []string{"derive_ratio", "derive_product", "derive_sum", "derive_sub"} {
		add(`w = load_table("work")`,
			fmt.Sprintf(`d = %s(w, "x", "y", "out")`, fn),
			`result(d)`)
	}
	add(`w = load_table("work")`, `d = derive_abs(w, "y", "ay")`, `result(d)`)
	add(`w = load_table("work")`, `d = derive_scale(w, "x", 2.5, "sx")`, `result(d)`)
	add(`w = load_table("work")`, `d = derive_const(w, "k", 7)`, `result(d)`)
	add(`w = load_table("work")`, `d = derive_zscore(w, "y", "zy")`, `result(d)`)

	// Stats and aggregation.
	add(`w = load_table("work")`, `g = groupby(w, "name", "y", "mean")`, `result(g)`)
	add(`w = load_table("work")`, `g = groupby(w, "name", "x", "sum")`, `result(g)`)
	add(`w = load_table("work")`, `fit = linfit(w, "x", "y")`, `result(fit)`)
	add(`w = load_table("work")`, `c = corr(w, "x", "y")`, `print(c)`)
	add(`w = load_table("work")`, `h = histogram(w, "y", 3)`, `result(h)`)

	// Artifacts: CSV and plots, byte-identical on every path.
	add(`w = load_table("work")`, `save_csv(w, "all.csv")`, `result(w)`)
	add(`w = load_table("work")`, `save_csv(head(w, 2), "two.csv")`, `save_csv(w, "all.csv")`)
	add(`w = load_table("work")`, `scatter_plot(w, "x", "y", "t", "sc.svg")`)
	add(`w = load_table("work")`, `line_plot(w, "x", "y", "t", "ln.svg")`)
	add(`w = load_table("work")`, `hist_plot(w, "y", 4, "h.svg")`)

	// Error paths: identical Python-like texts required on every path.
	add(`x = missing_var`)
	add(`nosuchfn(1)`)
	add(`w = load_table("missing")`)
	add(`w = load_table("work")`, `f = filter_gt(w, "nope", 1)`)
	add(`w = load_table("work")`, `s = select(w, ["x", "nope"])`)
	add(`w = load_table("work")`, `s = sort(w, 1, true)`)
	add(`w = load_table("work")`, `h = head(w)`)
	add(`print(missing)`)
	add(`x = 1`, `y = x(1)`)
	add(`result(1)`)
	add(`save_csv(1, "x.csv")`)
	add(`w = load_table("work")`, `print(nrows(w))`, `boom = filter_gt(w, "x")`)

	// Mixed multi-step pipelines.
	add(`w = load_table("work")`,
		`pos = filter_gt(w, "y", 0)`,
		`s = sort(pos, "y", true)`,
		`t = head(s, 2)`,
		`save_csv(t, "top.csv")`,
		`print("rows:", nrows(t))`,
		`result(t)`)
	add(`w = load_table("work")`,
		`d = derive_ratio(w, "y", "x", "r")`,
		`f = filter_ge(d, "r", 0)`,
		`g = groupby(f, "name", "r", "mean")`,
		`result(g)`)
	add(`w = load_table("work")`,
		`a = select(w, ["x", "y"])`,
		`b = rename(a, "y", "v")`,
		`c = concat(b, b)`,
		`d = distinct(c, "x")`,
		`print(nrows(a), nrows(b), nrows(c), nrows(d))`,
		`result(d)`)

	// A dispatch-heavy analysis script of ~160 statements: one load, then
	// twenty rounds of filter/derive/sort/head/groupby plus list-literal
	// churn, the shape the QA repair loop re-executes.
	rounds := []string{`t = load_table("work")`}
	for i := 0; i < 20; i++ {
		rounds = append(rounds,
			fmt.Sprintf(`l%d = [%d, %d.5, "s%d", true, [%d, %d]]`, i, i, i, i, i, i+1),
			fmt.Sprintf(`f%d = filter_gt(t, "x", %d)`, i, i%5),
			fmt.Sprintf(`d%d = derive_scale(f%d, "y%d", "y", 2.5)`, i, i, i),
			fmt.Sprintf(`h%d = head(sort(d%d, "y%d", true), 5)`, i, i, i),
			fmt.Sprintf(`g%d = groupby(d%d, ["name"], "y%d", "mean", "m")`, i, i, i),
			fmt.Sprintf(`n%d = nrows(h%d)`, i, i),
			fmt.Sprintf(`c%d = concat(h%d, h%d)`, i, i, i),
			fmt.Sprintf(`s%d = select(c%d, ["x", "y"])`, i, i))
	}
	add(append(rounds, `result(g19)`)...)

	return corpus
}
