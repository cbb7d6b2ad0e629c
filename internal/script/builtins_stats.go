package script

import (
	"fmt"
	"os"

	"infera/internal/dataframe"
	"infera/internal/stats"
	"infera/internal/viz"
)

// Stats built-ins -------------------------------------------------------------

func biLinFit(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("linfit", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("linfit", args, 0)
	if err != nil {
		return Value{}, err
	}
	xcol, err := wantStr("linfit", args, 1)
	if err != nil {
		return Value{}, err
	}
	ycol, err := wantStr("linfit", args, 2)
	if err != nil {
		return Value{}, err
	}
	cx, err := f.Column(xcol)
	if err != nil {
		return Value{}, err
	}
	cy, err := f.Column(ycol)
	if err != nil {
		return Value{}, err
	}
	fit, err := stats.LinearFit(cx.Floats(), cy.Floats())
	if err != nil {
		return Value{}, err
	}
	return FrameValue(fitFrame([]string{""}, []stats.FitResult{fit}, "")), nil
}

func biLinFitBy(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("linfit_by", args, 4); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("linfit_by", args, 0)
	if err != nil {
		return Value{}, err
	}
	group, err := wantStr("linfit_by", args, 1)
	if err != nil {
		return Value{}, err
	}
	xcol, err := wantStr("linfit_by", args, 2)
	if err != nil {
		return Value{}, err
	}
	ycol, err := wantStr("linfit_by", args, 3)
	if err != nil {
		return Value{}, err
	}
	cg, err := f.Column(group)
	if err != nil {
		return Value{}, err
	}
	cx, err := f.Column(xcol)
	if err != nil {
		return Value{}, err
	}
	cy, err := f.Column(ycol)
	if err != nil {
		return Value{}, err
	}
	// Partition rows by group value, preserving first-seen order.
	rowsOf := map[string][]int{}
	var order []string
	for r := 0; r < f.NumRows(); r++ {
		k := cg.StringAt(r)
		if _, ok := rowsOf[k]; !ok {
			order = append(order, k)
		}
		rowsOf[k] = append(rowsOf[k], r)
	}
	var keys []string
	var fits []stats.FitResult
	for _, k := range order {
		rows := rowsOf[k]
		xs := make([]float64, len(rows))
		ys := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = cx.FloatAt(r)
			ys[i] = cy.FloatAt(r)
		}
		fit, err := stats.LinearFit(xs, ys)
		if err != nil {
			return Value{}, fmt.Errorf("ValueError: fit for group %q: %s", k, err)
		}
		keys = append(keys, k)
		fits = append(fits, fit)
	}
	return FrameValue(fitFrame(keys, fits, group)), nil
}

// fitFrame renders fit results; groupCol == "" omits the group column.
func fitFrame(keys []string, fits []stats.FitResult, groupCol string) *dataframe.Frame {
	out := dataframe.New()
	if groupCol != "" {
		_ = out.AddColumn(dataframe.NewString(groupCol, keys))
	}
	slopes := make([]float64, len(fits))
	icepts := make([]float64, len(fits))
	rs := make([]float64, len(fits))
	scatters := make([]float64, len(fits))
	ns := make([]int64, len(fits))
	for i, fit := range fits {
		slopes[i] = fit.Slope
		icepts[i] = fit.Intercept
		rs[i] = fit.R
		scatters[i] = fit.Scatter
		ns[i] = int64(fit.N)
	}
	_ = out.AddColumn(dataframe.NewFloat("slope", slopes))
	_ = out.AddColumn(dataframe.NewFloat("intercept", icepts))
	_ = out.AddColumn(dataframe.NewFloat("r", rs))
	_ = out.AddColumn(dataframe.NewFloat("scatter", scatters))
	_ = out.AddColumn(dataframe.NewInt("n", ns))
	return out
}

func biCorr(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("corr", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("corr", args, 0)
	if err != nil {
		return Value{}, err
	}
	xcol, err := wantStr("corr", args, 1)
	if err != nil {
		return Value{}, err
	}
	ycol, err := wantStr("corr", args, 2)
	if err != nil {
		return Value{}, err
	}
	cx, err := f.Column(xcol)
	if err != nil {
		return Value{}, err
	}
	cy, err := f.Column(ycol)
	if err != nil {
		return Value{}, err
	}
	r, err := stats.Pearson(cx.Floats(), cy.Floats())
	if err != nil {
		return Value{}, err
	}
	return NumValue(r), nil
}

func biCorrMatrix(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("corr_matrix", args, 2); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("corr_matrix", args, 0)
	if err != nil {
		return Value{}, err
	}
	cols, err := wantStrList("corr_matrix", args, 1)
	if err != nil {
		return Value{}, err
	}
	data := make([][]float64, len(cols))
	for i, cn := range cols {
		c, err := f.Column(cn)
		if err != nil {
			return Value{}, err
		}
		data[i] = c.Floats()
	}
	m, err := stats.CorrMatrix(data)
	if err != nil {
		return Value{}, err
	}
	out := dataframe.New()
	_ = out.AddColumn(dataframe.NewString("variable", cols))
	for j, cn := range cols {
		col := make([]float64, len(cols))
		for i := range cols {
			col[i] = m[i][j]
		}
		_ = out.AddColumn(dataframe.NewFloat("corr_"+cn, col))
	}
	return FrameValue(out), nil
}

func biZScoreSum(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("zscore_sum", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("zscore_sum", args, 0)
	if err != nil {
		return Value{}, err
	}
	name, err := wantStr("zscore_sum", args, 1)
	if err != nil {
		return Value{}, err
	}
	cols, err := wantStrList("zscore_sum", args, 2)
	if err != nil {
		return Value{}, err
	}
	if len(cols) == 0 {
		return Value{}, fmt.Errorf("ValueError: zscore_sum needs at least one column")
	}
	total := make([]float64, f.NumRows())
	for _, cn := range cols {
		c, err := f.Column(cn)
		if err != nil {
			return Value{}, err
		}
		for i, z := range stats.ZScores(c.Floats()) {
			if z < 0 {
				z = -z
			}
			total[i] += z
		}
	}
	return FrameValue(shallowWith(f, dataframe.NewFloat(name, total))), nil
}

func biUMAP2D(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("umap2d", args, 2); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("umap2d", args, 0)
	if err != nil {
		return Value{}, err
	}
	cols, err := wantStrList("umap2d", args, 1)
	if err != nil {
		return Value{}, err
	}
	features := make([][]float64, f.NumRows())
	colData := make([][]float64, len(cols))
	for j, cn := range cols {
		c, err := f.Column(cn)
		if err != nil {
			return Value{}, err
		}
		colData[j] = c.Floats()
	}
	for i := range features {
		row := make([]float64, len(cols))
		for j := range cols {
			row[j] = colData[j][i]
		}
		features[i] = row
	}
	xs, ys, err := stats.Embed2D(features)
	if err != nil {
		return Value{}, fmt.Errorf("ValueError: umap embedding: %s", err)
	}
	out := shallowWith(f, dataframe.NewFloat("umap_x", xs))
	out = shallowWith(out, dataframe.NewFloat("umap_y", ys))
	return FrameValue(out), nil
}

func biHistogram(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("histogram", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("histogram", args, 0)
	if err != nil {
		return Value{}, err
	}
	col, err := wantStr("histogram", args, 1)
	if err != nil {
		return Value{}, err
	}
	bins, err := wantNum("histogram", args, 2)
	if err != nil {
		return Value{}, err
	}
	c, err := f.Column(col)
	if err != nil {
		return Value{}, err
	}
	centers, counts, err := stats.Histogram(c.Floats(), int(bins))
	if err != nil {
		return Value{}, fmt.Errorf("ValueError: %s", err)
	}
	ci := make([]int64, len(counts))
	for i, n := range counts {
		ci[i] = int64(n)
	}
	out := dataframe.MustFromColumns(
		dataframe.NewFloat("bin_center", centers),
		dataframe.NewInt("count", ci),
	)
	return FrameValue(out), nil
}

// Plot built-ins ----------------------------------------------------------------

func renderAndStore(env *Env, spec *viz.PlotSpec, outName string) (Value, error) {
	svg, err := viz.RenderSVG(spec)
	if err != nil {
		return Value{}, fmt.Errorf("ValueError: %s", err)
	}
	path, err := safePath(env, outName)
	if err != nil {
		return Value{}, err
	}
	if err := writeFile(env, path, svg); err != nil {
		return Value{}, err
	}
	if err := env.AddArtifact(outName, svg); err != nil {
		return Value{}, err
	}
	return NullValue(), nil
}

func biLinePlot(env *Env, args []Value) (Value, error) {
	if err := wantArgs("line_plot", args, 5); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("line_plot", args, 0)
	if err != nil {
		return Value{}, err
	}
	xcol, err := wantStr("line_plot", args, 1)
	if err != nil {
		return Value{}, err
	}
	ycols, err := wantStrList("line_plot", args, 2)
	if err != nil {
		return Value{}, err
	}
	title, err := wantStr("line_plot", args, 3)
	if err != nil {
		return Value{}, err
	}
	out, err := wantStr("line_plot", args, 4)
	if err != nil {
		return Value{}, err
	}
	cx, err := f.Column(xcol)
	if err != nil {
		return Value{}, err
	}
	spec := &viz.PlotSpec{Kind: viz.Line, Title: title, XLabel: xcol, YLabel: joinNames(ycols)}
	for _, yn := range ycols {
		cy, err := f.Column(yn)
		if err != nil {
			return Value{}, err
		}
		spec.Series = append(spec.Series, viz.Series{Name: yn, X: cx.Floats(), Y: cy.Floats()})
	}
	return renderAndStore(env, spec, out)
}

func biLinePlotBy(env *Env, args []Value) (Value, error) {
	if err := wantArgs("line_plot_by", args, 6); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("line_plot_by", args, 0)
	if err != nil {
		return Value{}, err
	}
	xcol, err := wantStr("line_plot_by", args, 1)
	if err != nil {
		return Value{}, err
	}
	ycol, err := wantStr("line_plot_by", args, 2)
	if err != nil {
		return Value{}, err
	}
	group, err := wantStr("line_plot_by", args, 3)
	if err != nil {
		return Value{}, err
	}
	title, err := wantStr("line_plot_by", args, 4)
	if err != nil {
		return Value{}, err
	}
	out, err := wantStr("line_plot_by", args, 5)
	if err != nil {
		return Value{}, err
	}
	cx, err := f.Column(xcol)
	if err != nil {
		return Value{}, err
	}
	cy, err := f.Column(ycol)
	if err != nil {
		return Value{}, err
	}
	cg, err := f.Column(group)
	if err != nil {
		return Value{}, err
	}
	rowsOf := map[string][]int{}
	var order []string
	for r := 0; r < f.NumRows(); r++ {
		k := cg.StringAt(r)
		if _, ok := rowsOf[k]; !ok {
			order = append(order, k)
		}
		rowsOf[k] = append(rowsOf[k], r)
	}
	spec := &viz.PlotSpec{Kind: viz.Line, Title: title, XLabel: xcol, YLabel: ycol}
	for _, k := range order {
		rows := rowsOf[k]
		xs := make([]float64, len(rows))
		ys := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = cx.FloatAt(r)
			ys[i] = cy.FloatAt(r)
		}
		spec.Series = append(spec.Series, viz.Series{Name: group + "=" + k, X: xs, Y: ys})
	}
	return renderAndStore(env, spec, out)
}

func biScatterPlot(env *Env, args []Value) (Value, error) {
	if err := wantArgs("scatter_plot", args, 5); err != nil {
		return Value{}, err
	}
	return scatterImpl(env, args, 0)
}

func biScatterPlotHighlight(env *Env, args []Value) (Value, error) {
	if err := wantArgs("scatter_plot_highlight", args, 6); err != nil {
		return Value{}, err
	}
	topn, err := wantNum("scatter_plot_highlight", args, 3)
	if err != nil {
		return Value{}, err
	}
	reduced := append(append([]Value{}, args[:3]...), args[4:]...)
	return scatterImpl(env, reduced, int(topn))
}

func scatterImpl(env *Env, args []Value, highlightN int) (Value, error) {
	f, err := wantFrame("scatter_plot", args, 0)
	if err != nil {
		return Value{}, err
	}
	xcol, err := wantStr("scatter_plot", args, 1)
	if err != nil {
		return Value{}, err
	}
	ycol, err := wantStr("scatter_plot", args, 2)
	if err != nil {
		return Value{}, err
	}
	title, err := wantStr("scatter_plot", args, 3)
	if err != nil {
		return Value{}, err
	}
	out, err := wantStr("scatter_plot", args, 4)
	if err != nil {
		return Value{}, err
	}
	cx, err := f.Column(xcol)
	if err != nil {
		return Value{}, err
	}
	cy, err := f.Column(ycol)
	if err != nil {
		return Value{}, err
	}
	spec := &viz.PlotSpec{
		Kind: viz.Scatter, Title: title, XLabel: xcol, YLabel: ycol,
		Series: []viz.Series{{Name: "", X: cx.Floats(), Y: cy.Floats()}},
	}
	for i := 0; i < highlightN && i < f.NumRows(); i++ {
		spec.Highlight = append(spec.Highlight, i)
	}
	return renderAndStore(env, spec, out)
}

func biHistPlot(env *Env, args []Value) (Value, error) {
	if err := wantArgs("hist_plot", args, 5); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("hist_plot", args, 0)
	if err != nil {
		return Value{}, err
	}
	col, err := wantStr("hist_plot", args, 1)
	if err != nil {
		return Value{}, err
	}
	bins, err := wantNum("hist_plot", args, 2)
	if err != nil {
		return Value{}, err
	}
	title, err := wantStr("hist_plot", args, 3)
	if err != nil {
		return Value{}, err
	}
	out, err := wantStr("hist_plot", args, 4)
	if err != nil {
		return Value{}, err
	}
	c, err := f.Column(col)
	if err != nil {
		return Value{}, err
	}
	centers, counts, err := stats.Histogram(c.Floats(), int(bins))
	if err != nil {
		return Value{}, fmt.Errorf("ValueError: %s", err)
	}
	ys := make([]float64, len(counts))
	for i, n := range counts {
		ys[i] = float64(n)
	}
	spec := &viz.PlotSpec{
		Kind: viz.Hist, Title: title, XLabel: col, YLabel: "count",
		Series: []viz.Series{{Name: col, X: centers, Y: ys}},
	}
	return renderAndStore(env, spec, out)
}

func joinNames(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	default:
		return names[0] + ", ..."
	}
}

// writeFile writes a file the script asked for under the working directory
// and notes the path, so a later read finds the file and not an input
// table of the same name.
func writeFile(env *Env, path string, data []byte) error {
	if env.saved == nil {
		env.saved = map[string]bool{}
	}
	env.saved[path] = true
	return os.WriteFile(path, data, 0o644)
}
