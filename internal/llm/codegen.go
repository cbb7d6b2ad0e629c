package llm

import (
	"fmt"
	"sort"
	"strings"

	"infera/internal/hacc"
)

// Payload types exchanged (as JSON) between agents and the model for the
// structured skills.

// SQLRequest asks for a staged-table filtering query.
type SQLRequest struct {
	Task       string   `json:"task"`
	Intent     Intent   `json:"intent"`
	Table      string   `json:"table"` // staged table name
	Role       string   `json:"role"`  // file family of the table
	Columns    []string `json:"columns"`
	Context    string   `json:"context"` // retrieved metadata handed to the worker
	Attempt    int      `json:"attempt"`
	PriorError string   `json:"prior_error"`
}

// SQLResponse carries the generated query.
type SQLResponse struct {
	SQL string `json:"sql"`
}

// ScriptRequest asks for analysis (python-analog) or visualization code.
type ScriptRequest struct {
	Task       string              `json:"task"`
	Intent     Intent              `json:"intent"`
	Tables     map[string][]string `json:"tables"`     // staged table -> columns
	Sims       []int               `json:"sims"`       // simulations actually loaded
	Steps      []int               `json:"steps"`      // timesteps actually loaded
	Context    string              `json:"context"`    // retrieved metadata handed to the worker
	StepIndex  int                 `json:"step_index"` // ordinal among this agent's plan steps
	Attempt    int                 `json:"attempt"`
	PriorError string              `json:"prior_error"`
	Strategy   int                 `json:"strategy"` // ambiguous questions: which valid approach
}

// ScriptResponse carries generated code. Strategy echoes the analytical
// strategy the model chose when the request left it open (ambiguous
// questions, §4.5).
type ScriptResponse struct {
	Code     string `json:"code"`
	Strategy int    `json:"strategy"`
}

// NeedColumns returns the columns of fileType an analysis requires,
// including the loader-injected sim/step (and sub-grid parameter) columns.
// This is the knowledge the data-loading agent combines with RAG retrieval
// to prune terabytes to the working set.
func NeedColumns(in Intent, fileType string) []string {
	base := map[string]bool{"sim": true, "step": true}
	addIfKnown := func(names ...string) {
		for _, n := range names {
			if _, ok := hacc.LookupColumn(fileType, n); ok {
				base[n] = true
			}
		}
	}
	switch fileType {
	case hacc.FileHalos:
		addIfKnown("fof_halo_tag")
	case hacc.FileGalaxies:
		addIfKnown("gal_tag", "fof_halo_tag")
	case hacc.FileParticles:
		addIfKnown("particle_id")
	case hacc.FileCores:
		addIfKnown("core_tag", "fof_halo_tag")
	}
	addIfKnown(in.RankBy)
	addIfKnown(in.Metrics...)

	switch in.Analysis {
	case "track":
		addIfKnown("fof_halo_count", "fof_halo_mass")
	case "interestingness":
		addIfKnown("fof_halo_mass", "fof_halo_vel_disp", "fof_halo_ke")
	case "gasfrac":
		addIfKnown("sod_halo_MGas500c", "sod_halo_M500c")
	case "smhm":
		addIfKnown("fof_halo_mass", "gal_stellar_mass", "gal_is_central")
	case "galhalocompare":
		addIfKnown("fof_halo_count", "gal_stellar_mass", "gal_gas_mass", "gal_kinetic_energy")
	case "alignment":
		addIfKnown("fof_halo_count", "fof_halo_mass", "gal_stellar_mass",
			"fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z",
			"gal_x", "gal_y", "gal_z")
	case "neighborhood":
		addIfKnown("fof_halo_mass", "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z")
	case "paramdirection":
		addIfKnown("fof_halo_count", "fof_halo_mass")
	case "corrmatrix":
		addIfKnown("fof_halo_count", "fof_halo_mass", "fof_halo_vel_disp", "fof_halo_ke")
	case "hist", "aggregate", "relation":
		if len(in.Metrics) == 0 {
			addIfKnown("fof_halo_mass", "gal_stellar_mass")
		}
	case "inspect":
		addIfKnown("fof_halo_count", "fof_halo_mass", "gal_stellar_mass")
	}
	if in.ParamCols {
		base["m_seed"] = true
		base["f_sn"] = true
		base["log_v_sn"] = true
		base["log_t_agn"] = true
		base["beta_bh"] = true
	}
	out := make([]string, 0, len(base))
	for c := range base {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ParamColumns are the loader-injected per-run sub-grid parameter columns.
var ParamColumns = []string{"m_seed", "f_sn", "log_v_sn", "log_t_agn", "beta_bh"}

// genSQL produces the filtering query for one staged table.
func genSQL(req SQLRequest) string {
	cols := req.Columns
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(strings.Join(cols, ", "))
	sb.WriteString(" FROM ")
	sb.WriteString(req.Table)
	var where []string
	if req.Role == hacc.FileGalaxies && req.Intent.Analysis == "smhm" {
		where = append(where, "gal_is_central = 1")
	}
	if len(where) > 0 {
		sb.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if req.Intent.Analysis == "topn" && req.Role == primaryEntity(req.Intent) && contains(cols, req.Intent.RankBy) {
		fmt.Fprintf(&sb, " ORDER BY %s DESC LIMIT %d", req.Intent.RankBy, req.Intent.TopN)
	}
	return sb.String()
}

func primaryEntity(in Intent) string {
	for _, e := range in.Entities {
		if e == hacc.FileHalos {
			return e
		}
	}
	if len(in.Entities) > 0 {
		return in.Entities[0]
	}
	return hacc.FileHalos
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// genPython emits the analysis code for the request's python plan step.
// wrongTool simulates the paper's most common *soft* failure: valid code
// applying an inappropriate technique (e.g. tracking coordinates instead
// of the requested characteristic).
func genPython(req ScriptRequest, wrongTool bool) string {
	in := req.Intent
	switch in.Analysis {
	case "aggregate":
		keys := groupKeys(in)
		metric := firstMetric(in)
		pre := ""
		if in.Threshold > 0 {
			pre = fmt.Sprintf("w = filter_gt(w, %q, %g)\n", metric, in.Threshold)
		}
		return fmt.Sprintf(`w = load_table("work")
%sout = groupby(w, %s, %q, %q, %q)
out = sort(out, %q, false)
save_csv(out, "aggregate.csv")
result(out)`, pre, strList(keys), metric, in.Aggregate, in.Aggregate+"_"+metric, keys[len(keys)-1])
	case "topn":
		return fmt.Sprintf(`w = load_table("work")
top = head(sort(w, %q, true), %d)
save_csv(top, "top%d.csv")
result(top)`, in.RankBy, in.TopN, in.TopN)
	case "track":
		colA, colB := "fof_halo_count", "fof_halo_mass"
		if wrongTool {
			// The coordinate-tracking mistake of §4.1.2: valid code, wrong
			// characteristic.
			colA, colB = "fof_halo_center_x", "fof_halo_center_y"
		}
		return fmt.Sprintf(`w = load_table("work")
out = groupby_multi(w, ["sim", "step"], [%q, %q], ["max", "max"], ["max_count", "max_mass"])
out = sort(out, "step", false)
save_csv(out, "largest_by_step.csv")
result(out)`, colA, colB)
	case "interestingness", "gasfrac", "smhm", "galhalocompare", "alignment":
		return genTwoStepPython(req)
	case "neighborhood":
		sim, step := scopeSimStep(req)
		return fmt.Sprintf(`nb = halo_neighborhood_top(%d, %d, 0, %g)
save_csv(nb, "neighborhood.csv")
result(nb)`, sim, step, in.Radius)
	case "paramdirection":
		return genParamDirection(req)
	case "corrmatrix":
		cols := in.Metrics
		if len(cols) < 2 {
			cols = []string{"fof_halo_count", "fof_halo_mass", "fof_halo_vel_disp", "fof_halo_ke"}
		}
		return fmt.Sprintf(`w = load_table("work")
m = corr_matrix(w, %s)
save_csv(m, "corr_matrix.csv")
result(m)`, strList(cols))
	case "hist":
		metric := firstMetric(in)
		return fmt.Sprintf(`w = load_table("work")
h = histogram(w, %q, 20)
save_csv(h, "hist.csv")
result(h)`, metric)
	case "relation":
		x, y := relationCols(in)
		if in.AllSteps || in.PerSim || in.AllSims {
			return fmt.Sprintf(`w = load_table("work")
w = derive_log10(w, "log_x", %q)
w = derive_log10(w, "log_y", %q)
fits = linfit_by(w, %q, "log_x", "log_y")
fits = sort(fits, "scatter", false)
save_csv(fits, "relation_fits.csv")
result(fits)`, x, y, evolutionGroup(in))
		}
		return fmt.Sprintf(`w = load_table("work")
w = derive_log10(w, "log_x", %q)
w = derive_log10(w, "log_y", %q)
fit = linfit(w, "log_x", "log_y")
save_csv(fit, "relation_fit.csv")
result(fit)`, x, y)
	default: // inspect
		return `w = load_table("work")
out = head(w, 20)
result(out)`
	}
}

// genTwoStepPython emits the code of the analyses whose python plan
// has two steps: step 0 derives the analysis table from the staged work
// tables, step 1 analyses it.
func genTwoStepPython(req ScriptRequest) string {
	in := req.Intent
	switch in.Analysis {
	case "interestingness":
		if req.StepIndex == 0 {
			return `w = load_table("work")
w = zscore_sum(w, "interestingness", ["fof_halo_mass", "fof_halo_vel_disp", "fof_halo_ke"])
w = sort(w, "interestingness", true)
save_csv(w, "scored.csv")
result(w)`
		}
		return fmt.Sprintf(`w = load_table("analysis")
top = head(w, %d)
top = umap2d(top, ["fof_halo_mass", "fof_halo_vel_disp", "fof_halo_ke"])
save_csv(top, "umap.csv")
result(top)`, maxInt(in.TopN, 100))
	case "gasfrac":
		if req.StepIndex == 0 {
			return `w = load_table("work")
w = derive_ratio(w, "fgas", "sod_halo_MGas500c", "sod_halo_M500c")
w = derive_log10(w, "log_fgas", "fgas")
w = derive_log10(w, "log_m500", "sod_halo_M500c")
save_csv(w, "fgas_data.csv")
result(w)`
		}
		return fmt.Sprintf(`w = load_table("analysis")
fits = linfit_by(w, %q, "log_m500", "log_fgas")
save_csv(fits, "fgas_fits.csv")
result(fits)`, evolutionGroup(in))
	case "smhm":
		if req.StepIndex == 0 {
			return `g = load_table("work_gal")
h = load_table("work")
j = join(g, h, "fof_halo_tag")
j = filter_gt(j, "gal_stellar_mass", 0)
j = derive_log10(j, "log_mstar", "gal_stellar_mass")
j = derive_log10(j, "log_mhalo", "fof_halo_mass")
save_csv(j, "smhm_data.csv")
result(j)`
		}
		return fmt.Sprintf(`j = load_table("analysis")
fits = linfit_by(j, %q, "log_mhalo", "log_mstar")
fits = sort(fits, "scatter", false)
save_csv(fits, "smhm_fits.csv")
result(fits)`, smhmGroup(in))
	case "galhalocompare":
		if req.StepIndex == 0 {
			return `h = load_table("work")
top2 = head(sort(h, "fof_halo_count", true), 2)
g = load_table("work_gal")
g2 = semi_join(g, top2, "fof_halo_tag")
gtop = top_per_group(g2, "fof_halo_tag", "gal_stellar_mass", 10)
save_csv(gtop, "top_galaxies.csv")
result(gtop)`
		}
		return `g = load_table("analysis")
cmp = groupby_multi(g, ["fof_halo_tag"], ["gal_stellar_mass", "gal_gas_mass", "gal_kinetic_energy"], ["mean", "mean", "mean"], ["mean_stellar", "mean_gas", "mean_ke"])
save_csv(cmp, "group_comparison.csv")
result(cmp)`
	default: // alignment
		n := maxInt(in.TopN, 100)
		if req.StepIndex == 0 {
			return fmt.Sprintf(`h = load_table("work")
toph = head(sort(h, "fof_halo_count", true), %d)
g = load_table("work_gal")
topg = head(sort(g, "gal_stellar_mass", true), %d)
matched = semi_join(topg, toph, "fof_halo_tag")
save_csv(toph, "top_halos.csv")
save_csv(topg, "top_galaxies.csv")
result(matched)`, n, n)
		}
		return fmt.Sprintf(`m = load_table("analysis")
n = nrows(m)
print("galaxies aligned with top halos:", n)
aligned = derive_const(m, "aligned_of_top", %d)
result(aligned)`, n)
	}
}

// genParamDirection emits one of three analyses of how the simulation
// parameters move the halo population, chosen by the request's strategy.
func genParamDirection(req ScriptRequest) string {
	in := req.Intent
	switch req.Strategy % 3 {
	case 0: // mean characteristics of top halos per simulation + params
		return fmt.Sprintf(`w = load_table("work")
top = top_per_group(w, "sim", "fof_halo_count", %d)
out = groupby_multi(top, ["sim"], ["fof_halo_count", "fof_halo_mass", "f_sn", "log_v_sn"], ["mean", "mean", "first", "first"], ["mean_count", "mean_mass", "f_sn", "log_v_sn"])
save_csv(out, "param_means.csv")
result(out)`, maxInt(in.TopN, 100))
	case 1: // linear correlation between parameters and halo mass
		return fmt.Sprintf(`w = load_table("work")
top = top_per_group(w, "sim", "fof_halo_count", %d)
bysim = groupby_multi(top, ["sim"], ["fof_halo_count", "f_sn", "log_v_sn"], ["mean", "first", "first"], ["mean_count", "f_sn", "log_v_sn"])
fsn = linfit(bysim, "f_sn", "mean_count")
vsn = linfit(bysim, "log_v_sn", "mean_count")
both = concat(fsn, vsn)
save_csv(both, "param_fits.csv")
result(both)`, maxInt(in.TopN, 100))
	default: // correlation matrix across characteristics
		return `w = load_table("work")
m = corr_matrix(w, ["fof_halo_count", "fof_halo_mass", "f_sn", "log_v_sn"])
save_csv(m, "param_corr.csv")
result(m)`
	}
}

// genViz emits the visualization code for the request's viz plan step.
func genViz(req ScriptRequest, wrongKind bool) string {
	in := req.Intent
	switch in.Analysis {
	case "track":
		col, name := "max_count", "halo_count"
		if req.StepIndex == 1 {
			col, name = "max_mass", "halo_mass"
		}
		if wrongKind {
			return fmt.Sprintf(`a = load_table("analysis")
scatter_plot(a, "step", %q, "Largest halo %s per timestep", %q)`, col, name, name+".svg")
		}
		return fmt.Sprintf(`a = load_table("analysis")
line_plot_by(a, "step", %q, "sim", "Largest halo %s per timestep", %q)`, col, name, name+".svg")
	case "interestingness":
		return fmt.Sprintf(`a = load_table("analysis")
scatter_plot_highlight(a, "umap_x", "umap_y", %d, "Halo interestingness (UMAP)", "umap.svg")`, maxInt(in.Highlight, 10))
	case "gasfrac":
		if wrongKind {
			return `a = load_table("analysis")
hist_plot(a, "slope", 10, "fgas-mass relation slope", "fgas_evolution.svg")`
		}
		if in.AllSteps {
			return `a = load_table("analysis")
line_plot(a, "step", ["slope", "intercept"], "fgas-mass relation evolution", "fgas_evolution.svg")`
		}
		return `a = load_table("analysis")
scatter_plot(a, "sim", "slope", "fgas-mass relation slope per simulation", "fgas_comparison.svg")`
	case "smhm":
		if req.StepIndex == 0 {
			return `a = load_table("analysis")
scatter_plot(a, "log_mhalo", "log_mstar", "Stellar-to-halo mass relation", "smhm_scatter.svg")`
		}
		return fmt.Sprintf(`a = load_table("analysis")
scatter_plot(a, %q, "scatter", "SMHM intrinsic scatter", "smhm_seed_scatter.svg")`, smhmGroup(in))
	case "galhalocompare":
		return `a = load_table("analysis")
scatter_plot(a, "mean_stellar", "mean_gas", "Galaxy group comparison", "group_compare.svg")`
	case "alignment", "neighborhood":
		table, tag := "analysis", "is_target"
		if in.Analysis == "alignment" {
			return `h = load_table("work")
toph = head(sort(h, "fof_halo_count", true), 100)
toph = derive_const(toph, "is_target", 0)
paraview_scene(toph, "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", "is_target", "halos_scene.vtk")`
		}
		return fmt.Sprintf(`nb = load_table(%q)
paraview_scene(nb, "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", %q, "neighborhood.vtk")`, table, tag)
	case "paramdirection":
		// The plot must match the analytical strategy the python step chose
		// (§4.5: several valid pathways, each with its own summary view).
		switch req.Strategy % 3 {
		case 1:
			return `a = load_table("analysis")
scatter_plot(a, "slope", "r", "Parameter-halo count fits", "param_summary.svg")`
		case 2:
			return `a = load_table("analysis")
scatter_plot(a, "corr_f_sn", "corr_log_v_sn", "Characteristic correlations", "param_summary.svg")`
		default:
			return `a = load_table("analysis")
scatter_plot(a, "f_sn", "mean_count", "Halo count vs FSN", "param_summary.svg")`
		}
	case "hist":
		metric := firstMetric(in)
		return fmt.Sprintf(`w = load_table("work")
hist_plot(w, %q, 20, "Distribution of %s", "hist.svg")`, metric, metric)
	case "aggregate":
		keys := groupKeys(in)
		metric := in.Aggregate + "_" + firstMetric(in)
		if wrongKind {
			return fmt.Sprintf(`a = load_table("analysis")
scatter_plot(a, %q, %q, "Aggregate", "aggregate.svg")`, keys[len(keys)-1], metric)
		}
		return fmt.Sprintf(`a = load_table("analysis")
line_plot(a, %q, [%q], "Aggregate over %s", "aggregate.svg")`, keys[len(keys)-1], metric, keys[len(keys)-1])
	case "relation":
		if in.AllSteps || in.PerSim || in.AllSims {
			return fmt.Sprintf(`w = load_table("analysis")
scatter_plot(w, %q, "slope", "Fitted relation slope", "relation.svg")`, evolutionGroup(in))
		}
		return `w = load_table("work")
w = derive_log10(w, "log_x", "` + relX(in) + `")
w = derive_log10(w, "log_y", "` + relY(in) + `")
scatter_plot(w, "log_x", "log_y", "Fitted relation", "relation.svg")`
	default:
		if in.Plot == "paraview" {
			return `w = load_table("work")
w = derive_const(w, "is_target", 0)
paraview_scene(w, "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", "is_target", "scene.vtk")`
		}
		return fmt.Sprintf(`a = load_table("analysis")
scatter_plot(a, %q, %q, "Result", "plot.svg")`, "sim", firstMetric(in))
	}
}

func groupKeys(in Intent) []string {
	switch {
	case in.PerStep && in.PerSim:
		return []string{"sim", "step"}
	case in.PerStep:
		return []string{"step"}
	case in.PerSim:
		return []string{"sim"}
	default:
		return []string{"sim"}
	}
}

// evolutionGroup picks the grouping column for "how does X evolve/differ"
// fits: by timestep when the question spans steps, else by simulation.
func evolutionGroup(in Intent) string {
	if in.AllSteps {
		return "step"
	}
	return "sim"
}

// smhmGroup fits the SMHM relation per seed mass across the ensemble, or
// per timestep for single-run evolution questions.
func smhmGroup(in Intent) string {
	if in.AllSteps && !in.AllSims {
		return "step"
	}
	return "m_seed"
}

func relX(in Intent) string { x, _ := relationCols(in); return x }
func relY(in Intent) string { _, y := relationCols(in); return y }

func relationCols(in Intent) (x, y string) {
	if len(in.Metrics) >= 2 {
		return in.Metrics[0], in.Metrics[1]
	}
	return "fof_halo_mass", "fof_halo_count"
}

func scopeSimStep(req ScriptRequest) (sim, step int) {
	sim = 0
	if len(req.Sims) > 0 {
		sim = req.Sims[0]
	}
	step = hacc.FinalStep
	if len(req.Steps) > 0 {
		step = req.Steps[len(req.Steps)-1]
	}
	return sim, step
}

func strList(items []string) string {
	quoted := make([]string, len(items))
	for i, s := range items {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return "[" + strings.Join(quoted, ", ") + "]"
}
