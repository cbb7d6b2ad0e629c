package llm

import (
	"regexp"
	"sort"
	"strconv"
	"strings"

	"infera/internal/hacc"
)

// Intent is the model's structured reading of a natural-language question.
// It is produced by the planning skill (embedded in the returned plan, the
// way a real plan document pins down interpretation) and consumed by the
// SQL/script/viz generation skills.
type Intent struct {
	Question string `json:"question"`

	Entities []string `json:"entities"`  // file families involved
	Sims     []int    `json:"sims"`      // explicit simulations; nil with AllSims=false means sim list unknown -> all
	AllSims  bool     `json:"all_sims"`  // "all simulations"
	Steps    []int    `json:"steps"`     // explicit steps
	AllSteps bool     `json:"all_steps"` // full time evolution

	TopN      int      `json:"top_n"`     // "largest 100", 0 = no ranking
	Highlight int      `json:"highlight"` // "highlighting the top 20"
	RankBy    string   `json:"rank_by"`   // ranking column
	Metrics   []string `json:"metrics"`   // metric columns referenced
	Aggregate string   `json:"aggregate"` // avg/sum/median/count/std
	PerStep   bool     `json:"per_step"`  // group results by timestep
	PerSim    bool     `json:"per_sim"`   // group results by simulation

	WantPlot bool   `json:"want_plot"`
	Plot     string `json:"plot"` // line|scatter|hist|umap|paraview

	// Analysis picks the analytical recipe: aggregate, topn, track,
	// interestingness, gasfrac, smhm, galhalocompare, alignment,
	// neighborhood, paramdirection, hist, corrmatrix, relation, inspect.
	Analysis string `json:"analysis"`

	Radius    float64 `json:"radius"`     // Mpc, spatial queries
	Threshold float64 `json:"threshold"`  // "halos above X" filters
	Ambiguous bool    `json:"ambiguous"`  // multiple valid strategies (§4.5)
	ParamCols bool    `json:"param_cols"` // needs per-run sub-grid parameter columns
}

var (
	reSim       = regexp.MustCompile(`(?i)\bsim(?:ulation)?s?\s+(\d+)`)
	reStep      = regexp.MustCompile(`(?i)\b(?:time\s*step|timestep|step)s?\s+(\d+)`)
	reTopN      = regexp.MustCompile(`(?i)\b(?:largest|top|biggest)\s+(\d+)`)
	reNTop      = regexp.MustCompile(`(?i)\b(\d+)\s+(?:largest|most massive|biggest)`)
	reHighlight = regexp.MustCompile(`(?i)highlight(?:ing)?\s+the\s+top\s+(\d+)`)
	reRadius    = regexp.MustCompile(`(?i)within\s+(?:a\s+)?(\d+(?:\.\d+)?)\s*(?:mpc|megaparsec)`)
	reThreshold = regexp.MustCompile(`(?i)(?:above|greater than|more than|exceeding)\s+(\d+(?:\.\d+)?(?:e\d+)?)`)
	reNSims     = regexp.MustCompile(`\d+ simulations`)
)

var numberWords = map[string]int{
	"one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
	"ten": 10, "twenty": 20, "fifty": 50, "hundred": 100,
}

// ParseIntent derives the structured intent from a question. It is the
// "chain-of-thought comprehension" step of the planning agent, implemented
// as deterministic keyword and dictionary matching.
func ParseIntent(question string) Intent {
	q := strings.ToLower(question)
	in := Intent{Question: question}
	cols := in.parseEntities(q)
	in.parseScope(q)
	in.parseRanking(q, cols)
	in.parseAggregation(q)
	in.parsePlot(q)

	// Radius queries.
	if m := reRadius.FindStringSubmatch(q); m != nil {
		in.Radius, _ = strconv.ParseFloat(m[1], 64)
	}

	// Threshold filters ("halos with count above 500").
	if m := reThreshold.FindStringSubmatch(q); m != nil {
		in.Threshold, _ = strconv.ParseFloat(m[1], 64)
	}

	// Parameter interest.
	if strings.Contains(q, "seed mass") || strings.Contains(q, "fsn") || strings.Contains(q, "agn") ||
		strings.Contains(q, "parameter") || strings.Contains(q, "feedback") {
		in.ParamCols = true
	}

	in.Analysis = classifyAnalysis(q, &in)
	if in.Analysis == "paramdirection" || (strings.Contains(q, "characteristics") && !strings.Contains(q, "for example")) {
		in.Ambiguous = in.Analysis == "paramdirection"
	}

	// Analyses that relate galaxies to their host halos need both catalogs
	// regardless of which words the question used.
	switch in.Analysis {
	case "smhm", "galhalocompare", "alignment":
		for _, ft := range []string{hacc.FileHalos, hacc.FileGalaxies} {
			if !containsStr(in.Entities, ft) {
				in.Entities = append(in.Entities, ft)
			}
		}
	}
	// SMHM as a function of seed mass spans the ensemble.
	if in.Analysis == "smhm" && in.ParamCols {
		in.AllSims = true
		in.Sims = nil
	}

	// Fallback: a question with no recognized entity defaults to halos (the
	// primary catalog), mirroring how a model guesses the main table.
	if len(in.Entities) == 0 {
		in.Entities = []string{hacc.FileHalos}
	}
	return in
}

// parseEntities sets the file families and metric columns the question
// names, returning the set of named columns.
func (in *Intent) parseEntities(q string) map[string]bool {
	if strings.Contains(q, "galax") {
		in.Entities = append(in.Entities, hacc.FileGalaxies)
	}
	if strings.Contains(q, "halo") {
		in.Entities = append(in.Entities, hacc.FileHalos)
	}
	if strings.Contains(q, "particle") && !strings.Contains(q, "dark matter halo") {
		in.Entities = append(in.Entities, hacc.FileParticles)
	}
	if strings.Contains(q, "core") {
		in.Entities = append(in.Entities, hacc.FileCores)
	}

	// Explicit column mentions (the "(fof_halo_count)" style of Table 1).
	// Word-boundary matching: short labels like particles' "x" must not
	// match inside arbitrary words.
	cols := map[string]bool{}
	for _, cd := range hacc.ColumnDictionary() {
		if wordMatch(q, strings.ToLower(cd.Column)) {
			cols[cd.Column] = true
			if !containsStr(in.Entities, cd.FileType) && (cd.FileType == hacc.FileHalos || cd.FileType == hacc.FileGalaxies) {
				in.Entities = append(in.Entities, cd.FileType)
			}
		}
	}
	for c := range cols {
		in.Metrics = append(in.Metrics, c)
	}
	sort.Strings(in.Metrics)
	return cols
}

// parseScope sets the simulations and timesteps the question covers.
func (in *Intent) parseScope(q string) {
	// Simulations.
	for _, m := range reSim.FindAllStringSubmatch(q, -1) {
		if n, err := strconv.Atoi(m[1]); err == nil {
			in.Sims = appendUniqueInt(in.Sims, n)
		}
	}
	if strings.Contains(q, "all simulations") || strings.Contains(q, "all the simulations") ||
		strings.Contains(q, "every simulation") || strings.Contains(q, "each simulation") ||
		reNSims.MatchString(q) {
		in.AllSims = true
		in.Sims = nil
	}

	// Steps.
	for _, m := range reStep.FindAllStringSubmatch(q, -1) {
		if n, err := strconv.Atoi(m[1]); err == nil {
			in.Steps = appendUniqueInt(in.Steps, n)
		}
	}
	if strings.Contains(q, "all timesteps") || strings.Contains(q, "all time steps") ||
		strings.Contains(q, "each time step") || strings.Contains(q, "each timestep") ||
		strings.Contains(q, "every timestep") || strings.Contains(q, "over time") ||
		strings.Contains(q, "earliest timestep to the latest") ||
		strings.Contains(q, "all timestep") || strings.Contains(q, "evolve") ||
		strings.Contains(q, "evolution") {
		in.AllSteps = true
		in.Steps = nil
	}
}

// parseRanking sets the top-N size, the highlight count and the ranking
// column.
func (in *Intent) parseRanking(q string, cols map[string]bool) {
	if m := reTopN.FindStringSubmatch(q); m != nil {
		in.TopN, _ = strconv.Atoi(m[1])
	} else if m := reNTop.FindStringSubmatch(q); m != nil {
		in.TopN, _ = strconv.Atoi(m[1])
	} else {
		for word, n := range numberWords {
			if strings.Contains(q, "the "+word+" largest") || strings.Contains(q, "top "+word+" ") ||
				strings.Contains(q, word+" largest") {
				in.TopN = n
				break
			}
		}
	}
	if in.TopN == 0 && (strings.Contains(q, "the largest") || strings.Contains(q, "most massive")) &&
		!strings.Contains(q, "largest halos") && !strings.Contains(q, "largest friends") {
		in.TopN = 1
	}
	if m := reHighlight.FindStringSubmatch(q); m != nil {
		in.Highlight, _ = strconv.Atoi(m[1])
	}

	// Ranking column.
	switch {
	case cols["fof_halo_count"] || strings.Contains(q, "halo count") || strings.Contains(q, "particle count"):
		in.RankBy = "fof_halo_count"
	case strings.Contains(q, "kinetic energy") && strings.Contains(q, "top"):
		in.RankBy = "fof_halo_ke"
	case strings.Contains(q, "largest galax") || (strings.Contains(q, "galax") && !strings.Contains(q, "halo")):
		in.RankBy = "gal_stellar_mass"
	default:
		in.RankBy = "fof_halo_mass"
	}
}

// parseAggregation sets the aggregate and whether results group by
// timestep or simulation.
func (in *Intent) parseAggregation(q string) {
	switch {
	case strings.Contains(q, "average") || strings.Contains(q, "mean "):
		in.Aggregate = "avg"
	case strings.Contains(q, "median"):
		in.Aggregate = "median"
	case strings.Contains(q, "total ") || strings.Contains(q, "sum of"):
		in.Aggregate = "sum"
	case strings.Contains(q, "how many") || strings.Contains(q, "number of halos") || strings.Contains(q, "count of halos"):
		in.Aggregate = "count"
	case strings.Contains(q, "standard deviation"):
		in.Aggregate = "std"
	}
	in.PerStep = in.AllSteps && (in.Aggregate != "" || strings.Contains(q, "at each time step") || strings.Contains(q, "per timestep"))
	in.PerSim = strings.Contains(q, "per simulation") || strings.Contains(q, "for each simulation") ||
		strings.Contains(q, "by simulation") || strings.Contains(q, "in each simulation")
}

// parsePlot sets whether a plot is wanted and which kind.
func (in *Intent) parsePlot(q string) {
	if strings.Contains(q, "plot") || strings.Contains(q, "visuali") || strings.Contains(q, "graph") ||
		strings.Contains(q, "paraview") || strings.Contains(q, "histogram") {
		in.WantPlot = true
	}
	switch {
	case strings.Contains(q, "paraview") || strings.Contains(q, "3d"):
		in.Plot = "paraview"
	case strings.Contains(q, "umap"):
		in.Plot = "umap"
	case strings.Contains(q, "histogram") || strings.Contains(q, "distribution of"):
		in.Plot = "hist"
	case in.AllSteps && in.WantPlot:
		in.Plot = "line"
	case in.WantPlot:
		in.Plot = "scatter"
	}
}

func classifyAnalysis(q string, in *Intent) string {
	switch {
	case in.Radius > 0:
		return "neighborhood"
	case strings.Contains(q, "interestingness") || strings.Contains(q, "most unique") || strings.Contains(q, "most interesting"):
		return "interestingness"
	case strings.Contains(q, "smhm") || strings.Contains(q, "stellar-to-halo") || strings.Contains(q, "stellar to halo"):
		return "smhm"
	case strings.Contains(q, "gas-mass fraction") || strings.Contains(q, "gas mass fraction") ||
		(strings.Contains(q, "mgas500c") && strings.Contains(q, "slope")):
		return "gasfrac"
	case strings.Contains(q, "align"):
		return "alignment"
	case strings.Contains(q, "galaxies associated") || (strings.Contains(q, "associated") && strings.Contains(q, "galax")):
		return "galhalocompare"
	case strings.Contains(q, "direction of the") && strings.Contains(q, "parameter"):
		return "paramdirection"
	case (strings.Contains(q, "change in mass") || strings.Contains(q, "mass evolution") ||
		(strings.Contains(q, "track") && strings.Contains(q, "halo"))):
		return "track"
	case strings.Contains(q, "correlation matrix") || strings.Contains(q, "correlations between"):
		return "corrmatrix"
	case in.Plot == "hist":
		return "hist"
	case strings.Contains(q, "relation") && len(in.Metrics) >= 2:
		return "relation"
	case in.Aggregate != "":
		return "aggregate"
	case in.TopN > 0:
		return "topn"
	default:
		return "inspect"
	}
}

// wordMatch reports whether word occurs in text delimited by non-identifier
// characters.
func wordMatch(text, word string) bool {
	for i := 0; i+len(word) <= len(text); {
		j := strings.Index(text[i:], word)
		if j < 0 {
			return false
		}
		start := i + j
		end := start + len(word)
		beforeOK := start == 0 || !isIdentChar(text[start-1])
		afterOK := end == len(text) || !isIdentChar(text[end])
		if beforeOK && afterOK {
			return true
		}
		i = start + 1
	}
	return false
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

func appendUniqueInt(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
