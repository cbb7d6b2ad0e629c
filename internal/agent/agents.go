package agent

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"infera/internal/dataframe"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/sqldb"
	"infera/internal/stage"
)

// Node names.
const (
	nodePlanner    = "planner"
	nodeSupervisor = "supervisor"
	nodeData       = "dataloader"
	nodeSQL        = "sql"
	nodePython     = "python"
	nodeViz        = "viz"
	nodeDoc        = "documentation"
)

// Run executes the full two-stage workflow for a question.
//
// The run loads its snapshot columns through a stage lease, so the cache
// may reuse their buffers once Run returns: nothing the run staged may be
// read afterwards. Result.Answer is a copy; the staged DB's tables are not
// and must not be queried after Run.
func Run(rt *Runtime, question string) (*Result, error) {
	rt = rt.withDefaults()
	rt.lease = rt.Stage.Pin()
	defer rt.lease.Unpin()
	st := &State{Question: question, Staged: map[string][]string{}, Strategy: -1}
	g := NewGraph(nodePlanner)
	g.AddNode(nodePlanner, plannerNode)
	g.AddNode(nodeSupervisor, supervisorNode)
	g.AddNode(nodeData, dataLoaderNode)
	g.AddNode(nodeSQL, sqlNode)
	g.AddNode(nodePython, pythonNode)
	g.AddNode(nodeViz, vizNode)
	g.AddNode(nodeDoc, docNode)

	start := time.Now()
	err := g.Run(rt, st)
	res := &Result{State: *st, Duration: time.Since(start)}
	rt.spans.add(PhaseTotal, res.Duration)
	if rt.Session != nil {
		res.Artifacts = rt.Session.Manifest()
		for _, e := range res.Artifacts {
			if e.Kind == "summary" {
				if data, rerr := rt.Session.Read(e); rerr == nil {
					res.Summary = string(data)
				}
			}
		}
	}
	if f, rerr := rt.DB.ReadTable("analysis"); rerr == nil {
		// The table may alias staged vectors the lease hands back.
		res.Answer = f.Clone()
	}
	ans := &AnswerEvent{
		Summary:    res.Summary,
		PlanSteps:  len(st.Plan.Steps),
		Tokens:     st.Usage.Total(),
		RedoCount:  st.RedoCount,
		Failed:     st.Failed || err != nil,
		Error:      st.FailReason,
		DurationNS: res.Duration.Nanoseconds(),
		PhasesNS:   rt.spans.snapshot(),
		FuelUsed:   st.FuelUsed,
	}
	rt.spans.observe(rt.Metrics, rt.MetricLabels)
	if err != nil {
		ans.Error = err.Error()
	}
	if res.Answer != nil {
		ans.Rows = res.Answer.NumRows()
	}
	rt.emit(Event{Kind: EventAnswer, OK: !ans.Failed, Answer: ans})
	if err != nil {
		return res, err
	}
	if st.Failed {
		return res, &ErrFailed{Reason: st.FailReason}
	}
	return res, nil
}

// callModel performs one model invocation, accumulating usage and history.
func callModel(rt *Runtime, st *State, agentName, skill, system string, payload, out any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	resp, err := rt.Model.Complete(llm.Request{Agent: agentName, Skill: skill, System: system, Prompt: string(raw)})
	if err != nil {
		return err
	}
	st.Usage.Add(resp.Usage)
	st.History = append(st.History, fmt.Sprintf("[%s/%s] %s", agentName, skill, resp.Text))
	if out != nil {
		if err := json.Unmarshal([]byte(resp.Text), out); err != nil {
			return fmt.Errorf("agent: %s %s response: %w", agentName, skill, err)
		}
	}
	return nil
}

// maxPlanRounds caps human plan-refinement iterations: the plan shown in
// the last round proceeds whatever the reviewer answers.
const maxPlanRounds = 3

// plannerNode runs the planning stage: generate, present for human
// feedback, refine, repeat until approval (or immediately in automated
// mode).
func plannerNode(rt *Runtime, st *State) (string, error) {
	var feedback []string
	for round := 0; ; round++ {
		req := llm.PlanRequest{Question: st.Question, Feedback: feedback}
		if rt.Catalog != nil {
			req.Context = rt.Catalog.Describe()
		}
		var plan llm.Plan
		// The plan phase counts model time only: the ReviewPlan wait below
		// is human (or approval-deadline) latency and would drown the
		// planner's own latency signal if folded in.
		roundStart := time.Now()
		if err := callModel(rt, st, "planner", llm.SkillPlan, "You are the planning agent. Decompose the question into executable steps.", req, &plan); err != nil {
			return "", err
		}
		roundElapsed := rt.span(PhasePlan, roundStart)
		st.Plan = plan
		st.PlanRounds = round + 1
		kind := EventPlanProposed
		if round > 0 {
			kind = EventPlanRevised
		}
		announce := func() {
			rt.emit(Event{Kind: kind, Round: round, Plan: &plan, ElapsedNS: roundElapsed.Nanoseconds()})
		}
		if rt.Feedback == nil {
			announce()
			break
		}
		// The plan event goes out only once the review window is open, so
		// a client that answers the event at once never finds it closed.
		approved, comment := rt.Feedback.ReviewPlan(plan, announce)
		if approved || round+1 >= maxPlanRounds {
			break
		}
		feedback = append(feedback, comment)
	}
	if rt.Session != nil {
		if _, err := rt.Session.Record("planner", "plan", "plan.txt", []byte(st.Plan.String())); err != nil {
			return "", err
		}
	}
	rt.logf("plan (%d steps):\n%s", len(st.Plan.Steps), st.Plan)
	return nodeSupervisor, nil
}

// supervisorNode asks the model which step runs next, passing either the
// full message history or only the last message (TrimHistory, §4.1.4).
func supervisorNode(rt *Runtime, st *State) (string, error) {
	if st.Failed {
		return nodeDoc, nil
	}
	history := strings.Join(st.History, "\n")
	if rt.TrimHistory && len(st.History) > 0 {
		history = st.History[len(st.History)-1]
	}
	var route llm.RouteResponse
	err := callModel(rt, st, "supervisor", llm.SkillRoute,
		"You are the supervisor agent. Decide the next step of the approved plan.",
		llm.RouteRequest{Steps: st.Plan.Steps, Completed: st.StepIdx, History: history}, &route)
	if err != nil {
		return "", err
	}
	if route.Done {
		return nodeDoc, nil
	}
	switch route.Agent {
	case llm.AgentData:
		return nodeData, nil
	case llm.AgentSQL:
		return nodeSQL, nil
	case llm.AgentPython:
		return nodePython, nil
	case llm.AgentViz:
		return nodeViz, nil
	default:
		return "", fmt.Errorf("agent: supervisor routed to unknown agent %q", route.Agent)
	}
}

// stepStarted announces a worker agent picking up the current plan step
// and returns the step's start instant for the finish event's ElapsedNS.
func stepStarted(rt *Runtime, st *State, agentName string) time.Time {
	rt.emit(Event{Kind: EventStepStarted, Agent: agentName, Task: currentTask(st), Step: st.StepIdx})
	return time.Now()
}

// stepDone marks the current plan step complete, stamping the wall-clock
// duration since stepStarted and the sandbox fuel the step consumed onto
// the finish event.
func stepDone(rt *Runtime, st *State, agentName, note string, started time.Time, fuel int64) {
	rt.emit(Event{Kind: EventStepFinished, Agent: agentName, Task: currentTask(st), Step: st.StepIdx,
		OK: true, Detail: note, ElapsedNS: time.Since(started).Nanoseconds(), FuelUsed: fuel})
	st.Completed = append(st.Completed, note)
	st.StepIdx++
}

// stepFailed aborts the run at the current step.
func stepFailed(rt *Runtime, st *State, agentName, reason string, started time.Time, fuel int64) {
	rt.emit(Event{Kind: EventStepFinished, Agent: agentName, Task: currentTask(st), Step: st.StepIdx,
		OK: false, Detail: reason, ElapsedNS: time.Since(started).Nanoseconds(), FuelUsed: fuel})
	st.Failed = true
	st.FailReason = reason
	st.Failures = append(st.Failures, reason)
}

// dataLoaderNode resolves which files and columns to load (intent +
// retrieval), reads only those column blocks from the ensemble, injects
// sim/step (and per-run parameter) columns, and stages raw tables in the
// database.
func dataLoaderNode(rt *Runtime, st *State) (string, error) {
	in := st.Plan.Intent
	task := currentTask(st)
	started := stepStarted(rt, st, "dataloader")
	if err := recordRetrieval(rt, st, task); err != nil {
		return "", err
	}

	sims := resolveSims(in, rt.Catalog)
	steps := resolveSteps(in, rt.Catalog)
	st.LoadedSims = sims
	st.LoadedSteps = steps

	var report strings.Builder
	for _, entity := range in.Entities {
		if entity != hacc.FileHalos && entity != hacc.FileGalaxies {
			continue // particles/cores load on demand via tools
		}
		line, err := stageEntity(rt, st, entity, sims, steps)
		if err != nil {
			return "", err
		}
		report.WriteString(line)
	}
	if rt.Session != nil {
		if _, err := rt.Session.Record("dataloader", "report", "load_report.txt", []byte(report.String())); err != nil {
			return "", err
		}
	}
	rt.logf("loaded: %s", strings.TrimSpace(report.String()))
	rt.span(PhaseStage, started)
	stepDone(rt, st, "dataloader", "data loading: "+task, started, 0)
	return nodeSupervisor, nil
}

// recordRetrieval runs the RAG retrieval that provides the metadata
// context and records it, so the provenance trail shows why these columns
// were chosen.
func recordRetrieval(rt *Runtime, st *State, task string) error {
	if rt.Retriever == nil {
		return nil
	}
	docs := rt.Retriever.Retrieve(st.Question, task, st.Plan.String())
	var ids, full strings.Builder
	for _, d := range docs {
		ids.WriteString(d.ID + "\n")
		full.WriteString(d.Text + "\n")
	}
	st.RetrievedContext = full.String()
	if rt.Session == nil {
		return nil
	}
	_, err := rt.Session.Record("dataloader", "retrieval", "retrieved_docs.txt", []byte(ids.String()))
	return err
}

// loadSlice is one (sim, step) snapshot of an entity to stage.
type loadSlice struct {
	sim, step int
	params    hacc.Params
}

// stageEntity loads the needed columns of entity for every (sim, step)
// slice through the run's lease, injects the context columns and stages
// them as one table. It returns the entity's load-report line.
func stageEntity(rt *Runtime, st *State, entity string, sims, steps []int) (string, error) {
	in := st.Plan.Intent
	needed := llm.NeedColumns(in, entity)
	fileCols := fileColumns(needed, entity)
	table := tableNameOf(entity)

	// Resolve every (sim, step) slice up front, then fan the decode out
	// over the shared staging cache's worker pool: concurrent sessions
	// staging overlapping slices share one decode per (file, column) —
	// a session needing a superset of an already-staged selection pays
	// only for its absent columns — and a k-snapshot load runs in
	// parallel instead of sequentially.
	var (
		slices []loadSlice
		reqs   []stage.Request
	)
	for _, sim := range sims {
		params := rt.Catalog.Runs[sim].Params
		for _, step := range steps {
			entry, ok := rt.Catalog.Find(sim, step, entity)
			if !ok {
				return "", fmt.Errorf("agent: missing %s file for sim %d step %d", entity, sim, step)
			}
			slices = append(slices, loadSlice{sim: sim, step: step, params: params})
			reqs = append(reqs, stage.Request{Path: rt.Catalog.AbsPath(entry), Columns: fileCols})
		}
	}
	var total int64
	frames := make([]*dataframe.Frame, len(slices))
	var results []stage.Result
	if len(fileCols) > 0 {
		results = rt.lease.LoadAll(reqs)
	} else {
		// Degenerate intent (only injected columns requested): stage
		// zero-row slices rather than asking the cache for zero columns.
		results = make([]stage.Result, len(slices))
		for i := range results {
			results[i].Frame = dataframe.New()
		}
	}
	for i, res := range results {
		sl := slices[i]
		if res.Err != nil {
			return "", fmt.Errorf("agent: load %s sim %d step %d: %w", entity, sl.sim, sl.step, res.Err)
		}
		total += res.BytesRead
		if err := injectContextColumns(rt.lease, res.Frame, sl.sim, sl.step, sl.params, needed); err != nil {
			return "", err
		}
		frames[i] = res.Frame
	}
	// One bulk build stages the table once, not once per snapshot — and
	// into a staged DB it is zero-copy: the cached column vectors are
	// appended by reference (copy-on-write guarded), not cell by cell.
	if err := rt.DB.BulkAppend(table, frames...); err != nil {
		return "", err
	}
	ti, _ := rt.DB.Table(table)
	st.Staged[table] = columnNames(ti)
	return fmt.Sprintf("%s: %d sims x %d steps -> table %q, %d rows, %d bytes read (columns: %v)\n",
		entity, len(sims), len(steps), table, ti.Rows, total, fileCols), nil
}

func currentTask(st *State) string {
	if st.StepIdx < len(st.Plan.Steps) {
		return st.Plan.Steps[st.StepIdx].Task
	}
	return ""
}

func currentStep(st *State) llm.PlanStep {
	if st.StepIdx < len(st.Plan.Steps) {
		return st.Plan.Steps[st.StepIdx]
	}
	return llm.PlanStep{}
}

func resolveSims(in llm.Intent, cat *hacc.Catalog) []int {
	if len(in.Sims) > 0 {
		var out []int
		for _, s := range in.Sims {
			if s >= 0 && s < cat.NumRuns() {
				out = append(out, s)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	out := make([]int, cat.NumRuns())
	for i := range out {
		out[i] = i
	}
	return out
}

func resolveSteps(in llm.Intent, cat *hacc.Catalog) []int {
	available := cat.Steps()
	if in.AllSteps {
		return available
	}
	if len(in.Steps) > 0 {
		var out []int
		for _, want := range in.Steps {
			out = append(out, nearestStep(available, want))
		}
		return dedupInts(out)
	}
	return []int{available[len(available)-1]}
}

func nearestStep(available []int, want int) int {
	best := available[0]
	for _, s := range available {
		if abs(s-want) < abs(best-want) {
			best = s
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func dedupInts(s []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// fileColumns strips the loader-injected names, leaving what must be read
// from disk.
func fileColumns(needed []string, entity string) []string {
	var out []string
	for _, c := range needed {
		if c == "sim" || c == "step" {
			continue
		}
		if isParamColumn(c) {
			continue
		}
		if _, ok := hacc.LookupColumn(entity, c); ok {
			out = append(out, c)
		}
	}
	return out
}

func isParamColumn(c string) bool {
	for _, p := range llm.ParamColumns {
		if c == p {
			return true
		}
	}
	return false
}

// injectContextColumns adds sim, step and (when requested) the run's
// sub-grid parameters as constant columns, in vectors the lease owns,
// each with its constant origin (dataframe.Column.SetConstOrigin).
func injectContextColumns(lease *stage.Lease, f *dataframe.Frame, sim, step int, params hacc.Params, needed []string) error {
	n := f.NumRows()
	constInt := func(v int64) []int64 {
		out := lease.Ints(n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	constFloat := func(v float64) []float64 {
		out := lease.Floats(n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	if err := f.AddColumn(dataframe.NewInt("sim", constInt(int64(sim))).SetConstOrigin()); err != nil {
		return err
	}
	if err := f.AddColumn(dataframe.NewInt("step", constInt(int64(step))).SetConstOrigin()); err != nil {
		return err
	}
	paramVals := map[string]float64{
		"m_seed": params.MSeed, "f_sn": params.FSN, "log_v_sn": params.LogVSN,
		"log_t_agn": params.LogTAGN, "beta_bh": params.BetaBH,
	}
	for _, c := range needed {
		if v, ok := paramVals[c]; ok && isParamColumn(c) {
			if err := f.AddColumn(dataframe.NewFloat(c, constFloat(v)).SetConstOrigin()); err != nil {
				return err
			}
		}
	}
	return nil
}

func tableNameOf(entity string) string {
	switch entity {
	case hacc.FileHalos:
		return "halos"
	case hacc.FileGalaxies:
		return "galaxies"
	default:
		return entity
	}
}

func columnNames(ti sqldb.TableInfo) []string {
	out := make([]string, len(ti.Columns))
	for i, c := range ti.Columns {
		out[i] = c.Name
	}
	return out
}

// qaAssess asks the QA agent to judge a step outcome; it returns pass and
// the feedback text.
func qaAssess(rt *Runtime, st *State, agentName, task, preview, errMsg string) (bool, string, error) {
	var resp llm.QAResponse
	qaStart := time.Now()
	err := callModel(rt, st, "qa", llm.SkillQA,
		"You are the quality assurance agent. Score the output 1-100 for whether it satisfactorily completes the delegated task.",
		llm.QARequest{Task: task, Preview: preview, Error: errMsg}, &resp)
	if err != nil {
		return false, "", err
	}
	elapsed := rt.span(PhaseQA, qaStart)
	rt.emit(Event{Kind: EventQAVerdict, Agent: agentName, Task: task, Step: st.StepIdx,
		OK: resp.Pass, Detail: resp.Feedback, ElapsedNS: elapsed.Nanoseconds()})
	return resp.Pass, resp.Feedback, nil
}

// humanHint consults the feedback hook on an error (§4.2.2: directly
// providing the correct name resolves the issue).
func humanHint(rt *Runtime, st *State, errMsg string) string {
	if rt.Feedback == nil {
		return ""
	}
	step := currentStep(st)
	hint, ok := rt.Feedback.OnError(step, errMsg)
	rt.emit(Event{Kind: EventErrorHint, Agent: step.Agent, Task: step.Task, Step: st.StepIdx, OK: ok, Detail: errMsg, Hint: hint})
	if ok {
		return " [human hint: " + hint + "]"
	}
	return ""
}

// sqlNode generates and executes the filtering queries, staging "work"
// (and "work_gal") tables, with the QA-guided retry loop of §3.2.
func sqlNode(rt *Runtime, st *State) (string, error) {
	in := st.Plan.Intent
	task := currentTask(st)
	started := stepStarted(rt, st, "sql")
	type target struct {
		src, dst, role string
	}
	// The primary staged table filters into "work"; when both catalogs are
	// staged the galaxy table becomes "work_gal". A galaxies-only question
	// makes the galaxy table primary.
	var targets []target
	_, hasHalos := st.Staged["halos"]
	_, hasGals := st.Staged["galaxies"]
	switch {
	case hasHalos && hasGals:
		targets = append(targets,
			target{"halos", "work", hacc.FileHalos},
			target{"galaxies", "work_gal", hacc.FileGalaxies})
	case hasHalos:
		targets = append(targets, target{"halos", "work", hacc.FileHalos})
	case hasGals:
		targets = append(targets, target{"galaxies", "work", hacc.FileGalaxies})
	}
	if len(targets) == 0 {
		stepFailed(rt, st, "sql", "sql: no staged tables to filter", started, 0)
		return nodeSupervisor, nil
	}
	for _, tgt := range targets {
		cols := llm.NeedColumns(in, tgt.role)
		priorError := ""
		ok := false
		for attempt := 0; attempt <= rt.MaxRevisions; attempt++ {
			var resp llm.SQLResponse
			err := callModel(rt, st, "sql", llm.SkillSQL,
				"You are the SQL programming agent. Generate one SELECT over the staged table.",
				llm.SQLRequest{Task: task, Intent: in, Table: tgt.src, Role: tgt.role, Columns: cols,
					Context: st.RetrievedContext, Attempt: attempt, PriorError: priorError}, &resp)
			if err != nil {
				return "", err
			}
			if rt.Session != nil {
				if _, err := rt.Session.Record("sql", "code", tgt.dst+".sql", []byte(resp.SQL)); err != nil {
					return "", err
				}
			}
			queryStart := time.Now()
			frame, qerr := rt.DB.Query(resp.SQL)
			rt.span(PhaseQuery, queryStart)
			if qerr != nil {
				st.RedoCount++
				priorError = qerr.Error() + humanHint(rt, st, qerr.Error())
				continue
			}
			pass, feedback, aerr := qaAssess(rt, st, "sql", task, fmt.Sprintf("query returned %d rows x %d cols", frame.NumRows(), frame.NumCols()), "")
			if aerr != nil {
				return "", aerr
			}
			if !pass {
				st.RedoCount++
				priorError = feedback
				continue
			}
			if err := rt.DB.CreateOrReplaceTable(tgt.dst, frame); err != nil {
				return "", err
			}
			if rt.Session != nil {
				if _, err := rt.Session.RecordFrame("sql", tgt.dst, frame); err != nil {
					return "", err
				}
			}
			st.Staged[tgt.dst] = frame.Names()
			ok = true
			break
		}
		if !ok {
			stepFailed(rt, st, "sql", fmt.Sprintf("sql step exhausted %d revisions: %s", rt.MaxRevisions, priorError), started, 0)
			return nodeSupervisor, nil
		}
	}
	stepDone(rt, st, "sql", "sql filtering: "+task, started, 0)
	return nodeSupervisor, nil
}

// workTables builds the sandbox input set from the staged tables. The
// frames are shells over the DB's resident shared vectors (zero-copy;
// ReadTable's immutability contract), built once per code step rather
// than per QA retry.
func workTables(rt *Runtime, st *State) (map[string]*dataframe.Frame, error) {
	out := map[string]*dataframe.Frame{}
	for _, name := range []string{"work", "work_gal", "analysis"} {
		if _, ok := st.Staged[name]; !ok {
			continue
		}
		f, err := rt.DB.ReadTable(name)
		if err != nil {
			return nil, err
		}
		out[name] = f
	}
	return out, nil
}

func scriptTables(st *State) map[string][]string {
	out := map[string][]string{}
	for name, cols := range st.Staged {
		if name == "work" || name == "work_gal" || name == "analysis" {
			out[name] = cols
		}
	}
	return out
}

// runCodeStep is the shared python/viz execution loop: generate code,
// execute in the sandbox, QA-assess, retry with the error message up to
// MaxRevisions.
func runCodeStep(rt *Runtime, st *State, agentName, skill string, stepIndex int) (string, error) {
	in := st.Plan.Intent
	task := currentTask(st)
	started := stepStarted(rt, st, agentName)
	// The sandbox input set is invariant across QA retries (the DB only
	// changes after a step succeeds), so build it once per step instead of
	// re-reading every table per attempt. The frames are shells over the
	// DB's resident shared vectors, which scripts never mutate in place.
	tables, err := workTables(rt, st)
	if err != nil {
		return "", err
	}
	priorError := ""
	var stepFuel int64 // sandbox fuel across all attempts of this step
	for attempt := 0; attempt <= rt.MaxRevisions; attempt++ {
		req := llm.ScriptRequest{
			Task: task, Intent: in, Tables: scriptTables(st),
			Sims: st.LoadedSims, Steps: st.LoadedSteps,
			Context:   st.RetrievedContext,
			StepIndex: stepIndex, Attempt: attempt, PriorError: priorError,
			Strategy: st.Strategy,
		}
		var resp llm.ScriptResponse
		err := callModel(rt, st, agentName, skill,
			"You are the "+agentName+" agent. Generate analysis code for the delegated task.",
			req, &resp)
		if err != nil {
			return "", err
		}
		if st.Strategy < 0 && resp.Strategy >= 0 && in.Ambiguous {
			st.Strategy = resp.Strategy
		}
		if rt.Session != nil {
			name := fmt.Sprintf("%s_step%d.isc", agentName, stepIndex)
			if _, err := rt.Session.Record(agentName, "code", name, []byte(resp.Code)); err != nil {
				return "", err
			}
		}
		res := rt.Sandbox.Exec(resp.Code, tables)
		stepFuel += res.FuelUsed
		st.FuelUsed += res.FuelUsed
		if !res.OK {
			st.RedoCount++
			priorError = res.Error + humanHint(rt, st, res.Error)
			continue
		}
		pass, feedback, aerr := qaAssess(rt, st, agentName, task, res.Preview(), "")
		if aerr != nil {
			return "", aerr
		}
		if !pass {
			st.RedoCount++
			priorError = feedback
			continue
		}
		// Persist outputs: artifacts to provenance, in name order so the
		// trail does not depend on map iteration, frame to the DB.
		if rt.Session != nil {
			names := make([]string, 0, len(res.Artifacts))
			for name := range res.Artifacts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				data := res.Artifacts[name]
				kind := "plot"
				if strings.HasSuffix(name, ".csv") {
					kind = "data"
				} else if strings.HasSuffix(name, ".vtk") {
					kind = "scene"
				}
				if _, err := rt.Session.Record(agentName, kind, name, data); err != nil {
					return "", err
				}
			}
		}
		if res.Frame != nil {
			if err := rt.DB.CreateOrReplaceTable("analysis", res.Frame); err != nil {
				return "", err
			}
			st.Staged["analysis"] = res.Frame.Names()
			if rt.Session != nil {
				if _, err := rt.Session.RecordFrame(agentName, "analysis_step", res.Frame.Head(1000)); err != nil {
					return "", err
				}
			}
		}
		rt.span(agentName, started) // PhasePython / PhaseViz
		stepDone(rt, st, agentName, agentName+": "+task, started, stepFuel)
		return nodeSupervisor, nil
	}
	rt.span(agentName, started)
	stepFailed(rt, st, agentName, fmt.Sprintf("%s step exhausted %d revisions: %s", agentName, rt.MaxRevisions, priorError), started, stepFuel)
	return nodeSupervisor, nil
}

func pythonNode(rt *Runtime, st *State) (string, error) {
	next, err := runCodeStep(rt, st, "python", llm.SkillScript, st.PyCount)
	if err == nil && !st.Failed {
		st.PyCount++
	}
	return next, err
}

func vizNode(rt *Runtime, st *State) (string, error) {
	next, err := runCodeStep(rt, st, "viz", llm.SkillViz, st.VizCount)
	if err == nil && !st.Failed {
		st.VizCount++
	}
	return next, err
}

// docNode writes the documentation agent's workflow summary and ends the
// run.
func docNode(rt *Runtime, st *State) (string, error) {
	if rt.SkipDocumentation {
		if !st.Failed {
			st.Done = true
		}
		return "", nil
	}
	req := llm.SummaryRequest{Question: st.Question, Steps: st.Completed, Failures: st.Failures}
	raw, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := rt.Model.Complete(llm.Request{Agent: "documentation", Skill: llm.SkillSummary,
		System: "You are the documentation agent. Record the workflow.", Prompt: string(raw)})
	if err != nil {
		return "", err
	}
	st.Usage.Add(resp.Usage)
	if rt.Session != nil {
		if _, err := rt.Session.Record("documentation", "summary", "summary.md", []byte(resp.Text)); err != nil {
			return "", err
		}
	}
	if !st.Failed {
		st.Done = true
	}
	return "", nil
}
