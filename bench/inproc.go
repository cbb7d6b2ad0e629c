package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"infera/internal/agent"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/provenance"
	"infera/internal/rag"
	"infera/internal/sandbox"
	"infera/internal/script"
	"infera/internal/service"
	"infera/internal/sqldb"
	"infera/internal/stage"
	"infera/internal/tools"
)

// assistant runs asks in this process on an agent.Runtime the benchmark
// assembles itself, the way core.Assistant.AskWith does. core hides the
// runtime, and the runtime is where the model and the sandbox can be
// wrapped and the staging database kept for replay — so the traced pass
// and the golden updater build it here, from the same public pieces.
type assistant struct {
	cat      *hacc.Catalog
	stage    *stage.Cache
	store    *provenance.Store
	retr     *rag.Retriever
	registry script.Registry
	workDir  string
	// backend is the script engine: sandbox.BackendVM as in production, or
	// sandbox.BackendTreeWalk for the golden updater.
	backend string
	// asked numbers the asks, naming their sessions and staging databases.
	asked atomic.Int64
}

func newAssistant(cat *hacc.Catalog, st *stage.Cache, workDir, backend string) (*assistant, error) {
	store, err := provenance.NewStore(filepath.Join(workDir, "sessions"))
	if err != nil {
		return nil, err
	}
	reg := script.DefaultRegistry()
	tools.Register(reg, cat, st)
	return &assistant{
		cat: cat, stage: st, store: store,
		retr:     rag.NewRetriever(rag.BuildHACCIndex()),
		registry: reg, workDir: workDir, backend: backend,
	}, nil
}

func (a *assistant) executor() *sandbox.Executor {
	return &sandbox.Executor{Registry: a.registry, Limits: sandbox.DefaultLimits(), Backend: a.backend}
}

// outcome is one in-process ask: the workflow result plus the substrates
// it ran on, which stay open for the replay probes until release.
type outcome struct {
	id      string
	res     *agent.Result
	err     error
	db      *sqldb.DB
	session *provenance.Session
	events  []agent.Event
	start   time.Time
	end     time.Time
	dbDir   string
}

// ask runs one question. model and runner may be wrapped by the caller; a
// nil runner takes the plain executor.
func (a *assistant) ask(question string, model llm.Client, runner sandbox.Runner) (*outcome, error) {
	id := fmt.Sprintf("a-%06d", a.asked.Add(1))
	sess, err := a.store.NewSession(id)
	if err != nil {
		return nil, err
	}
	dbDir := filepath.Join(a.workDir, "db", id)
	db, err := sqldb.CreateStaged(dbDir)
	if err != nil {
		return nil, err
	}
	if runner == nil {
		runner = a.executor()
	}
	log := agent.NewEventLog(0)
	rt := &agent.Runtime{
		Model: model, Catalog: a.cat, DB: db, Sandbox: runner, Session: sess,
		Retriever: a.retr, Stage: a.stage, Events: log, TrimHistory: true,
	}
	o := &outcome{id: id, db: db, session: sess, dbDir: dbDir, start: time.Now()}
	o.res, o.err = agent.Run(rt, question)
	o.end = time.Now()
	o.events, _ = log.Since(0)
	return o, nil
}

// release drops the staging database, as the service does once an answer
// is out; the provenance trail stays.
func (o *outcome) release() {
	os.RemoveAll(o.dbDir)
	o.db = nil
}

// askResult renders the outcome the way service.runTask fills an
// AskResult, so golden.check judges in-process and served asks alike.
func (o *outcome) askResult() *service.AskResult {
	r := &service.AskResult{SessionID: o.id}
	if o.res == nil {
		r.Error = o.err.Error()
		return r
	}
	r.Tokens = o.res.State.Usage.Total()
	r.RedoCount = o.res.State.RedoCount
	r.PlanSteps = len(o.res.State.Plan.Steps)
	r.StorageBytes = o.db.SizeBytes() + o.session.SizeBytes()
	if o.res.Answer != nil {
		var buf bytes.Buffer
		if err := o.res.Answer.WriteCSV(&buf); err == nil {
			r.AnswerCSV = buf.String()
		}
		r.Rows = o.res.Answer.NumRows()
	}
	if o.err != nil {
		r.Error = o.err.Error()
	}
	return r
}

// sqlStatements returns the SQL text the run recorded, in order.
func (o *outcome) sqlStatements() ([]string, error) {
	var out []string
	for _, e := range o.session.Manifest() {
		if e.Kind == "code" && strings.HasSuffix(e.Name, ".sql") {
			data, err := o.session.Read(e)
			if err != nil {
				return nil, err
			}
			out = append(out, string(data))
		}
	}
	return out, nil
}

// updateGoldens recomputes every workload's golden file on the reference
// engines: each question of the workload's universe is answered in process
// with the script tree-walk interpreter under two model seeds (the tables
// must agree — that is what lets one entry stand for every seed), and
// every SQL statement the run issued is re-executed on the SQL tree-walk
// executor and must return the same table as the engine production picks.
func updateGoldens(o options, scratch string) error {
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		dataDir, err := fixtureDir(o, w.fx)
		if err != nil {
			return err
		}
		cat, err := hacc.Load(dataDir)
		if err != nil {
			return err
		}
		st := stage.New(stage.DefaultBudgetBytes, 0)
		a, err := newAssistant(cat, st, filepath.Join(scratch, "golden-"+w.name), sandbox.BackendTreeWalk)
		if err != nil {
			return err
		}
		g := &golden{Workload: w.name, Fixture: filepath.Base(dataDir), Answers: map[string]goldenAnswer{}}
		for _, q := range w.universe(cat) {
			var pinned goldenAnswer
			for seed := int64(1); seed <= 2; seed++ {
				out, err := a.ask(q.question, newModel(seed), nil)
				if err != nil {
					return err
				}
				res := out.askResult()
				if res.Error != "" || res.AnswerCSV == "" {
					return fmt.Errorf("%s: %q seed %d: no answer (%s)", w.name, q.question, seed, res.Error)
				}
				if err := crossCheckSQL(out); err != nil {
					return fmt.Errorf("%s: %q: %w", w.name, q.question, err)
				}
				out.release()
				d := digest(res.AnswerCSV, res.Rows)
				if seed > 1 && d != pinned {
					return fmt.Errorf("%s: %q: answer depends on the model seed; it cannot be pinned per question", w.name, q.question)
				}
				pinned = d
			}
			g.Answers[q.key] = pinned
		}
		if err := g.save(o.benchDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s (%d answers)\n", goldenPath(o.benchDir, w.name), len(g.Answers))
	}
	return nil
}

// crossCheckSQL re-runs the outcome's SQL on the tree-walk executor and on
// the default engine choice and fails if their tables differ.
func crossCheckSQL(o *outcome) error {
	stmts, err := o.sqlStatements()
	if err != nil {
		return err
	}
	for _, sql := range stmts {
		ref, err := o.db.QueryBackend(sql, sqldb.BackendTreeWalk)
		if err != nil {
			return fmt.Errorf("tree-walk %q: %w", sql, err)
		}
		got, err := o.db.QueryBackend(sql, sqldb.BackendAuto)
		if err != nil {
			return fmt.Errorf("auto %q: %w", sql, err)
		}
		var a, b bytes.Buffer
		if err := ref.WriteCSV(&a); err != nil {
			return err
		}
		if err := got.WriteCSV(&b); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("SQL engines disagree on %q", sql)
		}
	}
	return nil
}
