// Command bench is the repository's one ask benchmark: four closed-loop
// ask workloads against an in-process inferad (registry + HTTP server,
// and a fleet router for one of them), ten end-to-end metrics per
// workload, every answer checked against pinned goldens, and a separate
// traced pass for the per-layer numbers. README.md in this directory is
// the manual; BENCHMARK.json at the repository root is the contract.
//
// Two ways in:
//
//	bench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload in this process; the last line of standard
//	    output is one JSON object {correct, attempted, failed, metrics}.
//	    --trace 0 reports the end-to-end metrics BENCHMARK.json lists (the
//	    line before it carries all ten), --trace 1 the per-layer ones.
//	    --asks N bounds the window by count instead of time.
//	bench [-repeats R] [-seed N] [-selfcheck]
//	    the whole suite: every workload R times, interleaved, one process
//	    per run, medians with min/max, then one traced pass per workload;
//	    writes out/<ts>/{results.json,trace.json,logs/}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"infera/internal/hacc"
)

// options are the command-line settings shared by every mode.
type options struct {
	workload string
	seed     int64
	seconds  float64
	asks     int
	trace    int
	repeats  int
	work     string
	benchDir string
	traceOut string

	// modes other than running workloads
	updateGolden, selfcheck, makeFixtures bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (warm_mixed, cold_scan, cached_routed, disk_churn); empty runs the suite")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: question order, (sim, step, k) choices and model seeds")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed window; it ends at the next whole question cycle")
	flag.IntVar(&o.asks, "asks", 0, "bound the timed window by ask count instead of time (the suite passes each workload's fixed count)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.IntVar(&o.repeats, "repeats", 3, "suite: runs per workload")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for fixtures and per-run scratch space")
	flag.StringVar(&o.benchDir, "bench-dir", "", "the benchmark's own directory, holding golden/ and out/ (default: bench or .)")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced pass: write the span list to this file")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "recompute golden/<workload>.json on the reference engines (SQL tree-walk cross-check, script tree-walk) and exit")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice and fail unless every end-to-end metric agrees within its bound")
	flag.BoolVar(&o.makeFixtures, "make-fixtures", false, "generate the fixtures under -work and exit")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := filepath.Abs(o.work)
	if err != nil {
		return err
	}
	o.work = root
	if o.benchDir == "" {
		o.benchDir = "."
		if _, err := os.Stat("bench/golden"); err == nil {
			o.benchDir = "bench"
		}
	}
	switch {
	case o.makeFixtures:
		for _, fx := range []fixture{ensWide, ensDeep} {
			if took, err := fx.ensure(root); err != nil {
				return err
			} else if took > 0 {
				fmt.Fprintf(os.Stderr, "bench: fixture_gen_s %s %.3f\n", fx.name, took.Seconds())
			}
		}
		return nil
	case o.updateGolden:
		return inScratch(o, func(scratch string) error { return updateGoldens(o, scratch) })
	case o.workload == "":
		return runSuite(o)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 && o.asks <= 0 {
		return fmt.Errorf("need --seconds or --asks")
	}
	return inScratch(o, func(scratch string) error {
		res, err := runOne(o, w, scratch)
		if err != nil {
			return err
		}
		if o.trace == 0 {
			if err := printJSON(report{EndToEnd: res.Metrics}); err != nil {
				return err
			}
			res.Metrics = listed(res.Metrics)
		}
		return printJSON(res)
	})
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// inScratch runs fn with a private scratch directory under -work that is
// removed afterwards, with TMPDIR pointed into it: the sandbox executor
// and anything else that asks for a temp dir then stays inside -work.
func inScratch(o options, fn func(scratch string) error) error {
	scratch := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	tmp := filepath.Join(scratch, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}
	return fn(scratch)
}

// fixtureDir returns the workload's generated ensemble, generating it in a
// child process when it is missing so the generator's memory never counts
// in this run's peak_rss_mb.
func fixtureDir(o options, fx fixture) (string, error) {
	dir := fx.dir(o.work)
	if _, err := os.Stat(filepath.Join(dir, "ensemble.json")); err == nil {
		return dir, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-make-fixtures", "-work", o.work)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("generate fixtures: %w", err)
	}
	return dir, nil
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line an untraced run prints before its result line: all ten
// end-to-end metrics, which is what the suite reads. The result line leaves
// out the three that BENCHMARK.json cannot list (see metricSpec.unlisted).
type report struct {
	EndToEnd map[string]metric `json:"end_to_end"`
}

// listed keeps the end-to-end metrics BENCHMARK.json lists.
func listed(m map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, spec := range endToEndSpecs {
		if !spec.unlisted {
			out[spec.name] = m[spec.name]
		}
	}
	return out
}

// setUps is how many times a run sets its environment up. setup_s is their
// median, so a first set-up that also pays for cold code and a growing heap
// does not stand for the cost; the window runs on the last. peak_rss_mb is
// the process's and so covers all of them.
const setUps = 3

// runOne is one run of one workload in this process.
func runOne(o options, w *workload, scratch string) (*result, error) {
	dataDir, err := fixtureDir(o, w.fx)
	if err != nil {
		return nil, err
	}
	if w.diskTier {
		// The workload replaces halo snapshots under load, so it gets its
		// own link farm, with the halo snapshots linked to swap copies.
		private := filepath.Join(scratch, "data")
		if err := privateCopy(dataDir, private); err != nil {
			return nil, err
		}
		cat, err := hacc.Load(private)
		if err != nil {
			return nil, err
		}
		for _, f := range cat.FilesOf(-1, -1, hacc.FileHalos) {
			if err := makeSwappable(dataDir, private, f.Path); err != nil {
				return nil, err
			}
		}
		dataDir = private
	}
	g, err := loadGolden(o.benchDir, w.name)
	if err != nil {
		return nil, err
	}
	lim := limit{seconds: o.seconds, asks: o.asks}
	if lim.asks > 0 {
		lim.seconds = 0
	}
	if o.trace == 1 {
		return tracedRun(o, w, dataDir, scratch, lim, g)
	}

	var e *env
	var setups []float64
	for r := 0; r < setUps; r++ {
		if e != nil {
			e.down()
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", r))
		var took time.Duration
		if e, took, err = setUp(w, dataDir, dir, o.seed, g); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		setups = append(setups, took.Seconds())
	}
	defer e.down()

	win := drive(e.seq, w.cycle, lim, g, e.ask, e.stage)
	m, attempted, failed, failures := win.endToEnd()
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["setup_s"] = metric{median(setups), "s"}
	m["failed_share"] = metric{float64(failed) / float64(attempted), "ratio"}
	m["decoded_kb_per_ask"] = metric{float64(win.stage.BytesDecoded) / 1024 / float64(attempted), "KB"}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "bench: failed", f)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d: %d asks in %.2fs, %d failed, p95 reported at q=%.3f over %d samples, decoded %.1f KB/ask, %.0f%% of CPU in the kernel, set-ups %v\n",
		w.name, o.seed, attempted, win.wall.Seconds(), failed,
		tailQuantile(attempted-failed, 0.95), attempted-failed,
		float64(win.stage.BytesDecoded)/1024/float64(attempted), 100*win.sys.Seconds()/win.cpu.Seconds(), setups)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
