package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec is one end-to-end metric's contract: its unit, which way is
// better, and the share of the reference median by which it may worsen
// before that counts as a regression. BENCHMARK.json repeats them, and a
// test holds the two equal.
type metricSpec struct {
	name, unit, better string
	bound              float64
	// absolute marks a bound that is a difference, not a share (a metric
	// whose good value is 0 has no share to take).
	absolute bool
	// unlisted marks a metric BENCHMARK.json cannot carry: one that reads 0
	// on some workload, which leaves the driver no median to take a share
	// of, or one whose run-to-run spread on the box this was sized on is
	// wider than the largest bound the contract allows. The suite reports
	// and checks it all the same.
	unlisted bool
}

// endToEndSpecs are the ten metrics a user of the system would see. The
// timing bounds are the widest the benchmark's contract allows: on a shared
// 2-core box the quartile spread of ten runs of one commit is 5-15 % in a
// quiet hour and more in a busy one, and a bound inside the spread flags
// noise.
var endToEndSpecs = []metricSpec{
	{name: "ask_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ask_p95_ms", unit: "ms", better: "lower", bound: 0.25, unlisted: true},
	{name: "asks_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "failed_share", unit: "ratio", better: "lower", bound: 0, absolute: true, unlisted: true},
	{name: "cpu_ms_per_ask", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "decoded_kb_per_ask", unit: "KB", better: "lower", bound: 0.05, unlisted: true},
	{name: "tokens_per_ask", unit: "count", better: "lower", bound: 0.03},
	{name: "storage_kb_per_ask", unit: "KB", better: "lower", bound: 0.02},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// aggregate is one metric over a workload's repeats.
type aggregate struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	// Spread is the quartile spread of Values over their median (the full
	// range with fewer than four repeats); Unresolved is set when it is
	// wider than the metric's bound, i.e. when this machine cannot tell a
	// regression of that size from noise.
	Spread     float64 `json:"spread"`
	Bound      float64 `json:"bound"`
	Unresolved bool    `json:"unresolved"`
}

func aggregateOf(spec metricSpec, values []float64) aggregate {
	a := aggregate{Median: median(values), Unit: spec.unit, Values: values, Bound: spec.bound}
	a.Min, a.Max = minMax(values)
	if spec.absolute {
		a.Spread = a.Max - a.Min
	} else {
		a.Spread = quartileSpread(values)
	}
	a.Unresolved = a.Spread > spec.bound
	return a
}

// runRecord is one child run of the suite.
type runRecord struct {
	Workload string  `json:"workload"`
	Repeat   int     `json:"repeat"`
	Seed     int64   `json:"seed"`
	CalibMS  float64 `json:"calib_ms"`
	Reruns   int     `json:"reruns"`
	Result   result  `json:"result"`
}

// workloadReport is everything the suite knows about one workload.
type workloadReport struct {
	Why      string               `json:"why"`
	Asks     int                  `json:"asks"`
	EndToEnd map[string]aggregate `json:"end_to_end"`
	PerLayer map[string]metric    `json:"per_layer,omitempty"`
	Runs     []runRecord          `json:"runs"`
}

// suiteReport is the schema of results.json.
type suiteReport struct {
	Started   time.Time                  `json:"started"`
	Seed      int64                      `json:"seed"`
	Repeats   int                        `json:"repeats"`
	CalibMS   float64                    `json:"calib_ms"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// calibTolerance is how far a run's calibration reading may sit above the
// invocation's median before the run is taken again.
const (
	calibTolerance = 0.10
	maxReruns      = 2
)

// suite drives child processes: one per (workload, repeat), so every run
// starts from the same process state and peak_rss_mb means one run.
type suite struct {
	o      options
	self   string
	outDir string
	calibs []float64
}

// child runs this binary for one workload and returns its result line, with
// all ten end-to-end metrics (the report line's) when the run is untraced.
func (s *suite) child(label string, w *workload, trace int, extra ...string) (*result, error) {
	args := append([]string{
		"-workload", w.name, "-seed", fmt.Sprint(s.o.seed), "-asks", fmt.Sprint(w.asks),
		"-trace", fmt.Sprint(trace), "-work", s.o.work, "-bench-dir", s.o.benchDir,
	}, extra...)
	cmd := exec.Command(s.self, args...)
	var stdout bytes.Buffer
	logPath := filepath.Join(s.outDir, "logs", label+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd.Stdout, cmd.Stderr = &stdout, logFile
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w (see %s)", label, err, logPath)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", label, err)
	}
	if trace == 0 {
		var rep report
		if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &rep) != nil || rep.EndToEnd == nil {
			return nil, fmt.Errorf("%s: no report line before the result line", label)
		}
		res.Metrics = rep.EndToEnd
	}
	return &res, nil
}

// measured runs one repeat of one workload under the noise guard: the box
// is calibrated before and after, and a run whose worse reading is more
// than calibTolerance above the invocation's median so far is taken again,
// at most maxReruns times.
func (s *suite) measured(pass string, w *workload, rep int) (runRecord, error) {
	rec := runRecord{Workload: w.name, Repeat: rep, Seed: s.o.seed}
	for {
		before := calibrate()
		res, err := s.child(fmt.Sprintf("%s-%s-r%d-try%d", pass, w.name, rep, rec.Reruns), w, 0)
		if err != nil {
			return rec, err
		}
		after := calibrate()
		rec.Result, rec.CalibMS = *res, math.Max(before, after)
		ref := median(s.calibs)
		s.calibs = append(s.calibs, before, after)
		if rec.CalibMS <= ref*(1+calibTolerance) || rec.Reruns == maxReruns {
			return rec, nil
		}
		rec.Reruns++
		fmt.Fprintf(os.Stderr, "bench: %s repeat %d: calibration %.1f ms vs median %.1f ms, running it again\n", w.name, rep, rec.CalibMS, ref)
	}
}

// pass runs every workload `repeats` times, interleaved (A B C D A B C D)
// so slow drift of the box spreads over all workloads instead of landing
// on one, then aggregates.
func (s *suite) pass(name string) (*suiteReport, error) {
	rep := &suiteReport{Started: time.Now(), Seed: s.o.seed, Repeats: s.o.repeats, Workloads: map[string]*workloadReport{}}
	for _, w := range workloads {
		rep.Workloads[w.name] = &workloadReport{Why: w.why, Asks: w.asks}
	}
	for r := 0; r < s.o.repeats; r++ {
		for _, w := range workloads {
			rec, err := s.measured(name, w, r)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "bench: %s %s repeat %d: %.2f asks/s, p50 %.2f ms, %d/%d failed\n", name, w.name, r,
				rec.Result.Metrics["asks_per_s"].Value, rec.Result.Metrics["ask_p50_ms"].Value, rec.Result.Failed, rec.Result.Attempted)
			wr := rep.Workloads[w.name]
			wr.Runs = append(wr.Runs, rec)
		}
	}
	rep.CalibMS = median(s.calibs)
	for _, wr := range rep.Workloads {
		wr.EndToEnd = map[string]aggregate{}
		for _, spec := range endToEndSpecs {
			var values []float64
			for _, run := range wr.Runs {
				values = append(values, run.Result.Metrics[spec.name].Value)
			}
			wr.EndToEnd[spec.name] = aggregateOf(spec, values)
		}
	}
	return rep, nil
}

// traced runs the traced pass of every workload and folds the per-layer
// metrics into rep and the spans into one trace.json.
func (s *suite) traced(rep *suiteReport) error {
	all := map[string]json.RawMessage{}
	for _, w := range workloads {
		tracePath := filepath.Join(s.outDir, "trace-"+w.name+".json")
		res, err := s.child("trace-"+w.name, w, 1, "-trace-out", tracePath)
		if err != nil {
			return err
		}
		rep.Workloads[w.name].PerLayer = res.Metrics
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return err
		}
		all[w.name] = data
		os.Remove(tracePath)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.outDir, "trace.json"), data, 0o644)
}

func runSuite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := &suite{o: o, self: self, outDir: filepath.Join(o.benchDir, "out", time.Now().Format("20060102-150405"))}
	if err := os.MkdirAll(filepath.Join(s.outDir, "logs"), 0o755); err != nil {
		return err
	}
	for _, fx := range []fixture{ensWide, ensDeep} {
		if _, err := fixtureDir(o, fx); err != nil {
			return err
		}
	}
	// Seed the noise guard's reference before any run can be judged by it.
	for i := 0; i < 5; i++ {
		s.calibs = append(s.calibs, calibrate())
	}
	first, err := s.pass("a")
	if err != nil {
		return err
	}
	var second *suiteReport
	if o.selfcheck {
		if second, err = s.pass("b"); err != nil {
			return err
		}
	}
	if err := s.traced(first); err != nil {
		return err
	}
	data, err := json.MarshalIndent(first, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(s.outDir, "results.json"), data, 0o644); err != nil {
		return err
	}
	printReport(first)
	fmt.Printf("\nresults: %s\n", s.outDir)
	if failed := failedAsks(first); failed > 0 {
		return fmt.Errorf("%d asks failed (listed in %s/logs)", failed, s.outDir)
	}
	if o.selfcheck {
		return compare(first, second)
	}
	return nil
}

func failedAsks(rep *suiteReport) int {
	n := 0
	for _, wr := range rep.Workloads {
		for _, run := range wr.Runs {
			n += run.Result.Failed
		}
	}
	return n
}

// printReport prints every metric by name with its unit: the ten
// end-to-end metrics per workload as median [min .. max], then the
// per-layer metrics of the traced pass.
func printReport(rep *suiteReport) {
	fmt.Printf("seed %d, %d repeats per workload, calibration %.1f ms\n", rep.Seed, rep.Repeats, rep.CalibMS)
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		fmt.Printf("\n== %s (%d asks per run): %s\n", w.name, wr.Asks, wr.Why)
		for _, spec := range endToEndSpecs {
			a := wr.EndToEnd[spec.name]
			flag := ""
			if a.Unresolved {
				flag = fmt.Sprintf("  UNRESOLVED: spread %.1f%% > bound %.1f%%", a.Spread*100, a.Bound*100)
			}
			fmt.Printf("  %-22s %14.4f %-6s [%.4f .. %.4f]%s\n", spec.name, a.Median, a.Unit, a.Min, a.Max, flag)
		}
		names := make([]string, 0, len(wr.PerLayer))
		for name := range wr.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-32s %14.4f %s\n", name, wr.PerLayer[name].Value, wr.PerLayer[name].Unit)
		}
	}
}

// compare is the selfcheck verdict: two passes of the same code must agree
// on every end-to-end metric of every workload within the metric's bound.
// A metric whose own spread is wider than its bound cannot be held to it;
// it is reported as unresolved with both spreads and does not fail the
// check.
func compare(a, b *suiteReport) error {
	var bad []string
	for _, w := range workloads {
		for _, spec := range endToEndSpecs {
			x, y := a.Workloads[w.name].EndToEnd[spec.name], b.Workloads[w.name].EndToEnd[spec.name]
			diff := math.Abs(y.Median - x.Median)
			if !spec.absolute && x.Median != 0 {
				diff /= math.Abs(x.Median)
			}
			switch {
			case diff <= spec.bound:
			case x.Unresolved || y.Unresolved:
				fmt.Printf("selfcheck: %s %s unresolved: medians %.4f vs %.4f, spreads %.1f%% and %.1f%% against a bound of %.1f%%\n",
					w.name, spec.name, x.Median, y.Median, x.Spread*100, y.Spread*100, spec.bound*100)
			default:
				bad = append(bad, fmt.Sprintf("%s %s: %.4f vs %.4f differ by %.1f%%, bound %.1f%%",
					w.name, spec.name, x.Median, y.Median, diff*100, spec.bound*100))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two passes of the same code disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck: both passes agree within every bound")
	return nil
}
