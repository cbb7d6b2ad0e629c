package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"infera/internal/hacc"
	"infera/internal/service"
)

// These tests are fast and never run the benchmark itself: they pin the
// arithmetic and the file formats the numbers pass through.

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		q    float64
	}{
		{n: 1000, want: 0.95, q: 0.95}, // 50 beyond: p95 stands
		{n: 200, want: 0.95, q: 0.95},  // exactly 10 beyond
		{n: 180, want: 0.95, q: 1 - 10.0/180},
		{n: 100, want: 0.99, q: 0.90},
		{n: 19, want: 0.95, q: 0.5}, // too few for any tail: the median
	}
	for _, c := range cases {
		got := tailQuantile(c.n, c.want)
		if math.Abs(got-c.q) > 1e-12 {
			t.Errorf("tailQuantile(%d, %.2f) = %.4f, want %.4f", c.n, c.want, got, c.q)
		}
		if c.n >= 2*tailSamples {
			beyond := c.n - int(math.Ceil(got*float64(c.n)))
			if beyond < tailSamples {
				t.Errorf("tailQuantile(%d, %.2f) leaves %d samples beyond, want >= %d", c.n, c.want, beyond, tailSamples)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.9: 9, 0.1: 1, 0: 1, 1: 10} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%.2f) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The spread must be the one the driver computes: Python's
// statistics.quantiles(v, n=4) gives Q1=2.75, Q3=8.25 for 1..10.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quartileSpread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("three values fall back to range/median: got %v, want 0.2", got)
	}
}

func testCatalog(fx fixture) *hacc.Catalog {
	cat := &hacc.Catalog{Dir: "/data", Spec: fx.spec}
	for run := 0; run < fx.spec.Runs; run++ {
		cat.Runs = append(cat.Runs, hacc.RunInfo{Index: run})
		for _, step := range fx.spec.Steps {
			cat.Files = append(cat.Files, hacc.FileEntry{Run: run, Step: step, Type: hacc.FileHalos, Path: "h"})
		}
	}
	return cat
}

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		cat := testCatalog(w.fx)
		a, b, other := w.gen(w, cat, 7), w.gen(w, cat, 7), w.gen(w, cat, 8)
		if !reflect.DeepEqual(a.warm, b.warm) {
			t.Errorf("%s: warm-up asks differ between two generations of seed 7", w.name)
		}
		differs := false
		for i := 0; i < 3*w.cycle; i++ {
			if a.at(i) != b.at(i) {
				t.Fatalf("%s: ask %d differs between two generations of seed 7", w.name, i)
			}
			if a.at(i) != other.at(i) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same asks", w.name)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	for _, w := range workloads {
		cat := testCatalog(w.fx)
		if w.asks%w.cycle != 0 || w.asks < 300 {
			t.Errorf("%s: %d asks is not >= 300 and a whole number of %d-ask cycles", w.name, w.asks, w.cycle)
		}
		known := map[string]bool{}
		for _, q := range w.universe(cat) {
			known[q.key] = true
		}
		for _, seed := range []int64{1, 2, 99} {
			seq := w.gen(w, cat, seed)
			seeds := map[int64]bool{}
			for i := 0; i < 4*w.cycle; i++ {
				a := seq.at(i)
				if !known[a.key] {
					t.Fatalf("%s seed %d: ask %d %q is outside the golden universe", w.name, seed, i, a.key)
				}
				if a.seed == 0 {
					t.Fatalf("%s seed %d: ask %d has model seed 0 (the service would replace it)", w.name, seed, i)
				}
				if w.repeatPairs > 0 && a != seq.at(i%w.cycle) {
					t.Errorf("%s seed %d: ask %d is not the pair asked at %d", w.name, seed, i, i%w.cycle)
				}
				seeds[a.seed] = true
			}
			// Unique seeds defeat the answer cache; repeated pairs are the
			// one workload that wants it.
			want := 4 * w.cycle
			if w.repeatPairs > 0 {
				want = w.repeatPairs
			}
			if len(seeds) != want {
				t.Errorf("%s seed %d: %d distinct model seeds in 4 cycles, want %d", w.name, seed, len(seeds), want)
			}
			for _, a := range seq.warm {
				if !known[a.key] {
					t.Errorf("%s seed %d: warm-up ask %q is outside the golden universe", w.name, seed, a.key)
				}
			}
		}
	}
}

func TestDiskChurnRewritesOncePerCycle(t *testing.T) {
	w := workloadByName("disk_churn")
	seq := w.gen(w, testCatalog(w.fx), 3)
	files := map[string]bool{}
	for i := 0; i < 8*w.cycle; i++ {
		a := seq.at(i)
		if (a.rewrite != "") != (i%w.cycle == 0) {
			t.Fatalf("ask %d: rewrite=%q, want a rewrite exactly at cycle starts", i, a.rewrite)
		}
		if a.rewrite != "" {
			files[a.rewrite] = true
		}
	}
	if len(files) == 0 {
		t.Fatal("no rewrites generated")
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "agent.run", StartNS: ms(0), EndNS: ms(100)},
		{ID: 2, Parent: 1, Name: "agent.step.sql", StartNS: ms(10), EndNS: ms(40)},
		{ID: 3, Parent: 2, Name: "llm.complete", StartNS: ms(10), EndNS: ms(15)},
		{ID: 4, Parent: 2, Name: "sqldb.query", StartNS: ms(15), EndNS: ms(35)},
		// overlapping siblings count once; a child leaking past its parent is clipped
		{ID: 5, Parent: 1, Name: "a", StartNS: ms(50), EndNS: ms(70)},
		{ID: 6, Parent: 1, Name: "b", StartNS: ms(60), EndNS: ms(80)},
		{ID: 7, Parent: 1, Name: "c", StartNS: ms(95), EndNS: ms(120)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 35 * time.Millisecond, // 100 - (30 + 30 + 5)
		2: 5 * time.Millisecond,  // 30 - (5 + 20)
		3: 5 * time.Millisecond,
		4: 20 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	for id, d := range self {
		if d < 0 {
			t.Errorf("span %d has negative self time %v", id, d)
		}
	}
}

func TestTracerRecordsParentAndAsk(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	root := tr.add("ask-1", 0, "agent.run", t0, t0.Add(time.Second), 0)
	tr.add("ask-1", root, "llm.complete", t0, t0.Add(time.Millisecond), 42)
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Ask != "ask-1" || spans[1].Count != 42 {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if d := spans[0].dur(); d != time.Second {
		t.Errorf("root duration %v, want 1s", d)
	}
	var nilTracer *tracer
	if nilTracer.add("x", 0, "y", t0, t0, 0) != 0 || nilTracer.all() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestResultAndTraceSchemas(t *testing.T) {
	line, err := json.Marshal(result{Correct: true, Attempted: 3, Failed: 0, Metrics: map[string]metric{"ask_p50_ms": {1.25, "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	m := got["metrics"].(map[string]any)["ask_p50_ms"].(map[string]any)
	if m["value"] != 1.25 || m["unit"] != "ms" || len(m) != 2 {
		t.Errorf("metric encodes as %v, want {value, unit}", m)
	}

	full := map[string]metric{}
	for _, spec := range endToEndSpecs {
		full[spec.name] = metric{1, spec.unit}
	}
	kept := listed(full)
	for _, name := range []string{"failed_share", "decoded_kb_per_ask", "ask_p95_ms"} {
		if _, ok := kept[name]; ok {
			t.Errorf("the result line must not carry %s", name)
		}
	}
	if len(kept) != len(full)-3 {
		t.Errorf("the result line must carry the seven other end-to-end metrics, got %v", kept)
	}

	data, err := json.Marshal(traceFile{Workload: "w", Seed: 1, Spans: []span{{ID: 1, Ask: "a", Name: "agent.run", EndNS: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	sp := tf["spans"].([]any)[0].(map[string]any)
	for _, k := range []string{"id", "parent", "ask", "name", "start_ns", "end_ns"} {
		if _, ok := sp[k]; !ok {
			t.Errorf("span lacks %q: %v", k, sp)
		}
	}
}

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json is written by hand; this keeps it in step with the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, bf.Workloads[i].Name, w.name)
		}
		if bf.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %s: BENCHMARK.json and the code must give the same why, of at most 200 characters", w.name)
		}
	}
	// One bound per metric: the file and the code must agree on it, and the
	// file lists every end-to-end metric except the ones marked unlisted.
	specs := map[string]metricSpec{}
	for _, s := range endToEndSpecs {
		if !s.unlisted {
			specs[s.name] = s
		}
	}
	for _, m := range bf.EndToEnd {
		s, ok := specs[m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json end_to_end metric %q is not one the result line carries", m.Name)
			continue
		}
		if s.unit != m.Unit || s.better != m.Better || s.bound != m.Bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, code says %s/%s/%v", m.Name, m.Unit, m.Better, m.Bound, s.unit, s.better, s.bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		delete(specs, m.Name)
	}
	for name := range specs {
		t.Errorf("the result line carries %q, BENCHMARK.json does not list it", name)
	}
	layer := map[string]layerSpec{}
	for _, s := range perLayerSpecs {
		layer[s.name] = s
	}
	for _, m := range bf.PerLayer {
		s, ok := layer[m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json per_layer metric %q is not one the traced pass reports", m.Name)
		} else if s.unit != m.Unit || s.better != m.Better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, code says %s/%s", m.Name, m.Unit, m.Better, s.unit, s.better)
		}
		delete(layer, m.Name)
	}
	for name := range layer {
		t.Errorf("traced pass reports %q, BENCHMARK.json does not list it", name)
	}
}

func TestGoldenDigestIsStable(t *testing.T) {
	// Pinned: a change to the digest rule would silently orphan every
	// golden file.
	const table = "fof_halo_tag,fof_halo_mass\n7,1.5\n"
	want := goldenAnswer{SHA256: "807234b07fa13952012bccf2c335b1df0db32f2bcddda35c246f2d373657f38a", Rows: 1}
	if got := digest(table, 1); got != want {
		t.Fatalf("digest = %+v, want %+v", got, want)
	}
	if other := digest("fof_halo_tag,fof_halo_mass\n7,1.6\n", 1); other.SHA256 == want.SHA256 {
		t.Error("digest ignores the table's content")
	}
	if other := digest(table, 2); other == want {
		t.Error("digest ignores the row count")
	}
}

func TestGoldenFilesCoverEveryQuestion(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGolden(".", w.name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Workload != w.name {
			t.Errorf("golden/%s.json says it is for %q", w.name, g.Workload)
		}
		for _, q := range w.universe(testCatalog(w.fx)) {
			a, ok := g.Answers[q.key]
			if !ok {
				t.Errorf("%s: no golden answer for %q", w.name, q.key)
			} else if a.Rows == 0 || len(a.SHA256) != 64 {
				t.Errorf("%s: malformed golden answer for %q: %+v", w.name, q.key, a)
			}
		}
	}
}

func TestGoldenCheckClassifiesFailures(t *testing.T) {
	a := ask{key: "q", question: "q"}
	g := &golden{Answers: map[string]goldenAnswer{"q": digest("x\n1\n", 1)}}
	cases := []struct {
		name string
		csv  string
		rows int
		errs string
		want string
	}{
		{name: "correct", csv: "x\n1\n", rows: 1, want: ""},
		{name: "wrong table", csv: "x\n2\n", rows: 1, want: "golden mismatch"},
		{name: "wrong rows", csv: "x\n1\n", rows: 2, want: "golden mismatch"},
		{name: "empty", csv: "", rows: 0, want: "empty answer"},
		{name: "workflow error", csv: "x\n1\n", rows: 1, errs: "boom", want: "workflow: boom"},
	}
	for _, c := range cases {
		got := g.check(a, askResultFor(c.csv, c.rows, c.errs), nil)
		if (c.want == "") != (got == "") || (c.want != "" && !strings.Contains(got, c.want)) {
			t.Errorf("%s: check = %q, want %q", c.name, got, c.want)
		}
	}
	if got := g.check(a, nil, os.ErrDeadlineExceeded); !strings.Contains(got, "transport") {
		t.Errorf("transport error: check = %q", got)
	}
	if got := g.check(ask{key: "other"}, askResultFor("x\n1\n", 1, ""), nil); !strings.Contains(got, "no golden answer") {
		t.Errorf("unknown question: check = %q", got)
	}
}

func askResultFor(csv string, rows int, errText string) *service.AskResult {
	return &service.AskResult{AnswerCSV: csv, Rows: rows, Error: errText}
}
