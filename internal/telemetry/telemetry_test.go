package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("mode", "auto"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same instrument.
	if r.Counter("reqs_total", L("mode", "auto")) != c {
		t.Fatal("expected identical counter instance for same series")
	}
	g := r.Gauge("queue_len")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	h := r.Histogram("z", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil-registry histogram must be a no-op")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	cum, sum, count := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if math.Abs(sum-105.65) > 1e-9 {
		t.Fatalf("sum = %v, want 105.65", sum)
	}
	// le=0.1 -> 2 (0.05, 0.1 inclusive), le=1 -> 3, le=10 -> 4, +Inf -> 5
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative bucket %d = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
}

// TestConcurrentHistogram hammers one histogram from many goroutines
// while another goroutine encodes the registry; run with -race.
func TestConcurrentHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", nil, L("ensemble", "e1"))
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent encoder
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("encode: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(float64(seed*perG+j) * 1e-6)
				r.Counter("conc_total").Inc()
			}
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		// also exercise concurrent series creation
		r.Histogram("conc_seconds", nil, L("ensemble", "e2")).Observe(0.001)
	}
	// Wait for the recorders, then stop the encoder.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		// Recorders are the last goroutines besides the encoder to
		// finish; signal the encoder once counts settle.
		for h.Count() < goroutines*perG {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	<-done
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("observations = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("conc_total").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestWritePrometheusGolden checks the exact text exposition output for
// a small fixed registry.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("infera_asks_total", "Total asks served.")
	r.Counter("infera_asks_total", L("ensemble", "euclid"), L("cache", "hit")).Add(3)
	r.Counter("infera_asks_total", L("ensemble", "euclid"), L("cache", "miss")).Inc()
	r.Gauge("infera_queue_len", L("ensemble", "euclid")).Set(2)
	h := r.Histogram("infera_ask_seconds", []float64{0.5, 1}, L("ensemble", "eu\"clid\\x"))
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(4)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE infera_ask_seconds histogram
infera_ask_seconds_bucket{ensemble="eu\"clid\\x",le="0.5"} 1
infera_ask_seconds_bucket{ensemble="eu\"clid\\x",le="1"} 2
infera_ask_seconds_bucket{ensemble="eu\"clid\\x",le="+Inf"} 3
infera_ask_seconds_sum{ensemble="eu\"clid\\x"} 5
infera_ask_seconds_count{ensemble="eu\"clid\\x"} 3
# HELP infera_asks_total Total asks served.
# TYPE infera_asks_total counter
infera_asks_total{cache="hit",ensemble="euclid"} 3
infera_asks_total{cache="miss",ensemble="euclid"} 1
# TYPE infera_queue_len gauge
infera_queue_len{ensemble="euclid"} 2
`
	if got := sb.String(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestDefaultRegistrySingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return a single process-wide registry")
	}
}

// TestFuncSeriesAndAttachedHistogram: a counter or gauge series set by
// CounterFunc or GaugeFunc reads its func at every scrape, registering it
// again replaces the func, and a histogram its owner observes into shows
// in every registry it is attached to, with its own bounds.
func TestFuncSeriesAndAttachedHistogram(t *testing.T) {
	var n int64 = 3
	h := newHistogram([]float64{1})
	h.Observe(0.5)
	want := `# TYPE ext_seconds histogram
ext_seconds_bucket{le="1"} 1
ext_seconds_bucket{le="+Inf"} 1
ext_seconds_sum 0.5
ext_seconds_count 1
# TYPE live gauge
live{tier="disk"} 7
# TYPE reads_total counter
reads_total 4
`
	for _, r := range []*Registry{NewRegistry(), NewRegistry()} {
		r.CounterFunc("reads_total", func() int64 { return 0 })
		r.CounterFunc("reads_total", func() int64 { return n })
		r.GaugeFunc("live", func() int64 { return 7 }, L("tier", "disk"))
		r.AttachHistogram("ext_seconds", h)
		n++
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != want {
			t.Fatalf("got:\n%s\nwant:\n%s", got, want)
		}
		n--
	}
	var nilReg *Registry
	nilReg.CounterFunc("x", func() int64 { return 1 })
	nilReg.AttachHistogram("y", h)
}
