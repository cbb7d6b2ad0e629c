package service

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"infera/internal/telemetry"
)

func getText(t *testing.T, url string) (string, string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type"), resp.StatusCode
}

// TestHTTPPrometheusEndpoint is the observability acceptance check: after a
// cache-miss ask, a cache-hit repeat, and an interactive ask, the Prometheus
// endpoint must expose latency histograms for at least four ask phases with
// per-ensemble labels, ask histograms split by cache and mode, and the
// queue/stage/SQL series.
func TestHTTPPrometheusEndpoint(t *testing.T) {
	treg := telemetry.NewRegistry()
	_, base := startServer(t, Config{
		Workers: 2, QueueDepth: 8,
		ApprovalTimeout: 100 * time.Millisecond, // auto-approve the interactive ask
		Metrics:         treg,
	})

	// Miss, then hit.
	if res, code := postAsk(t, base, AskRequest{Question: topHalosQ}); code != http.StatusOK || res.Error != "" {
		t.Fatalf("ask: code=%d res=%+v", code, res)
	}
	if res, code := postAsk(t, base, AskRequest{Question: topHalosQ}); code != http.StatusOK || !res.Cached {
		t.Fatalf("repeat ask: code=%d res=%+v", code, res)
	}

	// Interactive ask, driven to completion by the approval deadline.
	info := startInteractive(t, base, "default", topHalosQ, 7)
	deadline := time.Now().Add(60 * time.Second)
	for {
		var res AskResult
		if code := getJSON(t, fmt.Sprintf("%s/v1/ensembles/default/sessions/%s/result", base, info.ID), &res); code == http.StatusOK {
			if res.Error != "" {
				t.Fatalf("interactive result = %+v", &res)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interactive ask never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	body, ctype, code := getText(t, base+"/v1/metrics/prometheus")
	if code != http.StatusOK {
		t.Fatalf("prometheus endpoint code = %d", code)
	}
	if ctype != telemetry.TextContentType {
		t.Fatalf("content type = %q", ctype)
	}

	// At least four distinct ask phases, each labeled with the ensemble.
	phaseRe := regexp.MustCompile(`infera_ask_phase_seconds_count\{ensemble="default",phase="([a-z]+)"\} ([0-9]+)`)
	phases := map[string]bool{}
	for _, m := range phaseRe.FindAllStringSubmatch(body, -1) {
		if m[2] != "0" {
			phases[m[1]] = true
		}
	}
	if len(phases) < 4 {
		t.Errorf("ask phases with observations = %v, want >= 4", phases)
	}
	for _, phase := range []string{"plan", "stage", "query", "qa", "total"} {
		if !phases[phase] {
			t.Errorf("phase %q missing from prometheus output", phase)
		}
	}

	// Ask latency split by cache and mode. Three asks total: one automated
	// miss, one automated hit, one interactive miss.
	for _, want := range []string{
		`infera_ask_seconds_count{cache="miss",ensemble="default",mode="automated"} 1`,
		`infera_ask_seconds_count{cache="hit",ensemble="default",mode="automated"} 1`,
		`infera_ask_seconds_count{cache="miss",ensemble="default",mode="interactive"} 1`,
		`infera_asks_total{cache="miss",ensemble="default",mode="automated"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// Queue, stage, SQL and provenance series are present and typed.
	for _, want := range []string{
		`infera_queue_depth{ensemble="default"} 8`,
		`# TYPE infera_queue_len gauge`,
		`# TYPE infera_queue_wait_seconds histogram`,
		`# TYPE infera_stage_decode_seconds histogram`,
		`infera_sql_query_seconds_count{backend="vectorized",ensemble="default"}`,
		`infera_sql_scanned_bytes_total{ensemble="default"}`,
		`# TYPE infera_sql_segments_pruned_total counter`,
		`# TYPE infera_sql_rows_filtered_total counter`,
		`infera_stage_decoded_bytes_total`,
		`# TYPE infera_stage_disk_mappings gauge`,
		`# TYPE infera_stage_watch_overflows_total counter`,
		`infera_provenance_artifact_bytes_total{ensemble="default",how="encoded"}`,
		`infera_provenance_artifact_bytes_total{ensemble="default",how="referenced"}`,
		`infera_provenance_origin_lookups_total{ensemble="default",result="hit"}`,
		`infera_provenance_origin_lookups_total{ensemble="default",result="miss"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// The JSON endpoint is untouched by the text exposition.
	var rm RegistryMetrics
	if code := getJSON(t, base+"/v1/metrics", &rm); code != http.StatusOK {
		t.Fatalf("/v1/metrics code = %d", code)
	}
	if rm.Completed == 0 || rm.Stage.BudgetBytes <= 0 {
		t.Errorf("registry metrics = %+v", rm)
	}
}
