package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type for the Prometheus text
// exposition format produced by WritePrometheus.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus encodes every registered family in the Prometheus
// text exposition format (version 0.0.4). Families are emitted in name
// order and series in sorted-label order, so output is deterministic
// for a fixed set of observations.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		if len(f.series) == 0 {
			continue
		}
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		// Snapshot the series list; instruments themselves are
		// read atomically below.
		r.mu.Lock()
		ss := make([]series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, *s)
		}
		help, kind, bounds := f.help, f.kind, f.bounds
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })

		if help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, typeName(kind))
		for _, s := range ss {
			switch kind {
			case kindCounter, kindGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(s.labels, "", 0), s.value())
			case kindHistogram:
				cum, sum, count := s.h.snapshot()
				for i, bound := range bounds {
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(s.labels, "le", bound), cum[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(s.labels, "le", math.Inf(1)), cum[len(cum)-1])
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(s.labels, "", 0), formatFloat(sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(s.labels, "", 0), count)
			}
		}
	}
	return bw.Flush()
}

// value is a counter or gauge series' value: fn's, when it has one.
func (s *series) value() int64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.c != nil:
		return s.c.Value()
	}
	return s.g.Value()
}

func typeName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// labelString renders {k="v",...}, optionally appending an le bound
// for histogram bucket lines. Returns "" when there is nothing to
// render.
func labelString(labels []Label, leKey string, leBound float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		b.WriteString(formatFloat(leBound))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
