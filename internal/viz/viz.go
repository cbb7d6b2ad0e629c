// Package viz renders analysis results to inspectable artifacts: 2-D plots
// as standalone SVG documents (the Matplotlib stand-in) and 3-D halo/galaxy
// scenes as VTK legacy-ASCII polydata files consumable by ParaView — the
// two visualization backends of the paper's workflow.
package viz

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// PlotKind enumerates supported chart types.
type PlotKind string

// Supported chart kinds.
const (
	Line    PlotKind = "line"
	Scatter PlotKind = "scatter"
	Hist    PlotKind = "hist"
)

// Series is one named data series.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// PlotSpec describes a 2-D chart.
type PlotSpec struct {
	Kind   PlotKind
	Title  string
	XLabel string
	YLabel string
	Series []Series
	LogY   bool
	// Highlight marks point indices of series 0 to emphasize (drawn larger
	// in a distinct color), used by "highlight the top N" requests.
	Highlight []int
}

// Validate reports structural problems (empty series, length mismatches,
// unsupported kinds) before rendering; the evaluation judge calls this to
// score "valid code that would generate valid visualizations".
func (s *PlotSpec) Validate() error {
	switch s.Kind {
	case Line, Scatter, Hist:
	default:
		return fmt.Errorf("viz: unsupported plot kind %q", s.Kind)
	}
	if len(s.Series) == 0 {
		return fmt.Errorf("viz: plot %q has no series", s.Title)
	}
	for _, ser := range s.Series {
		if len(ser.X) == 0 {
			return fmt.Errorf("viz: series %q is empty", ser.Name)
		}
		if len(ser.X) != len(ser.Y) {
			return fmt.Errorf("viz: series %q has %d x values and %d y values", ser.Name, len(ser.X), len(ser.Y))
		}
	}
	return nil
}

var palette = []string{"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"}

const (
	width   = 720.0
	height  = 480.0
	marginL = 70.0
	marginR = 20.0
	marginT = 40.0
	marginB = 50.0
)

// RenderSVG renders the spec as a self-contained SVG document.
func RenderSVG(s *PlotSpec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	box, err := dataBounds(s)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	writeFrame(&b, s, box)
	highlight := map[int]bool{}
	for _, h := range s.Highlight {
		highlight[h] = true
	}
	for si, ser := range s.Series {
		writeSeries(&b, s, box, si, ser, highlight)
	}
	b.WriteString("</svg>\n")
	return []byte(b.String()), nil
}

// plotBox is the data range a plot spans, in plotted units (log10 of y
// when the spec asks for LogY); it maps data points to SVG pixels.
type plotBox struct {
	minX, maxX, minY, maxY float64
	logY                   bool
}

func (p plotBox) sx(x float64) float64 {
	return marginL + (x-p.minX)/(p.maxX-p.minX)*(width-marginL-marginR)
}

func (p plotBox) sy(y float64) float64 {
	if p.logY {
		y = math.Log10(math.Max(y, 1e-300))
	}
	return height - marginB - (y-p.minY)/(p.maxY-p.minY)*(height-marginT-marginB)
}

// dataBounds spans the finite points of every series (positive y only,
// under LogY), widening an empty range to one unit.
func dataBounds(s *PlotSpec) (plotBox, error) {
	box := plotBox{minX: math.Inf(1), maxX: math.Inf(-1), minY: math.Inf(1), maxY: math.Inf(-1), logY: s.LogY}
	for _, ser := range s.Series {
		for i := range ser.X {
			x, y := ser.X[i], ser.Y[i]
			if s.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			box.minX, box.maxX = math.Min(box.minX, x), math.Max(box.maxX, x)
			box.minY, box.maxY = math.Min(box.minY, y), math.Max(box.maxY, y)
		}
	}
	if box.minX > box.maxX {
		return plotBox{}, fmt.Errorf("viz: no finite data points in plot %q", s.Title)
	}
	if box.minX == box.maxX {
		box.maxX = box.minX + 1
	}
	if box.minY == box.maxY {
		box.maxY = box.minY + 1
	}
	return box, nil
}

// writeFrame writes the SVG header, the background, the axes, the title,
// the axis labels and five ticks per axis.
func writeFrame(b *strings.Builder, s *PlotSpec, box plotBox) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" viewBox="0 0 %g %g">`+"\n", width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	// Axes.
	fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", marginL, height-marginB, width-marginR, height-marginB)
	fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", marginL, marginT, marginL, height-marginB)
	// Title and axis labels.
	fmt.Fprintf(b, `<text x="%g" y="24" text-anchor="middle" font-size="16">%s</text>`+"\n", width/2, escape(s.Title))
	fmt.Fprintf(b, `<text x="%g" y="%g" text-anchor="middle" font-size="12">%s</text>`+"\n", width/2, height-12, escape(s.XLabel))
	fmt.Fprintf(b, `<text x="16" y="%g" text-anchor="middle" font-size="12" transform="rotate(-90 16 %g)">%s</text>`+"\n", height/2, height/2, escape(ylabel(s)))
	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		fx := box.minX + (box.maxX-box.minX)*float64(i)/4
		fy := box.minY + (box.maxY-box.minY)*float64(i)/4
		px := box.sx(fx)
		py := height - marginB - (fy-box.minY)/(box.maxY-box.minY)*(height-marginT-marginB)
		fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", px, height-marginB, px, height-marginB+5)
		fmt.Fprintf(b, `<text x="%g" y="%g" text-anchor="middle" font-size="10">%s</text>`+"\n", px, height-marginB+18, fmtTick(fx))
		fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", marginL-5, py, marginL, py)
		fmt.Fprintf(b, `<text x="%g" y="%g" text-anchor="end" font-size="10">%s</text>`+"\n", marginL-8, py+4, fmtTick(fy))
	}
}

// writeSeries writes series si's marks in the spec's kind, then its legend
// entry when it is named. highlight marks point indices of series 0.
func writeSeries(b *strings.Builder, s *PlotSpec, box plotBox, si int, ser Series, highlight map[int]bool) {
	color := palette[si%len(palette)]
	switch s.Kind {
	case Line:
		var pts []string
		type pair struct{ x, y float64 }
		ordered := make([]pair, 0, len(ser.X))
		for i := range ser.X {
			if math.IsNaN(ser.X[i]) || math.IsNaN(ser.Y[i]) || (s.LogY && ser.Y[i] <= 0) {
				continue
			}
			ordered = append(ordered, pair{ser.X[i], ser.Y[i]})
		}
		sort.Slice(ordered, func(a, b int) bool { return ordered[a].x < ordered[b].x })
		for _, p := range ordered {
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", box.sx(p.x), box.sy(p.y)))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", strings.Join(pts, " "), color)
	case Scatter:
		for i := range ser.X {
			if math.IsNaN(ser.X[i]) || math.IsNaN(ser.Y[i]) || (s.LogY && ser.Y[i] <= 0) {
				continue
			}
			r, fill := 2.5, color
			if si == 0 && highlight[i] {
				r, fill = 5.0, "#d62728"
			}
			fmt.Fprintf(b, `<circle cx="%.2f" cy="%.2f" r="%g" fill="%s" fill-opacity="0.7"/>`+"\n", box.sx(ser.X[i]), box.sy(ser.Y[i]), r, fill)
		}
	case Hist:
		// X are bin centers, Y are counts; bars span bin width.
		barW := (width - marginL - marginR) / float64(len(ser.X)) * 0.9
		for i := range ser.X {
			x := box.sx(ser.X[i])
			y := box.sy(ser.Y[i])
			fmt.Fprintf(b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="0.8"/>`+"\n",
				x-barW/2, y, barW, height-marginB-y, color)
		}
	}
	// Legend.
	if ser.Name != "" {
		lx := width - marginR - 150
		ly := marginT + 16*float64(si)
		fmt.Fprintf(b, `<rect x="%g" y="%g" width="10" height="10" fill="%s"/>`+"\n", lx, ly, color)
		fmt.Fprintf(b, `<text x="%g" y="%g" font-size="11">%s</text>`+"\n", lx+14, ly+9, escape(ser.Name))
	}
}

func ylabel(s *PlotSpec) string {
	if s.LogY {
		return "log10 " + s.YLabel
	}
	return s.YLabel
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	if av != 0 && (av >= 1e5 || av < 1e-3) {
		return fmt.Sprintf("%.2g", v)
	}
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Point3 is one point of a 3-D scene with a scalar attribute and a
// highlight flag (highlighted points get scalar value 1 in the "highlight"
// array, which ParaView can color red).
type Point3 struct {
	X, Y, Z   float64
	Scalar    float64 // e.g. halo mass
	Highlight bool
}

// WriteVTK renders points as a VTK legacy-ASCII polydata file with two
// point-data arrays: "scalar" and "highlight". This is the Fig. 5 artifact
// (target halo highlighted among neighbours).
func WriteVTK(title string, points []Point3) []byte {
	var b strings.Builder
	b.WriteString("# vtk DataFile Version 3.0\n")
	b.WriteString(strings.ReplaceAll(title, "\n", " ") + "\n")
	b.WriteString("ASCII\nDATASET POLYDATA\n")
	fmt.Fprintf(&b, "POINTS %d float\n", len(points))
	for _, p := range points {
		fmt.Fprintf(&b, "%.6f %.6f %.6f\n", p.X, p.Y, p.Z)
	}
	fmt.Fprintf(&b, "VERTICES %d %d\n", len(points), 2*len(points))
	for i := range points {
		fmt.Fprintf(&b, "1 %d\n", i)
	}
	fmt.Fprintf(&b, "POINT_DATA %d\n", len(points))
	b.WriteString("SCALARS scalar float 1\nLOOKUP_TABLE default\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.6g\n", p.Scalar)
	}
	b.WriteString("SCALARS highlight float 1\nLOOKUP_TABLE default\n")
	for _, p := range points {
		if p.Highlight {
			b.WriteString("1\n")
		} else {
			b.WriteString("0\n")
		}
	}
	return []byte(b.String())
}
