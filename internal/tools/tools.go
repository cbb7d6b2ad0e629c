// Package tools implements the domain-specific custom tools of §3 — the
// capabilities "too specialized and complex for an agent to develop":
// merger-tree-aware halo tracking across timesteps and ParaView 3-D scene
// generation. Tools register into the script DSL so the code-generating
// agents can call them like any other function, mirroring the paper's
// multi-tool selection mechanism.
package tools

import (
	"fmt"
	"math"

	"infera/internal/dataframe"
	"infera/internal/hacc"
	"infera/internal/script"
	"infera/internal/stage"
	"infera/internal/viz"
)

// Raw snapshot reads go through a staging cache keyed per (file, column),
// so a tool invocation and a concurrent data-loader session touching the
// same (sim, step) slice share decodes column by column — TrackHalo's
// narrow (tag, metric) selection rides on the tag column a loader already
// staged, paying only for the metric block — and repeated tool calls
// (e.g. a tracked halo re-examined across questions) are served from
// memory. Each tool takes the cache explicitly (nil means the
// process-wide stage.Shared()), so a pool configured with an isolated
// cache keeps tool decodes in it too, and reads it through a lease pinned
// for the call (stage.Cache.Pin). Nothing a tool returns aliases a staged
// vector — TrackResult holds scalars, Gather and SortBy allocate — so the
// lease ends with the call.

// pin pins a lease for one tool call on sc, or on stage.Shared() when sc
// is nil.
func pin(sc *stage.Cache) *stage.Lease {
	if sc == nil {
		sc = stage.Shared()
	}
	return sc.Pin()
}

// TrackResult is one tracked snapshot of a halo.
type TrackResult struct {
	Step   int
	Tag    int64 // tag carrying the halo (target tag after mergers)
	Merged bool  // true once tracking follows a merger target
	Value  float64
}

// TrackHalo follows a halo across the catalog's timesteps by tag, reading
// only the tag and metric columns of each snapshot. When the halo merges
// away (per the run's merger tree), tracking continues on the absorbing
// halo, flagged Merged — the paper's custom "halo tracking across time
// steps" tool.
func TrackHalo(sc *stage.Cache, cat *hacc.Catalog, sim int, tag int64, metric string) ([]TrackResult, error) {
	treeEntry, ok := cat.Find(sim, -1, hacc.FileMergerTree)
	if !ok {
		return nil, fmt.Errorf("tools: no merger tree for sim %d", sim)
	}
	l := pin(sc)
	defer l.Unpin()
	tree, _, err := l.Columns(cat.AbsPath(treeEntry), "victim_tag", "target_tag", "merge_step")
	if err != nil {
		return nil, err
	}
	mergeInto := map[int64]int64{}
	mergeStep := map[int64]int64{}
	for i := 0; i < tree.NumRows(); i++ {
		v := tree.MustColumn("victim_tag").I[i]
		mergeInto[v] = tree.MustColumn("target_tag").I[i]
		mergeStep[v] = tree.MustColumn("merge_step").I[i]
	}

	// Resolve every step's snapshot up front and fan the (tag, metric)
	// column loads out over the cache's worker pool; the merger-chain walk
	// below only needs the results in step order, not sequential I/O.
	var (
		trackSteps []int
		reqs       []stage.Request
	)
	for _, step := range cat.Steps() {
		entry, ok := cat.Find(sim, step, hacc.FileHalos)
		if !ok {
			continue
		}
		trackSteps = append(trackSteps, step)
		reqs = append(reqs, stage.Request{Path: cat.AbsPath(entry), Columns: []string{"fof_halo_tag", metric}})
	}
	results := l.LoadAll(reqs)

	var out []TrackResult
	current := tag
	merged := false
	for ri, step := range trackSteps {
		// Follow merger chain: the current tag may itself merge before this
		// step.
		for {
			ms, has := mergeStep[current]
			if has && int64(step) >= ms {
				current = mergeInto[current]
				merged = true
				continue
			}
			break
		}
		if results[ri].Err != nil {
			return nil, results[ri].Err
		}
		f := results[ri].Frame
		tags := f.MustColumn("fof_halo_tag").I
		vals := f.MustColumn(metric)
		for i, t := range tags {
			if t == current {
				out = append(out, TrackResult{Step: step, Tag: current, Merged: merged, Value: vals.FloatAt(i)})
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tools: halo %d not found in sim %d at any step", tag, sim)
	}
	return out, nil
}

// TrackFrame renders track results as a dataframe (step, tag, merged,
// value-named-by-metric).
func TrackFrame(results []TrackResult, metric string) *dataframe.Frame {
	steps := make([]int64, len(results))
	tags := make([]int64, len(results))
	merged := make([]int64, len(results))
	vals := make([]float64, len(results))
	for i, r := range results {
		steps[i] = int64(r.Step)
		tags[i] = r.Tag
		if r.Merged {
			merged[i] = 1
		}
		vals[i] = r.Value
	}
	return dataframe.MustFromColumns(
		dataframe.NewInt("step", steps),
		dataframe.NewInt("fof_halo_tag", tags),
		dataframe.NewInt("merged", merged),
		dataframe.NewFloat(metric, vals),
	)
}

// Neighborhood returns the halos within radius Mpc/h of the target halo
// (periodic box distance) at (sim, step), target first.
func Neighborhood(sc *stage.Cache, cat *hacc.Catalog, sim, step int, targetTag int64, radius float64) (*dataframe.Frame, error) {
	entry, ok := cat.Find(sim, step, hacc.FileHalos)
	if !ok {
		return nil, fmt.Errorf("tools: no halo file for sim %d step %d", sim, step)
	}
	l := pin(sc)
	defer l.Unpin()
	f, _, err := l.Columns(cat.AbsPath(entry), "fof_halo_tag", "fof_halo_mass",
		"fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z")
	if err != nil {
		return nil, err
	}
	tags := f.MustColumn("fof_halo_tag").I
	xs := f.MustColumn("fof_halo_center_x").F
	ys := f.MustColumn("fof_halo_center_y").F
	zs := f.MustColumn("fof_halo_center_z").F
	ti := -1
	for i, t := range tags {
		if t == targetTag {
			ti = i
			break
		}
	}
	if ti < 0 {
		return nil, fmt.Errorf("tools: halo %d not found in sim %d step %d", targetTag, sim, step)
	}
	box := cat.Spec.BoxSize
	dist := func(i int) float64 {
		dx := pbc(xs[i]-xs[ti], box)
		dy := pbc(ys[i]-ys[ti], box)
		dz := pbc(zs[i]-zs[ti], box)
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	idx := []int{ti}
	for i := range tags {
		if i != ti && dist(i) <= radius {
			idx = append(idx, i)
		}
	}
	out := f.Gather(idx)
	isTarget := make([]int64, out.NumRows())
	isTarget[0] = 1
	if err := out.AddColumn(dataframe.NewInt("is_target", isTarget)); err != nil {
		return nil, err
	}
	return out, nil
}

// NthMostMassiveTag returns the tag of the rank'th most massive halo
// (rank 0 = most massive) at (sim, step).
func NthMostMassiveTag(sc *stage.Cache, cat *hacc.Catalog, sim, step, rank int) (int64, error) {
	entry, ok := cat.Find(sim, step, hacc.FileHalos)
	if !ok {
		return 0, fmt.Errorf("tools: no halo file for sim %d step %d", sim, step)
	}
	l := pin(sc)
	defer l.Unpin()
	f, _, err := l.Columns(cat.AbsPath(entry), "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		return 0, err
	}
	sorted, err := f.SortBy(dataframe.SortKey{Col: "fof_halo_mass", Desc: true})
	if err != nil {
		return 0, err
	}
	if rank < 0 || rank >= sorted.NumRows() {
		return 0, fmt.Errorf("tools: rank %d out of range (%d halos)", rank, sorted.NumRows())
	}
	return sorted.MustColumn("fof_halo_tag").I[rank], nil
}

// pbc wraps a separation into the minimum-image convention.
func pbc(d, box float64) float64 {
	d = math.Mod(d, box)
	switch {
	case d > box/2:
		d -= box
	case d < -box/2:
		d += box
	}
	return d
}

// SceneFromFrame converts a frame with position columns into VTK points;
// rows where highlightCol is nonzero are highlighted.
func SceneFromFrame(f *dataframe.Frame, xcol, ycol, zcol, scalarCol, highlightCol string) ([]viz.Point3, error) {
	cx, err := f.Column(xcol)
	if err != nil {
		return nil, err
	}
	cy, err := f.Column(ycol)
	if err != nil {
		return nil, err
	}
	cz, err := f.Column(zcol)
	if err != nil {
		return nil, err
	}
	cs, err := f.Column(scalarCol)
	if err != nil {
		return nil, err
	}
	var ch *dataframe.Column
	if highlightCol != "" {
		ch, err = f.Column(highlightCol)
		if err != nil {
			return nil, err
		}
	}
	pts := make([]viz.Point3, f.NumRows())
	for i := range pts {
		pts[i] = viz.Point3{
			X: cx.FloatAt(i), Y: cy.FloatAt(i), Z: cz.FloatAt(i),
			Scalar: cs.FloatAt(i),
		}
		if ch != nil && ch.FloatAt(i) != 0 {
			pts[i].Highlight = true
		}
	}
	return pts, nil
}

// Register adds the domain tools to a script registry, closing over the
// ensemble catalog in read-only mode and the staging cache snapshot reads
// go through (nil uses stage.Shared()). Registered functions:
//
//	track_halo(sim, tag, metric) -> frame(step, fof_halo_tag, merged, metric)
//	halo_neighborhood(sim, step, tag, radius) -> frame
//	paraview_scene(df, xcol, ycol, zcol, scalarcol, highlightcol, out)
func Register(reg script.Registry, cat *hacc.Catalog, sc *stage.Cache) {
	reg["track_halo"] = func(_ *script.Env, args []script.Value) (script.Value, error) {
		if len(args) != 3 {
			return script.Value{}, fmt.Errorf("TypeError: track_halo() takes 3 arguments, got %d", len(args))
		}
		if args[0].Kind != script.KindNum || args[1].Kind != script.KindNum || args[2].Kind != script.KindStr {
			return script.Value{}, fmt.Errorf("TypeError: track_halo(sim, tag, metric)")
		}
		results, err := TrackHalo(sc, cat, int(args[0].Num), int64(args[1].Num), args[2].Str)
		if err != nil {
			return script.Value{}, err
		}
		return script.FrameValue(TrackFrame(results, args[2].Str)), nil
	}
	reg["halo_neighborhood"] = func(_ *script.Env, args []script.Value) (script.Value, error) {
		if len(args) != 4 {
			return script.Value{}, fmt.Errorf("TypeError: halo_neighborhood() takes 4 arguments, got %d", len(args))
		}
		for _, a := range args {
			if a.Kind != script.KindNum {
				return script.Value{}, fmt.Errorf("TypeError: halo_neighborhood(sim, step, tag, radius)")
			}
		}
		f, err := Neighborhood(sc, cat, int(args[0].Num), int(args[1].Num), int64(args[2].Num), args[3].Num)
		if err != nil {
			return script.Value{}, err
		}
		return script.FrameValue(f), nil
	}
	reg["halo_neighborhood_top"] = func(_ *script.Env, args []script.Value) (script.Value, error) {
		if len(args) != 4 {
			return script.Value{}, fmt.Errorf("TypeError: halo_neighborhood_top() takes 4 arguments, got %d", len(args))
		}
		for _, a := range args {
			if a.Kind != script.KindNum {
				return script.Value{}, fmt.Errorf("TypeError: halo_neighborhood_top(sim, step, rank, radius)")
			}
		}
		sim, step, rank := int(args[0].Num), int(args[1].Num), int(args[2].Num)
		tag, err := NthMostMassiveTag(sc, cat, sim, step, rank)
		if err != nil {
			return script.Value{}, err
		}
		f, err := Neighborhood(sc, cat, sim, step, tag, args[3].Num)
		if err != nil {
			return script.Value{}, err
		}
		return script.FrameValue(f), nil
	}
	reg["paraview_scene"] = func(env *script.Env, args []script.Value) (script.Value, error) {
		if len(args) != 7 {
			return script.Value{}, fmt.Errorf("TypeError: paraview_scene() takes 7 arguments, got %d", len(args))
		}
		if args[0].Kind != script.KindFrame {
			return script.Value{}, fmt.Errorf("TypeError: paraview_scene() first argument must be a dataframe")
		}
		names := make([]string, 6)
		for i := 1; i < 7; i++ {
			if args[i].Kind != script.KindStr {
				return script.Value{}, fmt.Errorf("TypeError: paraview_scene() argument %d must be a string", i+1)
			}
			names[i-1] = args[i].Str
		}
		pts, err := SceneFromFrame(args[0].Frame, names[0], names[1], names[2], names[3], names[4])
		if err != nil {
			return script.Value{}, err
		}
		data := viz.WriteVTK("InferA halo scene", pts)
		if err := env.AddArtifact(names[5], data); err != nil {
			return script.Value{}, err
		}
		return script.NullValue(), nil
	}
}
