package hacc

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"infera/internal/dataframe"
	"infera/internal/gio"
)

func tinySpec() Spec {
	return Spec{
		Runs:             2,
		Steps:            []int{99, 350, 624},
		HalosPerRun:      60,
		ParticlesPerStep: 200,
		BoxSize:          128,
		Seed:             7,
	}
}

func TestSpecValidate(t *testing.T) {
	good := tinySpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Spec{
		{Runs: 0, Steps: []int{1}, HalosPerRun: 5, BoxSize: 1},
		{Runs: 1, Steps: nil, HalosPerRun: 5, BoxSize: 1},
		{Runs: 1, Steps: []int{1}, HalosPerRun: 1, BoxSize: 1},
		{Runs: 1, Steps: []int{1}, HalosPerRun: 5, BoxSize: 0},
		{Runs: 1, Steps: []int{700}, HalosPerRun: 5, BoxSize: 1},
		{Runs: 1, Steps: []int{5, 5}, HalosPerRun: 5, BoxSize: 1},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestScaleFactorMonotone(t *testing.T) {
	if a := ScaleFactor(FinalStep); math.Abs(a-1) > 1e-12 {
		t.Errorf("a(final) = %v, want 1", a)
	}
	prev := 0.0
	for s := 0; s <= FinalStep; s += 25 {
		a := ScaleFactor(s)
		if a <= prev {
			t.Fatalf("scale factor not increasing at step %d", s)
		}
		prev = a
	}
	if z := Redshift(FinalStep); math.Abs(z) > 1e-9 {
		t.Errorf("z(final) = %v, want 0", z)
	}
}

func TestSampleParamsInRangeAndDeterministic(t *testing.T) {
	for run := 0; run < 16; run++ {
		p := SampleParams(3, run, 16)
		q := SampleParams(3, run, 16)
		if p != q {
			t.Fatalf("params not deterministic for run %d", run)
		}
		if p.FSN < paramLo.FSN || p.FSN > paramHi.FSN ||
			p.LogVSN < paramLo.LogVSN || p.LogVSN > paramHi.LogVSN ||
			p.LogTAGN < paramLo.LogTAGN || p.LogTAGN > paramHi.LogTAGN ||
			p.BetaBH < paramLo.BetaBH || p.BetaBH > paramHi.BetaBH ||
			p.MSeed < paramLo.MSeed || p.MSeed > paramHi.MSeed {
			t.Errorf("run %d params out of range: %v", run, p)
		}
	}
	if SampleParams(3, 0, 16) == SampleParams(4, 0, 16) {
		t.Error("different seeds should give different params")
	}
}

func TestSnapshotDeterministicAndOrderIndependent(t *testing.T) {
	spec := tinySpec()
	a, err := Snapshot(spec, 1, 350, FileHalos)
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate after touching other steps/runs: must be identical.
	if _, err := Snapshot(spec, 0, 624, FileGalaxies); err != nil {
		t.Fatal(err)
	}
	b, err := Snapshot(spec, 1, 350, FileHalos)
	if err != nil {
		t.Fatal(err)
	}
	if !dataframe.Equal(a, b) {
		t.Error("halo snapshot not deterministic")
	}
}

func TestHaloMassGrowthAndRanking(t *testing.T) {
	spec := tinySpec()
	early, _ := Snapshot(spec, 0, 99, FileHalos)
	late, _ := Snapshot(spec, 0, 624, FileHalos)
	me := early.MustColumn("fof_halo_mass").F
	ml := late.MustColumn("fof_halo_mass").F
	// Tag 0 is the most massive at the final step, and masses grow.
	if late.MustColumn("fof_halo_tag").I[0] != 0 {
		t.Errorf("first halo tag = %d, want 0", late.MustColumn("fof_halo_tag").I[0])
	}
	for i := 1; i < len(ml); i++ {
		if ml[i] > ml[0] {
			t.Fatalf("tag-0 halo is not the most massive at final step")
		}
	}
	var sumE, sumL float64
	for _, v := range me {
		sumE += v
	}
	for _, v := range ml {
		sumL += v
	}
	if sumL <= sumE {
		t.Errorf("total halo mass should grow: early %g, late %g", sumE, sumL)
	}
}

func TestMergersRemoveVictims(t *testing.T) {
	spec := tinySpec()
	tree, _ := Snapshot(spec, 0, 0, FileMergerTree)
	if tree.NumRows() == 0 {
		t.Skip("no mergers sampled in tiny spec (unexpected but possible)")
	}
	victims := tree.MustColumn("victim_tag").I
	steps := tree.MustColumn("merge_step").I
	early, _ := Snapshot(spec, 0, 99, FileHalos)
	late, _ := Snapshot(spec, 0, 624, FileHalos)
	hasTag := func(f *dataframe.Frame, tag int64) bool {
		for _, v := range f.MustColumn("fof_halo_tag").I {
			if v == tag {
				return true
			}
		}
		return false
	}
	for i, v := range victims {
		if int(steps[i]) > 99 && !hasTag(early, v) {
			t.Errorf("victim %d should exist at step 99 (merges at %d)", v, steps[i])
		}
		if hasTag(late, v) {
			t.Errorf("victim %d still present at final step", v)
		}
	}
	if late.NumRows() >= early.NumRows() {
		t.Errorf("halo count should shrink from mergers: %d -> %d", early.NumRows(), late.NumRows())
	}
}

func TestGalaxiesJoinToHalos(t *testing.T) {
	spec := tinySpec()
	halos, _ := Snapshot(spec, 1, 624, FileHalos)
	gals, _ := Snapshot(spec, 1, 624, FileGalaxies)
	htags := map[int64]bool{}
	for _, v := range halos.MustColumn("fof_halo_tag").I {
		htags[v] = true
	}
	centrals := map[int64]int{}
	for i, v := range gals.MustColumn("fof_halo_tag").I {
		if !htags[v] {
			t.Fatalf("galaxy %d references missing halo %d", i, v)
		}
		if gals.MustColumn("gal_is_central").I[i] == 1 {
			centrals[v]++
		}
	}
	for tag, n := range centrals {
		if n != 1 {
			t.Errorf("halo %d has %d central galaxies", tag, n)
		}
	}
	if len(centrals) != halos.NumRows() {
		t.Errorf("central galaxies %d != halos %d", len(centrals), halos.NumRows())
	}
}

func TestSMHMSeedMassEffects(t *testing.T) {
	// Higher seed mass (above threshold) must yield higher stellar-mass
	// efficiency than a far-below-threshold seed, all else equal.
	spec := tinySpec()
	m := newRunModel(spec, 0)
	m.params.MSeed = 1e6
	hi := m.smhm(624)
	m.params.MSeed = 1e5
	lo := m.smhm(624)
	if hi.eps <= lo.eps {
		t.Errorf("eps(high seed) %g should exceed eps(low seed) %g", hi.eps, lo.eps)
	}
	// Scatter is minimized at the optimal seed mass.
	m.params.MSeed = math.Pow(10, smhmOptimalLogMSeed)
	opt := m.smhm(624)
	if opt.sigma >= lo.sigma {
		t.Errorf("sigma at optimum %g not below sigma at low seed %g", opt.sigma, lo.sigma)
	}
}

func TestGasFractionSlopeRespondsToTAGN(t *testing.T) {
	weak := Params{LogTAGN: 7.0}
	strong := Params{LogTAGN: 8.0}
	// Gas fraction at low mass suppressed more by strong AGN.
	lowM, highM := 1e13, 3e14
	rw := gasFraction(lowM, FinalStep, weak) / gasFraction(highM, FinalStep, weak)
	rs := gasFraction(lowM, FinalStep, strong) / gasFraction(highM, FinalStep, strong)
	if rs >= rw {
		t.Errorf("strong AGN should steepen fgas-M relation: ratio %g vs %g", rs, rw)
	}
}

func TestGenerateAndLoadCatalog(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	cat, err := Generate(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	// runs × steps × 4 file types + runs × 1 merger tree.
	wantFiles := spec.Runs*len(spec.Steps)*len(FileTypes) + spec.Runs
	if len(cat.Files) != wantFiles {
		t.Errorf("catalog files = %d, want %d", len(cat.Files), wantFiles)
	}
	if cat.TotalBytes() <= 0 {
		t.Error("TotalBytes should be positive")
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRuns() != spec.Runs || len(loaded.Files) != wantFiles {
		t.Errorf("loaded catalog shape wrong: %d runs, %d files", loaded.NumRuns(), len(loaded.Files))
	}
	if loaded.Runs[1].Params != cat.Runs[1].Params {
		t.Error("params not preserved through catalog")
	}

	// A written file must match the in-memory snapshot exactly.
	entry, ok := loaded.Find(1, 350, FileHalos)
	if !ok {
		t.Fatal("missing halo file entry")
	}
	r, err := gio.Open(loaded.AbsPath(entry))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	onDisk, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Snapshot(spec, 1, 350, FileHalos)
	if !dataframe.Equal(onDisk, want) {
		t.Error("on-disk snapshot differs from model snapshot")
	}
	if r.Meta()["simulation"] != "1" || r.Meta()["step"] != "350" {
		t.Errorf("file meta = %v", r.Meta())
	}
}

func TestCatalogQueries(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	cat, err := Generate(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	halosSim0 := cat.FilesOf(0, -1, FileHalos)
	if len(halosSim0) != len(spec.Steps) {
		t.Errorf("FilesOf(0,-1,halos) = %d, want %d", len(halosSim0), len(spec.Steps))
	}
	all624 := cat.FilesOf(-1, 624, "")
	if len(all624) != spec.Runs*len(FileTypes) {
		t.Errorf("FilesOf(-1,624,'') = %d", len(all624))
	}
	if _, ok := cat.Find(0, 99, FileGalaxies); !ok {
		t.Error("Find missed existing file")
	}
	if _, ok := cat.Find(9, 99, FileGalaxies); ok {
		t.Error("Find hit nonexistent run")
	}
	if s := cat.Describe(); len(s) == 0 {
		t.Error("Describe empty")
	}
}

// TestDescribeIndependentOfPath: one ensemble loaded through two paths of
// different lengths describes itself identically, so the planner's
// context does not follow where the ensemble is mounted.
func TestDescribeIndependentOfPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ens")
	if _, err := Generate(dir, tinySpec()); err != nil {
		t.Fatal(err)
	}
	longer := filepath.Join(t.TempDir(), "a", "much", "longer", "mount", "path")
	if err := os.MkdirAll(longer, 0o755); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(longer, "ens")
	if err := os.Symlink(dir, link); err != nil {
		t.Skipf("symlink: %v", err)
	}
	var texts []string
	for _, p := range []string{dir, link} {
		cat, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, cat.Describe())
	}
	if texts[0] != texts[1] {
		t.Fatalf("Describe depends on the path:\n%s\n%s", texts[0], texts[1])
	}
	if strings.Contains(texts[0], string(filepath.Separator)) {
		t.Fatalf("Describe names a path: %s", texts[0])
	}
}

func TestMetadataDictionariesCoverSchemas(t *testing.T) {
	spec := tinySpec()
	for _, typ := range append(append([]string{}, FileTypes...), FileMergerTree) {
		f, err := Snapshot(spec, 0, spec.Steps[0], typ)
		if err != nil {
			t.Fatal(err)
		}
		dictCols := ColumnsOf(typ)
		if len(dictCols) != f.NumCols() {
			t.Errorf("%s: dictionary has %d columns, schema has %d", typ, len(dictCols), f.NumCols())
		}
		for _, name := range f.Names() {
			if _, ok := LookupColumn(typ, name); !ok {
				t.Errorf("%s: column %q missing from dictionary", typ, name)
			}
		}
	}
	if len(FileDictionary()) < 5 {
		t.Error("file dictionary too small")
	}
	// The paper's example label must carry its rich description.
	d, ok := LookupColumn(FileHalos, "sod_halo_MGas500c")
	if !ok || len(d.Description) < 40 || !d.Important {
		t.Errorf("sod_halo_MGas500c dictionary entry wrong: %+v", d)
	}
}

func TestNoiseHelpers(t *testing.T) {
	// uniform01 in (0,1); normal roughly standard over many draws.
	var sum, sumsq float64
	n := 2000
	for i := 0; i < n; i++ {
		u := uniform01(uint64(i), 'q')
		if u <= 0 || u >= 1 {
			t.Fatalf("uniform01 out of range: %v", u)
		}
		x := normal(uint64(i), 'n')
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.1 || math.Abs(std-1) > 0.1 {
		t.Errorf("normal stats: mean %v std %v", mean, std)
	}
	if poisson(0) != 0 {
		t.Error("poisson(0) != 0")
	}
	big := poisson(100, 1)
	if big < 50 || big > 150 {
		t.Errorf("poisson(100) = %d implausible", big)
	}
}

func TestQuickPositionsInBox(t *testing.T) {
	spec := tinySpec()
	m := newRunModel(spec, 0)
	prop := func(hi uint8, si uint8) bool {
		i := int(hi) % len(m.halos)
		step := int(si) % (FinalStep + 1)
		x, y, z := m.positionAt(i, step)
		return x >= 0 && x < spec.BoxSize && y >= 0 && y < spec.BoxSize && z >= 0 && z < spec.BoxSize
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMassPositive(t *testing.T) {
	spec := tinySpec()
	m := newRunModel(spec, 1)
	prop := func(hi uint8, si uint8) bool {
		i := int(hi) % len(m.halos)
		step := int(si) % (FinalStep + 1)
		mass := m.massAt(i, step)
		return mass > 0 && !math.IsNaN(mass) && !math.IsInf(mass, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

var benchSink *dataframe.Frame

func BenchmarkHaloSnapshot(b *testing.B) {
	spec := DefaultSpec()
	m := newRunModel(spec, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = m.HaloFrame(624)
	}
}
