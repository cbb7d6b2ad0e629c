package script_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/sandbox"
	"infera/internal/script"
)

// pathBudgets bounds the runs like the script fuzzers do; MaxMemBytes is
// set so that MemUsed is tracked at all.
var pathBudgets = script.Budgets{
	MaxFuel:          100_000,
	MaxMemBytes:      1 << 26,
	MaxArtifactBytes: 1 << 20,
	MaxStdoutLines:   64,
}

// workTable is the corpus's "work" table held the way a SQL result holds
// it, not the way its CSV parses: x is Float (the text reads back Int) and
// code is numeric text (reads back Int too), so a path that skipped the
// kind re-inference would show.
func workTable() *dataframe.Frame {
	return dataframe.MustFromColumns(
		dataframe.NewFloat("x", []float64{1, 2, 3, 4}),
		dataframe.NewFloat("y", []float64{10.5, -3, 0, 7.25}),
		dataframe.NewString("name", []string{"a", "b", "c", "d"}),
		dataframe.NewString("code", []string{"10", "20", "30", "40"}),
	).MarkShared()
}

// runEnv compiles and runs src on the VM in env and returns the error text
// ("" for none).
func runEnv(env *script.Env, src string) string {
	env.Budgets = pathBudgets
	comp, err := script.Compile(src)
	if err == nil {
		err = comp.Run(env)
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

func frameCSV(t *testing.T, f *dataframe.Frame) string {
	t.Helper()
	if f == nil {
		return "<no frame>"
	}
	var buf bytes.Buffer
	for j := 0; j < f.NumCols(); j++ {
		buf.WriteString(f.ColumnAt(j).Kind.String() + " ")
	}
	buf.WriteByte('\n')
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func sameArtifacts(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d artifacts, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !bytes.Equal(g, w) {
			t.Errorf("%s: artifact %q differs (present=%v)", what, name, ok)
		}
	}
}

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: stdout %q, want %q", what, got, want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: stdout line %d is %q, want %q", what, i, got[i], want[i])
		}
	}
}

// Every script of the differential corpus sees the same world whichever
// way its input table reaches it: as a view of the host's frame
// (Env.Tables, what Executor.Exec sets up), as a CSV file in the working
// directory (a bare NewEnv, the path before views), or over the HTTP
// Client/Server pair. Fuel, tracked memory, stdout, result frame, artifacts
// and error text must all agree.
func TestInputPathsAgree(t *testing.T) {
	srv := sandbox.NewServer(&sandbox.Executor{Limits: sandbox.Limits{
		MaxFuel: pathBudgets.MaxFuel, MaxMemBytes: pathBudgets.MaxMemBytes,
		MaxArtifactBytes: pathBudgets.MaxArtifactBytes, MaxStdoutLines: pathBudgets.MaxStdoutLines,
	}})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := sandbox.NewClient(srv.Addr())

	tables := map[string]*dataframe.Frame{"work": workTable()}
	var workCSV bytes.Buffer
	if err := tables["work"].WriteCSV(&workCSV); err != nil {
		t.Fatal(err)
	}
	reg := script.DefaultRegistry()
	okRuns := 0
	for i, src := range script.DifferentialCorpus() {
		view := script.NewEnv(reg, t.TempDir())
		view.Tables = tables
		viewErr := runEnv(view, src)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "work.csv"), workCSV.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		file := script.NewEnv(reg, dir)
		fileErr := runEnv(file, src)

		what := fmt.Sprintf("corpus[%d] view vs file", i)
		if viewErr != fileErr {
			t.Errorf("%s: error %q, want %q\n%s", what, viewErr, fileErr, src)
		}
		if view.FuelUsed != file.FuelUsed || view.MemUsed != file.MemUsed {
			t.Errorf("%s: fuel %d mem %d, want fuel %d mem %d\n%s", what, view.FuelUsed, view.MemUsed, file.FuelUsed, file.MemUsed, src)
		}
		sameLines(t, what, view.Stdout, file.Stdout)
		if got, want := frameCSV(t, view.Result), frameCSV(t, file.Result); got != want {
			t.Errorf("%s: result\n%s\nwant\n%s\n%s", what, got, want, src)
		}
		sameArtifacts(t, what, view.Artifacts, file.Artifacts)

		// Over HTTP the tables cross as CSV and are parsed once; the result
		// frame crosses back as CSV, so it is compared as its parse.
		what = fmt.Sprintf("corpus[%d] http vs view", i)
		res := client.Exec(src, tables)
		if res.Error != viewErr || res.OK != (viewErr == "") {
			t.Errorf("%s: ok=%v error %q, want %q\n%s", what, res.OK, res.Error, viewErr, src)
		}
		if res.FuelUsed != view.FuelUsed {
			t.Errorf("%s: fuel %d, want %d\n%s", what, res.FuelUsed, view.FuelUsed, src)
		}
		sameLines(t, what, res.Stdout, view.Stdout)
		wantFrame := view.Result
		if viewErr != "" {
			wantFrame = nil // a failed run returns no frame over the wire
		} else if wantFrame != nil {
			wantFrame = wantFrame.CanonicalView()
		}
		if got, want := frameCSV(t, res.Frame), frameCSV(t, wantFrame); got != want {
			t.Errorf("%s: result\n%s\nwant\n%s\n%s", what, got, want, src)
		}
		sameArtifacts(t, what, res.Artifacts, view.Artifacts)
		if viewErr == "" {
			okRuns++
		}
	}
	if okRuns < 20 {
		t.Errorf("only %d corpus scripts ran clean: the comparison is mostly of error paths", okRuns)
	}
}
