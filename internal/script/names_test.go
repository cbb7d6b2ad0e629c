package script_test

import (
	"sort"
	"strings"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/script"
)

// dslQuote renders s as a script string literal: the lexer takes the byte
// after a backslash verbatim and every other byte as it is.
func dslQuote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
	return sb.String()
}

// nameEnvs are the environments a file name is resolved in: the one
// sandbox.Executor.Exec builds (no working directory) and one over a
// directory, as the benchmark's replay builds it.
func nameEnvs(t *testing.T) map[string]func() *script.Env {
	work := dataframe.MustFromColumns(
		dataframe.NewInt("x", []int64{1, 2, 3, 4}),
		dataframe.NewString("name", []string{"a", "b", "c", "d"}),
	)
	tables := map[string]*dataframe.Frame{"work": work}
	envs := map[string]func() *script.Env{}
	for what, dir := range map[string]func() string{"memory": func() string { return "" }, "dir": t.TempDir} {
		envs[what] = func() *script.Env {
			env := script.NewEnv(script.DefaultRegistry(), dir())
			env.Tables = tables
			return env
		}
	}
	return envs
}

// TestFileNameRule pins what a script's file names mean. Each row saves
// the first two rows of the input table "work" under a name (after saving
// a.csv) and reads the name back: where it succeeds the read sees the two
// saved rows, also when the name is the input table's file name, and the
// artifact is keyed by the name exactly as the script wrote it; where it
// fails, the error text is the one the script gets.
func TestFileNameRule(t *testing.T) {
	long := strings.Repeat("n", 252) + ".csv" // 256 bytes, one past NAME_MAX
	for _, tc := range []struct{ name, err string }{
		{"x.csv", ""},
		{"./x.csv", ""},
		{"/abs.csv", ""},
		{"//abs.csv", ""},
		{"sub/../x.csv", ""},
		{"x.csv/", ""},
		{"x.svg", ""},
		{"a.csv", ""},
		{"work.csv", ""},
		{"/work.csv", ""},
		{long[1:], ""},
		{"sub/x.csv", `line 4: OSError: cannot write "sub/x.csv": no such file or directory`},
		{"./sub/x.csv", `line 4: OSError: cannot write "sub/x.csv": no such file or directory`},
		{"sub/" + long, `line 4: OSError: cannot write "sub/` + long + `": no such file or directory`},
		{".", `line 4: OSError: cannot write ".": is a directory`},
		{"", `line 4: OSError: cannot write ".": is a directory`},
		{"/", `line 4: OSError: cannot write ".": is a directory`},
		{"sub/..", `line 4: OSError: cannot write ".": is a directory`},
		{"a.csv/b.csv", `line 4: OSError: cannot write "a.csv/b.csv": not a directory`},
		{"a.csv/sub/b.csv", `line 4: OSError: cannot write "a.csv/sub/b.csv": not a directory`},
		{long, `line 4: OSError: cannot write "` + long + `": file name too long`},
		{long + "/x.csv", `line 4: OSError: cannot write "` + long + `/x.csv": file name too long`},
		{"x\x00.csv", `line 4: OSError: cannot write "x\x00.csv": invalid argument`},
		{"../x.csv", `line 4: PermissionError: path "../x.csv" escapes the sandbox`},
		{"/../x.csv", `line 4: PermissionError: path "/../x.csv" escapes the sandbox`},
		{"sub/../../x.csv", `line 4: PermissionError: path "sub/../../x.csv" escapes the sandbox`},
		{"..", `line 4: PermissionError: path ".." escapes the sandbox`},
	} {
		src := `h = head(load_table("work"), 2)
save_csv(load_table("work"), "a.csv")
n = ` + dslQuote(tc.name) + `
save_csv(h, n)
back = read_csv(n)
again = load_table("work")
result(back)
print(nrows(again))
`
		for what, newEnv := range nameEnvs(t) {
			env := newEnv()
			prog, err := script.Parse(src)
			if err == nil {
				err = prog.Run(env)
			}
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err {
				t.Errorf("%s: save_csv(h, %q): err %q, want %q", what, tc.name, got, tc.err)
				continue
			}
			if tc.err != "" {
				continue
			}
			if env.Result == nil || env.Result.NumRows() != 2 {
				t.Errorf("%s: read_csv(%q) after save_csv does not read the saved rows: %v", what, tc.name, env.Result)
			}
			wantRows := "4"
			if strings.TrimLeft(tc.name, "/") == "work.csv" {
				wantRows = "2" // the saved file shadows the input table
			}
			if len(env.Stdout) != 1 || env.Stdout[0] != wantRows {
				t.Errorf("%s: %q: load_table(\"work\") after the save has %v rows, want %s", what, tc.name, env.Stdout, wantRows)
			}
			keys := make([]string, 0, len(env.Artifacts))
			for k := range env.Artifacts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			want := []string{"a.csv", tc.name}
			if tc.name == "a.csv" {
				want = want[:1]
			}
			sort.Strings(want)
			if strings.Join(keys, "|") != strings.Join(want, "|") {
				t.Errorf("%s: %q: artifacts %q, want %q", what, tc.name, keys, want)
			}
		}
	}
}

// TestReadNameRule pins how read_csv and load_table resolve names the
// script never wrote: an input table under its file name, in any spelling
// that cleans to it, and otherwise a not-found or escape error.
func TestReadNameRule(t *testing.T) {
	for _, tc := range []struct{ call, err string }{
		{`read_csv("work.csv")`, ""},
		{`read_csv("./work.csv")`, ""},
		{`read_csv("/work.csv")`, ""},
		{`read_csv("sub/../work.csv")`, ""},
		{`load_table("./work")`, ""},
		{`read_csv("work")`, `line 2: FileNotFoundError: "work"`},
		{`read_csv("missing.csv")`, `line 2: FileNotFoundError: "missing.csv"`},
		{`read_csv("")`, `line 2: FileNotFoundError: ""`},
		{`read_csv(".")`, `line 2: FileNotFoundError: "."`},
		{`read_csv("a.csv/x.csv")`, `line 2: FileNotFoundError: "a.csv/x.csv"`},
		{`read_csv("sub/work.csv")`, `line 2: FileNotFoundError: "sub/work.csv"`},
		{`load_table("missing")`, `line 2: KeyError: table "missing" not found in sandbox`},
		{`read_csv("../work.csv")`, `line 2: PermissionError: path "../work.csv" escapes the sandbox`},
		{`load_table("../work")`, `line 2: PermissionError: path "../work.csv" escapes the sandbox`},
	} {
		src := "save_csv(load_table(\"work\"), \"a.csv\")\nresult(" + tc.call + ")\n"
		for what, newEnv := range nameEnvs(t) {
			env := newEnv()
			prog, err := script.Parse(src)
			if err == nil {
				err = prog.Run(env)
			}
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err {
				t.Errorf("%s: %s: err %q, want %q", what, tc.call, got, tc.err)
			} else if got == "" && (env.Result == nil || env.Result.NumRows() != 4) {
				t.Errorf("%s: %s: result %v, want the 4-row input table", what, tc.call, env.Result)
			}
		}
	}
}
