package script

// Kept only for the benchmark's replay (bench/probes.go), which runs a
// recorded script over its tables written as CSV files into a directory.

import (
	"os"
	"path/filepath"
)

// Backend is a runnable script.
//
// Deprecated: Program is the only engine; only bench/probes.go names this.
type Backend interface {
	Run(env *Env) error
	Source() string
}

// Compiled is Program.
//
// Deprecated: there is no bytecode form; only bench/probes.go names this.
type Compiled = Program

// Compile is Parse.
//
// Deprecated: use Parse; only bench/probes.go still calls this.
func Compile(src string) (*Compiled, error) { return Parse(src) }

// readWorkDir reads the file clean (see safePath) under env.WorkDir, if
// there is one and it holds that file.
func readWorkDir(env *Env, clean string) ([]byte, bool) {
	if env.WorkDir == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(env.WorkDir, clean))
	return data, err == nil
}
