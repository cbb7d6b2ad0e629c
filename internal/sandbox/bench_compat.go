package sandbox

// Values of the ignored Executor.Backend.
//
// Deprecated: there is one script engine; only the benchmark's assistants
// (bench/traced.go, bench/inproc.go) still pass these.
const (
	BackendVM       = "vm"
	BackendTreeWalk = "treewalk"
)
