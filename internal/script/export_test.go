package script

// DifferentialCorpus hands the input-path corpus to the external
// tests, which may import the sandbox (it imports this package).
var DifferentialCorpus = differentialCorpus
