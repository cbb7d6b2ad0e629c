package script

// DifferentialCorpus hands the backend-agreement corpus to the external
// tests, which may import the sandbox (it imports this package).
var DifferentialCorpus = differentialCorpus
