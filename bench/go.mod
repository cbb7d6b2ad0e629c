// The benchmark is a module of its own so the repository's build, vet and
// test commands never compile it; the replace directive builds it against
// the checkout it sits in, and the infera/ path prefix is what lets it
// import infera/internal/... packages.
module infera/bench

go 1.22

require infera v0.0.0

replace infera => ../
