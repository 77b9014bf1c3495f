// The benchmark is a module of its own so that it needs no change to the
// repository's build file; the module path keeps it inside the import tree
// of repro, which is what lets it import repro/internal/... packages.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
