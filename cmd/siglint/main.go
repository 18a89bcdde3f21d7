// Command siglint is the repo's invariant linter: a suite of static
// analyzers that prove, at compile time, the properties the runtime's
// tests can only sample — replay determinism, pool get/put pairing on
// every path, and a zero-allocation hot path. Each analyzer keeps its
// place by a must-fail mutant of the product code that every dynamic gate
// passes (mutants_test.go).
//
// Run it through the go command (the Makefile's `make lint` does this):
//
//	go build -o siglint.bin ./cmd/siglint
//	go vet -vettool=$PWD/siglint.bin ./...
//
// Configuration lives in source as //siglint: directives; see
// internal/analysis for the vocabulary.
package main

import (
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/poolpair"
)

func main() {
	driver.Main(
		determinism.Analyzer,
		poolpair.Analyzer,
		noalloc.Analyzer,
	)
}
