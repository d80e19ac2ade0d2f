// Package passes registers every genalgvet analyzer. The project checks
// encode the engine's invariants (pin/unpin discipline, span lifecycle,
// context threading, WAL durability, lock ordering and lock-held I/O,
// goroutine shutdown, network deadlines, deterministic replay, metric
// naming, boundary error classification); the one stock-lite check
// reimplements nilness, a vet pass that stock go vet lacks, since this
// offline build cannot import it from x/tools. Unused results of pure
// functions are stock vet's own unusedresult pass, run by `make vet`
// with this repository's extended function list.
package passes

import (
	"genalg/internal/analysis"
	"genalg/internal/analysis/passes/ctxpass"
	"genalg/internal/analysis/passes/deadline"
	"genalg/internal/analysis/passes/durability"
	"genalg/internal/analysis/passes/errclass"
	"genalg/internal/analysis/passes/goroleak"
	"genalg/internal/analysis/passes/lockorder"
	"genalg/internal/analysis/passes/metricname"
	"genalg/internal/analysis/passes/nilness"
	"genalg/internal/analysis/passes/pinunpin"
	"genalg/internal/analysis/passes/seededrand"
	"genalg/internal/analysis/passes/spanend"
)

// All returns every analyzer in the suite, project checks first.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		pinunpin.Analyzer,
		spanend.Analyzer,
		ctxpass.Analyzer,
		durability.Analyzer,
		lockorder.Analyzer,
		goroleak.Analyzer,
		deadline.Analyzer,
		seededrand.Analyzer,
		metricname.Analyzer,
		errclass.Analyzer,
		nilness.Analyzer,
	}
}

// Known maps analyzer names to true, for validating ignore directives.
func Known() map[string]bool {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}
