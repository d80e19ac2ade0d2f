package pathflow

import "genalg/internal/analysis"

const domainName = "pathflow"

// Facts computes per-function release/escape summaries; the pinunpin,
// spanend, and durability analyzers consume them.
var Facts = &analysis.FactComputer{
	Domain: domainName,
	Compute: func(pkg *analysis.Package, imported *analysis.FactSet) map[string]any {
		return ComputeSummaries(pkg.Files, pkg.TypesInfo, imported.Domain(domainName)).fns
	},
}

// FromFacts returns a view of the summaries carried in fs. With no
// pathflow facts it returns nil, and a nil *Summaries looks up nothing:
// analyzers degrade to intraprocedural behaviour.
func FromFacts(fs *analysis.FactSet) *Summaries {
	entries := fs.Domain(domainName)
	if entries == nil {
		return nil
	}
	return &Summaries{imported: entries}
}
