package pathflow

import (
	"encoding/json"

	"genalg/internal/analysis"
)

const domainName = "pathflow"

// Facts computes per-function release/escape summaries; the pinunpin,
// spanend, and durability analyzers consume them.
var Facts = &analysis.FactComputer{
	Domain: domainName,
	Compute: func(pkg *analysis.Package, imported *analysis.FactSet) (map[string]json.RawMessage, error) {
		return ComputeSummaries(pkg.Files, pkg.TypesInfo, FromFacts(imported)).EncodeEntries()
	},
}

// FromFacts returns the summaries carried in fs, decoded once per set.
// With no pathflow facts it returns nil, and a nil *Summaries looks up
// nothing: analyzers degrade to intraprocedural behaviour.
func FromFacts(fs *analysis.FactSet) *Summaries {
	sums, _ := fs.Decoded(domainName, func(entries map[string]json.RawMessage) any {
		if entries == nil {
			return (*Summaries)(nil)
		}
		s, err := DecodeEntries(entries)
		if err != nil {
			return (*Summaries)(nil)
		}
		return s
	}).(*Summaries)
	return sums
}
