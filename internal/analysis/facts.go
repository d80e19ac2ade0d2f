package analysis

// FactSet is the cross-package side-channel: per-domain maps of entries
// keyed by fully qualified function (or lock, or whatever the domain
// chooses) names. Each entry is the Go value the domain's computer built
// (pathflow stores *FuncSummary), shared by pointer with every set it is
// merged into and never written after ComputeFacts returns it. genalgvet
// computes one FactSet per package, bottom-up over the import graph, and
// hands each package its imports' sets merged. Entries are transitive: a
// package's set contains its imports' entries merged with its own, so
// readers never chase the import graph.
type FactSet struct {
	domains map[string]map[string]any
}

// NewFactSet returns an empty set.
func NewFactSet() *FactSet {
	return &FactSet{domains: map[string]map[string]any{}}
}

// Domain returns the entries recorded under name (nil-safe; may be nil).
// The map and its entries belong to the set: read them, never write.
func (fs *FactSet) Domain(name string) map[string]any {
	if fs == nil {
		return nil
	}
	return fs.domains[name]
}

// Merge unions other's entries into fs (other wins on key collisions —
// collisions only happen for identical fully-qualified names, which
// denote the same declaration).
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for domain, entries := range other.domains {
		fs.merge(domain, entries)
	}
}

// merge copies entries into fs's own map for domain, creating it even
// when entries is empty: a computed domain is present, if empty.
func (fs *FactSet) merge(domain string, entries map[string]any) {
	dst := fs.domains[domain]
	if dst == nil {
		dst = make(map[string]any, len(entries))
		fs.domains[domain] = dst
	}
	for k, v := range entries {
		dst[k] = v
	}
}

// FactComputer derives one domain's entries for a package. Compute
// receives the merged facts of the package's imports and returns only
// the entries for the package's own declarations; ComputeFacts merges
// them over the imported ones. Compute must not write imported.
type FactComputer struct {
	Domain  string
	Compute func(pkg *Package, imported *FactSet) map[string]any
}

// Computers collects the analyzers' fact computers, deduplicated by
// domain (analyzers share computers; pinunpin, spanend and durability
// all declare pathflow.Facts).
func Computers(analyzers []*Analyzer) []*FactComputer {
	var out []*FactComputer
	seen := map[string]bool{}
	for _, a := range analyzers {
		for _, c := range a.Facts {
			if c != nil && !seen[c.Domain] {
				seen[c.Domain] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// ComputeFacts runs computers over pkg with the imports' merged facts
// and returns the package's own transitive set: imported entries plus
// everything computed locally. Attach the result to Package.Facts before
// Run, and merge it into dependents' imported sets.
func ComputeFacts(pkg *Package, imported *FactSet, computers []*FactComputer) *FactSet {
	out := NewFactSet()
	out.Merge(imported)
	for _, c := range computers {
		out.merge(c.Domain, c.Compute(pkg, imported))
	}
	return out
}
