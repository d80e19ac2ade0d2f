package analysis

import (
	"encoding/json"
	"fmt"
)

// FactSet is the cross-package side-channel: per-domain maps of opaque
// JSON entries keyed by fully qualified function (or lock, or whatever
// the domain chooses) names. The driver computes one FactSet per package,
// bottom-up over the import graph, and hands each package its imports'
// sets merged. Entries are transitive: a package's set contains its
// imports' entries merged with its own, so readers never chase the
// import graph.
type FactSet struct {
	domains map[string]map[string]json.RawMessage
	decoded map[string]any // per-domain Decoded cache
}

// NewFactSet returns an empty set.
func NewFactSet() *FactSet {
	return &FactSet{domains: map[string]map[string]json.RawMessage{}}
}

// Domain returns the entries recorded under name (nil-safe; may be nil).
func (fs *FactSet) Domain(name string) map[string]json.RawMessage {
	if fs == nil {
		return nil
	}
	return fs.domains[name]
}

// SetDomain replaces the entries recorded under name.
func (fs *FactSet) SetDomain(name string, entries map[string]json.RawMessage) {
	fs.domains[name] = entries
	delete(fs.decoded, name)
}

// Merge unions other's entries into fs (other wins on key collisions —
// collisions only happen for identical fully-qualified names, which
// denote the same declaration).
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for domain, entries := range other.domains {
		delete(fs.decoded, domain)
		dst := fs.domains[domain]
		if dst == nil {
			dst = map[string]json.RawMessage{}
			fs.domains[domain] = dst
		}
		for k, v := range entries {
			dst[k] = v
		}
	}
}

// Decoded returns decode applied to the entries recorded under name,
// computing it once per set (until the domain changes). Nil-safe: on a
// nil set it decodes no entries.
func (fs *FactSet) Decoded(name string, decode func(map[string]json.RawMessage) any) any {
	if fs == nil {
		return decode(nil)
	}
	if v, ok := fs.decoded[name]; ok {
		return v
	}
	v := decode(fs.domains[name])
	if fs.decoded == nil {
		fs.decoded = map[string]any{}
	}
	fs.decoded[name] = v
	return v
}

// FactComputer derives one domain's entries for a package. Compute
// receives the merged facts of the package's imports and returns the
// full transitive entry map to record (imports' entries plus local
// ones); the driver stores it under Domain.
type FactComputer struct {
	Domain  string
	Compute func(pkg *Package, imported *FactSet) (map[string]json.RawMessage, error)
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
func ComputeFacts(pkg *Package, imported *FactSet, computers []*FactComputer) (*FactSet, error) {
	out := NewFactSet()
	out.Merge(imported)
	for _, c := range computers {
		entries, err := c.Compute(pkg, imported)
		if err != nil {
			return nil, fmt.Errorf("computing %s facts for %s: %w", c.Domain, pkg.Pkg.Path(), err)
		}
		out.SetDomain(c.Domain, entries)
	}
	return out, nil
}
