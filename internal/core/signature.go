// Package core implements the many-sorted algebra framework of the Genomics
// Algebra (paper Section 4.2): signatures consisting of sorts and operators,
// sort-checked terms, and algebras that assign carrier sets and functions to
// a signature so that terms can be evaluated.
//
// The framework is deliberately generic: the genomic instantiation (sorts
// gene, primarytranscript, mrna, protein, ... and operators transcribe,
// splice, translate, ...) lives in package genops and is registered into a
// Signature/Algebra pair at startup. The paper's extensibility requirement
// (Section 4.2: "if required, the Genomics Algebra can be extended by new
// sorts and operations") is met by allowing registration at any time;
// registries are safe for concurrent use.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Sort is the name of a sort (type) in a many-sorted signature, e.g. "gene"
// or "protein". Sorts are compared by name.
type Sort string

// Builtin sorts available in every signature. Domain packages add their own.
const (
	SortBool   Sort = "bool"
	SortInt    Sort = "int"
	SortFloat  Sort = "float"
	SortString Sort = "string"
)

// OpSig is the signature of one operator: its name, argument sorts, and
// result sort. In the paper's notation, "translate: mrna -> protein" is
// OpSig{Name: "translate", Args: []Sort{"mrna"}, Result: "protein"}.
type OpSig struct {
	Name   string
	Args   []Sort
	Result Sort
	// Doc is a one-line description shown by the shell's help listing.
	Doc string
	// Selectivity is the estimated fraction of inputs for which a
	// bool-resulting operator returns true; used by the query planner
	// (paper Section 6.5). Zero means unknown.
	Selectivity float64
	// Cost is a relative per-invocation cost estimate used by the planner;
	// zero means cheap (unit cost).
	Cost float64
}

// String renders the signature in the paper's arrow notation.
func (o OpSig) String() string {
	args := make([]string, len(o.Args))
	for i, a := range o.Args {
		args[i] = string(a)
	}
	return fmt.Sprintf("%s: %s -> %s", o.Name, strings.Join(args, " x "), o.Result)
}

// key returns the overload-resolution key: name plus argument sorts.
// The algebra permits overloading by argument sorts but not by result sort.
func (o OpSig) key() string {
	parts := make([]string, 0, len(o.Args)+1)
	parts = append(parts, o.Name)
	for _, a := range o.Args {
		parts = append(parts, string(a))
	}
	return strings.Join(parts, "|")
}

// Signature is an extensible many-sorted signature: a set of sorts and a set
// of operators over them. The zero value is not usable; call NewSignature.
type Signature struct {
	mu    sync.RWMutex
	sorts map[Sort]bool
	ops   map[string]OpSig   // by overload key
	byOp  map[string][]OpSig // by operator name, registration order
}

// NewSignature returns a signature containing the builtin sorts.
func NewSignature() *Signature {
	s := &Signature{
		sorts: make(map[Sort]bool),
		ops:   make(map[string]OpSig),
		byOp:  make(map[string][]OpSig),
	}
	for _, b := range []Sort{SortBool, SortInt, SortFloat, SortString} {
		s.sorts[b] = true
	}
	return s
}

// AddSort registers a sort. Adding an existing sort is a no-op.
func (s *Signature) AddSort(sorts ...Sort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, so := range sorts {
		s.sorts[so] = true
	}
}

// HasSort reports whether the sort is registered.
func (s *Signature) HasSort(so Sort) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sorts[so]
}

// Sorts returns all registered sorts in lexical order.
func (s *Signature) Sorts() []Sort {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Sort, 0, len(s.sorts))
	for so := range s.sorts {
		out = append(out, so)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddOp registers an operator. All its sorts must already be registered.
// Re-registering the same overload replaces it (the paper's Section 4.2
// notes that inefficient implementations can be swapped "without changing
// the interface").
func (s *Signature) AddOp(op OpSig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op.Name == "" {
		return fmt.Errorf("core: operator with empty name")
	}
	if !s.sorts[op.Result] {
		return fmt.Errorf("core: operator %s: unknown result sort %q", op.Name, op.Result)
	}
	for _, a := range op.Args {
		if !s.sorts[a] {
			return fmt.Errorf("core: operator %s: unknown argument sort %q", op.Name, a)
		}
	}
	k := op.key()
	if _, exists := s.ops[k]; exists {
		// Replace in byOp.
		overloads := s.byOp[op.Name]
		for i, o := range overloads {
			if o.key() == k {
				overloads[i] = op
			}
		}
	} else {
		s.byOp[op.Name] = append(s.byOp[op.Name], op)
	}
	s.ops[k] = op
	return nil
}

// MustAddOp is AddOp that panics on error; for static registration blocks.
func (s *Signature) MustAddOp(op OpSig) {
	if err := s.AddOp(op); err != nil {
		panic(err)
	}
}

// Resolve finds the operator overload matching name and argument sorts.
func (s *Signature) Resolve(name string, args []Sort) (OpSig, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, op := range s.byOp[name] {
		if slices.Equal(op.Args, args) {
			return op, true
		}
	}
	return OpSig{}, false
}

// Overloads returns all registered overloads of an operator name, in
// registration order.
func (s *Signature) Overloads(name string) []OpSig {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]OpSig, len(s.byOp[name]))
	copy(out, s.byOp[name])
	return out
}

// Ops returns every registered operator, sorted by name then arity.
func (s *Signature) Ops() []OpSig {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]OpSig, 0, len(s.ops))
	for _, op := range s.ops {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].key() < out[j].key()
	})
	return out
}
