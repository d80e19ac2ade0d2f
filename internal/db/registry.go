package db

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// UDTRegistry holds the opaque user-defined types known to an engine
// instance. The adapter (package adapter) populates it with the GDTs; user
// code may add further types at runtime (requirement C13).
type UDTRegistry struct {
	mu   sync.RWMutex
	udts map[string]UDT
}

// NewUDTRegistry returns an empty registry.
func NewUDTRegistry() *UDTRegistry {
	return &UDTRegistry{udts: make(map[string]UDT)}
}

// Register adds or replaces a UDT. All three core callbacks are required.
func (r *UDTRegistry) Register(u UDT) error {
	if u.Name == "" || u.Pack == nil || u.Unpack == nil || u.Check == nil {
		return fmt.Errorf("db: UDT %q must define Name, Pack, Unpack, and Check", u.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.udts[u.Name] = u
	return nil
}

// Get looks up a UDT by name.
func (r *UDTRegistry) Get(name string) (UDT, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.udts[name]
	return u, ok
}

// Names lists registered UDT names in lexical order.
func (r *UDTRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.udts))
	for n := range r.udts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ExternalFunc is a user-defined operator callable from the query language
// (paper Section 6.3): it receives evaluated argument values and returns a
// result. Registered through the adapter, implemented by the kernel algebra.
type ExternalFunc struct {
	Name string
	// NArgs is the expected argument count (used for parse-time checks).
	NArgs int
	// Fn evaluates the function.
	Fn func(args []any) (any, error)
	// Selectivity estimates the true-fraction for boolean functions; 0
	// means unknown (planner assumes 0.5).
	Selectivity float64
	// Cost is a relative per-call cost (planner default 1).
	Cost float64
	// IndexHint names an index kind able to accelerate the predicate
	// ("kmer" for contains-style predicates); empty when none applies.
	IndexHint string
}

// FuncRegistry holds external functions by lower-case name.
type FuncRegistry struct {
	mu    sync.RWMutex
	funcs map[string]ExternalFunc
	// version counts Register calls, so a caller holding what it looked
	// up can tell when a function may have been replaced.
	version atomic.Uint64
}

// NewFuncRegistry returns an empty function registry.
func NewFuncRegistry() *FuncRegistry {
	return &FuncRegistry{funcs: make(map[string]ExternalFunc)}
}

// Register adds or replaces an external function.
func (r *FuncRegistry) Register(f ExternalFunc) error {
	if f.Name == "" || f.Fn == nil {
		return fmt.Errorf("db: external function must define Name and Fn")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[f.Name] = f
	r.version.Add(1)
	return nil
}

// Version returns the number of Register calls so far.
func (r *FuncRegistry) Version() uint64 { return r.version.Load() }

// Get looks up a function by name.
func (r *FuncRegistry) Get(name string) (ExternalFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[name]
	return f, ok
}

// Names lists registered function names in lexical order.
func (r *FuncRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
