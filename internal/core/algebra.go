package core

import (
	"fmt"
	"slices"
	"sync"
)

// OpFunc is the Go implementation of an operator: it receives fully
// evaluated argument values and returns the result value.
type OpFunc func(args []any) (any, error)

// CarrierCheck validates that a runtime value belongs to a sort's carrier
// set. nil disables checking for that sort.
type CarrierCheck func(v any) bool

// Algebra assigns semantics to a Signature: a carrier-set membership check
// per sort and an implementing function per operator. This mirrors the
// paper's definition — "to assign semantics to a signature, one must assign
// a (carrier) set to each sort and a function to each operator".
//
// An Algebra is safe for concurrent use; registration may interleave with
// evaluation (the extensibility requirement C13/C14).
type Algebra struct {
	sig      *Signature
	mu       sync.RWMutex
	funcs    map[string][]impl // by operator name, one entry per overload
	carriers map[Sort]CarrierCheck
}

// impl is one registered overload's implementation, keyed by its argument
// sorts.
type impl struct {
	args []Sort
	fn   OpFunc
}

// NewAlgebra creates an algebra over sig with builtin carriers for bool,
// int, float, and string.
func NewAlgebra(sig *Signature) *Algebra {
	a := &Algebra{
		sig:      sig,
		funcs:    make(map[string][]impl),
		carriers: make(map[Sort]CarrierCheck),
	}
	a.carriers[SortBool] = func(v any) bool { _, ok := v.(bool); return ok }
	a.carriers[SortInt] = func(v any) bool { _, ok := v.(int64); return ok }
	a.carriers[SortFloat] = func(v any) bool { _, ok := v.(float64); return ok }
	a.carriers[SortString] = func(v any) bool { _, ok := v.(string); return ok }
	return a
}

// Signature returns the underlying signature.
func (a *Algebra) Signature() *Signature { return a.sig }

// SetCarrier registers the membership check for a sort.
func (a *Algebra) SetCarrier(s Sort, check CarrierCheck) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.carriers[s] = check
}

// Register binds fn as the implementation of the given operator overload,
// registering the operator in the signature if it is not yet present.
func (a *Algebra) Register(op OpSig, fn OpFunc) error {
	if fn == nil {
		return fmt.Errorf("core: nil implementation for %s", op.Name)
	}
	if err := a.sig.AddOp(op); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	impls := a.funcs[op.Name]
	for i := range impls {
		if slices.Equal(impls[i].args, op.Args) {
			impls[i].fn = fn
			return nil
		}
	}
	a.funcs[op.Name] = append(impls, impl{args: slices.Clone(op.Args), fn: fn})
	return nil
}

// lookup returns the implementation of the overload of name taking exactly
// argSorts, or nil. It compares sorts in place: no key is built and nothing
// is allocated.
func (a *Algebra) lookup(name string, argSorts []Sort) OpFunc {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, im := range a.funcs[name] {
		if slices.Equal(im.args, argSorts) {
			return im.fn
		}
	}
	return nil
}

// MustRegister is Register that panics on error.
func (a *Algebra) MustRegister(op OpSig, fn OpFunc) {
	if err := a.Register(op, fn); err != nil {
		panic(err)
	}
}

// Env binds variable names to values for term evaluation.
type Env map[string]any

// EvalError wraps an evaluation failure with the term position at which it
// occurred.
type EvalError struct {
	Term string
	Err  error
}

func (e *EvalError) Error() string { return fmt.Sprintf("core: evaluating %s: %v", e.Term, e.Err) }

// Unwrap supports errors.Is/As.
func (e *EvalError) Unwrap() error { return e.Err }

// Eval evaluates a term under the environment, checking carrier membership
// of every intermediate value whose sort has a registered check.
func (a *Algebra) Eval(t *Term, env Env) (any, error) {
	switch {
	case t == nil:
		return nil, fmt.Errorf("core: nil term")
	case t.isConst:
		return t.value, a.checkCarrier(t.sort, t.value, t)
	case t.isVar:
		v, ok := env[t.varName]
		if !ok {
			return nil, &EvalError{Term: t.String(), Err: fmt.Errorf("unbound variable %q", t.varName)}
		}
		return v, a.checkCarrier(t.sort, v, t)
	}
	args := make([]any, len(t.args))
	for i, at := range t.args {
		v, err := a.Eval(at, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	fn := a.lookup(t.op.Name, t.op.Args)
	if fn == nil {
		return nil, &EvalError{Term: t.String(), Err: fmt.Errorf("operator %s has no implementation", t.op)}
	}
	out, err := fn(args)
	if err != nil {
		return nil, &EvalError{Term: t.String(), Err: err}
	}
	return out, a.checkCarrier(t.sort, out, t)
}

func (a *Algebra) checkCarrier(s Sort, v any, t *Term) error {
	a.mu.RLock()
	check := a.carriers[s]
	a.mu.RUnlock()
	if check != nil && !check(v) {
		return &EvalError{Term: t.String(), Err: fmt.Errorf("value %T is not in carrier of sort %q", v, s)}
	}
	return nil
}

// Call resolves and invokes an operator directly on values, inferring
// nothing: the caller supplies the argument sorts. It is the fast path used
// by the DBMS adapter, bypassing Term construction: one lookup, no
// allocation beyond what the operator itself does.
func (a *Algebra) Call(name string, argSorts []Sort, args []any) (any, error) {
	fn := a.lookup(name, argSorts)
	if fn == nil {
		if op, ok := a.sig.Resolve(name, argSorts); ok {
			return nil, fmt.Errorf("core: operator %s has no implementation", op)
		}
		return nil, fmt.Errorf("core: no overload of %q accepts (%s)", name, joinSorts(argSorts))
	}
	return fn(args)
}
