// Package adapter implements the DBMS-specific adapter of the paper's
// Figure 3: "the only component that has knowledge about the types and
// operations of the Genomics Algebra as well as how they are implemented
// and stored in the DBMS" (Section 5.1). Install plugs the GDTs into the
// engine's opaque-UDT mechanism and exposes every kernel-algebra operation
// as an external function callable from SQL (Section 6.3), plus literal
// constructor functions so GDT values can be written in queries.
package adapter

import (
	"fmt"
	"strconv"
	"strings"

	"genalg/internal/core"
	"genalg/internal/db"
	"genalg/internal/gdt"
	"genalg/internal/genops"
	"genalg/internal/seq"
)

// Install registers the Genomics Algebra with the engine: one opaque UDT
// per GDT kind, one external function per algebra operation (dispatching on
// runtime argument sorts), and the GDT constructor functions.
func Install(d *db.DB, k *genops.Kernel) error {
	if err := registerUDTs(d); err != nil {
		return err
	}
	if err := registerOps(d, k); err != nil {
		return err
	}
	return registerConstructors(d)
}

func packValue(v any) ([]byte, error) {
	gv, ok := v.(gdt.Value)
	if !ok {
		return nil, fmt.Errorf("adapter: %T is not a GDT value", v)
	}
	return gv.Pack(), nil
}

func udtFor(kind gdt.Kind, check func(any) bool, extract func(any) (seq.NucSeq, bool)) db.UDT {
	return db.UDT{
		Name: kind.String(),
		Pack: packValue,
		Unpack: func(buf []byte) (any, error) {
			v, err := gdt.Unpack(buf)
			if err != nil {
				return nil, err
			}
			if v.Kind() != kind {
				return nil, fmt.Errorf("adapter: column stores %s, buffer holds %s", kind, v.Kind())
			}
			return v, nil
		},
		Check:      check,
		ExtractSeq: extract,
	}
}

func registerUDTs(d *db.DB) error {
	udts := []db.UDT{
		udtFor(gdt.KindNucleotide,
			func(v any) bool { _, ok := v.(gdt.Nucleotide); return ok }, nil),
		udtFor(gdt.KindDNA,
			func(v any) bool { _, ok := v.(gdt.DNA); return ok },
			func(v any) (seq.NucSeq, bool) {
				x, ok := v.(gdt.DNA)
				if !ok {
					return seq.NucSeq{}, false
				}
				return x.Seq, true
			}),
		udtFor(gdt.KindRNA,
			func(v any) bool { _, ok := v.(gdt.RNA); return ok },
			func(v any) (seq.NucSeq, bool) {
				x, ok := v.(gdt.RNA)
				if !ok {
					return seq.NucSeq{}, false
				}
				return x.Seq, true
			}),
		udtFor(gdt.KindPrimaryTranscript,
			func(v any) bool { _, ok := v.(gdt.PrimaryTranscript); return ok },
			func(v any) (seq.NucSeq, bool) {
				x, ok := v.(gdt.PrimaryTranscript)
				if !ok {
					return seq.NucSeq{}, false
				}
				return x.Seq, true
			}),
		udtFor(gdt.KindMRNA,
			func(v any) bool { _, ok := v.(gdt.MRNA); return ok },
			func(v any) (seq.NucSeq, bool) {
				x, ok := v.(gdt.MRNA)
				if !ok {
					return seq.NucSeq{}, false
				}
				return x.Seq, true
			}),
		udtFor(gdt.KindProtein,
			func(v any) bool { _, ok := v.(gdt.Protein); return ok }, nil),
		udtFor(gdt.KindGene,
			func(v any) bool { _, ok := v.(gdt.Gene); return ok },
			func(v any) (seq.NucSeq, bool) {
				x, ok := v.(gdt.Gene)
				if !ok {
					return seq.NucSeq{}, false
				}
				return x.Seq, true
			}),
		udtFor(gdt.KindChromosome,
			func(v any) bool { _, ok := v.(gdt.Chromosome); return ok },
			func(v any) (seq.NucSeq, bool) {
				x, ok := v.(gdt.Chromosome)
				if !ok {
					return seq.NucSeq{}, false
				}
				return x.Seq, true
			}),
		udtFor(gdt.KindGenome,
			func(v any) bool { _, ok := v.(gdt.Genome); return ok }, nil),
		udtFor(gdt.KindAnnotation,
			func(v any) bool { _, ok := v.(gdt.Annotation); return ok }, nil),
	}
	for _, u := range udts {
		if err := d.UDTs.Register(u); err != nil {
			return err
		}
	}
	return nil
}

// sortOfRuntime infers the algebra sort of a runtime value coming from the
// SQL executor.
func sortOfRuntime(v any) (core.Sort, error) {
	switch x := v.(type) {
	case gdt.Value:
		return genops.SortOfValue(x), nil
	case int64:
		return core.SortInt, nil
	case float64:
		return core.SortFloat, nil
	case string:
		return core.SortString, nil
	case bool:
		return core.SortBool, nil
	}
	return "", fmt.Errorf("adapter: value of type %T has no algebra sort", v)
}

// registerOps exposes every operation in the kernel signature as an
// external function. Overloads are resolved per call from runtime argument
// sorts. Planner metadata (selectivity, cost, the k-mer index hint for
// contains) is carried over from the signature.
func registerOps(d *db.DB, k *genops.Kernel) error {
	byName := map[string][]core.OpSig{}
	for _, op := range k.Sig.Ops() {
		byName[op.Name] = append(byName[op.Name], op)
	}
	for name, overloads := range byName {
		name, overloads := name, overloads
		// Aggregate metadata: use the max cost and min selectivity among
		// overloads (conservative for the planner).
		var sel, cost float64
		for i, op := range overloads {
			if i == 0 || op.Selectivity < sel {
				sel = op.Selectivity
			}
			if op.Cost > cost {
				cost = op.Cost
			}
		}
		hint := ""
		if name == "contains" {
			hint = "kmer"
		}
		nargs := 0
		uniformArity := true
		for i, op := range overloads {
			if i == 0 {
				nargs = len(op.Args)
			} else if nargs != len(op.Args) {
				uniformArity = false
			}
		}
		if !uniformArity {
			nargs = 0 // disable parse-time arity checking
		}
		err := d.Funcs.Register(db.ExternalFunc{
			Name:        name,
			NArgs:       nargs,
			Selectivity: sel,
			Cost:        cost,
			IndexHint:   hint,
			Fn: func(args []any) (any, error) {
				// Up to four argument sorts live on the stack.
				var buf [4]core.Sort
				sorts := buf[:0]
				for i, a := range args {
					s, err := sortOfRuntime(a)
					if err != nil {
						return nil, fmt.Errorf("adapter: %s argument %d: %w", name, i, err)
					}
					sorts = append(sorts, s)
				}
				return k.Alg.Call(name, sorts, args)
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// registerConstructors adds literal constructors so SQL statements can
// build GDT values: dna(id, letters), rna(id, letters), protein(id,
// letters), gene(id, symbol, organism, letters, exonSpec), annotation(id,
// target, start, end, author, text).
//
// exonSpec is a comma-separated list of start-end pairs, e.g. "0-6,14-20".
func registerConstructors(d *db.DB) error {
	ctors := []db.ExternalFunc{
		{
			Name: "dna", NArgs: 2,
			Fn: func(args []any) (any, error) {
				id, ok1 := args[0].(string)
				letters, ok2 := args[1].(string)
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("adapter: dna(id string, letters string)")
				}
				return gdt.NewDNA(id, letters)
			},
		},
		{
			Name: "rna", NArgs: 2,
			Fn: func(args []any) (any, error) {
				id, ok1 := args[0].(string)
				letters, ok2 := args[1].(string)
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("adapter: rna(id string, letters string)")
				}
				ns, err := seq.NewNucSeq(seq.AlphaRNA, letters)
				if err != nil {
					return nil, err
				}
				return gdt.RNA{ID: id, Seq: ns}, nil
			},
		},
		{
			Name: "protein", NArgs: 2,
			Fn: func(args []any) (any, error) {
				id, ok1 := args[0].(string)
				letters, ok2 := args[1].(string)
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("adapter: protein(id string, letters string)")
				}
				ps, err := seq.NewProtSeq(letters)
				if err != nil {
					return nil, err
				}
				return gdt.Protein{ID: id, Seq: ps}, nil
			},
		},
		{
			Name: "gene", NArgs: 5,
			Fn: func(args []any) (any, error) {
				id, ok1 := args[0].(string)
				symbol, ok2 := args[1].(string)
				organism, ok3 := args[2].(string)
				letters, ok4 := args[3].(string)
				exonSpec, ok5 := args[4].(string)
				if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
					return nil, fmt.Errorf("adapter: gene(id, symbol, organism, letters, exonSpec string)")
				}
				ns, err := seq.NewNucSeq(seq.AlphaDNA, letters)
				if err != nil {
					return nil, err
				}
				exons, err := ParseExonSpec(exonSpec)
				if err != nil {
					return nil, err
				}
				g := gdt.Gene{ID: id, Symbol: symbol, Organism: organism, Seq: ns, Exons: exons}
				if err := g.Validate(); err != nil {
					return nil, err
				}
				return g, nil
			},
		},
		{
			Name: "annotation", NArgs: 6,
			Fn: func(args []any) (any, error) {
				id, ok1 := args[0].(string)
				target, ok2 := args[1].(string)
				start, ok3 := args[2].(int64)
				end, ok4 := args[3].(int64)
				author, ok5 := args[4].(string)
				text, ok6 := args[5].(string)
				if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 {
					return nil, fmt.Errorf("adapter: annotation(id, target string, start, end int, author, text string)")
				}
				return gdt.Annotation{
					ID: id, TargetID: target,
					Span:   gdt.Interval{Start: int(start), End: int(end)},
					Author: author, Text: text,
				}, nil
			},
		},
	}
	for _, c := range ctors {
		if err := d.Funcs.Register(c); err != nil {
			return err
		}
	}
	return nil
}

// ParseExonSpec parses "0-6,14-20" into intervals.
func ParseExonSpec(spec string) ([]gdt.Interval, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []gdt.Interval
	for _, part := range strings.Split(spec, ",") {
		bounds := strings.SplitN(strings.TrimSpace(part), "-", 2)
		if len(bounds) != 2 {
			return nil, fmt.Errorf("adapter: bad exon span %q (want start-end)", part)
		}
		start, err := strconv.Atoi(strings.TrimSpace(bounds[0]))
		if err != nil {
			return nil, fmt.Errorf("adapter: bad exon start in %q", part)
		}
		end, err := strconv.Atoi(strings.TrimSpace(bounds[1]))
		if err != nil {
			return nil, fmt.Errorf("adapter: bad exon end in %q", part)
		}
		out = append(out, gdt.Interval{Start: start, End: end})
	}
	return out, nil
}

// FormatExonSpec renders intervals back into the constructor syntax.
func FormatExonSpec(exons []gdt.Interval) string {
	parts := make([]string, len(exons))
	for i, e := range exons {
		parts[i] = fmt.Sprintf("%d-%d", e.Start, e.End)
	}
	return strings.Join(parts, ",")
}
