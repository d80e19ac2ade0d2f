// Package analysis is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs: an
// Analyzer runs over one type-checked package at a time and reports
// position-tagged diagnostics. The build environment bakes in only the Go
// toolchain and the standard library, so rather than importing x/tools we
// keep the same shape (Analyzer, Pass, Reportf) on top of go/ast and
// go/types; analyzers written against this package read exactly like
// stock vet passes and could be ported to x/tools by changing imports.
//
// Cross-package knowledge arrives two ways: through types (export data)
// and through a facts side-channel (FactSet): an analyzer may declare
// FactComputers whose per-package output — e.g. pathflow's per-function
// release summaries — the driver computes bottom-up over the import graph
// and feeds to every dependent, making the path-sensitive checks
// interprocedural. Analyzer-to-analyzer
// result dependencies (x/tools' Requires) remain deliberately absent.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //genalgvet:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph help text (first line is the summary).
	Doc string
	// Run applies the check to one package. Diagnostics go through
	// pass.Reportf; the error return is for operational failures only
	// (a failing analyzer aborts the run, a finding does not).
	Run func(*Pass) error
	// Facts lists the fact domains this analyzer consumes; the driver
	// computes them per package (bottom-up over the import graph) and
	// exposes the merged result as Pass.Facts.
	Facts []*FactComputer
}

// Pass carries one package's worth of inputs to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts carries the package's fact set (imports' facts merged with
	// locally computed ones). Nil when the driver computed no facts; the
	// FactSet accessors are nil-safe, so analyzers read it unguarded and
	// degrade to intraprocedural behaviour.
	Facts *FactSet

	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is the unit handed to Run: a parsed, type-checked package.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the package's fact set (see ComputeFacts); nil is valid
	// and means "no interprocedural knowledge".
	Facts *FactSet
}

// NewInfo allocates a types.Info with every map analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Run applies analyzers to pkg and returns the diagnostics sorted by
// position. Ignore directives are NOT applied here (see FilterIgnored);
// tests use the raw stream to assert that suppression is a separate,
// driver-level concern.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Facts:     pkg.Facts,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Pkg.Path(), err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
