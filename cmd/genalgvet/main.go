// Command genalgvet runs the project's static-analysis suite:
// `genalgvet ./...` loads the packages and their tests itself (via `go
// list`) and prints findings; this is what `make lint-analyzers` runs.
//
// The suite is interprocedural: per-function pathflow summaries (and the
// other fact domains) flow across package boundaries, bottom-up over the
// import graph of the loaded packages.
//
// //genalgvet:ignore directives suppress findings, and a malformed or
// unknown directive is itself a finding; -audit-ignores additionally
// fails on directives that no longer suppress anything. -json emits
// findings as a JSON array for CI artifacts. Exit status: 0 clean, 1
// findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"genalg/internal/analysis"
	"genalg/internal/analysis/load"
	"genalg/internal/analysis/passes"
)

func main() {
	fs := flag.NewFlagSet("genalgvet", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	audit := fs.Bool("audit-ignores", false, "also fail on //genalgvet:ignore directives that suppress nothing")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: genalgvet [-list] [-json] [-audit-ignores] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *list {
		for _, a := range passes.All() {
			fmt.Printf("%-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	os.Exit(vet(fs.Args(), *jsonOut, *audit))
}

// finding is the -json output shape for one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// vet loads patterns (default ./...) with their tests, computes facts
// bottom-up over the target import graph, and reports findings.
func vet(patterns []string, jsonOut, audit bool) int {
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genalgvet: %v\n", err)
		return 2
	}
	load.ComputeFacts(pkgs, analysis.Computers(passes.All()))
	exit := 0
	var all []finding
	for _, pkg := range pkgs {
		diags, err := runPackage(pkg, audit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "genalgvet: %v\n", err)
			return 2
		}
		if len(diags) > 0 {
			exit = 1
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if jsonOut {
				all = append(all, finding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message,
				})
			} else {
				fmt.Fprintf(os.Stdout, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []finding{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(os.Stderr, "genalgvet: %v\n", err)
			return 2
		}
	}
	return exit
}

func runPackage(pkg *load.Package, audit bool) ([]analysis.Diagnostic, error) {
	diags, err := analysis.Run(pkg.Package, passes.All())
	if err != nil {
		return nil, err
	}
	if audit {
		return analysis.AuditIgnored(pkg.Package, diags, passes.Known()), nil
	}
	return analysis.FilterIgnored(pkg.Package, diags, passes.Known()), nil
}
