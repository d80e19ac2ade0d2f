// Package load turns package patterns into parsed, type-checked
// analysis.Packages without importing golang.org/x/tools/go/packages. It
// shells out to `go list -test -deps -export -json`, which compiles (or
// reuses from the build cache) export data for every dependency, then
// type-checks only the target packages from source; imports resolve
// through the gc export-data importer, so loading stays fast no matter
// how deep the dependency tree is.
//
// Tests are part of the target set, as `go vet` and `go test` see them: a
// package with internal tests is loaded as its test variant "p [p.test]"
// (its files plus its _test.go files, in place of p), its external test
// package "p_test [p.test]" is added, and the generated "p.test" mains are
// skipped.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"genalg/internal/analysis"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath  string
	Name        string
	ForTest     string
	Dir         string
	GoFiles     []string
	TestGoFiles []string
	CgoFiles    []string
	Imports     []string
	ImportMap   map[string]string
	Export      string
	Standard    bool
	DepOnly     bool
	Error       *struct{ Err string }
}

// Package pairs a type-checked target with its file set of origin.
type Package struct {
	// ImportPath is the package path without go list's " [p.test]"
	// variant suffix, as the compiler sees it.
	ImportPath string
	Dir        string
	// Imports lists the package's direct imports, by the same unsuffixed
	// paths (for bottom-up fact computation; see ComputeFacts).
	Imports []string
	*analysis.Package

	// forTest is p for p's test variant and for its external test
	// package p_test, and empty otherwise.
	forTest string
	// nonTest holds a test variant's non-test files, from which the facts
	// other packages see are computed (depFacts): only p's external test
	// package may depend on what p's _test.go files declare.
	nonTest  []*ast.File
	depFacts *analysis.FactSet
}

// Packages loads the packages matching patterns, and their tests, rooted
// at dir. Targets are parsed and type-checked from source (with
// comments, so ignore directives survive); their dependencies come from
// export data.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-test", "-deps", "-export",
		"-json=ImportPath,Name,ForTest,Dir,GoFiles,TestGoFiles,CgoFiles,Imports,ImportMap,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPkg
	hasVariant := map[string]bool{} // p is loaded as "p [p.test]"
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		testMain := lp.Name == "main" && lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test")
		if lp.DepOnly || lp.Standard || len(lp.GoFiles) == 0 || testMain {
			continue
		}
		if lp.ForTest != "" && basePath(lp.ImportPath) == lp.ForTest {
			hasVariant[lp.ForTest] = true
		}
		targets = append(targets, lp)
	}
	targets = slices.DeleteFunc(targets, func(lp listPkg) bool { return hasVariant[lp.ImportPath] })
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	// Importers cache what they import by path, so a target whose
	// ImportMap redirects a path (an external test importing p's test
	// variant) gets one of its own; the others share one.
	newImporter := func(importMap map[string]string) types.Importer {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		})
	}
	shared := newImporter(nil)

	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			// No cgo in this repository; refuse rather than mis-analyze.
			return nil, fmt.Errorf("%s: cgo packages are not supported", t.ImportPath)
		}
		path := basePath(t.ImportPath)
		p := &Package{ImportPath: path, Dir: t.Dir, forTest: t.ForTest}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", name, err)
			}
			files = append(files, f)
			if path == t.ForTest && !slices.Contains(t.TestGoFiles, name) {
				p.nonTest = append(p.nonTest, f)
			}
		}
		imp := shared
		if len(t.ImportMap) > 0 {
			imp = newImporter(t.ImportMap)
		}
		info := analysis.NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
		}
		for _, dep := range t.Imports {
			p.Imports = append(p.Imports, basePath(dep))
		}
		p.Package = &analysis.Package{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// basePath strips go list's " [p.test]" variant suffix.
func basePath(importPath string) string {
	path, _, _ := strings.Cut(importPath, " ")
	return path
}

// ComputeFacts fills each target package's Facts, walking the targets'
// import graph bottom-up so a package sees its dependencies' summaries.
// Dependencies outside the target set — the standard library, mainly —
// contribute no facts, which the analyzers treat conservatively.
func ComputeFacts(pkgs []*Package, computers []*analysis.FactComputer) {
	if len(computers) == 0 {
		return
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	done := map[string]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if done[p.ImportPath] {
			return
		}
		done[p.ImportPath] = true
		imported := analysis.NewFactSet()
		seen := map[string]bool{}
		for _, dep := range p.Imports {
			dp, ok := byPath[dep]
			if !ok || seen[dep] {
				continue
			}
			seen[dep] = true
			visit(dp)
			if p.forTest != "" && p.forTest == dp.forTest {
				imported.Merge(dp.Facts) // p_test sees p's test files
			} else {
				imported.Merge(dp.depFacts)
			}
		}
		p.Facts = analysis.ComputeFacts(p.Package, imported, computers)
		p.depFacts = p.Facts
		if p.nonTest != nil {
			nonTest := *p.Package
			nonTest.Files = p.nonTest
			p.depFacts = analysis.ComputeFacts(&nonTest, imported, computers)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
}
