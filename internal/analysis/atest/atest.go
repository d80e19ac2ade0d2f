// Package atest is the fixture-driven golden-test harness for genalgvet
// analyzers — the role analysistest plays for x/tools checkers. A fixture
// lives under the analyzer's testdata/src/<pkg>/ directory in GOPATH-style
// layout; fixture files annotate the lines a diagnostic must land on:
//
//	pg, err := pool.Pin(id) // want `not released on every path`
//
// Each `want` argument is a quoted Go string holding a regexp that must
// match the diagnostic message; several on one line expect several
// diagnostics in order. Lines without a want comment must produce no
// diagnostics. //genalgvet:ignore directives are honoured exactly as the
// real driver honours them, so suppression fixtures assert driver
// behaviour too.
//
// Fixture packages may import sibling fixture packages ("storage",
// "trace", ...) which resolve inside testdata/src, or standard-library
// packages, which resolve through the go/types source importer — the
// harness never needs export data or network access.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"genalg/internal/analysis"
)

// shared caches one source importer (and its FileSet) per test binary:
// re-type-checking the stdlib from source for every fixture would
// dominate test time.
var shared struct {
	mu   sync.Mutex
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*fixturePkg // keyed by root + "\x00" + path
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

type fixtureImporter struct {
	root string
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(fi.root, path); dirExists(dir) {
		fp := loadFixtureLocked(fi.root, path)
		return fp.pkg, fp.err
	}
	return shared.std.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// loadFixtureLocked parses and type-checks testdata/src/<path>; shared.mu
// must be held.
func loadFixtureLocked(root, path string) *fixturePkg {
	key := root + "\x00" + path
	if fp, ok := shared.pkgs[key]; ok {
		return fp
	}
	fp := &fixturePkg{}
	shared.pkgs[key] = fp
	dir := filepath.Join(root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		fp.err = err
		return fp
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fp.err = fmt.Errorf("no Go files in %s", dir)
		return fp
	}
	for _, name := range names {
		f, err := parser.ParseFile(shared.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			fp.err = err
			return fp
		}
		fp.files = append(fp.files, f)
	}
	fp.info = analysis.NewInfo()
	conf := types.Config{Importer: &fixtureImporter{root: root}}
	fp.pkg, fp.err = conf.Check(path, shared.fset, fp.files, fp.info)
	return fp
}

// Load type-checks the fixture package testdata/src/<path> under
// testdataDir and returns it as an analysis.Package.
func Load(t *testing.T, testdataDir, path string) *analysis.Package {
	t.Helper()
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if shared.fset == nil {
		shared.fset = token.NewFileSet()
		shared.std = importer.ForCompiler(shared.fset, "source", nil)
		shared.pkgs = map[string]*fixturePkg{}
	}
	root, err := filepath.Abs(filepath.Join(testdataDir, "src"))
	if err != nil {
		t.Fatal(err)
	}
	fp := loadFixtureLocked(root, path)
	if fp.err != nil {
		t.Fatalf("loading fixture %s: %v", path, fp.err)
	}
	return &analysis.Package{
		Fset:      shared.fset,
		Files:     fp.files,
		Pkg:       fp.pkg,
		TypesInfo: fp.info,
	}
}

// computeFactsLocked derives the analyzers' facts for the fixture
// package at path, recursing into sibling fixture imports first so
// cross-package summaries work exactly as they do in the real drivers.
// shared.mu must be held.
func computeFactsLocked(root, path string, computers []*analysis.FactComputer) (*analysis.FactSet, error) {
	fp := loadFixtureLocked(root, path)
	if fp.err != nil {
		return nil, fp.err
	}
	imported := analysis.NewFactSet()
	for _, dep := range fp.pkg.Imports() {
		if !dirExists(filepath.Join(root, dep.Path())) {
			continue // stdlib import: no facts
		}
		dfs, err := computeFactsLocked(root, dep.Path(), computers)
		if err != nil {
			return nil, err
		}
		imported.Merge(dfs)
	}
	pkg := &analysis.Package{Fset: shared.fset, Files: fp.files, Pkg: fp.pkg, TypesInfo: fp.info}
	return analysis.ComputeFacts(pkg, imported, computers), nil
}

// Run loads the fixture package, computes the analyzers' facts (so
// interprocedural checks see summaries for the fixture and its sibling
// imports), and checks the diagnostics against its // want annotations.
func Run(t *testing.T, testdataDir, path string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg := Load(t, testdataDir, path)
	if computers := analysis.Computers(analyzers); len(computers) > 0 {
		shared.mu.Lock()
		root, err := filepath.Abs(filepath.Join(testdataDir, "src"))
		if err == nil {
			pkg.Facts, err = computeFactsLocked(root, path, computers)
		}
		shared.mu.Unlock()
		if err != nil {
			t.Fatalf("computing facts for %s: %v", path, err)
		}
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", path, err)
	}
	known := map[string]bool{"genalgvet": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	diags = analysis.FilterIgnored(pkg, diags, known)

	wants := parseWants(t, pkg)
	got := map[string][]analysis.Diagnostic{}
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		got[key] = append(got[key], d)
	}
	for key, res := range wants {
		ds := got[key]
		if len(ds) != len(res) {
			t.Errorf("%s: want %d diagnostic(s), got %d: %v", key, len(res), len(ds), messages(ds))
			continue
		}
		for i, re := range res {
			if !re.MatchString(ds[i].Message) {
				t.Errorf("%s: diagnostic %q does not match want %q", key, ds[i].Message, re)
			}
		}
	}
	for key, ds := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic(s): %v", key, messages(ds))
		}
	}
}

func messages(ds []analysis.Diagnostic) []string {
	var out []string
	for _, d := range ds {
		out = append(out, "["+d.Analyzer+"] "+d.Message)
	}
	return out
}

// parseWants extracts the `// want "re" ...` annotations, keyed by
// "file.go:line".
func parseWants(t *testing.T, pkg *analysis.Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments not supported for wants
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
				for _, re := range parseWantArgs(t, key, rest) {
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// parseWantArgs splits `"re1" "re2"` / backquoted forms into compiled
// regexps.
func parseWantArgs(t *testing.T, key, s string) []*regexp.Regexp {
	t.Helper()
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", key, s)
			}
			var err error
			lit, err = strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want string %s: %v", key, s[:end+1], err)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", key, s)
			}
			lit = s[1 : 1+end]
			s = strings.TrimSpace(s[2+end:])
		default:
			t.Fatalf("%s: want arguments must be quoted strings: %s", key, s)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", key, lit, err)
		}
		out = append(out, re)
	}
	return out
}
