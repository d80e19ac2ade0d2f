package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseForIgnores builds the minimal Package FilterIgnored consumes: a
// parsed file with comments, no type information.
func parseForIgnores(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}}
}

// diagAt fabricates a diagnostic at the start of the given 1-based line.
func diagAt(pkg *Package, line int, analyzer string) Diagnostic {
	tf := pkg.Fset.File(pkg.Files[0].Pos())
	return Diagnostic{Pos: tf.LineStart(line), Analyzer: analyzer, Message: "boom"}
}

const ignoreSrc = `package p

func a() {} //genalgvet:ignore lockorder the lock protects exactly this read

//genalgvet:ignore pinunpin,spanend the pin escapes into the returned iterator
func b() {}

func c() {} //genalgvet:ignore lockorder

//genalgvet:ignore
func d() {}

func e() {} //genalgvet:ignore nosuchpass some reason

//genalgvet:ignore all test fixture exercises every analyzer at once
func f() {}
`

var ignoreKnown = map[string]bool{"lockorder": true, "pinunpin": true, "spanend": true}

func TestFilterIgnoredSuppresses(t *testing.T) {
	pkg := parseForIgnores(t, ignoreSrc)
	diags := []Diagnostic{
		diagAt(pkg, 3, "lockorder"),  // same-line directive
		diagAt(pkg, 6, "pinunpin"),   // line-above directive, multi-analyzer
		diagAt(pkg, 6, "spanend"),    // second analyzer of the same directive
		diagAt(pkg, 16, "lockorder"), // "all" matches every analyzer
	}
	got := FilterIgnored(pkg, diags, ignoreKnown)
	// The three malformed directives (lines 8, 10, 13) surface as
	// genalgvet diagnostics; every fabricated finding is suppressed.
	if len(got) != 3 {
		t.Fatalf("got %d diagnostics, want 3 malformed-directive reports:\n%v", len(got), got)
	}
	for _, d := range got {
		if d.Analyzer != "genalgvet" {
			t.Errorf("survivor %q from %s, want only genalgvet malformed-directive reports", d.Message, d.Analyzer)
		}
	}
}

func TestFilterIgnoredMalformedDirectives(t *testing.T) {
	pkg := parseForIgnores(t, ignoreSrc)
	got := FilterIgnored(pkg, nil, ignoreKnown)
	wantByLine := map[int]string{
		8:  "missing a reason",
		10: "malformed ignore",
		13: "unknown analyzer nosuchpass",
	}
	if len(got) != len(wantByLine) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(wantByLine), got)
	}
	for _, d := range got {
		line := pkg.Fset.Position(d.Pos).Line
		want, ok := wantByLine[line]
		if !ok {
			t.Errorf("unexpected diagnostic at line %d: %s", line, d.Message)
			continue
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("line %d: message %q does not mention %q", line, d.Message, want)
		}
	}
}

func TestFilterIgnoredMismatchKept(t *testing.T) {
	pkg := parseForIgnores(t, ignoreSrc)
	// A spanend finding on line 3 is NOT covered by the lockorder directive.
	got := FilterIgnored(pkg, []Diagnostic{diagAt(pkg, 3, "spanend")}, ignoreKnown)
	kept := 0
	for _, d := range got {
		if d.Analyzer == "spanend" {
			kept++
		}
	}
	if kept != 1 {
		t.Errorf("mismatched-analyzer finding suppressed: %v", got)
	}
}

func TestFilterIgnoredNilKnownSkipsNameValidation(t *testing.T) {
	pkg := parseForIgnores(t, ignoreSrc)
	got := FilterIgnored(pkg, []Diagnostic{diagAt(pkg, 13, "nosuchpass")}, nil)
	// With known == nil the unknown-analyzer directive is honoured, so the
	// finding it covers is suppressed and no unknown-name report appears.
	for _, d := range got {
		if d.Analyzer == "nosuchpass" || strings.Contains(d.Message, "unknown analyzer") {
			t.Errorf("nil known map: unexpected diagnostic %s: %s", d.Analyzer, d.Message)
		}
	}
}
