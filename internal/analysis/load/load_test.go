package load

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestPackagesLoadsTests: a package with internal tests is loaded once,
// as its test variant with its _test.go files, its external test package
// is loaded too (type-checking it needs the variant's test-only
// declarations), and the generated test main is not.
func TestPackagesLoadsTests(t *testing.T) {
	pkgs, err := Packages(filepath.Join("testdata", "mod"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]string{}
	for _, p := range pkgs {
		if _, dup := files[p.ImportPath]; dup {
			t.Errorf("%s loaded twice", p.ImportPath)
		}
		for _, f := range p.Files {
			files[p.ImportPath] = append(files[p.ImportPath], filepath.Base(p.Fset.Position(f.Pos()).Filename))
		}
		slices.Sort(files[p.ImportPath])
	}
	want := map[string][]string{
		"example.com/mod/p":      {"p.go", "p_internal_test.go"},
		"example.com/mod/p_test": {"p_test.go"},
		"example.com/mod/q":      {"q.go"},
	}
	if len(files) != len(want) {
		t.Errorf("loaded %v, want exactly %v", files, want)
	}
	for path, names := range want {
		if !slices.Equal(files[path], names) {
			t.Errorf("%s: files %v, want %v", path, files[path], names)
		}
	}
}
