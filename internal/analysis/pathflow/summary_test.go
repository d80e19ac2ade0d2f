package pathflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// check parses and type-checks one file as package path.
func check(t *testing.T, path, src string) ([]*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check(path, fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return []*ast.File{f}, info
}

// The summarizer credits all-paths releases (directly and through the
// in-package fixpoint), refuses conditional and recursion-only releases,
// and records durability wait points.
func TestComputeSummaries(t *testing.T) {
	files, info := check(t, "storage", `
package storage

type PageID uint32
type BufferPool struct{}

func (bp *BufferPool) Unpin(id PageID, dirty bool) error { return nil }

func release(bp *BufferPool, id PageID)  { _ = bp.Unpin(id, true) }
func chained(bp *BufferPool, id PageID)  { release(bp, id) }
func maybe(bp *BufferPool, id PageID, ok bool) {
	if ok {
		_ = bp.Unpin(id, false)
	}
}
func recur(bp *BufferPool, id PageID) { recur(bp, id) }

type Log struct{}

func (l *Log) WaitDurable(lsn int64) error { return nil }

func syncTo(l *Log, lsn int64) error {
	if l == nil {
		return nil
	}
	return l.WaitDurable(lsn)
}

func runIt(f func()) { f() }
`)
	sums := ComputeSummaries(files, info, nil)

	want := map[string][][2]int{
		"storage.release": {{0, 1}},
		"storage.chained": {{0, 1}},
		"storage.maybe":   nil,
		"storage.recur":   nil,
	}
	for key, pins := range want {
		sum, ok := sums.get(key)
		if !ok {
			t.Fatalf("no summary for %s", key)
		}
		if !reflect.DeepEqual(sum.Pins, pins) {
			t.Errorf("%s: Pins = %v, want %v", key, sum.Pins, pins)
		}
	}
	if sum, _ := sums.get("storage.syncTo"); !reflect.DeepEqual(sum.Waits, []int{1}) {
		t.Errorf("syncTo: Waits = %v, want [1]", sum.Waits)
	}
	if sum, _ := sums.get("storage.runIt"); !reflect.DeepEqual(sum.Calls, []int{0}) {
		t.Errorf("runIt: Calls = %v, want [0]", sum.Calls)
	}
}

// Imported summaries resolve through ComputeSummaries' output set, and
// only local entries are its own.
func TestComputeSummariesImports(t *testing.T) {
	imported := map[string]any{"dep.Release": &FuncSummary{Pins: [][2]int{{0, 1}}}}

	files, info := check(t, "empty", "package empty\n")
	out := ComputeSummaries(files, info, imported)
	if _, ok := out.get("dep.Release"); !ok {
		t.Error("imported summary not visible through output set")
	}
	if len(out.fns) != 0 {
		t.Errorf("imported entries copied into local set: %v", out.fns)
	}
}
