package analysis_test

import (
	"reflect"
	"testing"

	"genalg/internal/analysis"
	"genalg/internal/analysis/atest"
	"genalg/internal/analysis/passes/lockorder"
	"genalg/internal/analysis/pathflow"
)

// Fact entries are shared by pointer between a package's set and every
// dependent's, so computing a dependent's facts must leave the imported
// set exactly as it was: same keys, same entry values.
func TestImportedFactsAreNeverWritten(t *testing.T) {
	computers := []*analysis.FactComputer{pathflow.Facts, lockorder.Facts}
	factsA := analysis.ComputeFacts(atest.Load(t, "testdata", "a"), nil, computers)
	before := map[string]map[string]any{}
	for _, c := range computers {
		entries := factsA.Domain(c.Domain)
		if len(entries) == 0 {
			t.Fatalf("%s: package a computed no facts", c.Domain)
		}
		before[c.Domain] = deepCopy(reflect.ValueOf(entries)).Interface().(map[string]any)
	}

	factsB := analysis.ComputeFacts(atest.Load(t, "testdata", "b"), factsA, computers)

	for _, c := range computers {
		after := factsA.Domain(c.Domain)
		if !reflect.DeepEqual(after, before[c.Domain]) {
			t.Errorf("%s: computing b's facts changed a's set:\nbefore %v\nafter  %v", c.Domain, before[c.Domain], after)
		}
		inB := factsB.Domain(c.Domain)
		for k, v := range after {
			if inB[k] != v {
				t.Errorf("%s: b's set does not share a's entry %s", c.Domain, k)
			}
		}
		if _, ok := inB["b.Nested"]; !ok {
			t.Errorf("%s: b's set lacks its own entry b.Nested", c.Domain)
		}
	}
}

// deepCopy copies v's maps, slices, pointers and interfaces all the way
// down, so the copy shares no memory with v.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			out.SetMapIndex(it.Key(), deepCopy(it.Value()))
		}
		return out
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(deepCopy(v.Index(i)))
		}
		return out
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return v
		}
		elem := deepCopy(v.Elem())
		if v.Kind() == reflect.Interface {
			return elem
		}
		out := reflect.New(elem.Type())
		out.Elem().Set(elem)
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(deepCopy(v.Field(i)))
		}
		return out
	}
	return v
}
