package loader

import (
	"testing"
)

// fixtures is the sharedmut fixture tree: a diamond-free four-level
// chain (runsite → mid → leaf → deep → conf) that the facts engine
// depends on being loaded dependencies-first.
const fixtures = "../analyzers/testdata/src"

func TestClosureDependencyOrder(t *testing.T) {
	l := New("", "", fixtures)
	order, err := l.Closure([]string{"sharedmut/runsite"})
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int, len(order))
	for i, p := range order {
		index[p] = i
	}
	for _, pkg := range []string{
		"sharedmut/conf", "sharedmut/deep", "sharedmut/leaf",
		"sharedmut/mid", "sharedmut/runsite",
	} {
		if _, ok := index[pkg]; !ok {
			t.Fatalf("closure %v is missing %s", order, pkg)
		}
	}
	for _, dep := range []struct{ before, after string }{
		{"sharedmut/conf", "sharedmut/deep"},
		{"sharedmut/deep", "sharedmut/leaf"},
		{"sharedmut/leaf", "sharedmut/mid"},
		{"sharedmut/mid", "sharedmut/runsite"},
	} {
		if index[dep.before] >= index[dep.after] {
			t.Errorf("closure %v loads %s before its dependency %s", order, dep.after, dep.before)
		}
	}
	if order[len(order)-1] != "sharedmut/runsite" {
		t.Errorf("closure %v does not end with the requested package", order)
	}
}

func TestClosureDeterministic(t *testing.T) {
	first, err := New("", "", fixtures).Closure([]string{"sharedmut/runsite", "sharedmut/mid"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := New("", "", fixtures).Closure([]string{"sharedmut/runsite", "sharedmut/mid"})
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("closure length changed: %v vs %v", first, again)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("closure order changed: %v vs %v", first, again)
			}
		}
	}
}

func TestClosureSkipsNonLocal(t *testing.T) {
	// The exhaustive fixtures import nothing outside the fixture root;
	// stdlib imports elsewhere (e.g. the ctqosim fixture's "time") must
	// never appear in a closure.
	l := New("", "", fixtures)
	order, err := l.Closure([]string{"ctqosim/internal/des"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range order {
		if p == "time" {
			t.Errorf("closure %v includes the stdlib package time", order)
		}
	}
}

func TestLoadRegistersPackageForImports(t *testing.T) {
	// Loading dependencies first must make their types.Package available
	// to dependents through the loader's importer — object identity is
	// what carries facts across packages.
	l := New("", "", fixtures)
	order, err := l.Closure([]string{"sharedmut/leaf"})
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(map[string]*Package, len(order))
	for _, p := range order {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("load %s: type errors %v", p, pkg.TypeErrors)
		}
		loaded[p] = pkg
	}
	deep := loaded["sharedmut/deep"].Types
	leaf := loaded["sharedmut/leaf"].Types
	var imported bool
	for _, imp := range leaf.Imports() {
		if imp.Path() == "sharedmut/deep" {
			imported = true
			if imp != deep {
				t.Error("leaf's import of deep is a different *types.Package than the loaded one: facts would not cross")
			}
		}
	}
	if !imported {
		t.Fatalf("leaf does not list deep among its imports: %v", leaf.Imports())
	}
	// Same object through both packages' lens.
	if deep.Scope().Lookup("Zero") == nil {
		t.Fatal("deep.Zero not found in the loaded package scope")
	}
}

func TestLoadTwiceReturnsTheSamePackage(t *testing.T) {
	// A second load of a path must hand back the first load's objects:
	// facts exported while analyzing the first attach to them, and a
	// fresh type-check would make objects no fact refers to.
	l := New("", "", fixtures)
	first, err := l.Load("sharedmut/deep")
	if err != nil {
		t.Fatal(err)
	}
	again, err := l.Load("sharedmut/deep")
	if err != nil {
		t.Fatal(err)
	}
	if again.Types != first.Types {
		t.Fatal("second Load returned a different *types.Package")
	}
	if again.Types.Scope().Lookup("Zero") != first.Types.Scope().Lookup("Zero") {
		t.Fatal("second Load returned a different object for deep.Zero")
	}
}
