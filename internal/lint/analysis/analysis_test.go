package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

type testFact struct{ N int }

func (*testFact) AFact() {}

type otherFact struct{ N int }

func (*otherFact) AFact() {}

func newTestPass(name string, store *Store) *Pass {
	return &Pass{
		Analyzer: &Analyzer{
			Name:      name,
			FactTypes: []Fact{new(testFact), new(otherFact)},
		},
		Facts: store,
	}
}

func testObj(name string) types.Object {
	pkg := types.NewPackage("example.com/p", "p")
	return types.NewVar(token.NoPos, pkg, name, types.Typ[types.Int])
}

func TestStoreExportImportRoundTrip(t *testing.T) {
	store := NewStore()
	pass := newTestPass("a", store)
	obj := testObj("x")

	var missing testFact
	if pass.ImportObjectFact(obj, &missing) {
		t.Error("ImportObjectFact found a fact before any export")
	}

	pass.ExportObjectFact(obj, &testFact{N: 7})
	var got testFact
	if !pass.ImportObjectFact(obj, &got) {
		t.Fatal("ImportObjectFact found nothing after export")
	}
	if got.N != 7 {
		t.Errorf("imported fact N = %d, want 7", got.N)
	}

	// Import copies: mutating the copy must not affect the stored fact.
	got.N = 99
	var again testFact
	pass.ImportObjectFact(obj, &again)
	if again.N != 7 {
		t.Errorf("stored fact mutated through the imported copy: N = %d, want 7", again.N)
	}

	// Re-export overwrites.
	pass.ExportObjectFact(obj, &testFact{N: 8})
	pass.ImportObjectFact(obj, &again)
	if again.N != 8 {
		t.Errorf("re-exported fact N = %d, want 8", again.N)
	}
}

func TestStoreFactTypeKeying(t *testing.T) {
	store := NewStore()
	obj := testObj("x")
	a := newTestPass("a", store)
	b := newTestPass("b", store)

	a.ExportObjectFact(obj, &testFact{N: 1})

	// The fact type is the namespace: a second analyzer that declares the
	// same fact type sees the first's export.
	var got testFact
	if !b.ImportObjectFact(obj, &got) || got.N != 1 {
		t.Error("analyzer b cannot see analyzer a's fact of a shared declared type")
	}
	// Same object, different fact type: invisible.
	var other otherFact
	if a.ImportObjectFact(obj, &other) {
		t.Error("testFact visible through an otherFact import")
	}
	// Different object: invisible.
	if a.ImportObjectFact(testObj("y"), &got) {
		t.Error("fact leaked to a different object")
	}
}

func TestStoreEntriesDeterministic(t *testing.T) {
	store := NewStore()
	pass := newTestPass("a", store)
	x, y := testObj("x"), testObj("y")
	pass.ExportObjectFact(y, &testFact{N: 2})
	pass.ExportObjectFact(x, &testFact{N: 1})
	pass.ExportObjectFact(x, &otherFact{N: 3})

	entries := store.Entries()
	if len(entries) != 3 {
		t.Fatalf("Entries returned %d entries, want 3", len(entries))
	}
	wantNames := []string{"x", "x", "y"}
	for i, e := range entries {
		if e.Obj.Name() != wantNames[i] {
			t.Errorf("entry %d on object %s, want %s", i, e.Obj.Name(), wantNames[i])
		}
	}
	// x's two facts sort by type name: otherFact before testFact.
	if _, ok := entries[0].Fact.(*otherFact); !ok {
		t.Errorf("entry 0 fact is %T, want *otherFact", entries[0].Fact)
	}
}

func TestStoreSharedAcrossPasses(t *testing.T) {
	// The cross-package mechanism: two passes of the same analyzer share
	// one store, so a fact exported while analyzing a dependency is
	// importable from the dependent package's pass.
	store := NewStore()
	obj := testObj("x")
	dep := newTestPass("a", store)
	dep.ExportObjectFact(obj, &testFact{N: 3})

	dependent := newTestPass("a", store)
	var got testFact
	if !dependent.ImportObjectFact(obj, &got) || got.N != 3 {
		t.Errorf("fact did not cross passes: got %v, %d", got, got.N)
	}
}

func TestExportUndeclaredFactTypePanics(t *testing.T) {
	pass := &Pass{
		Analyzer: &Analyzer{Name: "a"}, // no FactTypes
		Facts:    NewStore(),
	}
	defer func() {
		if recover() == nil {
			t.Error("exporting an undeclared fact type did not panic")
		}
	}()
	pass.ExportObjectFact(testObj("x"), &testFact{})
}

func TestNilFactsImportIsFalse(t *testing.T) {
	pass := newTestPass("a", nil)
	var got testFact
	if pass.ImportObjectFact(testObj("x"), &got) {
		t.Error("ImportObjectFact on a nil store returned true")
	}
	// Export lazily creates a pass-local store rather than panicking.
	obj := testObj("y")
	pass.ExportObjectFact(obj, &testFact{N: 2})
	if !pass.ImportObjectFact(obj, &got) || got.N != 2 {
		t.Error("lazily-created store did not round-trip the fact")
	}
}
