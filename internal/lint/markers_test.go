package lint_test

import (
	"go/types"
	"reflect"
	"sort"
	"testing"

	"ctqosim/internal/lint/analyzers"
)

// TestLintMarkersParse pins the fields the effects check guards in the
// simulator. TestRunRepoIsClean cannot see a marker that stopped
// parsing: no field would carry a fact, so nothing could be flagged and
// the repo would still lint clean.
func TestLintMarkersParse(t *testing.T) {
	facts, _ := runEffects(t, "ctqosim/internal/core")
	var shared, noCapture []string
	for _, e := range facts.Entries() {
		switch e.Fact.(type) {
		case *analyzers.SharedPtrFact:
			shared = append(shared, fieldName(e.Obj))
		case *analyzers.NoCaptureWriteFact:
			noCapture = append(noCapture, fieldName(e.Obj))
		}
	}
	sort.Strings(shared)
	sort.Strings(noCapture)
	if want := []string{"Config.Consolidation", "Config.GCPause", "Config.Kernel", "Config.LogFlush", "Config.Mix"}; !reflect.DeepEqual(shared, want) {
		t.Errorf("//lint:sharedptr fields = %q, want %q", shared, want)
	}
	if want := []string{"Config.Script", "Config.Tweak"}; !reflect.DeepEqual(noCapture, want) {
		t.Errorf("//lint:nocapturewrite fields = %q, want %q", noCapture, want)
	}
}

// fieldName renders a struct field "Type.Field" after the named struct
// type of its package that declares it, anything else in full.
func fieldName(obj types.Object) string {
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		if st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == obj {
					return name + "." + obj.Name()
				}
			}
		}
	}
	return types.ObjectString(obj, nil)
}
