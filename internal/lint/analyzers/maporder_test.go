package analyzers_test

import (
	"testing"

	"ctqosim/internal/lint/analysistest"
	"ctqosim/internal/lint/analyzers"
)

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Maporder, "maporder")
}

// TestFloatdet pins the float-determinism checks maporder took over
// from floatdet: accumulation and Merge in a map-range body anywhere in
// the module, and == / != between non-constant floats under metrics.
func TestFloatdet(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Maporder,
		"maporder/floatbad", "ctqosim/internal/metrics")
}

func TestFloatdetAllowed(t *testing.T) {
	analysistest.RunExpectClean(t, "testdata", analyzers.Maporder,
		"maporder/floatok", "ctqosim/internal/metrics/floatok")
}
