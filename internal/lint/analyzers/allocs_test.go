package analyzers

import (
	"testing"

	"ctqosim/internal/lint/analysistest"
)

// TestAllocs pins hotpath's per-construct classification through fact
// expectations: the fixture has no //lint:hotpath annotation, so it
// asserts the AllocsFact summaries themselves (including the transitive
// and the //lint:allow-suppressed cases).
func TestAllocs(t *testing.T) {
	analysistest.Run(t, "testdata", Hotpath, "allocs/a")
}
