package analyzers_test

import (
	"testing"

	"ctqosim/internal/lint/analysistest"
	"ctqosim/internal/lint/analyzers"
)

func TestWallclock(t *testing.T) {
	// Flagged and //lint:allow cases inside a sim-time package.
	analysistest.Run(t, "testdata", analyzers.Wallclock, "ctqosim/internal/des")
	// The live harness is outside the sim-time set: identical calls and
	// selects are allowed there.
	analysistest.RunExpectClean(t, "testdata", analyzers.Wallclock, "ctqosim/internal/live")
}

// TestChanselect pins the select check wallclock took over from
// chanselect: multi-case selects inside a sim-time package are flagged;
// a single case with a default and //lint:allow are not.
func TestChanselect(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Wallclock, "ctqosim/internal/simnet")
}
