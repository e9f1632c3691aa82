package analyzers_test

import (
	"testing"

	"ctqosim/internal/lint/analysistest"
	"ctqosim/internal/lint/analyzers"
)

func TestSharedmut(t *testing.T) {
	// Same-package: the violation sits next to the field declaration.
	analysistest.Run(t, "testdata", analyzers.Effects, "sharedmut/conf")
	// Cross-package: the mutation happens three packages below the run
	// site (runsite → mid → leaf → deep) and is visible there only
	// through propagated EffectsFact.Mutates.
	analysistest.Run(t, "testdata", analyzers.Effects, "sharedmut/runsite")
	// The intermediate packages are clean: writing through a plain
	// parameter is the callee's business, not a shared-state violation.
	analysistest.RunExpectClean(t, "testdata", analyzers.Effects,
		"sharedmut/deep", "sharedmut/leaf", "sharedmut/mid")
}
