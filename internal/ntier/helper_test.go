package ntier

import "ctqosim/internal/simnet"

// newCallWithReply builds a payload-less call that flips done when it
// completes.
func newCallWithReply(done *bool) *simnet.Call {
	return &simnet.Call{
		Payload: "not-a-request",
		Done:    func(failedAt string) { *done = failedAt == "" },
	}
}
