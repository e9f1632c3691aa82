package cpu

import "time"

// completionAt reads the host clock where a processor-sharing model must
// read the simulator's: the completion time would differ run to run.
func completionAt(demand time.Duration) time.Time {
	return time.Now().Add(demand) // want `wall-clock time\.Now in sim-time package ctqosim/internal/cpu`
}
