//go:build race

package ctqosim

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a quarter of its Puts by design, so the pooled
// exerciser groups allocate and are measured only without -race.
const raceEnabled = true
