package des

import (
	"testing"
	"time"
	"unsafe"
)

// TestPoolChunkFillsSizeClass pins the arithmetic behind poolChunk: a
// chunk of wheel nodes, with the 8-byte header Go adds to a
// pointer-holding object over 512 bytes, fits the 4096-byte size class,
// and one more node would not.
func TestPoolChunkFillsSizeClass(t *testing.T) {
	const class, header = 4096, 8
	size := unsafe.Sizeof(wheelNode{})
	if n := poolChunk * size; n+header > class || n+size+header <= class {
		t.Errorf("%d × %d B chunk does not just fill the %d B size class", poolChunk, size, class)
	}
}

// TestScheduleZeroAllocSteadyState is the dynamic half of the hot-path
// contract for the kernel: once the heap's backing array is warm,
// Schedule+Step allocates nothing. The callback is bound once,
// outside the measured loop — a fresh capturing closure per call would
// allocate at the caller, which is exactly what the hotpath analyzer
// flags there.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	sim := NewSimulator(1)
	n := 0
	bump := func() { n++ }
	for i := 0; i < 64; i++ {
		sim.Schedule(time.Duration(i)*time.Microsecond, bump)
	}
	for sim.Step() {
	}
	allocs := testing.AllocsPerRun(200, func() {
		sim.Schedule(time.Microsecond, bump)
		sim.Step()
	})
	if allocs != 0 {
		t.Errorf("warm Schedule+Step allocates %.1f objects per op, want 0", allocs)
	}
}
