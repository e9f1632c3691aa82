package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"ctqosim/internal/core"
)

// Layer attribution for the traced mode. The DES kernel, not the
// benchmark, calls into the model layers, so the layers are measured from
// outside: every CPU sample and every sampled allocation is charged to
// the innermost stack frame that belongs to one of the layer packages.

// layers are the ctqosim/internal packages host cost is split across.
var layers = []string{"des", "cpu", "simnet", "server", "workload", "ntier", "metrics", "trace", "span"}

const (
	layerPrefix = "ctqosim/internal/"
	// bucketGC holds the samples of the runtime's background GC workers.
	bucketGC = "gc"
	// bucketRuntime holds everything without a layer frame: the
	// scheduler, and core's own code when it calls no layer.
	bucketRuntime = "runtime"
	// runFrame marks an allocation made inside an experiment.
	runFrame = "ctqosim/internal/core.(*Experiment).Run"
	// tracedMemProfileRate samples one allocation per 32 KiB in the traced
	// phase (the runtime default is 512 KiB): tens of thousands of samples
	// per fig3 run, so the per-layer byte split is exact to well under 1%.
	tracedMemProfileRate = 32 << 10
)

// gcWorkers are the entry functions of the runtime's background GC
// goroutines (and the pseudo-frame the profiler uses for GC it could not
// unwind).
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC"}

// buckets lists every CPU bucket in report order.
func buckets() []string {
	return append(slices.Clone(layers), bucketGC, bucketRuntime)
}

// layerOf returns the layer a function belongs to, or "" for any function
// outside the layer packages. fn is a runtime function name such as
// "ctqosim/internal/server.(*SyncServer).runStage.func1".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if slices.Contains(layers, pkg) {
		return pkg
	}
	return ""
}

func isGCWorker(fn string) bool {
	for _, root := range gcWorkers {
		if fn == root || strings.HasPrefix(fn, root+".func") {
			return true
		}
	}
	return false
}

// bucketOf returns the bucket one stack (frames leaf first) is charged to:
// its innermost layer frame, else gc for a GC worker, else runtime.
func bucketOf(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	if slices.ContainsFunc(frames, isGCWorker) {
		return bucketGC
	}
	return bucketRuntime
}

// charge sums one value column of the samples keep selects into buckets,
// and returns the buckets with the number and total of the kept samples.
func charge(samples []stackSample, column int, keep func(stackSample) bool) (by map[string]int64, n int, total int64) {
	by = make(map[string]int64)
	for _, s := range samples {
		if !keep(s) {
			continue
		}
		by[bucketOf(s.frames)] += s.values[column]
		n++
		total += s.values[column]
	}
	return by, n, total
}

// cpuInScope keeps the samples taken inside a Run or Sweep call (they
// carry runLabels) and those of the background GC workers, which carry no
// labels.
func cpuInScope(s stackSample) bool {
	return s.labels["perfbench"] == "run" || slices.ContainsFunc(s.frames, isGCWorker)
}

// allocDelta returns the allocation samples of after that are not in
// before: the same stacks with their allocated bytes differenced, keeping
// only allocations made inside Experiment.Run.
func allocDelta(before, after *profile) ([]stackSample, error) {
	bi, err := before.valueIndex("alloc_space/bytes")
	if err != nil {
		return nil, err
	}
	ai, err := after.valueIndex("alloc_space/bytes")
	if err != nil {
		return nil, err
	}
	prior := make(map[string]int64, len(before.samples))
	for _, s := range before.samples {
		prior[strings.Join(s.frames, "\n")] += s.values[bi]
	}
	var out []stackSample
	for _, s := range after.samples {
		if !slices.Contains(s.frames, runFrame) {
			continue
		}
		d := s.values[ai] - prior[strings.Join(s.frames, "\n")]
		if d > 0 {
			out = append(out, stackSample{frames: s.frames, values: []int64{d}})
		}
	}
	return out, nil
}

// attribution is the traced phase's split of host cost by bucket.
type attribution struct {
	cpuNS   map[string]int64 // CPU nanoseconds per bucket
	samples int              // CPU samples in scope
	allocB  map[string]int64 // bytes allocated inside Run per bucket
}

// profiled runs the loop like the untraced phase, with the CPU profiler on
// and allocation sampling at tracedMemProfileRate, and attributes the
// profiles. Allocation records are cumulative, so the phase's bytes are
// the difference of snapshots taken (after a GC publishes them) on both
// sides.
func profiled(w workload, cfgs []core.Config, budget time.Duration) ([]sample, attribution, error) {
	runtime.MemProfileRate = tracedMemProfileRate
	runtime.GC()
	before, err := allocsProfile()
	if err != nil {
		return nil, attribution{}, err
	}
	var cpuOut bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuOut); err != nil {
		return nil, attribution{}, fmt.Errorf("start CPU profile: %w", err)
	}
	samples, err := loop(w, cfgs, budget, phaseProfiled)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, attribution{}, err
	}
	runtime.GC()
	after, err := allocsProfile()
	if err != nil {
		return nil, attribution{}, err
	}
	cpuProf, err := parseProfile(cpuOut.Bytes())
	if err != nil {
		return nil, attribution{}, err
	}
	col, err := cpuProf.valueIndex("cpu/nanoseconds")
	if err != nil {
		return nil, attribution{}, err
	}
	var a attribution
	a.cpuNS, a.samples, _ = charge(cpuProf.samples, col, cpuInScope)
	allocs, err := allocDelta(before, after)
	if err != nil {
		return nil, attribution{}, err
	}
	a.allocB, _, _ = charge(allocs, 0, func(stackSample) bool { return true })
	return samples, a, nil
}

func allocsProfile() (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return parseProfile(buf.Bytes())
}
