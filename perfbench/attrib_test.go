package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"maps"
	"runtime/pprof"
	"slices"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []string
		want   string
	}{
		{"closure frame", []string{
			"runtime.mallocgc",
			"ctqosim/internal/server.(*SyncServer).runStage.func1",
			"ctqosim/internal/cpu.(*Node).complete",
			"ctqosim/internal/des.(*Simulator).Run",
		}, "server"},
		{"innermost layer wins", []string{
			"ctqosim/internal/span.(*Trace).Start",
			"ctqosim/internal/server.(*SyncServer).startOnThread",
			"ctqosim/internal/des.(*Simulator).Run",
		}, "span"},
		{"generic instantiation", []string{
			"ctqosim/internal/des.(*pool[go.shape.*ctqosim/internal/cpu.job]).get",
			"ctqosim/internal/core.(*Experiment).Run",
		}, "des"},
		{"generic from another package", []string{
			"slices.SortFunc[go.shape.[]*ctqosim/internal/cpu.job]",
			"ctqosim/internal/metrics.(*Recorder).Percentile",
		}, "metrics"},
		{"gc worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, "gc"},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"no ctqosim frame", []string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, "runtime"},
		{"core calls no layer", []string{"runtime.makemap", "ctqosim/internal/core.(*Experiment).Run"}, "runtime"},
		{"nested package is no layer", []string{"ctqosim/internal/lint/analysis.Run"}, "runtime"},
		{"empty stack", nil, "runtime"},
	} {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("%s: bucketOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// pbWriter encodes protobuf fields for the hand-built fixtures.
type pbWriter struct{ b []byte }

func (w *pbWriter) uint(num, v uint64) {
	w.b = binary.AppendUvarint(w.b, num<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(num uint64, p []byte) {
	w.b = binary.AppendUvarint(w.b, num<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *pbWriter) packed(num uint64, vs ...uint64) {
	var in pbWriter
	for _, v := range vs {
		in.b = binary.AppendUvarint(in.b, v)
	}
	w.bytes(num, in.b)
}

func (w *pbWriter) msg(num uint64, build func(*pbWriter)) {
	var in pbWriter
	build(&in)
	w.bytes(num, in.b)
}

// fixtureStack is one sample of a hand-built profile: locations leaf
// first, each a list of functions innermost first (more than one means
// the outer function inlined the inner ones).
type fixtureStack struct {
	locs   [][]string
	value  int64
	labels map[string]string
}

// encodeProfile writes stacks as a gzipped pprof protobuf with the value
// types types. Location ids of odd samples are written unpacked, as the
// runtime does for short lists.
func encodeProfile(t *testing.T, types [][2]string, stacks []fixtureStack) []byte {
	t.Helper()
	strs := []string{""}
	index := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		index[s] = uint64(len(strs))
		strs = append(strs, s)
		return index[s]
	}
	var w pbWriter
	for _, vt := range types {
		w.msg(1, func(m *pbWriter) {
			m.uint(1, str(vt[0]))
			m.uint(2, str(vt[1]))
		})
	}
	funcIDs := map[string]uint64{}
	var nextLoc uint64
	for i, st := range stacks {
		var locIDs []uint64
		for _, fns := range st.locs {
			nextLoc++
			id := nextLoc
			locIDs = append(locIDs, id)
			w.msg(4, func(m *pbWriter) {
				m.uint(1, id)
				for _, fn := range fns {
					fid, ok := funcIDs[fn]
					if !ok {
						fid = uint64(len(funcIDs) + 1)
						funcIDs[fn] = fid
						w.msg(5, func(f *pbWriter) {
							f.uint(1, fid)
							f.uint(2, str(fn))
						})
					}
					m.msg(4, func(l *pbWriter) { l.uint(1, fid) })
				}
			})
		}
		labelKeys := make([]string, 0, len(st.labels))
		for k := range st.labels {
			labelKeys = append(labelKeys, k)
		}
		slices.Sort(labelKeys)
		w.msg(2, func(m *pbWriter) {
			if i%2 == 1 {
				for _, id := range locIDs {
					m.uint(1, id)
				}
			} else {
				m.packed(1, locIDs...)
			}
			vals := make([]uint64, len(types))
			for j := range vals {
				vals[j] = uint64(st.value) * uint64(j+1)
			}
			m.packed(2, vals...)
			for _, k := range labelKeys {
				m.msg(3, func(l *pbWriter) {
					l.uint(1, str(k))
					l.uint(2, str(st.labels[k]))
				})
			}
		})
	}
	for _, s := range strs {
		w.bytes(6, []byte(s))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(w.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

var runLabel = map[string]string{"perfbench": "run"}

// cpuFixture covers every CPU bucketing rule; value = the bucket's index
// in a power of ten, so a sum names which samples it contains.
var cpuFixture = []fixtureStack{
	{locs: [][]string{ // closure frame
		{"runtime.mallocgc"},
		{"ctqosim/internal/server.(*SyncServer).runStage.func1"},
		{"ctqosim/internal/cpu.(*Node).complete"},
		{"ctqosim/internal/des.(*Simulator).Run"},
		{"ctqosim/internal/core.(*Experiment).Run"},
	}, value: 1, labels: runLabel},
	{locs: [][]string{ // span.Start inlined into the server frame
		{"ctqosim/internal/span.(*Trace).Start", "ctqosim/internal/server.(*SyncServer).startOnThread"},
		{"ctqosim/internal/des.(*Simulator).Run"},
	}, value: 10, labels: runLabel},
	{locs: [][]string{ // a runtime helper inlined into a layer function
		{"runtime.add", "ctqosim/internal/cpu.(*Node).reschedule"},
		{"ctqosim/internal/des.(*Simulator).Run"},
	}, value: 100, labels: runLabel},
	{locs: [][]string{ // background GC worker: unlabelled, still in scope
		{"runtime.scanobject"},
		{"runtime.gcDrain"},
		{"runtime.gcBgMarkWorker.func2"},
		{"runtime.systemstack"},
		{"runtime.gcBgMarkWorker"},
	}, value: 1000},
	{locs: [][]string{ // in a Run call, no layer frame
		{"runtime.futex"},
		{"runtime.notesleep"},
	}, value: 10000, labels: runLabel},
	{locs: [][]string{ // the benchmark's own code outside Run: out of scope
		{"main.digestOf"},
		{"main.loop"},
	}, value: 100000},
}

func TestCPUAttribution(t *testing.T) {
	data := encodeProfile(t, [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}}, cpuFixture)
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(cpuFixture) {
		t.Fatalf("decoded %d samples, want %d", len(p.samples), len(cpuFixture))
	}
	if got, want := p.samples[1].frames[0], "ctqosim/internal/span.(*Trace).Start"; got != want {
		t.Errorf("inlined location's first frame = %q, want the innermost function %q", got, want)
	}
	col, err := p.valueIndex("cpu/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	by, n, total := charge(p.samples, col, cpuInScope)
	want := map[string]int64{"server": 2, "span": 20, "cpu": 200, "gc": 2000, "runtime": 20000}
	if !maps.Equal(by, want) {
		t.Errorf("buckets = %v, want %v", by, want)
	}
	if n != 5 || total != 22222 {
		t.Errorf("in scope: %d samples totalling %d, want 5 totalling 22222", n, total)
	}
	checkExhaustive(t, by, total)
}

func TestAllocDelta(t *testing.T) {
	types := [][2]string{{"alloc_objects", "count"}, {"alloc_space", "bytes"}}
	inRun := [][]string{
		{"runtime.mallocgc"},
		{"ctqosim/internal/workload.(*ClosedLoop).clientLoop.func1"},
		{"ctqosim/internal/des.(*Simulator).Run"},
		{"ctqosim/internal/core.(*Experiment).Run"},
	}
	coreOnly := [][]string{{"runtime.makemap"}, {"ctqosim/internal/core.(*Experiment).Run"}}
	outside := [][]string{{"runtime.mallocgc"}, {"ctqosim/internal/core.Scenarios"}}
	before := encodeProfile(t, types, []fixtureStack{
		{locs: inRun, value: 5},
		{locs: outside, value: 7},
	})
	after := encodeProfile(t, types, []fixtureStack{
		{locs: outside, value: 9},
		{locs: inRun, value: 50},
		{locs: coreOnly, value: 3},
	})
	bp, err := parseProfile(before)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := parseProfile(after)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := allocDelta(bp, ap)
	if err != nil {
		t.Fatal(err)
	}
	by, _, total := charge(delta, 0, func(stackSample) bool { return true })
	// alloc_space is the second column: twice the fixture value.
	want := map[string]int64{"workload": 2 * (50 - 5), "runtime": 2 * 3}
	if !maps.Equal(by, want) {
		t.Errorf("buckets = %v, want %v (allocations outside Experiment.Run excluded)", by, want)
	}
	checkExhaustive(t, by, total)
}

// TestParseRuntimeProfile decodes a profile the runtime wrote, so the
// decoder is held to the real encoder, not only to the fixtures.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.valueIndex("alloc_space/bytes"); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.samples {
		if len(s.values) != len(p.types) {
			t.Fatalf("sample has %d values for %d types", len(s.values), len(p.types))
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted bytes that are not gzip")
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write([]byte{0x12, 0x05, 0x01}); err != nil { // sample field claims 5 bytes, has 1
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(out.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}

// checkExhaustive requires every charged value to sit in exactly one
// known bucket: the buckets are known names and sum to the total.
func checkExhaustive(t *testing.T, by map[string]int64, total int64) {
	t.Helper()
	known := buckets()
	var sum int64
	for b, v := range by {
		if !slices.Contains(known, b) {
			t.Errorf("unknown bucket %q", b)
		}
		sum += v
	}
	if sum != total {
		t.Errorf("buckets sum to %d, want the in-scope total %d", sum, total)
	}
}
