package cpu

// Differential check of the processor-sharing model against the
// reference copy in ref_test.go. Both sides get the same decoded trace
// of Submit (zero demand included, some jobs submitting a follow-up from
// their done callback), Block, Stall, Resume, SetPolicy, Usage and clock
// advances, each on its own simulator. The completion order, every
// completion time and every Usage reading must match bit for bit, and
// so must the kernel's counters after the drain.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/des"
)

// diffVM is the operation set both models' VMs support.
type diffVM interface {
	Submit(demand time.Duration, done func())
	Block(d time.Duration)
	Stall()
	Resume()
	Usage() Usage
}

// diffSide is one model under test plus what it has observed.
type diffSide struct {
	sim       *des.Simulator
	vms       []diffVM
	setPolicy func(Policy)
	log       []string
	nextID    int
}

// submit queues demand on vm i; a job with a follow-up submits another
// job of the same demand from its done callback, re-entering the node.
func (s *diffSide) submit(i int, demand time.Duration, followUp bool) {
	id := s.nextID
	s.nextID++
	s.vms[i].Submit(demand, func() {
		s.log = append(s.log, fmt.Sprintf("done %d at %d", id, s.sim.Now()))
		if followUp {
			s.submit(i, demand, false)
		}
	})
}

// usage logs vm i's accounting with the CPU seconds as raw bits.
func (s *diffSide) usage(i int) {
	u := s.vms[i].Usage()
	s.log = append(s.log, fmt.Sprintf("usage %d at %d: runnable=%d blocked=%d cpu=%#x",
		i, s.sim.Now(), u.Runnable, u.Blocked, math.Float64bits(u.CPUSeconds)))
}

// diffSetup decodes a node shape: 1-4 VMs with mixed weights and vCPU
// caps, fractional or whole cores, and the starting policy.
func diffSetup(setup uint32) (cores float64, weights, vcpus []float64, policy Policy) {
	cores = []float64{1, 2, 1.5, 4}[setup%4]
	setup /= 4
	policy = WeightedVM
	if setup%2 == 1 {
		policy = JobProportional
	}
	setup /= 2
	n := int(setup%4) + 1
	setup /= 4
	for i := 0; i < n; i++ {
		weights = append(weights, []float64{1, 2, 3, 0.5}[setup%4])
		setup /= 4
		vcpus = append(vcpus, []float64{1, 2, 0.5}[setup%3])
		setup /= 3
	}
	return cores, weights, vcpus, policy
}

func newDiffSides(setup uint32) (got, want *diffSide) {
	cores, weights, vcpus, policy := diffSetup(setup)
	got = &diffSide{sim: des.NewSimulator(1)}
	node := NewNode(got.sim, "n", cores)
	got.setPolicy = node.SetPolicy
	want = &diffSide{sim: des.NewSimulator(1)}
	ref := newRefNode(want.sim, "n", cores)
	want.setPolicy = ref.SetPolicy
	for i := range weights {
		name := fmt.Sprintf("vm%d", i)
		got.vms = append(got.vms, node.AddVM(name, weights[i], vcpus[i]))
		want.vms = append(want.vms, ref.AddVM(name, weights[i], vcpus[i]))
	}
	got.setPolicy(policy)
	want.setPolicy(policy)
	return got, want
}

// applyDiffOp runs one encoded operation on a side. The low three bits
// pick the operation, the rest its VM and argument.
func applyDiffOp(s *diffSide, op uint32) {
	vm := int(op>>3) % len(s.vms)
	arg := op >> 5
	switch op % 8 {
	case 0, 1:
		// Demands of 0-4.9 ms in 100 µs steps, so completions collide.
		s.submit(vm, time.Duration(arg%50)*100*time.Microsecond, arg&64 != 0)
	case 2:
		s.vms[vm].Block(time.Duration(arg%20) * time.Millisecond)
	case 3:
		s.vms[vm].Stall()
	case 4:
		s.vms[vm].Resume()
	case 5:
		s.setPolicy(Policy(arg%2) + WeightedVM)
	case 6:
		s.usage(vm)
	case 7:
		s.sim.Run(s.sim.Now() + time.Duration(arg%40)*time.Millisecond)
	}
}

// runDiff applies the trace to both models, lets them drain, and
// returns both logs. Each log ends with its kernel's counters: the
// model re-arms its completion alarm where the reference cancels its
// completion timer and schedules a fresh one, and the two must count
// the same schedulings, firings and peak of live events, which the
// golden digests print.
func runDiff(setup uint32, ops []uint32) (got, want []string) {
	g, w := newDiffSides(setup)
	for _, side := range []*diffSide{g, w} {
		for _, op := range ops {
			applyDiffOp(side, op)
		}
		side.sim.Run(side.sim.Now() + time.Minute)
		for i := range side.vms {
			side.usage(i)
		}
		side.log = append(side.log, fmt.Sprintf("kernel: scheduled=%d executed=%d peak=%d pending=%d",
			side.sim.Scheduled(), side.sim.Executed(), side.sim.PeakPending(), side.sim.Pending()))
	}
	return g.log, w.log
}

func TestProcessorSharingMatchesReference(t *testing.T) {
	f := func(setup uint32, ops []uint32) bool {
		got, want := runDiff(setup, ops)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestProcessorSharingMatchesReferenceLongTrace drives long traces on
// every node shape the setup word can encode, so saturated nodes with
// dozens of jobs, caps that bind and policy switches mid-run are
// covered whatever quick happens to generate. Every two-VM shape also
// runs fig3's consolidated host (consolidatedOps).
func TestProcessorSharingMatchesReferenceLongTrace(t *testing.T) {
	for setup := uint32(0); setup < 4*2*4*12; setup++ {
		requireSameLog(t, setup, longTraceOps(setup))
		if setup/8%4 == 1 {
			requireSameLog(t, setup, consolidatedOps(setup))
		}
	}
}

// longTraceOps is a 400-operation trace seeded by setup.
func longTraceOps(setup uint32) []uint32 {
	ops := make([]uint32, 400)
	x := setup*2654435761 + 1
	for i := range ops {
		x = xorshift(x)
		ops[i] = x
		if i%5 != 4 && ops[i]%8 == 7 {
			ops[i] &^= 7 // mostly submissions between clock advances
		}
	}
	return ops
}

// consolidatedOps is fig3's consolidated host as a trace: VM 1 takes a
// batch of 240 jobs at once, as SysBursty's batch puts hundreds of
// runnable threads beside the steady tier, and then a batch of 400 equal
// 3 ms demands, bursty-mysql's shape, which finish together, while VM 0
// churns short jobs between blocks, stalls, resumes and clock advances.
// Each of the four rounds lands its batches on whatever the previous
// ones left running.
func consolidatedOps(seed uint32) []uint32 {
	op := func(kind, vm, arg uint32) uint32 { return kind | vm<<3 | arg<<5 }
	var ops []uint32
	x := seed*2654435761 + 1
	for round := 0; round < 4; round++ {
		for i := uint32(0); i < 240; i++ {
			// Demands of 0-4.9 ms, a follow-up from a quarter of them.
			ops = append(ops, op(0, 1, i))
		}
		for i := 0; i < 400; i++ {
			ops = append(ops, op(0, 1, 30))
		}
		for i := 0; i < 120; i++ {
			x = xorshift(x)
			arg := x >> 8
			switch x % 16 {
			case 0:
				ops = append(ops, op(2, (x>>4)%2, arg))
			case 1:
				ops = append(ops, op(3, 0, 0))
			case 2, 3:
				ops = append(ops, op(4, 0, 0))
			case 4:
				ops = append(ops, op(6, (x>>4)%2, 0))
			case 5, 6, 7:
				ops = append(ops, op(7, 0, arg))
			default:
				ops = append(ops, op(0, 0, arg))
			}
		}
	}
	return ops
}

func xorshift(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// requireSameLog runs ops on both models and fails at the first entry
// where their logs differ.
func requireSameLog(t *testing.T, setup uint32, ops []uint32) {
	t.Helper()
	got, want := runDiff(setup, ops)
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			t.Fatalf("setup %d: first difference at entry %d: got %q, want %q", setup, i, got[i], want[min(i, len(want)-1)])
		}
	}
	t.Fatalf("setup %d: got %d entries, want %d", setup, len(got), len(want))
}

// TestSimultaneousFinishesRunInSubmissionOrder submits d+1 ns and then
// d ns at one instant on one VM, over a grid of d from 1 µs to 3 ms,
// alone and beside a job that outlasts the run. Wherever both finish in
// one event, the heap takes the d ns job off first, and the callback of
// the one submitted first must still run first.
func TestSimultaneousFinishesRunInSubmissionOrder(t *testing.T) {
	for _, longer := range []bool{false, true} {
		together := 0
		for d := time.Microsecond; d <= 3*time.Millisecond; d += 1009 * time.Nanosecond {
			sim := des.NewSimulator(1)
			vm := NewNode(sim, "n", 1).AddVM("vm", 1, 1)
			if longer {
				vm.Submit(time.Hour, nil)
			}
			var order []int
			var at [2]time.Duration
			vm.Submit(d+time.Nanosecond, func() { order, at[0] = append(order, 0), sim.Now() })
			vm.Submit(d, func() { order, at[1] = append(order, 1), sim.Now() })
			_ = sim.Run(sim.Now() + time.Second) // the longer job stays pending
			if len(order) != 2 {
				t.Fatalf("d=%v longer=%v: %d of 2 jobs finished", d, longer, len(order))
			}
			if at[0] != at[1] {
				continue
			}
			together++
			if order[0] != 0 {
				t.Fatalf("d=%v longer=%v: both finish at %v, callbacks ran in order %v, want [0 1]",
					d, longer, at[0], order)
			}
		}
		if together == 0 {
			t.Fatalf("longer=%v: no d on the grid finished both jobs in one event", longer)
		}
	}
}

// FuzzProcessorSharingDifferential decodes a setup word and a trace of
// operations from little-endian 32-bit words and runs both models on
// them, as TestProcessorSharingMatchesReference does.
func FuzzProcessorSharingDifferential(f *testing.F) {
	encode := func(setup uint32, ops []uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, setup)
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint32(b, op)
		}
		return b
	}
	f.Add(encode(3, longTraceOps(3)))
	f.Add(encode(13, longTraceOps(13)))
	f.Add(encode(9, consolidatedOps(9)))
	f.Add(encode(47, consolidatedOps(47)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		setup := binary.LittleEndian.Uint32(data)
		ops := make([]uint32, (len(data)-4)/4)
		for i := range ops {
			ops[i] = binary.LittleEndian.Uint32(data[4+4*i:])
		}
		requireSameLog(t, setup, ops)
	})
}
