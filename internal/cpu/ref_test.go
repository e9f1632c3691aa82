package cpu

// The reference processor-sharing model: the Node that shipped before
// the allocation-free rewrite, kept verbatim apart from its names (and
// without its accessors) as the differential oracle in diff_test.go. It
// recomputes the water-filling allocation from scratch in every advance
// and reschedule, holds jobs by pointer and scans every job for the next
// completion. Any later change to the model, including virtual-time
// processor sharing, is checked against it.

import (
	"math"
	"time"

	"ctqosim/internal/des"
)

const refDoneEpsilon = 1e-9

type refNode struct {
	sim    *des.Simulator
	name   string
	cores  float64
	policy Policy
	vms    []*refVM

	lastUpdate time.Duration
	completion des.Timer
	onComplete func()
}

func newRefNode(sim *des.Simulator, name string, cores float64) *refNode {
	if cores <= 0 {
		cores = 1
	}
	n := &refNode{sim: sim, name: name, cores: cores, policy: WeightedVM}
	n.onComplete = n.complete
	return n
}

func (n *refNode) SetPolicy(p Policy) {
	n.advance()
	n.policy = p
	n.reschedule()
}

func (n *refNode) AddVM(name string, weight, vcpus float64) *refVM {
	if weight <= 0 {
		weight = 1
	}
	if vcpus <= 0 {
		vcpus = 1
	}
	vm := &refVM{node: n, name: name, weight: weight, vcpus: vcpus}
	n.vms = append(n.vms, vm)
	return vm
}

type refVM struct {
	node   *refNode
	name   string
	weight float64
	vcpus  float64

	jobs    []*refJob
	blocked int

	runnableTime time.Duration
	blockedTime  time.Duration
	cpuSeconds   float64
}

func (v *refVM) Usage() Usage {
	v.node.advance()
	return Usage{
		Runnable:   v.runnableTime,
		Blocked:    v.blockedTime,
		CPUSeconds: v.cpuSeconds,
	}
}

type refJob struct {
	remaining float64
	done      func()
}

func (v *refVM) Submit(demand time.Duration, done func()) {
	v.node.advance()
	j := &refJob{remaining: demand.Seconds(), done: done}
	if j.remaining <= refDoneEpsilon {
		j.remaining = 2 * refDoneEpsilon
	}
	v.jobs = append(v.jobs, j)
	v.node.reschedule()
}

func (v *refVM) Block(d time.Duration) {
	if d <= 0 {
		return
	}
	v.node.advance()
	v.blocked++
	v.node.sim.Schedule(d, func() {
		v.node.advance()
		v.blocked--
		v.node.reschedule()
	})
	v.node.reschedule()
}

func (v *refVM) Stall() {
	v.node.advance()
	v.blocked++
	v.node.reschedule()
}

func (v *refVM) Resume() {
	if v.blocked == 0 {
		return
	}
	v.node.advance()
	v.blocked--
	v.node.reschedule()
}

func (n *refNode) advance() {
	now := n.sim.Now()
	elapsed := (now - n.lastUpdate).Seconds()
	if elapsed <= 0 {
		n.lastUpdate = now
		return
	}
	alloc := n.allocations()
	for i, vm := range n.vms {
		if vm.blocked > 0 {
			vm.blockedTime += now - n.lastUpdate
			continue
		}
		if len(vm.jobs) == 0 {
			continue
		}
		vm.runnableTime += now - n.lastUpdate
		rate := alloc[i] / float64(len(vm.jobs))
		for _, j := range vm.jobs {
			j.remaining -= rate * elapsed
		}
		vm.cpuSeconds += alloc[i] * elapsed
	}
	n.lastUpdate = now
}

func (n *refNode) reschedule() {
	var completed []*refJob
	for _, vm := range n.vms {
		if vm.blocked > 0 {
			continue
		}
		kept := vm.jobs[:0]
		for _, j := range vm.jobs {
			if j.remaining <= refDoneEpsilon {
				completed = append(completed, j)
			} else {
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(vm.jobs); i++ {
			vm.jobs[i] = nil
		}
		vm.jobs = kept
	}

	n.sim.Cancel(n.completion)
	alloc := n.allocations()
	next := -1.0
	for i, vm := range n.vms {
		if vm.blocked > 0 || len(vm.jobs) == 0 || alloc[i] <= 0 {
			continue
		}
		rate := alloc[i] / float64(len(vm.jobs))
		for _, j := range vm.jobs {
			t := j.remaining / rate
			if next < 0 || t < next {
				next = t
			}
		}
	}
	if next >= 0 {
		n.completion = n.sim.Schedule(refDurationFromSeconds(next), n.onComplete)
	}

	for _, j := range completed {
		if j.done != nil {
			j.done()
		}
	}
}

func (n *refNode) complete() {
	n.advance()
	n.reschedule()
}

func (n *refNode) allocations() []float64 {
	alloc := make([]float64, len(n.vms))
	remaining := n.cores
	active := make([]int, 0, len(n.vms))
	for i, vm := range n.vms {
		if vm.blocked == 0 && len(vm.jobs) > 0 {
			active = append(active, i)
		}
	}
	effWeight := func(vm *refVM) float64 {
		if n.policy == JobProportional {
			return vm.weight * float64(len(vm.jobs))
		}
		return vm.weight
	}
	for len(active) > 0 && remaining > 1e-12 {
		var totalWeight float64
		for _, i := range active {
			totalWeight += effWeight(n.vms[i])
		}
		capped := false
		stillActive := active[:0]
		for _, i := range active {
			vm := n.vms[i]
			share := remaining * effWeight(vm) / totalWeight
			if alloc[i]+share >= vm.vcpus {
				capped = true
				alloc[i] = vm.vcpus
			} else {
				stillActive = append(stillActive, i)
			}
		}
		if !capped {
			for _, i := range stillActive {
				vm := n.vms[i]
				alloc[i] += remaining * effWeight(vm) / totalWeight
			}
			break
		}
		used := 0.0
		for i := range n.vms {
			found := false
			for _, a := range stillActive {
				if a == i {
					found = true
					break
				}
			}
			if !found {
				used += alloc[i]
			} else {
				alloc[i] = 0
			}
		}
		remaining = n.cores - used
		active = stillActive
	}
	return alloc
}

func refDurationFromSeconds(s float64) time.Duration {
	if s <= 0 {
		return time.Nanosecond
	}
	return time.Duration(math.Ceil(s * float64(time.Second)))
}
