// Package cpu models physical compute nodes whose cores are shared by
// virtual machines, as in the paper's ESXi consolidation testbed (Fig. 2/13).
//
// A Node has a fixed number of cores. VMs placed on the node receive CPU in
// proportion to their weights (the ESXi "CPU shares"), capped by their vCPU
// count, with any unused share redistributed to the other runnable VMs
// (water-filling). Within a VM, all runnable jobs share the VM's allocation
// equally — generalized processor sharing, the standard fluid approximation
// of a time-slicing scheduler.
//
// This is the substrate on which millibottlenecks arise: when a co-located
// bursty VM becomes runnable, the steady VM's allocation drops and its
// run queue backs up for a sub-second interval, exactly the mechanism in
// Section IV-A of the paper. VMs also support Block, an I/O stall during
// which jobs make no progress (Section IV-B's log-flush millibottleneck).
package cpu

import (
	"fmt"
	"math"
	"time"

	"ctqosim/internal/des"
)

// epsilon below which a job's remaining demand counts as complete, in
// seconds. One nanosecond of CPU demand is far below any modeled quantum.
const doneEpsilon = 1e-9

// Policy selects how a node's cores are divided among its VMs.
type Policy int

// Scheduling policies.
const (
	// WeightedVM divides cores among runnable VMs in proportion to their
	// weights (ESXi-style shares). This is the default.
	WeightedVM Policy = iota + 1
	// JobProportional divides cores in proportion to weight × runnable
	// jobs, modeling thread-proportional time slicing on a consolidated
	// core: a co-tenant that dumps hundreds of runnable threads starves a
	// steady tenant with a handful, effectively stopping it — the
	// millibottleneck behaviour the paper observes during SysBursty's
	// bursts (Section IV-A).
	JobProportional
)

// Node is a physical machine with a fixed core capacity shared by VMs.
type Node struct {
	sim    *des.Simulator
	name   string
	cores  float64
	policy Policy
	vms    []*VM

	lastUpdate time.Duration
	completion des.Timer // the armed next-completion event
	onComplete func()    // n.complete, bound once so re-arming allocates no closure

	// alloc is the allocation in effect, one entry per VM, and key what
	// it was computed from: per VM -1 when blocked or without jobs, else
	// its job count under JobProportional and 0 under WeightedVM. active
	// is the water-filling's scratch list. allocations refills all three.
	alloc  []float64
	key    []int
	active []int
	// finished holds the done callbacks of the jobs one reschedule
	// completes; reschedule takes it for the call, since a callback may
	// submit work and re-enter.
	finished []func()
}

// NewNode creates a node with the given core capacity (1.0 = one core).
func NewNode(sim *des.Simulator, name string, cores float64) *Node {
	if cores <= 0 {
		cores = 1
	}
	n := &Node{sim: sim, name: name, cores: cores, policy: WeightedVM}
	n.onComplete = n.complete
	return n
}

// SetPolicy switches the node's scheduling policy. Call before submitting
// work; switching mid-run applies from the next scheduling event.
func (n *Node) SetPolicy(p Policy) {
	n.advance()
	n.policy = p
	n.reschedule()
}

// PolicyInUse returns the node's current scheduling policy.
func (n *Node) PolicyInUse() Policy { return n.policy }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Cores returns the node's core capacity.
func (n *Node) Cores() float64 { return n.cores }

// AddVM places a VM on the node. Weight is the relative CPU share; vcpus
// caps the cores the VM may use at once.
func (n *Node) AddVM(name string, weight, vcpus float64) *VM {
	if weight <= 0 {
		weight = 1
	}
	if vcpus <= 0 {
		vcpus = 1
	}
	vm := &VM{node: n, name: name, weight: weight, vcpus: vcpus, minRemaining: math.Inf(1)}
	n.vms = append(n.vms, vm)
	n.alloc = append(n.alloc, 0) // a VM without jobs is allocated nothing
	n.key = append(n.key, -1)
	return vm
}

// VM is a virtual machine placed on a Node. Jobs submitted to a VM consume
// simulated CPU time under processor sharing.
type VM struct {
	node   *Node
	name   string
	weight float64
	vcpus  float64

	// The VM's outstanding jobs, oldest first, as two parallel slices:
	// each job's remaining CPU demand in seconds, and its done callback.
	// advance reads and writes only rem.
	rem  []float64
	done []func()

	blocked int // nesting depth of active Block intervals

	// minRemaining is the smallest remaining demand in rem, +Inf when
	// there are none. advance recomputes it in its decrement pass, Submit
	// lowers it and reschedule recomputes it over the jobs it keeps, so it
	// is exact after every operation, blocked or not.
	minRemaining float64

	// Accumulators, updated lazily by node.advance. All are integrals over
	// simulated time and are sampled by the metrics monitor.
	runnableTime time.Duration // time with >=1 runnable job and not blocked
	blockedTime  time.Duration // time spent blocked (I/O wait)
	cpuSeconds   float64       // core-seconds actually consumed
}

// Name returns the VM's name.
func (v *VM) Name() string { return v.name }

// Node returns the node hosting this VM.
func (v *VM) Node() *Node { return v.node }

// ActiveJobs returns the number of jobs currently runnable or blocked on
// the VM.
func (v *VM) ActiveJobs() int { return len(v.rem) }

// Usage is a snapshot of a VM's accumulated CPU accounting.
type Usage struct {
	// Runnable is the total time the VM had at least one runnable job and
	// was not blocked. The ratio of Runnable deltas to wall time is the
	// "utilization" plotted in the paper's timelines: a saturated VM is
	// pinned at 100%.
	Runnable time.Duration
	// Blocked is the total time the VM was stalled on I/O.
	Blocked time.Duration
	// CPUSeconds is the core-seconds of actual CPU consumed.
	CPUSeconds float64
}

// Usage returns the VM's accumulated accounting as of the current simulated
// time.
func (v *VM) Usage() Usage {
	v.node.advance()
	return Usage{
		Runnable:   v.runnableTime,
		Blocked:    v.blockedTime,
		CPUSeconds: v.cpuSeconds,
	}
}

// Submit queues demand seconds of CPU work on the VM; done fires when the
// work completes. Zero or negative demand completes on the next event
// (still asynchronously, never re-entrantly).
//
//lint:hotpath
func (v *VM) Submit(demand time.Duration, done func()) {
	v.node.advance()
	remaining := demand.Seconds()
	if remaining <= doneEpsilon {
		// Keep even zero-demand jobs asynchronous: a sliver of demand makes
		// the completion fire from the event loop, never inside Submit.
		remaining = 2 * doneEpsilon
	}
	v.rem = append(v.rem, remaining) //lint:allow hotpath amortized: the job slices grow to the VM's peak run queue, then are reused
	v.done = append(v.done, done)    //lint:allow hotpath amortized: the job slices grow to the VM's peak run queue, then are reused
	if remaining < v.minRemaining {
		v.minRemaining = remaining
	}
	v.node.reschedule()
}

// Block stalls the VM for d: all of its jobs stop progressing and the time
// is accounted as I/O wait. Overlapping blocks nest; the VM resumes when
// all blocks end.
func (v *VM) Block(d time.Duration) {
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

// Blocked reports whether the VM is currently stalled on I/O.
func (v *VM) Blocked() bool { return v.blocked > 0 }

// Stall blocks the VM indefinitely — the scenario engine's kill_tier: all
// jobs stop progressing until Resume. Stalls nest with Block and with
// each other; each Stall needs its own Resume.
func (v *VM) Stall() {
	v.node.advance()
	v.blocked++
	v.node.reschedule()
}

// Resume ends one Stall. Resuming a VM that is not stalled is a no-op, so
// a restore script cannot drive the nesting depth negative.
func (v *VM) Resume() {
	if v.blocked == 0 {
		return
	}
	v.node.advance()
	v.blocked--
	v.node.reschedule()
}

// advance integrates all job progress and accounting from lastUpdate to the
// current simulated time, using the allocation that has been in effect over
// that interval. Every state change runs advance, then the change, then
// reschedule, so the allocation reschedule last stored is that one. The
// decrement pass also finds each VM's new smallest remaining demand.
//
//lint:hotpath
func (n *Node) advance() {
	now := n.sim.Now()
	elapsed := (now - n.lastUpdate).Seconds()
	if elapsed <= 0 {
		n.lastUpdate = now
		return
	}
	for i, vm := range n.vms {
		if vm.blocked > 0 {
			vm.blockedTime += now - n.lastUpdate
			continue
		}
		rem := vm.rem
		if len(rem) == 0 {
			continue
		}
		vm.runnableTime += now - n.lastUpdate
		rate := n.alloc[i] / float64(len(rem))
		least := math.Inf(1)
		for k := range rem {
			rem[k] -= rate * elapsed
			if rem[k] < least {
				least = rem[k]
			}
		}
		vm.minRemaining = least
		vm.cpuSeconds += n.alloc[i] * elapsed
	}
	n.lastUpdate = now
}

// reschedule completes any finished jobs, stores the new allocation and
// arms the next completion event. Done callbacks run after internal state
// is consistent; they may submit new work re-entrantly. Only a runnable
// VM whose smallest remaining demand is done has jobs to complete, so
// only its jobs are walked.
//
//lint:hotpath
func (n *Node) reschedule() {
	completed := n.finished
	n.finished = nil
	for _, vm := range n.vms {
		if vm.blocked > 0 || vm.minRemaining > doneEpsilon {
			continue
		}
		kept := 0
		least := math.Inf(1)
		for k, r := range vm.rem {
			if r <= doneEpsilon {
				if done := vm.done[k]; done != nil {
					completed = append(completed, done) //lint:allow hotpath amortized: the buffer grows to the most jobs one event completes, then is reused
				}
				continue
			}
			vm.rem[kept], vm.done[kept] = r, vm.done[k]
			kept++
			if r < least {
				least = r
			}
		}
		// Clear the tail so finished jobs' callbacks are collectable.
		clear(vm.done[kept:])
		vm.rem, vm.done = vm.rem[:kept], vm.done[:kept]
		vm.minRemaining = least
	}

	n.sim.Cancel(n.completion)
	n.allocations()
	next := -1.0
	for i, vm := range n.vms {
		if vm.blocked > 0 || len(vm.rem) == 0 || n.alloc[i] <= 0 {
			continue
		}
		// Division by a positive rate is monotone, so the VM's first
		// completion is its smallest remaining demand over the rate.
		t := vm.minRemaining / (n.alloc[i] / float64(len(vm.rem)))
		if next < 0 || t < next {
			next = t
		}
	}
	if next >= 0 {
		n.completion = n.sim.Schedule(durationFromSeconds(next), n.onComplete)
	}

	for _, done := range completed {
		done()
	}
	clear(completed)
	n.finished = completed[:0]
}

// complete is the armed completion event's callback: the earliest job
// has just run out of demand.
//
//lint:hotpath
func (n *Node) complete() {
	n.advance()
	n.reschedule()
}

// effWeight is the VM's share under the node's policy.
func (n *Node) effWeight(vm *VM) float64 {
	if n.policy == JobProportional {
		return vm.weight * float64(len(vm.rem))
	}
	return vm.weight
}

// allocations stores in n.alloc the core allocation per VM: proportional
// to weight among runnable VMs, capped at vcpus, with excess
// redistributed. The allocation depends only on n.key, so the
// water-filling reruns only when the key changes; a policy switch
// changes the key of every runnable VM.
//
//lint:hotpath
func (n *Node) allocations() {
	changed := false
	active := n.active[:0]
	for i, vm := range n.vms {
		key := -1
		if vm.blocked == 0 && len(vm.rem) > 0 {
			active = append(active, i) //lint:allow hotpath amortized: grows to one entry per VM, then is reused
			key = 0
			if n.policy == JobProportional {
				key = len(vm.rem)
			}
		}
		if n.key[i] != key {
			n.key[i] = key
			changed = true
		}
	}
	n.active = active
	if !changed {
		return
	}
	alloc := n.alloc
	clear(alloc)
	remaining := n.cores
	// Water-filling: repeatedly grant proportional shares; VMs that hit
	// their vCPU cap are fixed and their surplus redistributed.
	for len(active) > 0 && remaining > 1e-12 {
		var totalWeight float64
		for _, i := range active {
			totalWeight += n.effWeight(n.vms[i])
		}
		capped := false
		stillActive := active[:0]
		for _, i := range active {
			vm := n.vms[i]
			share := remaining * n.effWeight(vm) / totalWeight
			if alloc[i]+share >= vm.vcpus {
				capped = true
				alloc[i] = vm.vcpus
			} else {
				stillActive = append(stillActive, i) //lint:allow hotpath in place: filters active within its own backing array
			}
		}
		if !capped {
			for _, i := range stillActive {
				vm := n.vms[i]
				alloc[i] += remaining * n.effWeight(vm) / totalWeight
			}
			break
		}
		// Recompute the pool left for uncapped VMs and iterate.
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
}

// maxDelaySeconds is half the time.Duration range, about 146 years:
// further than any completion a modeled demand and share can be.
const maxDelaySeconds = float64(math.MaxInt64/2) / float64(time.Second)

// durationFromSeconds converts to a Duration, rounding up so a positive
// remaining demand always schedules strictly in the future. Truncating here
// could produce a zero-delay completion event that re-fires at the same
// timestamp forever without making progress. A delay beyond
// maxDelaySeconds, +Inf or NaN means a runnable VM's smallest remaining
// demand was lost; converting it would arm the completion in the past,
// where it would fire at the current instant forever, so it panics.
func durationFromSeconds(s float64) time.Duration {
	if s <= 0 {
		return time.Nanosecond
	}
	if !(s < maxDelaySeconds) {
		panic("cpu: next completion is beyond the time.Duration range")
	}
	return time.Duration(math.Ceil(s * float64(time.Second)))
}

// String implements fmt.Stringer for debugging.
func (v *VM) String() string {
	return fmt.Sprintf("vm(%s jobs=%d blocked=%v)", v.name, len(v.rem), v.blocked > 0)
}
