package main

import (
	"sync"
	"time"
)

// The host drifts slowly: neighbours on the shared machine change how
// fast the same code runs by 20-30% over tens of minutes, in CPU time as
// well as wall time. Each experiment is therefore paired with a fixed
// calibration kernel run right after it, and CPU times are scaled to what
// they would be at the kernel's reference speed. The kernel imports
// nothing from the simulator, so a change to the simulator moves the
// scaled figures fully while a change in the host cancels.

const (
	// calibrationEvents is the kernel's fixed amount of work.
	calibrationEvents = 400_000
	// calibrationRef is about the kernel's median CPU time in a fresh
	// process on a 2-vCPU Intel Xeon VM; scaled figures read as if
	// measured at that speed.
	calibrationRef = 90 * time.Millisecond
)

// calJob and calEvent mimic the simulator's hot data: small pointerful
// objects allocated per event and a binary min-heap of timestamped events.
type calJob struct {
	left float64
	id   uint64
	pad  [3]uint64
}

type calEvent struct {
	at  float64
	job *calJob
}

// calSink keeps the kernel's results live so the compiler cannot drop them.
var calSink float64

// hostSpeed runs the calibration kernel on parallel goroutines at once,
// as many as the workload simulates concurrently, and returns the host's
// speed relative to the reference: above 1 when the kernels ran faster
// than calibrationRef each. The caller runs it on a collected heap.
func hostSpeed(parallel int) float64 {
	sums := make([]float64, parallel)
	r0 := processCPU()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = calibrate(calibrationEvents)
		}()
	}
	wg.Wait()
	cpu := processCPU() - r0
	for _, v := range sums {
		calSink += v
	}
	return float64(calibrationRef) * float64(parallel) / float64(cpu)
}

// calibrate is a small discrete-event loop: pop the earliest event, charge
// service to 32 processor-shared jobs, allocate a job and schedule it.
func calibrate(n int) float64 {
	h := make([]calEvent, 0, 256)
	push := func(e calEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() calEvent {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			m := 2*i + 1
			if m >= len(h) {
				break
			}
			if r := m + 1; r < len(h) && h[r].at < h[m].at {
				m = r
			}
			if h[i].at <= h[m].at {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	jobs := make([]*calJob, 32)
	for i := range jobs {
		jobs[i] = &calJob{left: 1}
	}
	for i := 0; i < 200; i++ {
		push(calEvent{at: float64(i), job: &calJob{left: 1}})
	}
	rng := uint64(88172645463325252)
	sum := 0.0
	for i := 0; i < n; i++ {
		e := pop()
		for _, j := range jobs {
			j.left -= 0.001
			sum += j.left
		}
		jobs[i%len(jobs)] = e.job
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		push(calEvent{at: e.at + float64(rng%997)/100, job: &calJob{left: float64(rng%1000) / 1000, id: rng}})
	}
	return sum
}
