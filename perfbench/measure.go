package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"ctqosim/internal/core"
)

// mib converts bytes to the MB the repository reports (2^20 bytes).
const mib = 1 << 20

// setupsPerRun is how many set-ups are timed, as one block, after each
// simulation. A GC lands in about every other fig3 build, so single
// builds are bimodal (about 2 ms without one, 4-6 ms with one); a block's
// mean amortizes the GC, and the median over the blocks of a run, spread
// over the whole run, averages over the host's slow drift.
const setupsPerRun = 8

// reading is one snapshot of the host costs the benchmark measures.
type reading struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

// cost is the difference of two readings.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
}

// read snapshots process CPU time (user plus system, all threads), the
// wall clock, and the Go heap's cumulative allocation and GC counts.
// Linux with paravirtual steal accounting keeps hypervisor steal out of a
// process's CPU time, which is why throughput is taken per CPU second
// rather than per wall second (see calibrate.go for the rest of the
// host's drift).
func read() reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

func (r reading) to(end reading) cost {
	return cost{
		wall:  end.wall.Sub(r.wall),
		cpu:   end.cpu - r.cpu,
		alloc: end.alloc - r.alloc,
		gcs:   end.gcs - r.gcs,
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSS returns this process's peak resident set size in bytes.
func selfPeakRSS() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// phase says how an experiment ran.
type phase int

const (
	phaseProbe    phase = iota // untimed check run
	phaseTimed                 // timed, profiler off
	phaseProfiled              // timed, profiler on
)

// sample is one experiment and what it cost.
type sample struct {
	seed  int64
	phase phase
	out   outcome
	cost  cost
	// speed is the host's speed relative to the calibration reference,
	// measured right after the experiment (0 for the probe).
	speed float64
	// resolve and build are the mean CPU times of the block of set-ups
	// timed after a profiler-off experiment.
	resolve, build time.Duration
}

// inPhase returns the samples of one phase.
func inPhase(samples []sample, p phase) []sample {
	var out []sample
	for _, s := range samples {
		if s.phase == p {
			out = append(out, s)
		}
	}
	return out
}

// reqPerCPUSecond is the throughput per CPU second as measured.
func (s sample) reqPerCPUSecond() float64 {
	return ratio(float64(s.out.requests), s.cost.cpu.Seconds())
}

// reqPerRefSecond is the throughput per CPU second scaled to the
// calibration reference's host speed.
func (s sample) reqPerRefSecond() float64 { return ratio(s.reqPerCPUSecond(), s.speed) }

// setupRefSeconds is the set-up time, resolve plus build, scaled to the
// calibration reference's host speed.
func (s sample) setupRefSeconds() float64 { return (s.resolve + s.build).Seconds() * s.speed }

// runLabels tag the profiler samples taken inside an experiment's Run or
// Sweep call; goroutines started there (the Runner's workers) inherit them.
var runLabels = pprof.Labels("perfbench", "run")

// loop runs experiments back to back in this process, cycling through
// cfgs, until budget has elapsed and every config has run at least twice.
// With the profiler off, the calibration kernel runs after each
// experiment; with it on, nothing runs between the calls, so that the GC
// workers' samples belong to the experiments.
func loop(w workload, cfgs []core.Config, budget time.Duration, p phase) ([]sample, error) {
	var samples []sample
	start := time.Now()
	for i := 0; i < 2*len(cfgs) || time.Since(start) < budget; i++ {
		s, err := experiment(w, cfgs[i%len(cfgs)], p)
		if err != nil {
			return nil, err
		}
		if p == phaseTimed {
			runtime.GC()
			s.speed = hostSpeed(w.concurrency())
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// experiment runs cfg once and judges it. Only the Run (or Sweep) call is
// inside the timed window; checks, digests and set-up timing are not. In
// the profiled phase the call runs under runLabels for the profiler;
// otherwise a block of setupsPerRun set-ups per simulation is timed
// afterwards, starting from a collected heap as in a fresh process rather
// than from whenever this experiment's garbage happens to be swept.
func experiment(w workload, cfg core.Config, p phase) (sample, error) {
	var o output
	r0 := read()
	if p == phaseProfiled {
		pprof.Do(context.Background(), runLabels, func(context.Context) { o = w.run(cfg) })
	} else {
		o = w.run(cfg)
	}
	s := sample{seed: cfg.Seed, phase: p, cost: r0.to(read())}
	s.out = w.judge(o)
	if p == phaseProfiled {
		return s, nil
	}
	runtime.GC()
	var err error
	s.resolve, s.build, err = setupBlock(w, cfg.Seed, setupsPerRun*s.out.runs)
	return s, err
}

// tally counts experiments and failures over samples, failing any
// experiment whose digest differs from an earlier repetition of its seed.
// It returns the samples that passed.
func tally(samples []sample) (passed []sample, attempted, failed int, problems []string) {
	first := make(map[[2]int64]string) // by first seed and simulations
	for _, s := range samples {
		attempted += s.out.runs
		err := s.out.err
		if err == nil {
			key := [2]int64{s.seed, int64(s.out.runs)}
			if d, ok := first[key]; !ok {
				first[key] = s.out.digest
			} else if d != s.out.digest {
				err = fmt.Errorf("digest changed between repetitions:\n  %s\n  %s", d, s.out.digest)
			}
		}
		if err != nil {
			failed += s.out.runs
			problems = append(problems, fmt.Sprintf("seed %d: %v", s.seed, err))
			continue
		}
		passed = append(passed, s)
	}
	return passed, attempted, failed, problems
}

// setupBlock times n set-ups of seed and returns their mean CPU times. A
// set-up is registry resolution, then a zero-horizon core.New(cfg).Run
// that builds the system, starts the workload and stops at the first
// simulated events: what every experiment pays before it simulates.
func setupBlock(w workload, seed int64, n int) (resolve, build time.Duration, err error) {
	for k := 0; k < n; k++ {
		r0 := read()
		cfg, err := w.resolve(seed)
		r1 := read()
		if err != nil {
			return 0, 0, err
		}
		if _, err := core.New(zeroHorizon(cfg)).Run(); err != nil {
			return 0, 0, fmt.Errorf("zero-horizon build: %w", err)
		}
		r2 := read()
		resolve += r0.to(r1).cpu
		build += r1.to(r2).cpu
	}
	return resolve / time.Duration(n), build / time.Duration(n), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf applies f to each sample and returns the median.
func medianOf(samples []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

// totals sums the costs and requests of samples.
func totals(samples []sample) (c cost, requests int64, runs int) {
	for _, s := range samples {
		c.wall += s.cost.wall
		c.cpu += s.cost.cpu
		c.alloc += s.cost.alloc
		c.gcs += s.cost.gcs
		requests += s.out.requests
		runs += s.out.runs
	}
	return c, requests, runs
}
