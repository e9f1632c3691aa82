package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ctqosim/internal/core"
)

// The untraced mode runs every experiment in a child process of its own:
// max_rss_mb is then the median peak RSS over processes that each ran
// exactly one experiment of the workload, which is steady where the peak
// of one long process (an extreme value over all its experiments) is not.
// A child spawned through vfork and exec starts its peak RSS from the
// parent's, so the parent runs no simulation itself, the probe included.

// childReport is the one line a child prints: its experiment, timed from
// inside the child, and the mean of the set-ups it timed afterwards.
type childReport struct {
	Requests int64  `json:"requests"`
	Runs     int    `json:"runs"`
	Digest   string `json:"digest"`
	Err      string `json:"err,omitempty"`
	CPU      int64  `json:"cpuNs"`
	Wall     int64  `json:"wallNs"`
	Alloc    uint64 `json:"allocBytes"`
	GCs      uint32 `json:"gcs"`
	Resolve  int64  `json:"resolveNs"`
	Build    int64  `json:"buildNs"`
}

// runChild runs the experiment cfg once and prints its report. With probe
// set it runs cfg as the untimed single-run probe instead.
func runChild(w workload, cfg core.Config, probe bool, stdout io.Writer) error {
	if probe {
		out, _ := w.probe(cfg)
		return json.NewEncoder(stdout).Encode(reportOf(out))
	}
	s, err := experiment(w, cfg, phaseTimed)
	if err != nil {
		return err
	}
	rep := reportOf(s.out)
	rep.CPU, rep.Wall, rep.Alloc, rep.GCs = int64(s.cost.cpu), int64(s.cost.wall), s.cost.alloc, s.cost.gcs
	rep.Resolve, rep.Build = int64(s.resolve), int64(s.build)
	return json.NewEncoder(stdout).Encode(rep)
}

func reportOf(out outcome) childReport {
	rep := childReport{Requests: out.requests, Runs: out.runs, Digest: out.digest}
	if out.err != nil {
		rep.Err = out.err.Error()
	}
	return rep
}

// sampleOf turns a child's report back into a sample.
func sampleOf(seed int64, p phase, rep childReport) sample {
	s := sample{seed: seed, phase: p, out: outcome{runs: rep.Runs, requests: rep.Requests, digest: rep.Digest}}
	if rep.Err != "" {
		s.out.err = errors.New(rep.Err)
	}
	s.cost = cost{cpu: time.Duration(rep.CPU), wall: time.Duration(rep.Wall), alloc: rep.Alloc, gcs: rep.GCs}
	s.resolve, s.build = time.Duration(rep.Resolve), time.Duration(rep.Build)
	return s
}

// spawnLoop runs the probe child, then timed children back to back,
// cycling through the experiment seeds, until budget has elapsed and every
// seed has run twice. After each timed child a calibration child measures
// the host's speed (in a process of its own, so that the kernel's memory
// stays out of the experiment's peak RSS). It returns the samples and the
// timed children's peak RSS in bytes.
func spawnLoop(w workload, seed int64, cfgs []core.Config, budget time.Duration) ([]sample, []float64) {
	var (
		samples []sample
		rss     []float64
	)
	failed := func(s int64, p phase, runs int, err error) sample {
		return sample{seed: s, phase: p, out: outcome{runs: runs, err: err}}
	}
	if out, _, err := spawn(w, seed, "-child=0", "-probe"); err != nil {
		samples = append(samples, failed(cfgs[0].Seed, phaseProbe, 1, err))
	} else {
		var rep childReport
		if err := json.Unmarshal(out, &rep); err != nil {
			samples = append(samples, failed(cfgs[0].Seed, phaseProbe, 1, fmt.Errorf("probe report: %w", err)))
		} else {
			samples = append(samples, sampleOf(cfgs[0].Seed, phaseProbe, rep))
		}
	}
	start := time.Now()
	for i := 0; i < 2*len(cfgs) || time.Since(start) < budget; i++ {
		idx := i % len(cfgs)
		s, maxRSS, err := spawnExperiment(w, seed, idx, cfgs[idx].Seed)
		if err != nil {
			samples = append(samples, failed(cfgs[idx].Seed, phaseTimed, w.simulations(), err))
			continue
		}
		samples = append(samples, s)
		rss = append(rss, float64(maxRSS))
	}
	return samples, rss
}

// spawnExperiment runs timed experiment idx in a child, then the
// calibration kernel in another.
func spawnExperiment(w workload, seed int64, idx int, expSeed int64) (sample, int64, error) {
	out, maxRSS, err := spawn(w, seed, "-child="+strconv.Itoa(idx))
	if err != nil {
		return sample{}, 0, err
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return sample{}, 0, fmt.Errorf("child experiment %d report: %w", idx, err)
	}
	s := sampleOf(expSeed, phaseTimed, rep)
	out, _, err = spawn(w, seed, "-calibrate")
	if err != nil {
		return sample{}, 0, err
	}
	if s.speed, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err != nil {
		return sample{}, 0, fmt.Errorf("calibration report: %w", err)
	}
	return s, maxRSS, nil
}

// spawn runs this binary for the workload and seed with extra flags,
// waits for it, and returns its standard output and peak RSS in bytes.
func spawn(w workload, seed int64, flags ...string) ([]byte, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, fmt.Errorf("locate own binary: %w", err)
	}
	args := append([]string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}, flags...)
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child %v: %w", flags, err)
	}
	var maxRSS int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSS = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	return out.Bytes(), maxRSS, nil
}
