// Package trace implements the paper's micro-level event analysis
// (Section IV): millibottleneck intervals are detected from the
// fine-grained resource timelines and correlated with the transport's
// timestamped packet drops into a causal report that classifies each
// episode as upstream or downstream Cross-Tier Queue Overflow and
// attributes the dropped packets.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ctqosim/internal/metrics"
	"ctqosim/internal/simnet"
)

// Bottleneck is a detected millibottleneck: a sub-second (or slightly
// longer) interval during which a VM was saturated or stalled.
type Bottleneck struct {
	// VM names the saturated virtual machine.
	VM string
	// Start and End bound the saturated interval.
	Start, End time.Duration
	// IOWait marks stalls detected from the I/O-wait series rather than
	// the run-queue series.
	IOWait bool
}

// Duration returns the bottleneck length.
func (b Bottleneck) Duration() time.Duration { return b.End - b.Start }

// DetectorConfig tunes millibottleneck detection.
type DetectorConfig struct {
	// Threshold is the saturation level (0..1]; zero defaults to 0.95.
	Threshold float64
	// MinDuration filters out single-sample blips; zero defaults to 100ms.
	MinDuration time.Duration
	// MaxDuration separates millibottlenecks from persistent saturation;
	// zero defaults to 5s.
	MaxDuration time.Duration
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.95
	}
	if c.MinDuration <= 0 {
		c.MinDuration = 100 * time.Millisecond
	}
	if c.MaxDuration <= 0 {
		c.MaxDuration = 5 * time.Second
	}
	return c
}

// DetectBottlenecks scans a utilization (or I/O-wait) series for saturated
// runs that qualify as millibottlenecks.
func DetectBottlenecks(vm string, s *metrics.Series, ioWait bool, cfg DetectorConfig) []Bottleneck {
	cfg = cfg.withDefaults()
	if s == nil || s.Interval <= 0 {
		return nil
	}
	var out []Bottleneck
	runStart := -1
	flush := func(endIdx int) {
		if runStart < 0 {
			return
		}
		b := Bottleneck{
			VM:     vm,
			Start:  time.Duration(runStart) * s.Interval,
			End:    time.Duration(endIdx) * s.Interval,
			IOWait: ioWait,
		}
		if b.Duration() >= cfg.MinDuration && b.Duration() <= cfg.MaxDuration {
			out = append(out, b)
		}
		runStart = -1
	}
	for i, v := range s.Values {
		if v >= cfg.Threshold {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		flush(i)
	}
	flush(len(s.Values))
	return out
}

// Direction classifies a CTQO episode.
type Direction int

// CTQO directions.
const (
	// DirectionNone means the millibottleneck caused no drops.
	DirectionNone Direction = iota
	// DirectionUpstream means a server upstream of the bottleneck dropped
	// packets (the paper's Figs. 3 and 5).
	DirectionUpstream
	// DirectionDownstream means the bottleneck's own tier or a tier below
	// it dropped packets (the paper's Figs. 7–9).
	DirectionDownstream
	// DirectionBoth marks episodes with drops on both sides.
	DirectionBoth
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirectionUpstream:
		return "upstream CTQO"
	case DirectionDownstream:
		return "downstream CTQO"
	case DirectionBoth:
		return "upstream+downstream CTQO"
	case DirectionNone:
		fallthrough
	default:
		return "no CTQO"
	}
}

// Episode correlates one millibottleneck with the drops it caused.
type Episode struct {
	// Bottleneck is the originating millibottleneck.
	Bottleneck Bottleneck
	// Drops counts dropped packets per server within the correlation
	// window.
	Drops map[string]int
	// Direction classifies the episode.
	Direction Direction
}

// Analyzer performs the correlation between bottlenecks and drops.
type Analyzer struct {
	// Tiers lists server names in invocation order (client side first),
	// e.g. ["apache", "tomcat", "mysql"].
	Tiers []string
	// TierOfVM maps each VM name to the tier (server name) it hosts.
	TierOfVM map[string]string
	// Grace extends the correlation window after a bottleneck ends; zero
	// defaults to 500ms. Queue overflow trails the saturation slightly.
	Grace time.Duration
	// Detector tunes bottleneck detection.
	Detector DetectorConfig
}

const defaultGrace = 500 * time.Millisecond

// Analyze detects millibottlenecks on the monitored VMs and correlates
// them with drops, the records a transport keeps under KeepDrops.
func (a *Analyzer) Analyze(mon *metrics.Monitor, vmNames []string, drops []simnet.Drop) *Report {
	var bottlenecks []Bottleneck
	for _, vm := range vmNames {
		bottlenecks = append(bottlenecks,
			DetectBottlenecks(vm, mon.Util(vm), false, a.Detector)...)
		bottlenecks = append(bottlenecks,
			DetectBottlenecks(vm, mon.IOWait(vm), true, a.Detector)...)
	}
	// Stable, so bottlenecks that start together stay in vmNames order.
	sort.SliceStable(bottlenecks, func(i, j int) bool {
		return bottlenecks[i].Start < bottlenecks[j].Start
	})

	grace := a.Grace
	if grace <= 0 {
		grace = defaultGrace
	}
	report := &Report{Tiers: a.Tiers}
	for _, b := range bottlenecks {
		ep := Episode{Bottleneck: b, Drops: make(map[string]int)}
		for _, d := range drops {
			if d.At >= b.Start-grace && d.At <= b.End+grace {
				ep.Drops[d.Server]++
			}
		}
		ep.Direction = a.classify(b, ep.Drops)
		report.Episodes = append(report.Episodes, ep)
	}
	report.TotalDrops = len(drops)
	return report
}

func (a *Analyzer) classify(b Bottleneck, drops map[string]int) Direction {
	if len(drops) == 0 {
		return DirectionNone
	}
	origin := a.tierIndex(a.TierOfVM[b.VM])
	up, down := false, false
	for srv := range drops {
		idx := a.tierIndex(srv)
		if idx < 0 || origin < 0 {
			continue
		}
		if idx < origin {
			up = true
		} else {
			down = true
		}
	}
	switch {
	case up && down:
		return DirectionBoth
	case up:
		return DirectionUpstream
	case down:
		return DirectionDownstream
	default:
		return DirectionNone
	}
}

func (a *Analyzer) tierIndex(name string) int {
	for i, t := range a.Tiers {
		if t == name {
			return i
		}
	}
	return -1
}

// Report is the outcome of the micro-level event analysis.
type Report struct {
	// Tiers echoes the analyzed invocation chain.
	Tiers []string
	// Episodes lists each millibottleneck with its correlated drops.
	Episodes []Episode
	// TotalDrops counts all dropped packets the analysis was given.
	TotalDrops int
}

// CTQOEpisodes returns only episodes that caused drops.
func (r *Report) CTQOEpisodes() []Episode {
	var out []Episode
	for _, e := range r.Episodes {
		if e.Direction != DirectionNone {
			out = append(out, e)
		}
	}
	return out
}

// String renders the causal report in a human-readable form.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invocation chain: %s\n", strings.Join(r.Tiers, " -> "))
	fmt.Fprintf(&b, "millibottleneck episodes: %d, total dropped packets: %d\n",
		len(r.Episodes), r.TotalDrops)
	for i, e := range r.Episodes {
		kind := "CPU"
		if e.Bottleneck.IOWait {
			kind = "I/O"
		}
		fmt.Fprintf(&b, "  [%d] %s millibottleneck in %s at %v (%v): %s",
			i, kind, e.Bottleneck.VM,
			e.Bottleneck.Start.Round(time.Millisecond),
			e.Bottleneck.Duration().Round(time.Millisecond),
			e.Direction)
		if len(e.Drops) > 0 {
			servers := make([]string, 0, len(e.Drops))
			for s := range e.Drops {
				servers = append(servers, s)
			}
			sort.Strings(servers)
			parts := make([]string, 0, len(servers))
			for _, s := range servers {
				parts = append(parts, fmt.Sprintf("%s=%d", s, e.Drops[s]))
			}
			fmt.Fprintf(&b, " (drops: %s)", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
