// Consolidation: the paper's Fig. 2/3 experiment end to end, with ASCII
// timelines of the three panels — CPU utilization, queue depths against
// MaxSysQDepth, and VLRT counts.
//
// The experiment is declared in the embedded fig3 scenario file; pass
// -scenario to run a different scenario document through the same panels.
//
//	go run ./examples/consolidation [-scenario file.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/metrics"
	"ctqosim/internal/scenario"
)

func main() {
	ref := flag.String("scenario", "fig3", "registered scenario or scenario file to run")
	flag.Parse()
	cfg, doc, err := core.ResolveScenario(*ref)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.New(cfg).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Summary())

	// Panel (a): CPU of the consolidated pair. SysBursty-MySQL spikes;
	// each spike pins SysSteady-Tomcat at 100% — a millibottleneck.
	fmt.Println("(a) CPU utilization, one char per second (values 0-9 = 0-100%):")
	printSpark("steady-tomcat ", res.Monitor.Util("steady-tomcat"))
	printSpark("bursty-mysql  ", res.Monitor.Util("bursty-mysql"))

	// Panel (b): queue depths. Apache climbs past its MaxSysQDepth of 278
	// (428 once the spare process spawns) while Tomcat caps at 293 and
	// MySQL at the 50-connection pool.
	fmt.Println("\n(b) queued requests (per-second maxima):")
	for _, tier := range res.System.TierNames() {
		printQueue(tier, res.QueueSeries(tier), res.System)
	}

	// Panel (c): VLRT requests per 50ms window, bucketed by arrival.
	fmt.Println("\n(c) VLRT requests by second of arrival:")
	vlrt := res.VLRTSeries("")
	perSec := make(map[int]int)
	for i, c := range vlrt {
		if c > 0 {
			t := res.Config.WarmUp + time.Duration(i)*res.Config.SampleInterval
			perSec[int(t/time.Second)] += c
		}
	}
	for s := 0; s <= int(res.End/time.Second); s++ {
		if perSec[s] > 0 {
			fmt.Printf("  t=%2ds: %s %d\n", s, strings.Repeat("#", min(perSec[s]/5+1, 60)), perSec[s])
		}
	}

	fmt.Println("\nmicro-level event analysis:")
	fmt.Println(res.Report)

	if len(doc.Assertions) > 0 {
		report := scenario.Evaluate(doc.Assertions, res.Outcome())
		fmt.Println("assertions:")
		fmt.Println(report)
		if !report.Pass() {
			os.Exit(1)
		}
	}
}

// printSpark prints one digit per second: the second's peak utilization in
// tenths.
func printSpark(label string, s *metrics.Series) {
	perSecond := int(time.Second / s.Interval)
	var b strings.Builder
	for i := 0; i+perSecond <= len(s.Values); i += perSecond {
		peak := 0.0
		for _, v := range s.Values[i : i+perSecond] {
			if v > peak {
				peak = v
			}
		}
		d := int(peak * 9.99)
		if d > 9 {
			d = 9
		}
		b.WriteByte(byte('0' + d))
	}
	fmt.Printf("  %s %s\n", label, b.String())
}

// printQueue prints per-second queue maxima with the admission bound.
func printQueue(tier string, s *metrics.Series, sys interface{ TierNames() []string }) {
	perSecond := int(time.Second / s.Interval)
	var vals []int
	for i := 0; i+perSecond <= len(s.Values); i += perSecond {
		peak := 0.0
		for _, v := range s.Values[i : i+perSecond] {
			if v > peak {
				peak = v
			}
		}
		vals = append(vals, int(peak))
	}
	var b strings.Builder
	for _, v := range vals {
		switch {
		case v >= 250:
			b.WriteByte('#')
		case v >= 100:
			b.WriteByte('+')
		case v >= 20:
			b.WriteByte('-')
		default:
			b.WriteByte('.')
		}
	}
	peak := int(s.Max())
	fmt.Printf("  %-14s %s (peak %d)\n", tier, b.String(), peak)
}
