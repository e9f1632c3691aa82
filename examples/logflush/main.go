// Logflush: the paper's Fig. 5 experiment — the monitoring tool's own log
// flush stalls MySQL on I/O every 30 seconds, and the queuing chain
// propagates MySQL -> Tomcat -> Apache until Apache drops packets.
//
// The experiment is declared in the embedded fig5 scenario file; pass
// -scenario to run a different scenario document through the same panels.
//
//	go run ./examples/logflush [-scenario file.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/scenario"
)

func main() {
	ref := flag.String("scenario", "fig5", "registered scenario or scenario file to run")
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

	// The I/O wait timeline shows the flush stalls.
	fmt.Println("MySQL I/O-wait peaks (flushes every 30s):")
	io := res.Monitor.IOWait("steady-mysql")
	inStall := false
	for i, v := range io.Values {
		t := time.Duration(i+1) * io.Interval
		if v > 0.9 && !inStall {
			fmt.Printf("  stall begins at t=%v\n", t.Round(50*time.Millisecond))
			inStall = true
		}
		if v < 0.1 {
			inStall = false
		}
	}

	// The cross-tier queue chain of Fig. 5(b): each tier's peak queue hits
	// its bound in turn.
	fmt.Println("\nqueue peaks along the chain:")
	for _, tier := range res.System.TierNames() {
		fmt.Printf("  %-14s peak %3.0f\n", tier, res.QueueSeries(tier).Max())
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
