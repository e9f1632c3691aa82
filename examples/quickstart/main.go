// Quickstart: build the paper's synchronous 3-tier system, inject the
// VM-consolidation millibottleneck, and print what happened to the tail.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/ntier"
	"ctqosim/internal/simnet"
)

func main() {
	// An experiment is just a Config. This one: the fully synchronous
	// Apache-Tomcat-MySQL stack (NX=0) under 7000 RUBBoS clients, with
	// SysBursty-MySQL consolidated onto the Tomcat node (the paper's
	// Fig. 2), measured for 30 seconds after a 10-second warm-up.
	cfg := core.Config{
		Name:          "quickstart",
		NX:            ntier.NX0,
		Clients:       7000,
		Duration:      30 * time.Second,
		Consolidation: &core.ConsolidationSpec{Tier: core.TierApp},
		Trace:         true,
	}

	res, err := core.New(cfg).Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(res.Summary())

	// The long tail is multi-modal: most requests answer in milliseconds,
	// the dropped ones return ~3s later after TCP retransmission.
	fmt.Printf("p50 = %v, p99.9 = %v\n",
		res.Recorder.Percentile(0.5).Round(time.Millisecond),
		res.Recorder.Percentile(0.999).Round(time.Millisecond))

	// The micro-level event analysis names the culprit.
	fmt.Println(res.Report)

	// And the Section III arithmetic explains it: the burst outruns
	// MaxSysQDepth(Apache) = threads 150 + backlog 128.
	p := core.PredictOverflow(res.Throughput, 400*time.Millisecond,
		ntier.ApacheThreads+simnet.RHEL6.Backlog)
	fmt.Printf("model: %d arrivals during a 0.4s millibottleneck vs capacity %d -> ~%d drops\n",
		p.Arrivals, p.Capacity, p.Dropped)
}
