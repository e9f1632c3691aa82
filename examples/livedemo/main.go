// Livedemo: the paper's mechanism on real TCP sockets. Two 3-tier systems
// run on localhost — one synchronous (bounded thread pools + queues), one
// asynchronous (small worker pools + lightweight queues) — and receive the
// identical request burst. The synchronous system drops the overflow and
// the dropped requests return one RTO later; the asynchronous system
// absorbs everything.
//
//	go run ./examples/livedemo
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"ctqosim/internal/live"
	"ctqosim/internal/span"
)

const (
	rto      = 500 * time.Millisecond
	burst    = 24
	workers  = 2
	ioLimit  = 30 * time.Second
	service  = 60 * time.Millisecond
	dbSleep  = 30 * time.Millisecond
	appSleep = 20 * time.Millisecond
)

func main() {
	fmt.Printf("burst of %d requests against MaxSysQDepth %d (sync) — RTO %v\n\n",
		burst, workers+workers, rto)

	syncCol := live.NewCollector()
	syncOutcomes, syncDrops := runSystem(true /* sync */, syncCol)
	asyncOutcomes, asyncDrops := runSystem(false, nil)

	fmt.Printf("%-22s %-8s %-10s %-10s %-10s\n",
		"architecture", "drops", "retried", "p50", "max")
	report("synchronous", syncOutcomes, syncDrops)
	report("asynchronous", asyncOutcomes, asyncDrops)

	// The collector turns the wall-clock intervals into span trees: the
	// slowest request decomposes into its retransmission gaps on sight.
	tr := syncCol.Assemble(span.TracerConfig{Seed: 1, TailThreshold: rto})
	if ex := tr.TailExemplars(); len(ex) > 0 {
		fmt.Println("\nslowest synchronous request, span by span:")
		fmt.Print(ex[0].Tree())
	}

	fmt.Println("\nThe synchronous overflow comes back one RTO later — the same")
	fmt.Println("multi-modal latency the paper measures with 3s kernel timers.")
}

// runSystem deploys web→app→db on localhost and fires the burst.
func runSystem(sync bool, col *live.Collector) ([]live.Outcome, int64) {
	topo, err := live.Deploy(live.TopologySpec{
		Sync:      sync,
		Workers:   workers,
		RTO:       rto,
		IOTimeout: ioLimit,
		Collector: col,
	})
	if err != nil {
		log.Fatal(err)
	}
	outcomes := live.RunLoad(topo.Client(10), burst, []time.Duration{service, appSleep, dbSleep})
	if err := topo.Shutdown(); err != nil {
		log.Printf("shutdown: %v", err)
	}
	return outcomes, topo.TotalDrops()
}

func report(name string, outcomes []live.Outcome, drops int64) {
	latencies := make([]time.Duration, 0, len(outcomes))
	retried := 0
	for _, o := range outcomes {
		if o.Err != nil {
			log.Fatalf("%s: request %d failed: %v", name, o.ID, o.Err)
		}
		latencies = append(latencies, o.Latency)
		if o.Attempts > 1 {
			retried++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	maxRT := latencies[len(latencies)-1]
	fmt.Printf("%-22s %-8d %-10d %-10v %-10v\n",
		name, drops, retried,
		p50.Round(time.Millisecond), maxRT.Round(time.Millisecond))
}
