package core

import (
	"math"
	"testing"
	"time"

	"ctqosim/internal/analytic"
	"ctqosim/internal/ntier"
	"ctqosim/internal/workload"
)

// TestSimulationMatchesMVA cross-validates the simulator against exact
// Mean Value Analysis: without millibottlenecks, the closed 3-tier system
// is a product-form network and the simulated throughput and bottleneck
// utilization must match the analytic solution.
func TestSimulationMatchesMVA(t *testing.T) {
	model := analytic.FromMix(workload.DefaultMix(), workload.DefaultThinkTime)

	for _, clients := range []int{4000, 7000} {
		clients := clients
		pred := model.Solve(clients)

		res := mustRun(t, Config{
			Name:     "mva-cross",
			NX:       ntier.NX0,
			Clients:  clients,
			Duration: 30 * time.Second,
		})
		if relErr(res.Throughput, pred.Throughput) > 0.05 {
			t.Errorf("WL %d: simulated X = %.0f, MVA predicts %.0f",
				clients, res.Throughput, pred.Throughput)
		}
		appUtil := res.MeanUtil("steady-tomcat")
		// The simulated "utilization" is the run-queue busy fraction; for
		// a near-M/M/1 station it tracks the analytic utilization.
		if math.Abs(appUtil-pred.Utilizations[1]) > 0.08 {
			t.Errorf("WL %d: simulated app util = %.2f, MVA predicts %.2f",
				clients, appUtil, pred.Utilizations[1])
		}
	}
}

// TestVLRTImpossibleUnderSteadyQueueing ties the analytic argument to the
// measurement: the same run that queueing theory says cannot produce >3s
// responses produces thousands of them via drops.
func TestVLRTImpossibleUnderSteadyQueueing(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig1-wl7000"), 60*time.Second))
	_, util := res.HighestMeanUtil()

	odds := analytic.VLRTOddsUnderQueueing(util, 750*time.Microsecond)
	if odds > 1e-50 {
		t.Fatalf("analytic odds = %v, expected essentially zero", odds)
	}
	if res.VLRTCount == 0 {
		t.Fatal("the simulated system produced no VLRT requests")
	}
	// The measured VLRT fraction is many orders of magnitude above the
	// steady-state queueing prediction — the paper's class-3 argument.
	fraction := float64(res.VLRTCount) / float64(res.Recorder.Len())
	if fraction < 1e6*odds {
		t.Fatalf("measured VLRT fraction %.2g not >> analytic odds %.2g", fraction, odds)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}
