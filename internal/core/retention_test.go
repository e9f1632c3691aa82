package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/metrics"
)

// TestSweepByteIdentityBothRetentions extends the any-worker-count
// byte-identity contract to both recorder retention modes: sharded sweep
// reports must render identically from one worker and several whether
// requests are retained exactly or aggregated into constant-memory
// telemetry.
func TestSweepByteIdentityBothRetentions(t *testing.T) {
	for _, mode := range []struct {
		name string
		ret  metrics.Retention
	}{
		{"retain-all", metrics.RetainAll},
		{"retain-bounded", metrics.RetainBounded},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := tinySweepConfig()
			cfg.Retention = mode.ret
			sc := SweepConfig{Config: cfg, Seeds: 48, ShardSize: 8}
			type rendering struct {
				csv, js []byte
				text    string
			}
			capture := func(workers int) rendering {
				t.Helper()
				stats, err := NewRunner(workers).Sweep(sc)
				if err != nil {
					t.Fatalf("Sweep(workers=%d): %v", workers, err)
				}
				js, err := stats.JSON()
				if err != nil {
					t.Fatalf("JSON: %v", err)
				}
				return rendering{csv: stats.CSV(), js: js, text: stats.String()}
			}
			serial := capture(1)
			parallel := capture(4)
			if !bytes.Equal(serial.csv, parallel.csv) {
				t.Error("sweep CSV differs between workers=1 and workers=4")
			}
			if !bytes.Equal(serial.js, parallel.js) {
				t.Error("sweep JSON differs between workers=1 and workers=4")
			}
			if serial.text != parallel.text {
				t.Error("sweep text differs between workers=1 and workers=4")
			}
		})
	}
}

// TestBoundedRunMatchesExact runs one scenario in both retention modes
// with the same seed and pins the degradation contract at experiment
// level: everything countable is identical, and percentiles agree within
// the HDR histogram's configured relative error.
func TestBoundedRunMatchesExact(t *testing.T) {
	base := shorten(registered(t, "fig3"), 20*time.Second)
	exact := mustRun(t, base)

	cfg := base
	cfg.Retention = metrics.RetainBounded
	bounded := mustRun(t, cfg)

	if exact.Recorder.Len() != bounded.Recorder.Len() {
		t.Fatalf("Len: exact %d, bounded %d", exact.Recorder.Len(), bounded.Recorder.Len())
	}
	if exact.Throughput != bounded.Throughput {
		t.Fatalf("Throughput: exact %v, bounded %v", exact.Throughput, bounded.Throughput)
	}
	if exact.VLRTCount != bounded.VLRTCount {
		t.Fatalf("VLRTCount: exact %d, bounded %d", exact.VLRTCount, bounded.VLRTCount)
	}
	if exact.Recorder.FailedCount() != bounded.Recorder.FailedCount() {
		t.Fatal("FailedCount diverges")
	}
	if exact.Recorder.Mean() != bounded.Recorder.Mean() {
		t.Fatalf("Mean: exact %v, bounded %v (sums must never degrade)",
			exact.Recorder.Mean(), bounded.Recorder.Mean())
	}
	if exact.TotalDrops != bounded.TotalDrops {
		t.Fatal("TotalDrops diverges (transport stats are retention-independent)")
	}

	maxErr := metrics.NewHDRHistogram(metrics.DefaultHDRExactCap).RelativeError()
	for _, p := range []float64{0.5, 0.99, 0.999} {
		e, b := exact.Recorder.Percentile(p), bounded.Recorder.Percentile(p)
		if e == 0 && b == 0 {
			continue
		}
		relErr := math.Abs(float64(b-e)) / float64(e)
		if relErr > maxErr {
			t.Fatalf("Percentile(%v): exact %v, bounded %v — error %.5f > %.5f",
				p, e, b, relErr, maxErr)
		}
	}

	// The windowed VLRT series is retained at the monitor interval.
	eSeries := exact.VLRTSeries("")
	bSeries := bounded.VLRTSeries("")
	if len(eSeries) != len(bSeries) {
		t.Fatalf("VLRTSeries length: exact %d, bounded %d", len(eSeries), len(bSeries))
	}
	for i := range eSeries {
		if eSeries[i] != bSeries[i] {
			t.Fatalf("VLRTSeries[%d]: exact %d, bounded %d", i, eSeries[i], bSeries[i])
		}
	}
}

// TestSimStatsWiring checks the self-profiling plumbing end to end:
// enabled, the result and its JSON carry the kernel stats; disabled (the
// default), the JSON is byte-free of them so determinism tests are
// unaffected.
func TestSimStatsWiring(t *testing.T) {
	cfg := shorten(Config{Name: "tiny", Clients: 10, WarmUp: time.Second}, 2*time.Second)
	cfg.SimStats = true
	res := mustRun(t, cfg)
	if res.SimStats == nil {
		t.Fatal("SimStats requested but Result.SimStats is nil")
	}
	if res.SimStats.EventsExecuted == 0 || res.SimStats.EventsScheduled == 0 {
		t.Fatalf("kernel counters empty: %+v", res.SimStats)
	}
	if res.SimStats.PeakPending <= 0 {
		t.Fatalf("PeakPending = %d", res.SimStats.PeakPending)
	}
	if res.SimStats.EventsPerSecond <= 0 {
		t.Fatalf("EventsPerSecond = %v", res.SimStats.EventsPerSecond)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !strings.Contains(string(data), `"simStats"`) {
		t.Fatal("summary JSON missing simStats block")
	}
	if !strings.Contains(string(data), `"eventsExecuted"`) {
		t.Fatal("simStats block missing eventsExecuted")
	}

	// Default run: no simStats key anywhere in the JSON.
	cfg.SimStats = false
	plain := mustRun(t, cfg)
	if plain.SimStats != nil {
		t.Fatal("SimStats present without being requested")
	}
	data, err = plain.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if strings.Contains(string(data), "simStats") {
		t.Fatal("default JSON gained a simStats key — breaks byte-identity")
	}
}

// TestEffectiveConfigEchoesRetention pins the JSON echo of the new
// telemetry knobs: bounded runs advertise their retention and HDR
// parameters; default runs' JSON bytes are unchanged.
func TestEffectiveConfigEchoesRetention(t *testing.T) {
	cfg := shorten(Config{Name: "tiny", Clients: 10, WarmUp: time.Second}, 2*time.Second)
	cfg.Retention = metrics.RetainBounded
	res := mustRun(t, cfg)
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	s := string(data)
	for _, want := range []string{`"retention": "bounded"`, `"hdrSigBits"`, `"hdrExactCap"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("bounded-run JSON missing %s:\n%s", want, s)
		}
	}

	plain := mustRun(t, shorten(Config{Name: "tiny", Clients: 10, WarmUp: time.Second}, 2*time.Second))
	data, err = plain.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	for _, banned := range []string{"retention", "hdrSigBits", "traceReservoir", "monitorCap"} {
		if strings.Contains(string(data), banned) {
			t.Fatalf("default JSON gained %q — breaks byte-identity", banned)
		}
	}
}
