package core

import (
	"encoding/json"
	"testing"
	"time"
)

func TestResultJSON(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig3"), 25*time.Second))
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}

	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got.Architecture != "Apache-Tomcat-MySQL" {
		t.Fatalf("architecture = %q", got.Architecture)
	}
	if got.Clients != 7000 || got.Seed != 1 {
		t.Fatalf("config echo wrong: %+v", got)
	}
	if got.ThroughputReqS < 900 || got.ThroughputReqS > 1100 {
		t.Fatalf("throughput = %v", got.ThroughputReqS)
	}
	if got.Requests == 0 || got.VLRT == 0 || got.TotalDrops == 0 {
		t.Fatalf("counters empty: %+v", got)
	}
	if len(got.MeanUtilByTier) != 3 || len(got.PeakQueueByTier) != 3 {
		t.Fatalf("per-tier maps wrong: %+v", got)
	}
	if got.P999Millis < got.P50Millis {
		t.Fatal("percentiles out of order")
	}
	if got.HistogramBinMS != 100 || len(got.HistogramCounts) != 100 {
		t.Fatalf("histogram shape: bin=%d len=%d", got.HistogramBinMS, len(got.HistogramCounts))
	}
	var histTotal int64
	for _, c := range got.HistogramCounts {
		histTotal += c
	}
	histTotal += got.HistogramOverMax
	if histTotal != int64(got.Requests) {
		t.Fatalf("histogram total %d != requests %d", histTotal, got.Requests)
	}
	if got.CTQOEpisodes == 0 || got.CTQODirections["upstream CTQO"] == 0 {
		t.Fatalf("CTQO summary empty: %+v", got)
	}
}

func TestResultJSONWithoutTrace(t *testing.T) {
	cfg := shorten(registered(t, "fig3"), 20*time.Second)
	cfg.Trace = false
	res := mustRun(t, cfg)
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got.CTQOEpisodes != 0 || got.CTQODirections != nil {
		t.Fatalf("traceless run should have empty CTQO summary: %+v", got)
	}
}
