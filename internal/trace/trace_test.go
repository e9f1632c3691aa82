package trace

import (
	"strings"
	"testing"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/metrics"
	"ctqosim/internal/simnet"
)

// series builds a 50ms-interval utilization series from per-sample values.
func series(vals ...float64) *metrics.Series {
	return &metrics.Series{Interval: 50 * time.Millisecond, Values: vals}
}

func TestDetectBottlenecksBasic(t *testing.T) {
	// 8 samples: saturated in windows 2..5 → a 200ms bottleneck starting
	// at 100ms.
	s := series(0.5, 0.6, 1, 1, 1, 1, 0.4, 0.3)
	got := DetectBottlenecks("vm", s, false, DetectorConfig{})
	if len(got) != 1 {
		t.Fatalf("bottlenecks = %v, want 1", got)
	}
	b := got[0]
	if b.Start != 100*time.Millisecond || b.End != 300*time.Millisecond {
		t.Fatalf("bottleneck = %+v", b)
	}
	if b.Duration() != 200*time.Millisecond {
		t.Fatalf("duration = %v", b.Duration())
	}
}

func TestDetectBottlenecksFiltersShortBlips(t *testing.T) {
	s := series(0.2, 1, 0.2, 0.2) // one saturated sample = 50ms < 100ms min
	if got := DetectBottlenecks("vm", s, false, DetectorConfig{}); len(got) != 0 {
		t.Fatalf("got %v, want none", got)
	}
}

func TestDetectBottlenecksFiltersPersistentSaturation(t *testing.T) {
	vals := make([]float64, 200) // 10s of saturation — a real bottleneck
	for i := range vals {
		vals[i] = 1
	}
	if got := DetectBottlenecks("vm", series(vals...), false, DetectorConfig{}); len(got) != 0 {
		t.Fatalf("got %v, want none (persistent, not milli)", got)
	}
}

func TestDetectBottlenecksRunAtEnd(t *testing.T) {
	s := series(0.2, 0.2, 1, 1, 1)
	got := DetectBottlenecks("vm", s, false, DetectorConfig{})
	if len(got) != 1 || got[0].Start != 100*time.Millisecond {
		t.Fatalf("got %v", got)
	}
}

func TestDetectBottlenecksMultiple(t *testing.T) {
	s := series(1, 1, 1, 0.1, 0.1, 1, 1, 1, 0.1)
	got := DetectBottlenecks("vm", s, false, DetectorConfig{})
	if len(got) != 2 {
		t.Fatalf("got %d bottlenecks, want 2", len(got))
	}
}

func TestDetectBottlenecksNilSeries(t *testing.T) {
	if got := DetectBottlenecks("vm", nil, false, DetectorConfig{}); got != nil {
		t.Fatalf("got %v, want nil", got)
	}
}

func buildAnalyzer() *Analyzer {
	return &Analyzer{
		Tiers: []string{"apache", "tomcat", "mysql"},
		TierOfVM: map[string]string{
			"apache-vm": "apache",
			"tomcat-vm": "tomcat",
			"mysql-vm":  "mysql",
		},
	}
}

func TestAnalyzerClassifiesUpstream(t *testing.T) {
	a := buildAnalyzer()

	// Drops at apache (tier 0) while tomcat-vm (tier 1) is bottlenecked:
	// upstream CTQO, the Fig. 3 signature.
	drops := []simnet.Drop{
		{At: 600 * time.Millisecond, Server: "apache"},
		{At: 600 * time.Millisecond, Server: "apache"},
	}
	mon := handMonitor(map[string][]float64{
		"tomcat-vm": {0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7,
			1, 1, 1, 1, 1, 1, 0.7, 0.7, 0.7, 0.7},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, drops)
	eps := report.CTQOEpisodes()
	if len(eps) != 1 {
		t.Fatalf("CTQO episodes = %d, want 1\n%s", len(eps), report)
	}
	if eps[0].Direction != DirectionUpstream {
		t.Fatalf("direction = %v, want upstream", eps[0].Direction)
	}
	if eps[0].Drops["apache"] != 2 {
		t.Fatalf("drops = %v", eps[0].Drops)
	}
}

func TestAnalyzerClassifiesDownstream(t *testing.T) {
	a := buildAnalyzer()

	// Drops at mysql (tier 2) while tomcat-vm is bottlenecked: the Fig. 9
	// batch-release signature.
	drops := []simnet.Drop{{At: 600 * time.Millisecond, Server: "mysql"}}
	mon := handMonitor(map[string][]float64{
		"tomcat-vm": {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
			1, 1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, drops)
	eps := report.CTQOEpisodes()
	if len(eps) != 1 || eps[0].Direction != DirectionDownstream {
		t.Fatalf("report:\n%s", report)
	}
}

func TestAnalyzerNoDropsMeansNoCTQO(t *testing.T) {
	a := buildAnalyzer()
	mon := handMonitor(map[string][]float64{
		"tomcat-vm": {1, 1, 1, 1, 1, 0.2, 0.2, 0.2},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, nil)
	if len(report.Episodes) != 1 {
		t.Fatalf("episodes = %d, want 1", len(report.Episodes))
	}
	if report.Episodes[0].Direction != DirectionNone {
		t.Fatalf("direction = %v, want none", report.Episodes[0].Direction)
	}
	if len(report.CTQOEpisodes()) != 0 {
		t.Fatal("no-drop episode reported as CTQO")
	}
}

func TestAnalyzerDropOutsideWindowIgnored(t *testing.T) {
	a := buildAnalyzer()
	a.Grace = 100 * time.Millisecond

	// Bottleneck spans [0, 250ms]; drop at 3s is unrelated.
	drops := []simnet.Drop{{At: 3 * time.Second, Server: "apache"}}
	mon := handMonitor(map[string][]float64{
		"tomcat-vm": {1, 1, 1, 1, 1, 0.1, 0.1},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, drops)
	if report.Episodes[0].Direction != DirectionNone {
		t.Fatalf("unrelated drop correlated:\n%s", report)
	}
	if report.TotalDrops != 1 {
		t.Fatalf("TotalDrops = %d, want 1", report.TotalDrops)
	}
}

// TestAnalyzerTiesKeepVMOrder pins the episode order when
// millibottlenecks start together: they are listed in vmNames order,
// however many episodes the report has. Fifteen episodes is past the
// twelve elements up to which an unstable sort happens to keep ties.
func TestAnalyzerTiesKeepVMOrder(t *testing.T) {
	a := buildAnalyzer()
	// Every VM saturates for 100 ms at the start of each 300 ms period.
	var vals []float64
	for i := 0; i < 5; i++ {
		vals = append(vals, 1, 1, 0.1, 0.1, 0.1, 0.1)
	}
	vms := []string{"apache-vm", "tomcat-vm", "mysql-vm"}
	mon := handMonitor(map[string][]float64{"apache-vm": vals, "tomcat-vm": vals, "mysql-vm": vals})
	report := a.Analyze(mon, vms, nil)
	if len(report.Episodes) != 15 {
		t.Fatalf("episodes = %d, want 15\n%s", len(report.Episodes), report)
	}
	for i, ep := range report.Episodes {
		b, start := ep.Bottleneck, time.Duration(i/3)*300*time.Millisecond
		if b.VM != vms[i%3] || b.Start != start {
			t.Fatalf("episode %d is %s at %v, want %s at %v\n%s", i, b.VM, b.Start, vms[i%3], start, report)
		}
	}
}

func TestReportString(t *testing.T) {
	a := buildAnalyzer()
	mon := handMonitor(map[string][]float64{
		"tomcat-vm": {1, 1, 1, 1, 0.1},
	})
	drops := []simnet.Drop{{At: 100 * time.Millisecond, Server: "apache"}}
	s := a.Analyze(mon, []string{"tomcat-vm"}, drops).String()
	for _, want := range []string{"apache -> tomcat -> mysql", "upstream CTQO", "drops: apache=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestDirectionString(t *testing.T) {
	tests := []struct {
		d    Direction
		want string
	}{
		{DirectionNone, "no CTQO"},
		{DirectionUpstream, "upstream CTQO"},
		{DirectionDownstream, "downstream CTQO"},
		{DirectionBoth, "upstream+downstream CTQO"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

// handMonitor builds a Monitor carrying pre-computed utilization series,
// plus empty I/O-wait series so the analyzer has both to scan.
func handMonitor(utils map[string][]float64) *metrics.Monitor {
	mon := metrics.NewMonitor(des.NewSimulator(1), 50*time.Millisecond)
	for name, vals := range utils {
		mon.SetUtil(name, series(vals...))
		mon.SetIOWait(name, series())
	}
	return mon
}
