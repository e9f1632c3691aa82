package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Assertion metrics.
const (
	// MetricThroughput checks completed requests per second (number).
	MetricThroughput = "throughput"
	// MetricVLRT checks the count of >3s requests (number).
	MetricVLRT = "vlrt"
	// MetricDrops checks dropped packets, optionally at one server
	// (number bounds and/or observed true/false).
	MetricDrops = "drops"
	// MetricFailed checks requests that never completed (number).
	MetricFailed = "failed"
	// MetricP50, MetricP99, MetricP999 and MetricMaxRT check response-time
	// quantiles (duration bounds).
	MetricP50   = "p50"
	MetricP99   = "p99"
	MetricP999  = "p999"
	MetricMaxRT = "max_rt"
)

// Metrics lists the assertion vocabulary in documentation order.
var Metrics = []string{
	MetricThroughput, MetricVLRT, MetricDrops, MetricFailed,
	MetricP50, MetricP99, MetricP999, MetricMaxRT,
}

// durationMetrics marks the metrics whose bounds are durations.
var durationMetrics = map[string]bool{
	MetricP50: true, MetricP99: true, MetricP999: true, MetricMaxRT: true,
}

// Bound is an assertion limit: a JSON number for count/rate metrics
// ("min": 900) or a duration string for quantile metrics ("max": "2s").
// The zero Bound is absent.
type Bound struct {
	set   bool
	isDur bool
	num   float64
	dur   time.Duration
}

// Number returns a numeric bound.
func Number(v float64) Bound { return Bound{set: true, num: v} }

// DurationBound returns a duration bound.
func DurationBound(d time.Duration) Bound {
	return Bound{set: true, isDur: true, dur: d}
}

// Set reports whether the bound is present.
func (b Bound) Set() bool { return b.set }

// IsZero lets encoding/json's omitzero drop absent bounds.
func (b Bound) IsZero() bool { return !b.set }

// IsDuration reports whether the bound holds a duration.
func (b Bound) IsDuration() bool { return b.isDur }

// Num returns the numeric value (zero for duration bounds).
func (b Bound) Num() float64 { return b.num }

// Dur returns the duration value (zero for numeric bounds).
func (b Bound) Dur() time.Duration { return b.dur }

// String renders the bound the way the file spells it.
func (b Bound) String() string {
	if !b.set {
		return "<unset>"
	}
	if b.isDur {
		return b.dur.String()
	}
	return trimFloat(b.num)
}

// MarshalJSON implements json.Marshaler.
func (b Bound) MarshalJSON() ([]byte, error) {
	if !b.set {
		return []byte("null"), nil
	}
	if b.isDur {
		return json.Marshal(b.dur.String())
	}
	return json.Marshal(b.num)
}

// UnmarshalJSON implements json.Unmarshaler: a number or a duration
// string.
func (b *Bound) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*b = Bound{}
		return nil
	}
	var num float64
	if err := json.Unmarshal(data, &num); err == nil {
		*b = Number(num)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("bound must be a number or a duration string, got %s", data)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration bound %q: %v", s, err)
	}
	*b = DurationBound(d)
	return nil
}

// Assertion is one declarative post-run check.
type Assertion struct {
	// Metric selects the checked quantity; see the Metric constants.
	Metric string `json:"metric"`
	// Min is the inclusive floor (number, or duration string for
	// quantile metrics).
	Min Bound `json:"min,omitzero"`
	// Max is the inclusive ceiling.
	Max Bound `json:"max,omitzero"`
	// Observed, for drops: true asserts at least one drop, false asserts
	// none.
	Observed *bool `json:"observed,omitempty"`
	// Server restricts a drops assertion to one server's drops.
	Server string `json:"server,omitempty"`
}

// validMetrics mirrors Metrics for membership checks.
var validMetrics = func() map[string]bool {
	m := make(map[string]bool, len(Metrics))
	for _, s := range Metrics {
		m[s] = true
	}
	return m
}()

func (a *Assertion) validate() error {
	if !validMetrics[a.Metric] {
		return fmt.Errorf("unknown metric %q (want one of %v)", a.Metric, Metrics)
	}
	if !a.Min.Set() && !a.Max.Set() && a.Observed == nil {
		return fmt.Errorf("metric %q asserts nothing: set min, max or observed", a.Metric)
	}
	wantDur := durationMetrics[a.Metric]
	for _, b := range []struct {
		name string
		b    Bound
	}{{"min", a.Min}, {"max", a.Max}} {
		if !b.b.Set() {
			continue
		}
		if wantDur != b.b.IsDuration() {
			if wantDur {
				return fmt.Errorf("metric %q: %s must be a duration string", a.Metric, b.name)
			}
			return fmt.Errorf("metric %q: %s must be a number", a.Metric, b.name)
		}
	}
	if a.Min.Set() && a.Max.Set() {
		if wantDur && a.Min.Dur() > a.Max.Dur() {
			return fmt.Errorf("metric %q: min %v exceeds max %v", a.Metric, a.Min, a.Max)
		}
		if !wantDur && a.Min.Num() > a.Max.Num() {
			return fmt.Errorf("metric %q: min %v exceeds max %v", a.Metric, a.Min, a.Max)
		}
	}
	if a.Observed != nil && a.Metric != MetricDrops {
		return fmt.Errorf("metric %q: observed applies to drops only", a.Metric)
	}
	if a.Server != "" && a.Metric != MetricDrops {
		return fmt.Errorf("metric %q: server applies to drops only", a.Metric)
	}
	return nil
}

// String renders the assertion in file vocabulary.
func (a Assertion) String() string {
	var b strings.Builder
	b.WriteString(a.Metric)
	if a.Server != "" {
		fmt.Fprintf(&b, "[%s]", a.Server)
	}
	if a.Observed != nil {
		if *a.Observed {
			b.WriteString(" observed")
		} else {
			b.WriteString(" absent")
		}
	}
	if a.Min.Set() {
		fmt.Fprintf(&b, " min=%v", a.Min)
	}
	if a.Max.Set() {
		fmt.Fprintf(&b, " max=%v", a.Max)
	}
	return b.String()
}

// Outcome is the plain snapshot of a finished run that assertions are
// evaluated against; the engine fills it from its recorder.
type Outcome struct {
	// Throughput is completed requests per second over the measured window.
	Throughput float64
	// Requests is the number of completed requests.
	Requests int
	// VLRT is the number of >3s requests.
	VLRT int
	// Failed is the number of requests that never completed.
	Failed int
	// TotalDrops counts dropped packets on all hops.
	TotalDrops int64
	// DropsPerServer breaks TotalDrops down by receiving server.
	DropsPerServer map[string]int64
	// P50, P99, P999 and MaxRT are response-time quantiles.
	P50, P99, P999, MaxRT time.Duration
}

// CheckResult is one assertion's verdict.
type CheckResult struct {
	// Assertion echoes the check.
	Assertion Assertion
	// Pass reports whether the run satisfied it.
	Pass bool
	// Got renders the observed value.
	Got string
}

// Report is the evaluated assertion list, in file order.
type Report struct {
	// Results holds one entry per assertion.
	Results []CheckResult
}

// Pass reports whether every assertion held (vacuously true when the
// document has none).
func (r *Report) Pass() bool {
	for _, res := range r.Results {
		if !res.Pass {
			return false
		}
	}
	return true
}

// Failed counts the assertions that did not hold.
func (r *Report) Failed() int {
	n := 0
	for _, res := range r.Results {
		if !res.Pass {
			n++
		}
	}
	return n
}

// String renders the report, one line per assertion, in file order.
func (r *Report) String() string {
	if len(r.Results) == 0 {
		return "no assertions\n"
	}
	var b strings.Builder
	for _, res := range r.Results {
		mark := "PASS"
		if !res.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "%s  %-40s got %s\n", mark, res.Assertion.String(), res.Got)
	}
	fmt.Fprintf(&b, "%d/%d assertions passed\n", len(r.Results)-r.Failed(), len(r.Results))
	return b.String()
}

// Evaluate checks every assertion against the outcome, in file order.
// It runs inside result comparison, so its verdicts must depend on the
// outcome alone.
//
//lint:pure
func Evaluate(assertions []Assertion, out Outcome) *Report {
	rep := &Report{Results: make([]CheckResult, 0, len(assertions))}
	for _, a := range assertions {
		rep.Results = append(rep.Results, a.check(out))
	}
	return rep
}

func (a Assertion) check(out Outcome) CheckResult {
	if durationMetrics[a.Metric] {
		var got time.Duration
		switch a.Metric {
		case MetricP50:
			got = out.P50
		case MetricP99:
			got = out.P99
		case MetricP999:
			got = out.P999
		case MetricMaxRT:
			fallthrough
		default:
			got = out.MaxRT
		}
		pass := true
		if a.Min.Set() && got < a.Min.Dur() {
			pass = false
		}
		if a.Max.Set() && got > a.Max.Dur() {
			pass = false
		}
		return CheckResult{Assertion: a, Pass: pass, Got: got.String()}
	}

	var got float64
	switch a.Metric {
	case MetricThroughput:
		got = out.Throughput
	case MetricVLRT:
		got = float64(out.VLRT)
	case MetricFailed:
		got = float64(out.Failed)
	case MetricDrops:
		fallthrough
	default:
		if a.Server != "" {
			got = float64(out.DropsPerServer[a.Server])
		} else {
			got = float64(out.TotalDrops)
		}
	}
	pass := true
	if a.Observed != nil {
		if *a.Observed != (got > 0) {
			pass = false
		}
	}
	if a.Min.Set() && got < a.Min.Num() {
		pass = false
	}
	if a.Max.Set() && got > a.Max.Num() {
		pass = false
	}
	return CheckResult{Assertion: a, Pass: pass, Got: trimFloat(got)}
}

// trimFloat renders a float without a trailing ".000000".
func trimFloat(v float64) string {
	//lint:allow maporder exact integer-representability check, not an accumulation compare
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
