package span

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable clock standing in for the simulator.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

func TestTraceTreeAndSelfTimes(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.now, TracerConfig{Seed: 1})

	tc := tr.StartRequest(7, "browse")
	if !tc.Enabled() {
		t.Fatal("trace should be enabled")
	}
	// web: queue 10ms, then service 100ms containing a 60ms downstream.
	clk.at = 5 * time.Millisecond
	q := tc.Start(KindQueueWait, "web", RootID)
	clk.at = 15 * time.Millisecond
	tc.End(q)
	svc := tc.Start(KindService, "web", RootID)
	clk.at = 20 * time.Millisecond
	ds := tc.Start(KindDownstream, "app", svc)
	clk.at = 80 * time.Millisecond
	tc.End(ds)
	clk.at = 115 * time.Millisecond
	tc.End(svc)
	clk.at = 120 * time.Millisecond
	tr.Finish(tc)

	if got := tc.ResponseTime(); got != 120*time.Millisecond {
		t.Fatalf("response time = %v, want 120ms", got)
	}
	if len(tc.Spans()) != 4 {
		t.Fatalf("span count = %d, want 4", len(tc.Spans()))
	}

	// Self times must sum exactly to the response time.
	var sum time.Duration
	byKind := map[Kind]time.Duration{}
	for _, st := range tc.SelfTimes() {
		sum += st.Self
		byKind[st.Kind] += st.Self
	}
	if sum != tc.ResponseTime() {
		t.Fatalf("self times sum to %v, want %v", sum, tc.ResponseTime())
	}
	if byKind[KindQueueWait] != 10*time.Millisecond {
		t.Errorf("queue self = %v, want 10ms", byKind[KindQueueWait])
	}
	if byKind[KindService] != 40*time.Millisecond {
		t.Errorf("service self = %v, want 40ms (100ms minus 60ms downstream)",
			byKind[KindService])
	}
	if byKind[KindDownstream] != 60*time.Millisecond {
		t.Errorf("downstream self = %v, want 60ms", byKind[KindDownstream])
	}

	tree := tc.Tree()
	for _, want := range []string{"request 7", "queue-wait web", "service web", "downstream app"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestNilSafety pins the contract that keeps disabled tracing free:
// every exported method of a nil *Tracer or *Trace can be called without
// panicking, so instrumented code passes nil handles around without
// branching. The loop calls each method in both method sets with
// zero-valued arguments, so a method added later is covered too.
func TestNilSafety(t *testing.T) {
	for _, recv := range []reflect.Value{reflect.ValueOf((*Tracer)(nil)), reflect.ValueOf((*Trace)(nil))} {
		for i := 0; i < recv.NumMethod(); i++ {
			m := recv.Type().Method(i)
			args := make([]reflect.Value, m.Type.NumIn()-1) // In(0) is the receiver
			for j := range args {
				args[j] = reflect.Zero(m.Type.In(j + 1))
			}
			call := recv.Method(i).Call
			if m.Type.IsVariadic() {
				call = recv.Method(i).CallSlice
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("nil %s.%s panicked: %v", recv.Type(), m.Name, r)
					}
				}()
				call(args)
			}()
		}
	}

	var tr *Tracer
	tc := tr.StartRequest(1, "x")
	if tc != nil {
		t.Fatal("nil tracer must hand out nil traces")
	}
	if tc.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	id := tc.Start(KindService, "web", RootID)
	if id != 0 {
		t.Fatalf("nil trace Start = %d, want 0", id)
	}
	tc.End(id)
	tc.Annotate(id, "noop")
	tr.Finish(tc)
	if tr.Breakdown() != nil || tr.TailExemplars() != nil || tr.Reservoir() != nil || tr.Finished() != 0 {
		t.Fatal("nil tracer accessors must return nil")
	}
	if got := tc.Tree(); !strings.Contains(got, "no trace") {
		t.Fatalf("nil trace Tree = %q", got)
	}
}

func TestEndIsIdempotentAndFinishClampsOpenSpans(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.now, TracerConfig{Seed: 1})
	tc := tr.StartRequest(1, "x")
	s := tc.Start(KindService, "web", RootID)
	clk.at = 10 * time.Millisecond
	tc.End(s)
	clk.at = 50 * time.Millisecond
	tc.End(s) // second close must not move the end
	dangling := tc.Start(KindDownstream, "app", s)
	clk.at = 70 * time.Millisecond
	tr.Finish(tc)

	spans := tc.Spans()
	if d := spans[s-1].Duration(); d != 10*time.Millisecond {
		t.Errorf("re-closed span duration = %v, want 10ms", d)
	}
	if d := spans[dangling-1]; d.End != 70*time.Millisecond {
		t.Errorf("dangling span end = %v, want clamped to 70ms", d.End)
	}
}

// TestFinishedTraceGuard: Finish takes the trace, so recording on it
// afterwards is a bug in the caller, and Start, End and Annotate panic
// instead of writing into a trace the tracer may have reopened.
func TestFinishedTraceGuard(t *testing.T) {
	for name, late := range map[string]func(*Trace, ID){
		"Start":    func(tc *Trace, _ ID) { tc.Start(KindService, "web", RootID) },
		"End":      func(tc *Trace, id ID) { tc.End(id) },
		"Annotate": func(tc *Trace, id ID) { tc.Annotate(id, "late") },
	} {
		t.Run(name, func(t *testing.T) {
			clk := &fakeClock{}
			tr := NewTracer(clk.now, TracerConfig{Seed: 1})
			tc := tr.StartRequest(1, "x")
			id := tc.Start(KindDownstream, "app", RootID)
			clk.at = time.Millisecond
			tr.Finish(tc)
			defer func() {
				if r := recover(); r != lateSpan {
					t.Fatalf("%s on a finished trace: recovered %v, want panic %q", name, r, lateSpan)
				}
			}()
			late(tc, id)
		})
	}
}

func TestSamplerTailAndReservoirDeterminism(t *testing.T) {
	run := func(seed int64) ([]uint64, []uint64) {
		clk := &fakeClock{}
		tr := NewTracer(clk.now, TracerConfig{
			Seed: seed, TailThreshold: time.Second, Reservoir: 4,
		})
		base := time.Duration(0)
		for i := 0; i < 100; i++ {
			clk.at = base
			tc := tr.StartRequest(uint64(i), "x")
			rt := 10 * time.Millisecond
			if i%25 == 24 { // four tail requests
				rt = 3*time.Second + time.Duration(i)*time.Millisecond
			}
			clk.at = base + rt
			tr.Finish(tc)
			base += 5 * time.Second
		}
		var tail, res []uint64
		for _, x := range tr.TailExemplars() {
			tail = append(tail, x.RequestID)
		}
		for _, x := range tr.Reservoir() {
			res = append(res, x.RequestID)
		}
		return tail, res
	}

	tail1, res1 := run(42)
	tail2, res2 := run(42)
	if len(tail1) != 4 {
		t.Fatalf("tail exemplars = %d, want 4", len(tail1))
	}
	// Slowest first: request 99 had the largest RT.
	if tail1[0] != 99 {
		t.Errorf("slowest exemplar = %d, want 99", tail1[0])
	}
	if len(res1) != 4 {
		t.Fatalf("reservoir size = %d, want 4", len(res1))
	}
	for i := range tail1 {
		if tail1[i] != tail2[i] {
			t.Fatalf("tail not deterministic: %v vs %v", tail1, tail2)
		}
	}
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Fatalf("reservoir not deterministic: %v vs %v", res1, res2)
		}
	}
}

func TestBreakdownAttributesTailToRetransmits(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.now, TracerConfig{Seed: 1})
	base := time.Duration(0)
	// 990 fast all-service requests, 10 slow ones dominated by two 3s gaps.
	for i := 0; i < 1000; i++ {
		clk.at = base
		tc := tr.StartRequest(uint64(i), "x")
		svc := tc.Start(KindService, "web", RootID)
		if i >= 990 {
			g1 := tc.Start(KindRetransmit, "db", svc)
			clk.at = base + 3*time.Second
			tc.End(g1)
			g2 := tc.Start(KindRetransmit, "db", svc)
			clk.at = base + 6*time.Second
			tc.End(g2)
		}
		clk.at += 20 * time.Millisecond
		tc.End(svc)
		tr.Finish(tc)
		base = clk.at
	}

	b := tr.Breakdown()
	if b == nil || b.Requests != 1000 {
		t.Fatalf("breakdown over %v requests, want 1000", b)
	}
	if b.Deciles[0].Share(KindService) < 0.99 {
		t.Errorf("D1 service share = %v, want ~1", b.Deciles[0].Share(KindService))
	}
	if b.VLRT.Count != 10 {
		t.Fatalf("VLRT count = %d, want 10", b.VLRT.Count)
	}
	if s := b.VLRT.Share(KindRetransmit); s < 0.9 {
		t.Errorf("VLRT retransmit share = %v, want >= 0.9", s)
	}
	if ws := b.P999.WaitShare(); ws < 0.9 {
		t.Errorf("p99.9 wait share = %v, want >= 0.9", ws)
	}
	dbGaps := b.VLRT.ByTierKind[TierKind{Tier: "db", Kind: KindRetransmit}]
	if dbGaps != 10*6*time.Second {
		t.Errorf("db retransmit time = %v, want 60s", dbGaps)
	}
	out := b.String()
	for _, want := range []string{"VLRT>3s", "p99.9", "retran%"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTraceEvents(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.now, TracerConfig{Seed: 1})
	tc := tr.StartRequest(42, "browse")
	svc := tc.Start(KindService, "web", RootID)
	gap := tc.Start(KindRetransmit, "db", svc)
	tc.Annotate(gap, "attempt 1 dropped by db; RTO wait")
	clk.at = 3 * time.Second
	tc.End(gap)
	clk.at = 3*time.Second + 20*time.Millisecond
	tc.End(svc)
	tr.Finish(tc)

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, []*Trace{tc, nil}); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   uint64         `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	var sawRetransmit, sawMeta bool
	for _, ev := range f.TraceEvents {
		if ev.PID != 42 && ev.PID != 0 {
			t.Errorf("pid = %d, want 42", ev.PID)
		}
		if ev.Phase == "M" {
			sawMeta = true
		}
		if ev.Phase == "X" && ev.Name == "retransmit" {
			sawRetransmit = true
			if ev.Dur != 3e6 {
				t.Errorf("retransmit dur = %v µs, want 3e6", ev.Dur)
			}
			if d, _ := ev.Args["detail"].(string); !strings.Contains(d, "dropped by db") {
				t.Errorf("retransmit args = %v, want drop annotation", ev.Args)
			}
		}
	}
	if !sawRetransmit || !sawMeta {
		t.Fatalf("missing events (retransmit=%v meta=%v):\n%s",
			sawRetransmit, sawMeta, buf.String())
	}
}
