package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// recycledReq is the payload of one request in TestRecycledVisitStartsClean.
type recycledReq struct{ id int }

// flakyDB answers each sub-call 1 ms after admitting it. It refuses the
// first attempt of every odd request's sub-calls, so those retransmit
// and half of the recycled visits and tasks carry a dropped sub-call,
// and it fails the second sub-call of every third request. It counts
// the sub-calls it admits per request.
type flakyDB struct {
	r        *rig
	admitted map[int]int
	refused  int
}

func (d *flakyDB) Name() string { return "db" }

func (d *flakyDB) TryAccept(call *simnet.Call) bool {
	req := call.Payload.(*recycledReq)
	if req.id%2 == 1 && call.Attempts == 1 {
		d.refused++
		return false
	}
	d.admitted[req.id]++
	failedAt := ""
	if req.id%3 == 0 && d.admitted[req.id] == 2 {
		failedAt = "db"
	}
	d.r.sim.Schedule(time.Millisecond, func() { call.Done(failedAt) })
	return true
}

// TestRecycledVisitStartsClean pins the recycling half of DESIGN §9 for
// visits and tasks, as TestRecycledCallStartsClean does for client
// calls: a released visit or task is cleared in place and reused by a
// later request, which must start clean. Forty traced requests, a
// millisecond apart, go through four threads of a sync server and two
// workers of an async one, so each object serves several requests; the
// database behind them drops the first attempt of every other request's
// sub-calls (RTO 5 ms, two attempts) and fails every third request at
// its second call. Every request must make both of its calls and end
// once with its own outcome. After the run, every visit and task on the
// free lists must hold no request, span tree, server, transport,
// program stage or sub-call delivery state: only its bound callbacks
// and its emptied program buffer.
func TestRecycledVisitStartsClean(t *testing.T) {
	for _, arch := range []string{"sync", "async"} {
		t.Run(arch, func(t *testing.T) {
			r := newRig(1)
			r.tr.RTO, r.tr.MaxAttempts = 5*time.Millisecond, 2
			db := &flakyDB{r: r, admitted: make(map[int]int)}
			down := &Downstream{Dest: db}
			plan := func(_ any, buf Program) Program {
				return append(buf,
					Stage{CPU: 300 * time.Microsecond, Call: down},
					Stage{CPU: 200 * time.Microsecond, Call: down},
					Stage{CPU: 100 * time.Microsecond})
			}
			var srv simnet.Admission
			var freeList func() []reflect.Value
			if arch == "sync" {
				s := NewSync(r.sim, r.vm("app"), r.tr, plan, SyncConfig{Name: "app", Threads: 4, Backlog: 100})
				srv = s
				freeList = func() (out []reflect.Value) {
					for v := s.free; v != nil; v = v.next {
						out = append(out, reflect.ValueOf(v).Elem())
					}
					return out
				}
			} else {
				a := NewAsync(r.sim, r.vm("app"), r.tr, plan, AsyncConfig{Name: "app", Workers: 2, LiteQDepth: 100})
				srv = a
				freeList = func() (out []reflect.Value) {
					for k := a.free; k != nil; k = k.next {
						out = append(out, reflect.ValueOf(k).Elem())
					}
					return out
				}
			}

			const requests = 40
			tracer := span.NewTracer(r.sim.Now, span.TracerConfig{})
			outcomes := make([][]string, requests)
			for i := range requests {
				req := &recycledReq{id: i}
				r.sim.Schedule(time.Duration(i)*time.Millisecond, func() {
					call := &simnet.Call{Payload: req, SpanID: span.RootID}
					call.Trace = tracer.StartRequest(uint64(req.id), "c")
					call.Done = func(failedAt string) {
						outcomes[req.id] = append(outcomes[req.id], failedAt)
						tracer.Finish(call.Trace)
					}
					r.tr.Send(srv, call)
				})
			}
			if err := r.sim.Run(time.Minute); err != nil {
				t.Fatalf("Run: %v", err)
			}

			if db.refused == 0 {
				t.Fatal("the database refused no attempt: no recycled object carried a dropped sub-call")
			}
			for id, got := range outcomes {
				want := ""
				if id%3 == 0 {
					want = "db"
				}
				if len(got) != 1 || got[0] != want {
					t.Errorf("request %d ended %q, want once with %q", id, got, want)
				}
				if n := db.admitted[id]; n != 2 {
					t.Errorf("request %d made %d of its 2 calls: its recycled %s skipped stages", id, n, arch)
				}
			}
			free := freeList()
			if len(free) == 0 || len(free) >= requests {
				t.Fatalf("%d objects on the free list for %d requests, want some reused", len(free), requests)
			}
			for i, v := range free {
				requireReleased(t, fmt.Sprintf("free %s object %d", arch, i), v)
			}
		})
	}
}

// requireReleased fails unless the visit or task v holds nothing but what
// release keeps: its bound callbacks (cpuDone, the downcall's send, the
// sub-call's Done and retransmission callback), its free-list link and
// its program buffer, emptied and with every stage cleared. Every other
// field, however deep in the embedded downcall and its sub-call, must be
// zero.
func requireReleased(t *testing.T, what string, v reflect.Value) {
	t.Helper()
	keep := map[string]bool{
		"cpuDone": true, "next": true, "prog": true,
		"downcall.send": true, "downcall.sub.Done": true, "downcall.sub.deliver": true,
	}
	prog := v.FieldByName("prog")
	if prog.Len() != 0 {
		t.Errorf("%s: program holds %d stages", what, prog.Len())
	}
	if !allZero(prog.Slice(0, prog.Cap())) {
		t.Errorf("%s: program buffer holds stages past its length", what)
	}
	var walk func(prefix string, s reflect.Value)
	walk = func(prefix string, s reflect.Value) {
		for i := range s.NumField() {
			f, name := s.Field(i), prefix+s.Type().Field(i).Name
			switch {
			case keep[name]:
			case name == "downcall" || name == "downcall.sub":
				walk(name+".", f)
			case !f.IsZero():
				t.Errorf("%s: %s is not cleared", what, name)
			}
		}
	}
	walk("", v)
}

// allZero reports whether every element of the slice s is zero.
func allZero(s reflect.Value) bool {
	for i := range s.Len() {
		if !s.Index(i).IsZero() {
			return false
		}
	}
	return true
}
