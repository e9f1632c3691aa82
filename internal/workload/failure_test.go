package workload_test

import (
	"testing"
	"time"

	"ctqosim/internal/burst"
	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/server"
	"ctqosim/internal/simnet"
	"ctqosim/internal/workload"
)

// refuseAll is a downstream destination that refuses every packet.
type refuseAll struct{}

func (refuseAll) Name() string                { return "down" }
func (refuseAll) TryAccept(*simnet.Call) bool { return false }

// Every generator records a request as failed when the web tier answers
// it with a failure, not only when the client hop itself gives up. The
// web tier admits every request, and its only stage calls a destination
// that refuses every packet; with one attempt per call that call gives
// up at once, so each request fails behind a delivered client hop.
func TestGeneratorsRecordFailedReplies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(*des.Simulator, workload.Frontend, workload.Sink) error
	}{
		{"Batch", func(sim *des.Simulator, front workload.Frontend, sink workload.Sink) error {
			workload.NewBatch(sim, front, workload.BatchConfig{Size: 3, Interval: time.Second, Sink: sink}).Start()
			return nil
		}},
		{"ClosedLoop", func(sim *des.Simulator, front workload.Frontend, sink workload.Sink) error {
			workload.NewClosedLoop(sim, front, workload.ClosedLoopConfig{
				Clients: 5, ThinkTime: 100 * time.Millisecond, Sink: sink,
			}).Start()
			return nil
		}},
		{"burst.Generator", func(sim *des.Simulator, front workload.Frontend, sink workload.Sink) error {
			process := burst.MMPP2{RateHot: 50, RateCold: 10, HoldHot: time.Second, HoldCold: time.Second}
			g, err := burst.NewGenerator(sim, front, process, nil, sink)
			if err != nil {
				return err
			}
			g.Start()
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.NewSimulator(1)
			tr := simnet.NewTransport(sim)
			tr.MaxAttempts = 1
			down := &server.Downstream{Dest: refuseAll{}}
			web := server.NewSync(sim, cpu.NewNode(sim, "web-node", 1).AddVM("web", 1, 1), tr,
				func(_ any, buf server.Program) server.Program {
					return append(buf, server.Stage{CPU: time.Millisecond, Call: down})
				}, server.SyncConfig{Name: "web", Threads: 100, Backlog: 100})

			var recorded, failed int
			sink := workload.SinkFunc(func(r *workload.Request) {
				recorded++
				if r.Failed {
					failed++
				}
			})
			if err := tc.start(sim, workload.Frontend{Transport: tr, Target: web}, sink); err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(5 * time.Second); err != nil && err != des.ErrHorizon {
				t.Fatalf("Run: %v", err)
			}
			if recorded == 0 {
				t.Fatal("no request recorded")
			}
			if dropped := tr.Stats("web").Dropped; dropped != 0 {
				t.Fatalf("the web tier dropped %d packets; every client hop should be delivered", dropped)
			}
			if st := web.Stats(); st.Completed != 0 || st.Failed < int64(recorded) {
				t.Fatalf("web stats %+v for %d recorded requests, want every one failed", st, recorded)
			}
			if failed != recorded {
				t.Fatalf("%d of %d recorded requests marked failed, want all: the web tier answered each with a failure", failed, recorded)
			}
		})
	}
}
