package ctqosim

// TestHotpathAllocsAgree is the cross-check at the heart of DESIGN.md §12:
// the static verdict (ctqo-lint's hotpath analyzer proves every
// //lint:hotpath function allocation-free, given the //lint:allow
// measurement boundaries) must agree with the dynamic one
// (testing.AllocsPerRun measures zero allocations per steady-state
// operation). The test scans the kernel and request-path packages for
// //lint:hotpath annotations, requires every annotated function to appear in the
// exerciser table below, re-runs the performance analyzers over those
// packages to pin the static half, and then drives each exerciser group
// through a warmed steady state asserting zero allocations per run.
//
// Exercisers are shared across annotations: one event-loop drive covers
// the whole des kernel (Schedule reaches take, Step reaches release and
// tombstone, heap operations reach the heap4 methods), one clean
// delivery and one retransmission drive cover the simnet path, the nil
// tracer covers the span path, a warmed bounded Recorder covers the
// metrics path, a two-VM churn covers processor sharing, and two warmed
// web→app→db chains cover the request path: one of sync servers, driven
// once by reused calls and once by a closed loop, and one of async
// servers, driven by reused calls. Two give-up drives fail every request
// at a destination that refuses every packet, behind a sync app and
// behind an async one, so the failure end of the request path is
// measured too. A retransmission drive runs a closed loop through a
// sync web, an async app and a sync database, every hop dropping each
// call once, so pooled calls retransmit after every reuse, and an
// open-loop drive sends batches of requests into the sync chain. Every
// group is measured with and without the race detector. That holds
// because server visits, async tasks and client calls are recycled
// through free lists their owners keep: a sync.Pool drops a quarter of
// its Puts under the race detector. The table keys make the coverage
// explicit so adding a //lint:hotpath annotation without deciding how
// to measure it fails this test.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/lint"
	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/analyzers"
	"ctqosim/internal/lint/loader"
	"ctqosim/internal/metrics"
	"ctqosim/internal/ntier"
	"ctqosim/internal/server"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
	"ctqosim/internal/workload"
)

// hotpathKernelDirs are the packages whose //lint:hotpath annotations the
// contract covers: the DES kernel, the simnet delivery path, the HDR
// record path, the disabled-tracer path, processor sharing, the sync
// server's visits, the async server's tasks and the closed loop's call
// recycling.
var hotpathKernelDirs = []string{
	"internal/des",
	"internal/simnet",
	"internal/span",
	"internal/metrics",
	"internal/cpu",
	"internal/server",
	"internal/workload",
}

// hotpathExercisers maps every annotated function (package.Receiver.Name
// or package.Name) to the exerciser group that drives it dynamically.
var hotpathExercisers = map[string]string{
	// DES kernel: Schedule/Run with a bound callback drive the whole
	// pooled near-term scheduling loop (heap sifts, settle, fire); far
	// 5 ms/3 s/30 s/20 min schedules drive the timer-wheel path through
	// placement, promotion, cascade and the node pool; cancels leave
	// tombstones for settle and promote to reclaim.
	"des.Simulator.Schedule":   "des-event-loop",
	"des.Simulator.ScheduleAt": "des-event-loop",
	"des.Simulator.take":       "des-event-loop",
	"des.Simulator.release":    "des-event-loop",
	"des.Simulator.settle":     "des-event-loop",
	"des.Simulator.fire":       "des-event-loop",
	"des.Simulator.Step":       "des-event-loop",
	"des.Simulator.Run":        "des-event-loop",
	"des.Simulator.Cancel":     "des-cancel",
	"des.event.tombstone":      "des-cancel",
	"des.heapNode.before":      "des-event-loop",
	"des.heap4.push":           "des-event-loop",
	"des.heap4.pop":            "des-event-loop",
	"des.heap4.siftDown":       "des-event-loop",
	"des.wheel.resident":       "des-wheel",
	"des.wheel.takeNode":       "des-wheel",
	"des.wheel.putNode":        "des-wheel",
	"des.wheel.place":          "des-wheel",
	"des.wheel.promote":        "des-wheel",
	"des.wheel.cascades":       "des-wheel",
	"des.wheel.spill":          "des-wheel",

	// simnet: a clean delivery covers Send/hop; a dropped-then-delivered
	// call covers the retransmission machinery.
	"simnet.Transport.Send":        "simnet-clean-delivery",
	"simnet.Call.deliverer":        "simnet-retransmission",
	"simnet.Transport.hop":         "simnet-clean-delivery",
	"simnet.Transport.rto":         "simnet-retransmission",
	"simnet.Transport.maxAttempts": "simnet-retransmission",
	"simnet.Transport.timeout":     "simnet-retransmission",

	// span: the contract prices the disabled-tracer path, which is the
	// one instrumented code pays when tracing is off.
	"span.Trace.Enabled":       "span-disabled-tracer",
	"span.Trace.Start":         "span-disabled-tracer",
	"span.Trace.End":           "span-disabled-tracer",
	"span.Trace.Annotate":      "span-disabled-tracer",
	"span.Tracer.StartRequest": "span-disabled-tracer",
	"span.Tracer.Finish":       "span-disabled-tracer",

	// metrics: a spilled HDR histogram and a warmed bounded Recorder.
	"metrics.HDRHistogram.Observe":   "metrics-hdr-record",
	"metrics.HDRHistogram.ObserveN":  "metrics-hdr-record",
	"metrics.HDRHistogram.bucketIdx": "metrics-hdr-record",
	"metrics.Recorder.Record":        "metrics-bounded-record",

	// cpu: jobs submitted to and completed on two VMs sharing a node.
	"cpu.VM.Submit":        "cpu-churn",
	"cpu.Node.advance":     "cpu-churn",
	"cpu.Node.reschedule":  "cpu-churn",
	"cpu.Node.allocations": "cpu-churn",
	"cpu.Node.complete":    "cpu-churn",

	// server: requests through a web→app→db chain of sync servers, and
	// through one of async servers, whose single database connection
	// makes them queue for the pool. Both chains send through the
	// shared downstream half. The give-up drives take onDone and finish
	// down their failure branch.
	"server.visit.runStage":          "server-sync-chain",
	"server.visit.onCPUDone":         "server-sync-chain",
	"server.visit.onDone":            "server-sync-chain",
	"server.visit.finish":            "server-sync-chain",
	"server.visit.release":           "server-sync-chain",
	"server.downcall.sendDownstream": "server-sync-chain",
	"server.AsyncServer.dispatch":    "server-async-chain",
	"server.AsyncServer.release":     "server-async-chain",
	"server.task.enqueue":            "server-async-chain",
	"server.task.runStage":           "server-async-chain",
	"server.task.onCPUDone":          "server-async-chain",
	"server.task.onDone":             "server-async-chain",
	"server.task.finish":             "server-async-chain",
	"server.task.release":            "server-async-chain",

	// workload: a closed loop over the same chain, and an open loop,
	// whose calls end through the same done.
	"workload.Sender.send":     "workload-closed-loop",
	"workload.clientCall.done": "workload-closed-loop",
	"workload.Sender.Send":     "workload-open-loop",
}

// chain builds the web→app→db system at level with its JDBC pool cut to
// one connection, so concurrent requests wait for it. At NX=3 the pool
// is added, so the async app waits for it as well.
func chain(sim *des.Simulator, level ntier.NX) *ntier.System {
	spec := ntier.Spec("x", level)
	spec.DBConnPool = 1
	return ntier.NewCluster(sim).Build(spec)
}

// driveCalls measures four calls with payload sent at once to dst over
// tr, reused run after run, and checks that every call of every run
// ended failed at failedAt (empty: completed).
func driveCalls(t *testing.T, name string, sim *des.Simulator, tr *simnet.Transport, dst simnet.Admission, payload any, failedAt string) float64 {
	ended := 0
	calls := make([]*simnet.Call, 4)
	for i := range calls {
		calls[i] = &simnet.Call{Payload: payload, Done: func(at string) {
			if at == failedAt {
				ended++
			}
		}}
	}
	drive := func() {
		for _, call := range calls {
			call.Attempts = 0
			tr.Send(dst, call)
		}
		sim.Run(sim.Now() + time.Second)
	}
	drive() // warm the server free lists, the queues and the job slices
	allocs := testing.AllocsPerRun(200, drive)
	if want := 202 * len(calls); ended != want {
		t.Fatalf("%s: %d calls ended failed at %q, want %d", name, ended, failedAt, want)
	}
	return allocs
}

// driveChain measures four ViewStory calls at once through sys, each
// making two DB queries through the one connection, so requests wait in
// the pool's queue.
func driveChain(t *testing.T, name string, sim *des.Simulator, sys *ntier.System) float64 {
	req := &workload.Request{Class: workload.ClassViewStory}
	return driveCalls(t, name, sim, sys.Transport, sys.Web, req, "")
}

// refuseAll is the destination of the give-up drives: it refuses every
// packet.
type refuseAll struct{}

func (refuseAll) Name() string                { return "down" }
func (refuseAll) TryAccept(*simnet.Call) bool { return false }

// driveGiveUp measures four calls at once into a sync web tier whose only
// stage calls the app tier, sync or async, whose only stage calls a
// destination that refuses every packet. The transport makes one attempt
// per call, so the app's call gives up at once and each request fails at
// that destination, the failure passed up through the app and the web
// tier.
func driveGiveUp(t *testing.T, name string, async bool) float64 {
	sim := des.NewSimulator(1)
	tr := simnet.NewTransport(sim)
	tr.MaxAttempts = 1
	node := cpu.NewNode(sim, "n", 2)
	callOnly := func(dst simnet.Admission) server.PlanFunc {
		down := &server.Downstream{Dest: dst}
		return func(_ any, buf server.Program) server.Program {
			return append(buf, server.Stage{CPU: time.Millisecond, Call: down})
		}
	}
	var app server.Server
	if async {
		app = server.NewAsync(sim, node.AddVM("app", 1, 1), tr, callOnly(refuseAll{}),
			server.AsyncConfig{Name: "app", Workers: 2, LiteQDepth: 100})
	} else {
		app = server.NewSync(sim, node.AddVM("app", 1, 1), tr, callOnly(refuseAll{}),
			server.SyncConfig{Name: "app", Threads: 8, Backlog: 8})
	}
	web := server.NewSync(sim, node.AddVM("web", 1, 1), tr, callOnly(app),
		server.SyncConfig{Name: "web", Threads: 8, Backlog: 8})
	return driveCalls(t, name, sim, tr, web, nil, "down")
}

// driveClosedLoop measures a closed loop of eight clients into front.
// Each run steps the loop until one more request is sent.
func driveClosedLoop(t *testing.T, name string, sim *des.Simulator, front workload.Frontend) float64 {
	loop := workload.NewClosedLoop(sim, front, workload.ClosedLoopConfig{
		Clients:   8,
		ThinkTime: 5 * time.Millisecond,
	})
	loop.Start()
	sim.Run(10 * time.Second) // warm the free lists, the queues and the job slices
	completed := loop.Completed()
	allocs := testing.AllocsPerRun(200, func() {
		for sent := loop.Sent(); loop.Sent() == sent; {
			sim.Step()
		}
	})
	if loop.Completed() <= completed {
		t.Fatalf("%s: no request completed while measured", name)
	}
	return allocs
}

// driveOpenLoop measures an open-loop sender into the sync chain: each
// run sends four requests at once and runs until they have ended, so
// every run reuses the calls the one before it released.
func driveOpenLoop(t *testing.T) float64 {
	sim := des.NewSimulator(1)
	recorded := 0
	out := workload.NewSender(sim, chain(sim, ntier.NX0).Frontend(),
		workload.SinkFunc(func(r *workload.Request) {
			if !r.Failed {
				recorded++
			}
		}))
	drive := func() {
		for i := 0; i < 4; i++ {
			out.Send(workload.ClassViewStory)
		}
		sim.Run(sim.Now() + time.Second)
	}
	drive() // warm the calls, the server lists, the queues and the job slices
	allocs := testing.AllocsPerRun(200, drive)
	if want := 202 * 4; recorded != want {
		t.Fatalf("workload-open-loop: %d requests recorded completed, want %d", recorded, want)
	}
	return allocs
}

// refuseFirst admits into its server every attempt but a call's first,
// so each call through it is dropped once and retransmitted.
type refuseFirst struct{ server.Server }

func (r refuseFirst) TryAccept(call *simnet.Call) bool {
	return call.Attempts > 1 && r.Server.TryAccept(call)
}

// driveRetransmission measures a closed loop whose every call is dropped
// once: the client's call into a sync web tier, the web tier's call into
// an async app tier and the app tier's call into a sync database each
// lose their first attempt and retry after a 1 ms timeout. The pooled
// client calls and the visits' and tasks' reused sub-calls bind their
// delivery callback on their first drop and must keep it across reuse.
func driveRetransmission(t *testing.T) float64 {
	sim := des.NewSimulator(1)
	tr := simnet.NewTransport(sim)
	tr.RTO = time.Millisecond
	tr.MaxAttempts = 2
	node := cpu.NewNode(sim, "n", 3)
	cpuOnly := func(_ any, buf server.Program) server.Program {
		return append(buf, server.Stage{CPU: 100 * time.Microsecond})
	}
	callVia := func(dst server.Server) server.PlanFunc {
		down := &server.Downstream{Dest: refuseFirst{dst}}
		return func(_ any, buf server.Program) server.Program {
			return append(buf, server.Stage{CPU: 100 * time.Microsecond, Call: down})
		}
	}
	db := server.NewSync(sim, node.AddVM("db", 1, 1), tr, cpuOnly,
		server.SyncConfig{Name: "db", Threads: 8, Backlog: 8})
	app := server.NewAsync(sim, node.AddVM("app", 1, 1), tr, callVia(db),
		server.AsyncConfig{Name: "app", Workers: 2, LiteQDepth: 100})
	web := server.NewSync(sim, node.AddVM("web", 1, 1), tr, callVia(app),
		server.SyncConfig{Name: "web", Threads: 8, Backlog: 8})
	allocs := driveClosedLoop(t, "pooled-retransmission", sim,
		workload.Frontend{Transport: tr, Target: refuseFirst{web}})
	for _, hop := range []string{"web", "app", "db"} {
		if st := tr.Stats(hop); st.Retransmits == 0 || st.GaveUp != 0 {
			t.Fatalf("pooled-retransmission: %s retransmitted %d calls and gave up %d, want every call retransmitted once", hop, st.Retransmits, st.GaveUp)
		}
	}
	return allocs
}

// scanHotpathAnnotations parses the kernel packages' sources and returns
// the qualified name of every function carrying a //lint:hotpath
// directive in its doc comment.
func scanHotpathAnnotations(t *testing.T) map[string]bool {
	t.Helper()
	keys := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range hotpathKernelDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s/%s: %v", dir, name, err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(c.Text, "//lint:hotpath") {
						keys[f.Name.Name+"."+funcKey(fd)] = true
					}
				}
			}
		}
	}
	return keys
}

// funcKey renders a declaration as Receiver.Name (or Name for package
// functions), matching the hotpathExercisers key form.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// runPerfLint runs the hotpath analyzer over the kernel packages and
// returns the findings. It mirrors cmd/ctqo-lint: the dependency closure
// is analyzed in order so cross-package AllocsFacts propagate, but only
// kernel-package findings are returned.
func runPerfLint(t *testing.T) []lint.Finding {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modDir, modPath, err := loader.FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	l := loader.New(modPath, modDir, "")
	patterns := make([]string, len(hotpathKernelDirs))
	for i, dir := range hotpathKernelDirs {
		patterns[i] = "./" + dir
	}
	paths, err := l.Expand(patterns)
	if err != nil {
		t.Fatal(err)
	}
	order, err := l.Closure(paths)
	if err != nil {
		t.Fatal(err)
	}
	requested := make(map[string]bool, len(paths))
	for _, p := range paths {
		requested[p] = true
	}
	active := []*analysis.Analyzer{analyzers.Hotpath}
	facts := analysis.NewStore()
	var findings []lint.Finding
	for _, path := range order {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		fs, err := lint.RunPackage(l, pkg, active, modDir, facts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if requested[path] {
			findings = append(findings, fs...)
		}
	}
	lint.Sort(findings)
	return findings
}

// acceptAll is the always-admitting receiver of the clean-delivery
// exerciser.
type acceptAll struct{}

func (acceptAll) Name() string                { return "ok" }
func (acceptAll) TryAccept(*simnet.Call) bool { return true }

// dropOnce refuses one attempt when armed, then admits; arming it per run
// drives exactly one retransmission cycle.
type dropOnce struct{ armed bool }

func (*dropOnce) Name() string { return "flaky" }
func (d *dropOnce) TryAccept(*simnet.Call) bool {
	if d.armed {
		d.armed = false
		return false
	}
	return true
}

func TestHotpathAllocsAgree(t *testing.T) {
	// Static half: annotation set matches the exerciser table, and the
	// analyzers prove every annotated function clean.
	annotated := scanHotpathAnnotations(t)
	for key := range annotated {
		if _, ok := hotpathExercisers[key]; !ok {
			t.Errorf("%s is //lint:hotpath-annotated but has no exerciser: add it to hotpathExercisers with a dynamic drive", key)
		}
	}
	for key := range hotpathExercisers {
		if !annotated[key] {
			t.Errorf("hotpathExercisers lists %s but no //lint:hotpath annotation exists: stale table entry", key)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if findings := runPerfLint(t); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("static finding: %s", f.String())
		}
		t.Fatal("kernel packages are not statically allocation-clean")
	}

	// Dynamic half: each exerciser group warms its steady state, then
	// must measure zero allocations per run.
	groups := map[string]func() float64{
		"des-event-loop": func() float64 {
			sim := des.NewSimulator(1)
			n := 0
			bump := func() { n++ }    // bound once, as recurring model timers are
			for i := 0; i < 64; i++ { // warm the event pool
				sim.Schedule(time.Duration(i), bump)
			}
			sim.Run(sim.Now() + time.Second)
			return testing.AllocsPerRun(200, func() {
				for i := 0; i < 8; i++ {
					sim.Schedule(time.Duration(i)*time.Microsecond, bump)
				}
				sim.ScheduleAt(sim.Now()+time.Millisecond, bump)
				sim.Run(sim.Now() + time.Millisecond)
			})
		},
		"des-wheel": func() float64 {
			// Schedules at 5 ms (wheel level 0), 3 s (level 1, the RTO
			// shape), 30 s (level 2) and 20 min (overflow) exercise
			// every wheel container; Run then drags the promotion
			// horizon across them, driving promote, both spill levels
			// and the overflow rescue. One warm pass grows the node
			// pool and the heap's backing array.
			sim := des.NewSimulator(1)
			n := 0
			bump := func() { n++ }
			drive := func() {
				for i := 0; i < 8; i++ {
					sim.Schedule(5*time.Millisecond+time.Duration(i)*time.Microsecond, bump)
					sim.Schedule(3*time.Second+time.Duration(i)*time.Millisecond, bump)
					sim.Schedule(30*time.Second+time.Duration(i)*time.Millisecond, bump)
					sim.Schedule(20*time.Minute+time.Duration(i)*time.Millisecond, bump)
				}
				sim.Run(sim.Now() + 21*time.Minute)
			}
			drive()
			return testing.AllocsPerRun(200, drive)
		},
		"des-cancel": func() float64 {
			// Cancelled near and far timers, some of whose objects are
			// reused before their tombstones leave the heap or wheel,
			// drive Cancel and every tombstone check; the stale
			// re-cancels are no-ops.
			sim := des.NewSimulator(1)
			nop := func() {}
			drive := func() {
				for i := 0; i < 8; i++ {
					near := sim.Schedule(time.Duration(i)*time.Microsecond, nop)
					far := sim.Schedule(3*time.Second, nop)
					sim.Cancel(near)
					sim.Cancel(far)
					sim.Schedule(time.Millisecond, nop) // reuses far's object
					sim.Cancel(far)
				}
				sim.Run(sim.Now() + 4*time.Second)
			}
			drive()
			return testing.AllocsPerRun(200, drive)
		},
		"simnet-clean-delivery": func() float64 {
			sim := des.NewSimulator(1)
			tr := simnet.NewTransport(sim)
			call := &simnet.Call{}
			tr.Send(acceptAll{}, call) // warm the HopStats
			sim.Run(sim.Now() + time.Second)
			return testing.AllocsPerRun(200, func() {
				call.Attempts = 0
				tr.Send(acceptAll{}, call)
				sim.Run(sim.Now() + time.Second)
			})
		},
		"simnet-retransmission": func() float64 {
			sim := des.NewSimulator(1)
			tr := simnet.NewTransport(sim)
			dst := &dropOnce{}
			call := &simnet.Call{}
			dst.armed = true // warm: the hop's counters and the call's bound callback
			tr.Send(dst, call)
			sim.Run(sim.Now() + time.Minute)
			return testing.AllocsPerRun(200, func() {
				call.Attempts = 0
				dst.armed = true
				tr.Send(dst, call)
				sim.Run(sim.Now() + time.Minute)
			})
		},
		"span-disabled-tracer": func() float64 {
			var tracer *span.Tracer
			return testing.AllocsPerRun(200, func() {
				trace := tracer.StartRequest(1, "static")
				if trace.Enabled() {
					panic("nil tracer handed out an enabled trace")
				}
				id := trace.Start(span.KindService, "web", span.RootID)
				trace.Annotate(id, "noop")
				trace.End(id)
				tracer.Finish(trace)
			})
		},
		"metrics-hdr-record": func() float64 {
			// ExactCap -1 disables exact mode, so the histogram starts in
			// its spilled (steady-state) form.
			h := metrics.NewHDRHistogram(metrics.HDRConfig{ExactCap: -1})
			h.Observe(time.Millisecond)
			return testing.AllocsPerRun(200, func() {
				h.Observe(17 * time.Millisecond)
				h.ObserveN(3*time.Second, 2)
			})
		},
		"metrics-bounded-record": func() float64 {
			r := metrics.NewRecorder()
			r.Retention = metrics.RetainBounded
			r.SeriesWindow = 50 * time.Millisecond
			fast := &workload.Request{
				Class:     workload.ClassStatic,
				Submitted: time.Second,
				Completed: time.Second + 40*time.Millisecond,
			}
			vlrt := &workload.Request{
				Class:     workload.ClassStatic,
				Submitted: time.Second,
				Completed: 5 * time.Second,
			}
			vlrt.DroppedAt("db")
			// Warm: aggregates, class accumulator, VLRT window, and past
			// DefaultHDRExactCap so both histograms have spilled into
			// their steady-state buckets.
			r.Record(vlrt)
			for r.Len() <= metrics.DefaultHDRExactCap {
				r.Record(fast)
			}
			return testing.AllocsPerRun(200, func() {
				r.Record(fast)
				r.Record(vlrt)
			})
		},
		"cpu-churn": func() float64 {
			sim := des.NewSimulator(1)
			node := cpu.NewNode(sim, "n", 1)
			a, b := node.AddVM("a", 1, 1), node.AddVM("b", 2, 1)
			n := 0
			bump := func() { n++ }
			drive := func() {
				for i := 0; i < 8; i++ {
					a.Submit(time.Duration(i+1)*100*time.Microsecond, bump)
					b.Submit(time.Duration(8-i)*100*time.Microsecond, bump)
				}
				sim.Run(sim.Now() + 10*time.Millisecond)
			}
			drive() // warm the job slices and the completion buffer
			return testing.AllocsPerRun(200, drive)
		},
		"server-sync-chain": func() float64 {
			sim := des.NewSimulator(1)
			return driveChain(t, "server-sync-chain", sim, chain(sim, ntier.NX0))
		},
		"server-async-chain": func() float64 {
			sim := des.NewSimulator(1)
			return driveChain(t, "server-async-chain", sim, chain(sim, ntier.NX3))
		},
		"server-sync-giveup": func() float64 {
			return driveGiveUp(t, "server-sync-giveup", false)
		},
		"server-async-giveup": func() float64 {
			return driveGiveUp(t, "server-async-giveup", true)
		},
		"workload-closed-loop": func() float64 {
			sim := des.NewSimulator(1)
			return driveClosedLoop(t, "workload-closed-loop", sim, chain(sim, ntier.NX0).Frontend())
		},
		"workload-open-loop": func() float64 {
			return driveOpenLoop(t)
		},
		"pooled-retransmission": func() float64 {
			return driveRetransmission(t)
		},
	}
	for key, group := range hotpathExercisers {
		if _, ok := groups[group]; !ok {
			t.Fatalf("%s names exerciser group %q, which has no drive", key, group)
		}
	}
	for name, drive := range groups {
		name, drive := name, drive
		t.Run(name, func(t *testing.T) {
			if allocs := drive(); allocs != 0 {
				t.Errorf("%s: %.1f allocs/run, want 0 — the static verdict and the dynamic measurement disagree", name, allocs)
			}
		})
	}
}
