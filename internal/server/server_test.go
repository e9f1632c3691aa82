package server

import (
	"slices"
	"testing"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
)

// rig bundles the common test fixture: one simulator, one transport and a
// one-core node per server.
type rig struct {
	sim *des.Simulator
	tr  *simnet.Transport
}

func newRig(seed int64) *rig {
	sim := des.NewSimulator(seed)
	return &rig{sim: sim, tr: simnet.NewTransport(sim)}
}

func (r *rig) vm(name string) *cpu.VM {
	return cpu.NewNode(r.sim, name+"-node", 1).AddVM(name, 1, 1)
}

// cpuOnly returns a plan of a single CPU stage.
func cpuOnly(d time.Duration) PlanFunc {
	return func(_ any, buf Program) Program { return append(buf, Stage{CPU: d}) }
}

// callThrough returns a plan with CPU, a downstream call, then more CPU.
func callThrough(pre time.Duration, dest simnet.Admission, pool *simnet.ConnPool, post time.Duration) PlanFunc {
	down := &Downstream{Dest: dest, Pool: pool}
	return func(_ any, buf Program) Program {
		return append(buf, Stage{CPU: pre, Call: down}, Stage{CPU: post})
	}
}

func sendAndTime(r *rig, dst simnet.Admission, rt *time.Duration) {
	call := &simnet.Call{}
	call.Done = func(string) { *rt = r.sim.Now() - call.FirstSent }
	r.tr.Send(dst, call)
}

func TestSyncSimpleRequest(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(10*time.Millisecond),
		SyncConfig{Name: "s", Threads: 4, Backlog: 8})

	var rt time.Duration
	sendAndTime(r, srv, &rt)
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rt != 10*time.Millisecond {
		t.Fatalf("response time = %v, want 10ms", rt)
	}
	st := srv.Stats()
	if st.Accepted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSyncAdmissionBound(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(time.Second),
		SyncConfig{Name: "s", Threads: 2, Backlog: 1})

	if srv.MaxSysQDepth() != 3 {
		t.Fatalf("MaxSysQDepth = %d, want 3", srv.MaxSysQDepth())
	}
	accepted := 0
	for i := 0; i < 5; i++ {
		if srv.TryAccept(&simnet.Call{Done: func(string) {}}) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3 (threads+backlog)", accepted)
	}
	if srv.Depth() != 3 || srv.InService() != 2 || srv.Queued() != 1 {
		t.Fatalf("depth=%d inService=%d queued=%d", srv.Depth(), srv.InService(), srv.Queued())
	}
}

func TestSyncQueueDrainsFIFO(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(10*time.Millisecond),
		SyncConfig{Name: "s", Threads: 1, Backlog: 8})

	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.tr.Send(srv, &simnet.Call{Done: func(failedAt string) {
			if failedAt == "" {
				order = append(order, i)
			}
		}})
	}
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v, want FIFO", order)
		}
	}
}

func TestSyncThreadHeldAcrossDownstreamCall(t *testing.T) {
	// The RPC coupling: with the downstream tier stalled, the upstream
	// server's threads stay occupied, so its admission bound is reached by
	// waiting — not working — threads.
	r := newRig(1)
	dbVM := r.vm("db")
	db := NewSync(r.sim, dbVM, r.tr, cpuOnly(5*time.Millisecond),
		SyncConfig{Name: "db", Threads: 100, Backlog: 128})
	app := NewSync(r.sim, r.vm("app"), r.tr, callThrough(time.Millisecond, db, nil, time.Millisecond),
		SyncConfig{Name: "app", Threads: 2, Backlog: 0})

	dbVM.Block(10 * time.Second) // millibottleneck in the DB tier

	results := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		r.sim.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			call := &simnet.Call{Done: func(string) {}}
			results[i] = app.TryAccept(call)
		})
	}
	if err := r.sim.Run(time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if !results[0] || !results[1] {
		t.Fatal("first two requests should occupy the two threads")
	}
	if results[2] {
		t.Fatal("third request admitted although both threads wait on the stalled DB")
	}
	if app.InService() != 2 {
		t.Fatalf("InService = %d, want 2 blocked threads", app.InService())
	}
}

func TestSyncSpareProcessEscalation(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(30*time.Second),
		SyncConfig{Name: "s", Threads: 2, Backlog: 2, SpareThreads: 2, SpareAfter: time.Second})

	for i := 0; i < 4; i++ {
		r.tr.Send(srv, &simnet.Call{Done: func(string) {}})
	}
	if srv.MaxSysQDepth() != 4 {
		t.Fatalf("MaxSysQDepth before escalation = %d, want 4", srv.MaxSysQDepth())
	}
	if err := r.sim.Run(2 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	// After 1s of sustained saturation the spare process adds 2 threads
	// and absorbs the queue.
	if srv.MaxSysQDepth() != 6 {
		t.Fatalf("MaxSysQDepth after escalation = %d, want 6", srv.MaxSysQDepth())
	}
	if srv.InService() != 4 || srv.Queued() != 0 {
		t.Fatalf("inService=%d queued=%d, want 4/0", srv.InService(), srv.Queued())
	}
}

func TestSyncSpareNotAddedIfPressureSubsides(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(100*time.Millisecond),
		SyncConfig{Name: "s", Threads: 1, Backlog: 2, SpareThreads: 5, SpareAfter: time.Second})

	// Saturate briefly; all requests finish well before the spare check.
	for i := 0; i < 3; i++ {
		r.tr.Send(srv, &simnet.Call{Done: func(string) {}})
	}
	if err := r.sim.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if srv.MaxSysQDepth() != 3 {
		t.Fatalf("MaxSysQDepth = %d, want 3 (no escalation)", srv.MaxSysQDepth())
	}
}

func TestSyncFailurePropagation(t *testing.T) {
	r := newRig(1)
	r.tr.MaxAttempts = 2
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(time.Hour),
		SyncConfig{Name: "db", Threads: 1, Backlog: 0})
	app := NewSync(r.sim, r.vm("app"), r.tr, callThrough(time.Millisecond, db, nil, time.Millisecond),
		SyncConfig{Name: "app", Threads: 4, Backlog: 4})

	// Occupy the single DB thread forever.
	r.tr.Send(db, &simnet.Call{})

	var failedAt []string
	r.sim.Schedule(time.Millisecond, func() {
		r.tr.Send(app, &simnet.Call{Done: func(at string) { failedAt = append(failedAt, at) }})
	})
	if err := r.sim.Run(time.Minute); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if !slices.Equal(failedAt, []string{"db"}) {
		t.Fatalf("app replied failed at %q, want once, at db", failedAt)
	}
	if app.Stats().Failed != 1 {
		t.Fatalf("app failed = %d, want 1", app.Stats().Failed)
	}
	// The app thread must have been released after the failure.
	if app.InService() != 0 {
		t.Fatalf("app InService = %d, want 0", app.InService())
	}
}

func TestSyncConnPoolSerializesDownstream(t *testing.T) {
	r := newRig(1)
	pool := simnet.NewConnPool(1)
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(100*time.Millisecond),
		SyncConfig{Name: "db", Threads: 10, Backlog: 10})
	app := NewSync(r.sim, r.vm("app"), r.tr, callThrough(0, db, pool, 0),
		SyncConfig{Name: "app", Threads: 10, Backlog: 10})

	var last time.Duration
	for i := 0; i < 3; i++ {
		call := &simnet.Call{}
		call.Done = func(failedAt string) {
			if failedAt == "" {
				last = r.sim.Now()
			}
		}
		r.tr.Send(app, call)
	}
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Pool of 1 serializes the three 100ms DB calls.
	if last < 300*time.Millisecond {
		t.Fatalf("last completion at %v, want >= 300ms (serialized)", last)
	}
	if db.Stats().Completed != 3 {
		t.Fatalf("db completed = %d, want 3", db.Stats().Completed)
	}
}

func TestSyncOverheadInflation(t *testing.T) {
	base := func(overhead float64) time.Duration {
		r := newRig(1)
		srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(10*time.Millisecond),
			SyncConfig{Name: "s", Threads: 100, Backlog: 0, OverheadPerThread: overhead})
		var last time.Duration
		for i := 0; i < 50; i++ {
			call := &simnet.Call{}
			call.Done = func(failedAt string) {
				if failedAt == "" && r.sim.Now() > last {
					last = r.sim.Now()
				}
			}
			r.tr.Send(srv, call)
		}
		if err := r.sim.Run(time.Hour); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return last
	}
	noOverhead := base(0)
	withOverhead := base(0.02)
	if withOverhead <= noOverhead {
		t.Fatalf("overhead model had no effect: %v vs %v", noOverhead, withOverhead)
	}
}

func TestAsyncSimpleRequest(t *testing.T) {
	r := newRig(1)
	srv := NewAsync(r.sim, r.vm("s"), r.tr, cpuOnly(10*time.Millisecond),
		AsyncConfig{Name: "s", Workers: 2, LiteQDepth: 100})

	var rt time.Duration
	sendAndTime(r, srv, &rt)
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rt != 10*time.Millisecond {
		t.Fatalf("response time = %v, want 10ms", rt)
	}
}

func TestAsyncAbsorbsBurstWithoutDrops(t *testing.T) {
	// The same burst that overflows a sync server's MaxSysQDepth sits
	// harmlessly in the async server's lightweight queue.
	const burst = 500

	syncRig := newRig(1)
	syncSrv := NewSync(syncRig.sim, syncRig.vm("s"), syncRig.tr, cpuOnly(time.Millisecond),
		SyncConfig{Name: "s", Threads: 150, Backlog: 128})
	for i := 0; i < burst; i++ {
		syncRig.tr.Send(syncSrv, &simnet.Call{Done: func(string) {}})
	}
	if err := syncRig.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if syncRig.tr.Stats("s").Dropped == 0 {
		t.Fatal("sync server should drop part of the burst (500 > 278)")
	}

	asyncRig := newRig(1)
	asyncSrv := NewAsync(asyncRig.sim, asyncRig.vm("s"), asyncRig.tr, cpuOnly(time.Millisecond),
		AsyncConfig{Name: "s", Workers: 4, LiteQDepth: 65535})
	completed := 0
	for i := 0; i < burst; i++ {
		asyncRig.tr.Send(asyncSrv, &simnet.Call{Done: func(failedAt string) {
			if failedAt == "" {
				completed++
			}
		}})
	}
	if err := asyncRig.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := asyncRig.tr.Stats("s").Dropped; got != 0 {
		t.Fatalf("async server dropped %d packets, want 0", got)
	}
	if completed != burst {
		t.Fatalf("completed %d, want %d", completed, burst)
	}
}

func TestAsyncLiteQDepthBound(t *testing.T) {
	r := newRig(1)
	srv := NewAsync(r.sim, r.vm("s"), r.tr, cpuOnly(time.Hour),
		AsyncConfig{Name: "s", Workers: 1, LiteQDepth: 3})

	accepted := 0
	for i := 0; i < 5; i++ {
		if srv.TryAccept(&simnet.Call{Done: func(string) {}}) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted %d, want LiteQDepth=3", accepted)
	}
	if srv.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", srv.Depth())
	}
}

func TestAsyncWorkerReleasedDuringDownstreamCall(t *testing.T) {
	// One worker, many concurrent in-flight requests: the worker must not
	// be held during the downstream wait.
	r := newRig(1)
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(100*time.Millisecond),
		SyncConfig{Name: "db", Threads: 50, Backlog: 50})
	app := NewAsync(r.sim, r.vm("app"), r.tr, callThrough(time.Microsecond, db, nil, time.Microsecond),
		AsyncConfig{Name: "app", Workers: 1, LiteQDepth: 1000})

	completed := 0
	for i := 0; i < 20; i++ {
		r.tr.Send(app, &simnet.Call{Done: func(failedAt string) {
			if failedAt == "" {
				completed++
			}
		}})
	}
	var peakConcurrentDB int
	des.NewTicker(r.sim, time.Millisecond, func(time.Duration) {
		if db.InService() > peakConcurrentDB {
			peakConcurrentDB = db.InService()
		}
	})
	if err := r.sim.Run(5 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if completed != 20 {
		t.Fatalf("completed %d, want 20", completed)
	}
	if peakConcurrentDB < 10 {
		t.Fatalf("peak concurrent DB calls = %d; a held worker would serialize them", peakConcurrentDB)
	}
}

func TestAsyncFailurePropagation(t *testing.T) {
	r := newRig(1)
	r.tr.MaxAttempts = 1
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(time.Hour),
		SyncConfig{Name: "db", Threads: 1, Backlog: 0})
	app := NewAsync(r.sim, r.vm("app"), r.tr, callThrough(time.Microsecond, db, nil, 0),
		AsyncConfig{Name: "app", Workers: 2, LiteQDepth: 100})

	r.tr.Send(db, &simnet.Call{}) // occupy DB forever

	var failedAt []string
	r.sim.Schedule(time.Millisecond, func() {
		r.tr.Send(app, &simnet.Call{Done: func(at string) { failedAt = append(failedAt, at) }})
	})
	if err := r.sim.Run(time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if !slices.Equal(failedAt, []string{"db"}) {
		t.Fatalf("app replied failed at %q, want once, at db", failedAt)
	}
	if app.Depth() != 0 {
		t.Fatalf("Depth = %d, want 0 after failure", app.Depth())
	}
}

func TestAsyncConnPool(t *testing.T) {
	// An async app in front of a one-thread sync db through a
	// one-connection pool, as an async app tier keeps the JDBC pool at
	// NX=0 or NX=1. The db queries a store that a hog holds forever.
	r := newRig(1)
	r.tr.MaxAttempts = 1
	pool := simnet.NewConnPool(1)
	store := NewSync(r.sim, r.vm("store"), r.tr, cpuOnly(time.Hour),
		SyncConfig{Name: "store", Threads: 1, Backlog: 0})
	toStore := &Downstream{Dest: store}
	var dbOrder []any
	db := NewSync(r.sim, r.vm("db"), r.tr, func(p any, buf Program) Program {
		switch p {
		case "hog":
			return append(buf, Stage{CPU: time.Second})
		case "deep":
			return append(buf, Stage{CPU: time.Millisecond, Call: toStore})
		}
		dbOrder = append(dbOrder, p)
		return append(buf, Stage{CPU: 10 * time.Millisecond})
	}, SyncConfig{Name: "db", Threads: 1, Backlog: 0})
	app := NewAsync(r.sim, r.vm("app"), r.tr, callThrough(time.Microsecond, db, pool, time.Microsecond),
		AsyncConfig{Name: "app", Workers: 1, LiteQDepth: 100})

	type outcome struct {
		payload  any
		failedAt string
	}
	var got []outcome
	send := func(at time.Duration, dst simnet.Admission, p any) {
		r.sim.Schedule(at, func() {
			r.tr.Send(dst, &simnet.Call{Payload: p, Done: func(at string) { got = append(got, outcome{p, at}) }})
		})
	}
	poolAt := func(at time.Duration, inUse, waiting int) {
		r.sim.Schedule(at, func() {
			if pool.InUse() != inUse || pool.Waiting() != waiting {
				t.Errorf("at %v: pool in use %d, waiting %d; want %d, %d",
					at, pool.InUse(), pool.Waiting(), inUse, waiting)
			}
		})
	}
	r.tr.Send(store, &simnet.Call{}) // hold the store forever

	// (a) Four requests at once: the first takes the connection and the
	// rest wait for it, each getting it in arrival order.
	for i := 0; i < 4; i++ {
		send(0, app, i)
	}
	poolAt(5*time.Microsecond, 1, 3)
	// (b) With the db held by a hog, b1's call is dropped and gives up;
	// the give-up releases the connection, and b2 gets it and completes.
	send(time.Second, db, "hog")
	send(time.Second+time.Millisecond, app, "b1")
	poolAt(1500*time.Millisecond, 0, 0)
	send(2500*time.Millisecond, app, "b2")
	// (c) The db's own query gives up, so it replies failed at the
	// store; the app passes that on, and the reply releases the
	// connection for c2.
	send(3*time.Second, app, "deep")
	poolAt(3500*time.Millisecond, 0, 0)
	send(3500*time.Millisecond, app, "c2")

	if err := r.sim.Run(5 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	want := []outcome{
		{0, ""}, {1, ""}, {2, ""}, {3, ""},
		{"b1", "db"},
		{"hog", ""},
		{"b2", ""},
		{"deep", "store"},
		{"c2", ""},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("replies = %v\nwant %v", got, want)
	}
	if wantOrder := []any{0, 1, 2, 3, "b2", "c2"}; !slices.Equal(dbOrder, wantOrder) {
		t.Fatalf("db served %v, want %v", dbOrder, wantOrder)
	}
	if pool.InUse() != 0 || pool.Waiting() != 0 || app.Depth() != 0 {
		t.Fatalf("at the end: pool in use %d, waiting %d, app depth %d; want all 0",
			pool.InUse(), pool.Waiting(), app.Depth())
	}
	if st := app.Stats(); st != (Stats{Accepted: 8, Completed: 6, Failed: 2}) {
		t.Fatalf("app stats = %+v, want 8 accepted, 6 completed, 2 failed", st)
	}
}

func TestAsyncBatchReleaseAfterStall(t *testing.T) {
	// Fig. 9 mechanism: during an app-tier millibottleneck the async server
	// buffers everything; when the stall ends it fires the whole batch
	// downstream almost at once.
	r := newRig(1)
	appVM := r.vm("app")
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(time.Millisecond),
		SyncConfig{Name: "db", Threads: 10, Backlog: 20})
	app := NewAsync(r.sim, appVM, r.tr, callThrough(100*time.Microsecond, db, nil, 0),
		AsyncConfig{Name: "app", Workers: 4, LiteQDepth: 65535})

	appVM.Block(time.Second)
	for i := 0; i < 100; i++ {
		r.tr.Send(app, &simnet.Call{Done: func(string) {}})
	}
	// During the stall nothing has reached the DB.
	r.sim.Schedule(900*time.Millisecond, func() {
		if got := r.tr.Stats("db").Attempts; got != 0 {
			t.Errorf("DB saw %d attempts during the stall, want 0", got)
		}
		if app.Depth() != 100 {
			t.Errorf("app depth during stall = %d, want 100", app.Depth())
		}
	})
	// Shortly after the stall ends, the batch has hit the DB and overflowed
	// its MaxSysQDepth of 30.
	r.sim.Schedule(1100*time.Millisecond, func() {
		if got := r.tr.Stats("db").Dropped; got == 0 {
			t.Error("DB dropped nothing after the batch release; want downstream CTQO")
		}
	})
	if err := r.sim.Run(20 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
}

func TestConservationOfRequests(t *testing.T) {
	// Every accepted request is eventually completed or failed, for both
	// architectures, under a random-ish load with a mid-run stall.
	r := newRig(42)
	dbVM := r.vm("db")
	db := NewSync(r.sim, dbVM, r.tr, cpuOnly(2*time.Millisecond),
		SyncConfig{Name: "db", Threads: 20, Backlog: 30})
	app := NewAsync(r.sim, r.vm("app"), r.tr, callThrough(500*time.Microsecond, db, nil, 200*time.Microsecond),
		AsyncConfig{Name: "app", Workers: 4, LiteQDepth: 500})
	web := NewSync(r.sim, r.vm("web"), r.tr,
		callThrough(200*time.Microsecond, app, nil, 100*time.Microsecond),
		SyncConfig{Name: "web", Threads: 50, Backlog: 64})

	sent := 0
	for i := 0; i < 300; i++ {
		delay := time.Duration(r.sim.Rand().Intn(2000)) * time.Millisecond
		r.sim.Schedule(delay, func() {
			sent++
			r.tr.Send(web, &simnet.Call{Done: func(string) {}})
		})
	}
	r.sim.Schedule(time.Second, func() { dbVM.Block(500 * time.Millisecond) })
	if err := r.sim.Run(5 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, srv := range []Server{web, app, db} {
		st := srv.Stats()
		if st.Accepted != st.Completed+st.Failed {
			t.Errorf("%s: accepted=%d completed=%d failed=%d (leak)",
				srv.Name(), st.Accepted, st.Completed, st.Failed)
		}
		if srv.Depth() != 0 {
			t.Errorf("%s: depth=%d at quiescence, want 0", srv.Name(), srv.Depth())
		}
	}
}

func TestSyncMultiStageProgram(t *testing.T) {
	// A ViewStory-like program: CPU, call, CPU, call, CPU.
	r := newRig(1)
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(2*time.Millisecond),
		SyncConfig{Name: "db", Threads: 10, Backlog: 10})
	down := &Downstream{Dest: db}
	plan := func(_ any, buf Program) Program {
		return append(buf,
			Stage{CPU: time.Millisecond, Call: down},
			Stage{CPU: time.Millisecond, Call: down},
			Stage{CPU: 3 * time.Millisecond})
	}
	app := NewSync(r.sim, r.vm("app"), r.tr, plan,
		SyncConfig{Name: "app", Threads: 4, Backlog: 4})

	var rt time.Duration
	sendAndTime(r, app, &rt)
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 1+2+1+2+3 = 9ms end to end.
	if rt != 9*time.Millisecond {
		t.Fatalf("RT = %v, want 9ms", rt)
	}
	if db.Stats().Completed != 2 {
		t.Fatalf("db completed = %d, want 2", db.Stats().Completed)
	}
}

func TestSyncEmptyProgram(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, func(_ any, buf Program) Program { return buf },
		SyncConfig{Name: "s", Threads: 1, Backlog: 0})
	done := false
	r.tr.Send(srv, &simnet.Call{Done: func(failedAt string) { done = failedAt == "" }})
	if err := r.sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("empty program never replied")
	}
	if srv.InService() != 0 {
		t.Fatal("thread leaked on empty program")
	}
}

func TestAsyncContinuationsFIFO(t *testing.T) {
	// Continuations and new arrivals share the ready queue in FIFO order;
	// completion order matches arrival order for identical work.
	r := newRig(1)
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(time.Millisecond),
		SyncConfig{Name: "db", Threads: 50, Backlog: 50})
	app := NewAsync(r.sim, r.vm("app"), r.tr,
		callThrough(100*time.Microsecond, db, nil, 100*time.Microsecond),
		AsyncConfig{Name: "app", Workers: 1, LiteQDepth: 100})

	var order []int
	for i := 0; i < 10; i++ {
		i := i
		r.tr.Send(app, &simnet.Call{Done: func(failedAt string) {
			if failedAt == "" {
				order = append(order, i)
			}
		}})
	}
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 10 {
		t.Fatalf("completed %d, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v, want FIFO", order)
		}
	}
}

func TestAsyncOverheadInflation(t *testing.T) {
	run := func(overhead float64) time.Duration {
		r := newRig(1)
		srv := NewAsync(r.sim, r.vm("s"), r.tr, cpuOnly(10*time.Millisecond),
			AsyncConfig{Name: "s", Workers: 8, LiteQDepth: 100, OverheadPerThread: overhead})
		var last time.Duration
		for i := 0; i < 8; i++ {
			call := &simnet.Call{}
			call.Done = func(failedAt string) {
				if failedAt == "" && r.sim.Now() > last {
					last = r.sim.Now()
				}
			}
			r.tr.Send(srv, call)
		}
		if err := r.sim.Run(time.Hour); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return last
	}
	if run(0.5) <= run(0) {
		t.Fatal("async overhead model had no effect")
	}
}

func TestSyncStatsFailuresViaPool(t *testing.T) {
	// A failure path must release the pooled connection.
	r := newRig(1)
	r.tr.MaxAttempts = 1
	pool := simnet.NewConnPool(1)
	db := NewSync(r.sim, r.vm("db"), r.tr, cpuOnly(time.Hour),
		SyncConfig{Name: "db", Threads: 1, Backlog: 0})
	app := NewSync(r.sim, r.vm("app"), r.tr, callThrough(0, db, pool, 0),
		SyncConfig{Name: "app", Threads: 4, Backlog: 4})

	r.tr.Send(db, &simnet.Call{}) // occupy db forever
	replies := 0
	for i := 0; i < 3; i++ {
		r.sim.Schedule(time.Duration(i)*time.Millisecond, func() {
			r.tr.Send(app, &simnet.Call{Done: func(failedAt string) {
				if failedAt == "db" {
					replies++
				}
			}})
		})
	}
	if err := r.sim.Run(time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if replies != 3 {
		t.Fatalf("replies = %d, want 3 failures", replies)
	}
	if pool.InUse() != 0 || pool.Waiting() != 0 {
		t.Fatalf("pool leaked: inUse=%d waiting=%d", pool.InUse(), pool.Waiting())
	}
	if app.Stats().Failed != 3 {
		t.Fatalf("failed = %d, want 3", app.Stats().Failed)
	}
}

func TestSyncQueueTimeoutSheds(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(10*time.Second),
		SyncConfig{Name: "s", Threads: 1, Backlog: 5, QueueTimeout: 100 * time.Millisecond})

	var failures int
	for i := 0; i < 4; i++ {
		r.tr.Send(srv, &simnet.Call{Done: func(failedAt string) {
			if failedAt == "s" {
				failures++
			}
		}})
	}
	if err := r.sim.Run(time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	// One request holds the thread for 10s; the other three queue and are
	// shed at 100ms.
	if srv.Shed() != 3 || failures != 3 {
		t.Fatalf("shed=%d failures=%d, want 3/3", srv.Shed(), failures)
	}
	if srv.Queued() != 0 {
		t.Fatalf("queued = %d after shedding, want 0", srv.Queued())
	}
	if srv.Stats().Failed != 3 {
		t.Fatalf("stats.Failed = %d, want 3", srv.Stats().Failed)
	}
}

func TestSyncQueueTimeoutCancelledOnService(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(10*time.Millisecond),
		SyncConfig{Name: "s", Threads: 1, Backlog: 5, QueueTimeout: time.Second})

	completed := 0
	for i := 0; i < 4; i++ {
		r.tr.Send(srv, &simnet.Call{Done: func(failedAt string) {
			if failedAt == "" {
				completed++
			}
		}})
	}
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// All four finish within 40ms — nothing should be shed.
	if srv.Shed() != 0 || completed != 4 {
		t.Fatalf("shed=%d completed=%d, want 0/4", srv.Shed(), completed)
	}
}

func TestSyncQueueTimeoutDisabledByDefault(t *testing.T) {
	r := newRig(1)
	srv := NewSync(r.sim, r.vm("s"), r.tr, cpuOnly(500*time.Millisecond),
		SyncConfig{Name: "s", Threads: 1, Backlog: 5})
	for i := 0; i < 4; i++ {
		r.tr.Send(srv, &simnet.Call{Done: func(string) {}})
	}
	if err := r.sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if srv.Shed() != 0 {
		t.Fatalf("shed = %d with no timeout configured", srv.Shed())
	}
	if srv.Stats().Completed != 4 {
		t.Fatalf("completed = %d, want 4", srv.Stats().Completed)
	}
}
