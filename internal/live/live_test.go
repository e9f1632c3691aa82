package live

import (
	"runtime"
	"testing"
	"time"
)

// fastRTO keeps the tests quick while preserving the retry mechanism.
const fastRTO = 100 * time.Millisecond

// checkNoLeak records the goroutine count and, in a cleanup that runs
// after every one the test registers later (the server closes), waits up
// to 5 s for the count to come back: a goroutine a server or client
// started that has not exited by then fails the test. Call it first.
func checkNoLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines before the test, %d after", before, runtime.NumGoroutine())
				return
			}
		}
	})
}

func serveTier(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := Serve(cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// closeTiers drains tiers upstream-first, so each tier's in-flight
// downstream calls finish before the tier below closes.
func closeTiers(t *testing.T, tiers ...*Server) {
	t.Helper()
	for _, s := range tiers {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	req := Request{
		ID:         42,
		Attempt:    2,
		Service:    3 * time.Millisecond,
		Downstream: []time.Duration{time.Millisecond, 2 * time.Millisecond},
	}
	got, err := parseRequest(req.encode())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.ID != 42 || got.Attempt != 2 || got.Service != 3*time.Millisecond {
		t.Fatalf("round trip = %+v", got)
	}
	if len(got.Downstream) != 2 || got.Downstream[1] != 2*time.Millisecond {
		t.Fatalf("downstream = %v", got.Downstream)
	}
}

func TestProtocolNoDownstream(t *testing.T) {
	got, err := parseRequest(Request{ID: 1}.encode())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got.Downstream) != 0 {
		t.Fatalf("downstream = %v, want empty", got.Downstream)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	for _, line := range []string{"", "1 2", "x 1 0 -", "1 x 0 -", "1 1 x -", "1 1 0 q"} {
		if _, err := parseRequest(line); err == nil {
			t.Errorf("parseRequest(%q) accepted", line)
		}
	}
}

func TestSingleTierServesRequests(t *testing.T) {
	s := serveTier(t, Config{Sync: true, Workers: 4, Queue: 8})
	client := Client{Target: s.Addr(), RTO: fastRTO, IOTimeout: 5 * time.Second}

	outcomes := RunLoad(client, 20, []time.Duration{time.Millisecond})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", o.ID, o.Err)
		}
	}
	// A reply reaches the client before the server counts it; Close
	// drains the tier, after which the counters are final.
	closeTiers(t, s)
	if got := s.Stats().Completed(); got != 20 {
		t.Fatalf("completed = %d, want 20", got)
	}
}

func TestThreeTierChain(t *testing.T) {
	db := serveTier(t, Config{Sync: true, Workers: 4, Queue: 8})
	app := serveTier(t, Config{Sync: true, Workers: 4, Queue: 8,
		Downstream: db.Addr(), RTO: fastRTO})
	web := serveTier(t, Config{Sync: true, Workers: 4, Queue: 8,
		Downstream: app.Addr(), RTO: fastRTO})

	client := Client{Target: web.Addr(), RTO: fastRTO, IOTimeout: 5 * time.Second}
	outcomes := RunLoad(client, 10, []time.Duration{
		time.Millisecond, 2 * time.Millisecond, time.Millisecond,
	})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", o.ID, o.Err)
		}
		if o.Latency < 4*time.Millisecond {
			t.Fatalf("request %d latency %v below the 4ms service chain", o.ID, o.Latency)
		}
	}
	closeTiers(t, web, app, db)
	if db.Stats().Completed() != 10 || app.Stats().Completed() != 10 {
		t.Fatalf("chain completions: db=%d app=%d",
			db.Stats().Completed(), app.Stats().Completed())
	}
}

func TestSyncTierDropsBeyondMaxSysQDepth(t *testing.T) {
	// MaxSysQDepth = 2+2 = 4; a burst of 12 slow requests must see drops,
	// and the dropped ones recover via the application-level RTO.
	s := serveTier(t, Config{Sync: true, Workers: 2, Queue: 2})
	client := Client{Target: s.Addr(), RTO: fastRTO, MaxAttempts: 20, IOTimeout: 5 * time.Second}

	outcomes := RunLoad(client, 12, []time.Duration{50 * time.Millisecond})
	retried := 0
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed permanently: %v", o.ID, o.Err)
		}
		if o.Attempts > 1 {
			retried++
		}
	}
	if s.Stats().Dropped() == 0 {
		t.Fatal("no drops despite 12 > MaxSysQDepth 4")
	}
	if retried == 0 {
		t.Fatal("no request needed a retransmission")
	}
	// The retried requests show the RTO in their latency — the VLRT
	// mechanism on real sockets.
	var worst time.Duration
	for _, o := range outcomes {
		if o.Latency > worst {
			worst = o.Latency
		}
	}
	if worst < fastRTO {
		t.Fatalf("worst latency %v below one RTO %v", worst, fastRTO)
	}
}

func TestAsyncTierAbsorbsSameBurst(t *testing.T) {
	checkNoLeak(t)
	// Same worker count, but a lightweight queue: the burst that made the
	// sync tier drop is absorbed without a single drop.
	s := serveTier(t, Config{Sync: false, Workers: 2, Queue: 1000})
	client := Client{Target: s.Addr(), RTO: fastRTO, IOTimeout: 10 * time.Second}

	outcomes := RunLoad(client, 12, []time.Duration{50 * time.Millisecond})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", o.ID, o.Err)
		}
		if o.Attempts != 1 {
			t.Fatalf("request %d needed %d attempts, want 1", o.ID, o.Attempts)
		}
	}
	if got := s.Stats().Dropped(); got != 0 {
		t.Fatalf("async tier dropped %d, want 0", got)
	}
}

func TestAsyncWorkerNotHeldAcrossDownstreamCall(t *testing.T) {
	checkNoLeak(t)
	// One async worker upstream of a slow-but-wide db tier: if the worker
	// were held across the downstream call, the 8 requests would take
	// 8×80ms serialized; released workers let the db serve them in
	// parallel.
	db := serveTier(t, Config{Sync: true, Workers: 16, Queue: 16})
	app := serveTier(t, Config{Sync: false, Workers: 1, Queue: 100,
		Downstream: db.Addr(), RTO: fastRTO})

	client := Client{Target: app.Addr(), RTO: fastRTO, IOTimeout: 10 * time.Second}
	start := time.Now()
	outcomes := RunLoad(client, 8, []time.Duration{0, 80 * time.Millisecond})
	elapsed := time.Since(start)
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", o.ID, o.Err)
		}
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("8 requests took %v; a held worker would serialize to ~640ms", elapsed)
	}
}

func TestSyncWorkerHeldAcrossDownstreamCall(t *testing.T) {
	// The contrast case: one sync worker serializes the same load.
	db := serveTier(t, Config{Sync: true, Workers: 16, Queue: 16})
	app := serveTier(t, Config{Sync: true, Workers: 1, Queue: 100,
		Downstream: db.Addr(), RTO: fastRTO})

	client := Client{Target: app.Addr(), RTO: fastRTO, IOTimeout: 15 * time.Second}
	start := time.Now()
	outcomes := RunLoad(client, 6, []time.Duration{0, 80 * time.Millisecond})
	elapsed := time.Since(start)
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", o.ID, o.Err)
		}
	}
	if elapsed < 6*80*time.Millisecond {
		t.Fatalf("6 requests took %v; the held worker must serialize to >=480ms", elapsed)
	}
}

func TestClientGivesUp(t *testing.T) {
	// A tier with zero capacity beyond its workers, all of them stuck.
	s := serveTier(t, Config{Sync: true, Workers: 1, Queue: 0})
	client := Client{Target: s.Addr(), RTO: 20 * time.Millisecond, MaxAttempts: 3, IOTimeout: 5 * time.Second}

	// Occupy the single worker.
	blocker := make(chan Outcome, 1)
	go func() {
		c := Client{Target: s.Addr(), RTO: fastRTO, IOTimeout: 10 * time.Second}
		_, err := c.Do(Request{ID: 99, Service: 2 * time.Second})
		blocker <- Outcome{Err: err}
	}()
	time.Sleep(100 * time.Millisecond) // let the blocker get the worker

	_, err := client.Do(Request{ID: 1})
	if err == nil {
		t.Fatal("expected give-up against a fully occupied zero-queue tier")
	}
	if got := <-blocker; got.Err != nil {
		t.Fatalf("blocker failed: %v", got.Err)
	}
}

func TestServerCloseIsClean(t *testing.T) {
	checkNoLeak(t)
	s, err := Serve(Config{Addr: "127.0.0.1:0", Sync: true, Workers: 2, Queue: 2})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	client := Client{Target: s.Addr(), RTO: fastRTO, MaxAttempts: 1, IOTimeout: 2 * time.Second}
	if _, err := client.Do(Request{ID: 1}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After close, requests are refused outright.
	if _, err := client.Do(Request{ID: 2}); err == nil {
		t.Fatal("request succeeded against a closed server")
	}

	// An async tier's Close also joins a continuation still in its
	// downstream call: once Close returns, the request has been answered.
	db := serveTier(t, Config{Sync: true, Workers: 1, Queue: 1})
	app := serveTier(t, Config{Sync: false, Workers: 1, Queue: 1, Downstream: db.Addr(), RTO: fastRTO})
	replied := make(chan error, 1)
	go func() {
		c := Client{Target: app.Addr(), RTO: fastRTO, MaxAttempts: 1, IOTimeout: 2 * time.Second}
		_, err := c.Do(Request{ID: 3, Downstream: []time.Duration{200 * time.Millisecond}})
		replied <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); db.Depth() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the downstream call never reached db")
		}
	}
	if err := app.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := app.Stats().Completed(); got != 1 {
		t.Errorf("async Close returned with its continuation in flight: completed = %d, want 1", got)
	}
	if err := <-replied; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
}

func TestDeployTopology(t *testing.T) {
	checkNoLeak(t)
	topo, err := Deploy(TopologySpec{Sync: true, Workers: 4, Queue: 8, RTO: fastRTO, IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	defer func() {
		if err := topo.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	client := topo.Client(fastRTO, 10)
	client.IOTimeout = 5 * time.Second
	outcomes := RunLoad(client, 8, []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("request %d: %v", o.ID, o.Err)
		}
	}
	closeTiers(t, topo.Web, topo.App, topo.DB)
	if topo.DB.Stats().Completed() != 8 {
		t.Fatalf("db completed = %d", topo.DB.Stats().Completed())
	}
	if topo.TotalDrops() != 0 {
		t.Fatalf("drops = %d under light load", topo.TotalDrops())
	}
}

func TestDeploySyncVsAsyncContrast(t *testing.T) {
	// The paper's headline on real sockets via the topology helper: the
	// same burst drops on sync, sails through async.
	burstLoad := func(sync bool) (int64, int) {
		topo, err := Deploy(TopologySpec{Sync: sync, Workers: 2, RTO: fastRTO, IOTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer topo.Shutdown()
		client := topo.Client(fastRTO, 20)
		client.IOTimeout = 10 * time.Second
		outcomes := RunLoad(client, 16, []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond})
		failed := 0
		for _, o := range outcomes {
			if o.Err != nil {
				failed++
			}
		}
		return topo.TotalDrops(), failed
	}
	syncDrops, syncFailed := burstLoad(true)
	asyncDrops, asyncFailed := burstLoad(false)
	if syncFailed != 0 || asyncFailed != 0 {
		t.Fatalf("permanent failures: sync=%d async=%d", syncFailed, asyncFailed)
	}
	if syncDrops == 0 {
		t.Fatal("sync topology dropped nothing under the burst")
	}
	if asyncDrops != 0 {
		t.Fatalf("async topology dropped %d", asyncDrops)
	}
}

func TestDeployNXLevelsOnSockets(t *testing.T) {
	checkNoLeak(t)
	// The paper's NX sweep on real sockets: under the same burst the drop
	// site follows the last synchronous tier until NX=3 removes it.
	runLevel := func(nx int) *Topology {
		topo, err := Deploy(TopologySpec{NX: nx, Sync: true, Workers: 2,
			RTO: fastRTO, IOTimeout: 15 * time.Second})
		if err != nil {
			t.Fatalf("Deploy NX=%d: %v", nx, err)
		}
		t.Cleanup(func() { _ = topo.Shutdown() })
		client := topo.Client(fastRTO, 30)
		client.IOTimeout = 15 * time.Second
		outcomes := RunLoad(client, 16,
			[]time.Duration{20 * time.Millisecond, 30 * time.Millisecond, 10 * time.Millisecond})
		for _, o := range outcomes {
			if o.Err != nil {
				t.Fatalf("NX=%d request %d: %v", nx, o.ID, o.Err)
			}
		}
		return topo
	}

	// NX=1: the web tier is async (no drops); drops move inward.
	nx1 := runLevel(1)
	if nx1.Web.Stats().Dropped() != 0 {
		t.Fatalf("NX=1: async web tier dropped %d", nx1.Web.Stats().Dropped())
	}
	if nx1.App.Stats().Dropped()+nx1.DB.Stats().Dropped() == 0 {
		t.Fatal("NX=1: no drops at the remaining synchronous tiers")
	}

	// NX=3: nothing drops anywhere.
	nx3 := runLevel(3)
	if nx3.TotalDrops() != 0 {
		t.Fatalf("NX=3 dropped %d on real sockets", nx3.TotalDrops())
	}
}
