package ntier

import (
	"testing"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/workload"
)

func run(t *testing.T, sim *des.Simulator, horizon time.Duration) {
	t.Helper()
	if err := sim.Run(horizon); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
}

func TestSpecMaxSysQDepthsMatchPaper(t *testing.T) {
	sim := des.NewSimulator(1)
	sys := NewCluster(sim).Build(Spec("s", NX0))

	if got := sys.Web.MaxSysQDepth(); got != 278 {
		t.Errorf("MaxSysQDepth(Apache) = %d, want 278", got)
	}
	if got := sys.App.MaxSysQDepth(); got != 293 {
		t.Errorf("MaxSysQDepth(Tomcat) = %d, want 293", got)
	}
	if got := sys.DB.MaxSysQDepth(); got != 228 {
		t.Errorf("MaxSysQDepth(MySQL) = %d, want 228", got)
	}
	if sys.Pool == nil || sys.Pool.Size() != 50 {
		t.Error("NX0 must have the 50-connection JDBC pool")
	}
}

func TestSpecNXLevels(t *testing.T) {
	tests := []struct {
		level    NX
		webArch  Arch
		appArch  Arch
		dbArch   Arch
		withPool bool
	}{
		{NX0, Sync, Sync, Sync, true},
		{NX1, Async, Sync, Sync, true},
		{NX2, Async, Async, Sync, false},
		{NX3, Async, Async, Async, false},
	}
	for _, tt := range tests {
		spec := Spec("s", tt.level)
		if spec.Web.Arch != tt.webArch || spec.App.Arch != tt.appArch || spec.DB.Arch != tt.dbArch {
			t.Errorf("%v: archs = %v/%v/%v", tt.level, spec.Web.Arch, spec.App.Arch, spec.DB.Arch)
		}
		if (spec.DBConnPool > 0) != tt.withPool {
			t.Errorf("%v: pool = %d", tt.level, spec.DBConnPool)
		}
	}
}

func TestNXString(t *testing.T) {
	if NX0.String() != "Apache-Tomcat-MySQL" || NX3.String() != "Nginx-XTomcat-XMySQL" {
		t.Fatalf("NX names wrong: %v, %v", NX0, NX3)
	}
	if NX(9).String() != "invalid" {
		t.Fatal("invalid NX level should say so")
	}
}

func TestEndToEndRequestAllLevels(t *testing.T) {
	for _, level := range []NX{NX0, NX1, NX2, NX3} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			sim := des.NewSimulator(1)
			sys := NewCluster(sim).Build(Spec("s", level))

			// Record must not keep the request, so the sink copies it.
			rec := make([]workload.Request, 0, 1)
			cl := workload.NewClosedLoop(sim, sys.Frontend(), workload.ClosedLoopConfig{
				Clients:   20,
				ThinkTime: 500 * time.Millisecond,
				Sink:      workload.SinkFunc(func(r *workload.Request) { rec = append(rec, *r) }),
			})
			cl.Start()
			run(t, sim, 10*time.Second)

			if len(rec) < 100 {
				t.Fatalf("completed %d requests, want many", len(rec))
			}
			for _, r := range rec {
				if r.Failed {
					t.Fatalf("request %d failed", r.ID)
				}
				if rt := r.ResponseTime(); rt <= 0 || rt > time.Second {
					t.Fatalf("request %d RT = %v", r.ID, rt)
				}
			}
			if sys.TotalDrops() != 0 {
				t.Fatalf("drops = %d under light load, want 0", sys.TotalDrops())
			}
		})
	}
}

func TestStaticRequestsSkipAppTier(t *testing.T) {
	sim := des.NewSimulator(1)
	sys := NewCluster(sim).Build(Spec("s", NX0))

	mix := workload.NewMix().Add(workload.ClassStatic, 1)
	cl := workload.NewClosedLoop(sim, sys.Frontend(), workload.ClosedLoopConfig{
		Clients: 10, ThinkTime: 100 * time.Millisecond, Mix: mix,
	})
	cl.Start()
	run(t, sim, 5*time.Second)

	if sys.App.Stats().Accepted != 0 || sys.DB.Stats().Accepted != 0 {
		t.Fatalf("static requests reached app/db: app=%d db=%d",
			sys.App.Stats().Accepted, sys.DB.Stats().Accepted)
	}
	if sys.Web.Stats().Completed == 0 {
		t.Fatal("web tier completed nothing")
	}
}

func TestDBQueriesPerRequest(t *testing.T) {
	sim := des.NewSimulator(1)
	sys := NewCluster(sim).Build(Spec("s", NX0))

	// ViewStory issues 2 DB queries.
	mix := workload.NewMix().Add(workload.ClassViewStory, 1)
	cl := workload.NewClosedLoop(sim, sys.Frontend(), workload.ClosedLoopConfig{
		Clients: 5, ThinkTime: time.Second, Mix: mix,
	})
	cl.Start()
	run(t, sim, 10*time.Second)

	web := sys.Web.Stats().Completed
	db := sys.DB.Stats().Completed
	if web == 0 {
		t.Fatal("no completions")
	}
	if db != 2*web {
		t.Fatalf("db completions = %d, want 2× web (%d)", db, 2*web)
	}
}

func TestConsolidationSharesNode(t *testing.T) {
	sim := des.NewSimulator(1)
	cluster := NewCluster(sim)

	steadySpec := Spec("steady", NX0)
	steadySpec.App.Node = "shared-host" // SysSteady-Tomcat on the shared core
	steady := cluster.Build(steadySpec)
	bursty := cluster.Build(BurstySpec("bursty", "mysql", "shared-host"))

	if steady.AppVM.Node() != bursty.DBVM.Node() {
		t.Fatal("consolidated VMs are not on the same physical node")
	}
	if steady.AppVM.Node().Name() != "shared-host" {
		t.Fatalf("node name = %q", steady.AppVM.Node().Name())
	}
	// The other tiers remain on dedicated hosts.
	if steady.WebVM.Node() == steady.AppVM.Node() {
		t.Fatal("web tier wrongly placed on the shared node")
	}
}

func TestBurstySpecNeverDropsItsOwnBatches(t *testing.T) {
	sim := des.NewSimulator(1)
	cluster := NewCluster(sim)
	bursty := cluster.Build(BurstySpec("bursty", "mysql", "shared"))

	b := workload.NewBatch(sim, bursty.Frontend(), workload.BatchConfig{
		Size: 400, Interval: 15 * time.Second,
	})
	b.Start()
	run(t, sim, 40*time.Second)

	if bursty.TotalDrops() != 0 {
		t.Fatalf("SysBursty dropped %d of its own packets; its queues must be generous", bursty.TotalDrops())
	}
	if bursty.DB.Stats().Completed == 0 {
		t.Fatal("no bursty completions")
	}
}

func TestUtilizationCalibration(t *testing.T) {
	// Scaled-down WL 7000: 700 clients at 0.7s think ≈ 1000 req/s.
	// The app tier must be the busiest at roughly 75%.
	sim := des.NewSimulator(1)
	sys := NewCluster(sim).Build(Spec("s", NX0))

	cl := workload.NewClosedLoop(sim, sys.Frontend(), workload.ClosedLoopConfig{
		Clients: 700, ThinkTime: 700 * time.Millisecond,
	})
	cl.Start()
	run(t, sim, 30*time.Second)

	appUtil := sys.AppVM.Usage().Runnable.Seconds() / 30
	if appUtil < 0.6 || appUtil > 0.9 {
		t.Fatalf("app utilization = %.2f, want ~0.75", appUtil)
	}
	webUtil := sys.WebVM.Usage().Runnable.Seconds() / 30
	dbUtil := sys.DBVM.Usage().Runnable.Seconds() / 30
	if webUtil >= appUtil || dbUtil >= appUtil {
		t.Fatalf("app must dominate: web=%.2f app=%.2f db=%.2f", webUtil, appUtil, dbUtil)
	}
	if sys.TotalDrops() != 0 {
		t.Fatalf("steady 75%% load dropped %d packets", sys.TotalDrops())
	}
}

func TestTierNamesAndAccessors(t *testing.T) {
	sim := des.NewSimulator(1)
	sys := NewCluster(sim).Build(Spec("steady", NX0))

	names := sys.TierNames()
	want := []string{"steady-apache", "steady-tomcat", "steady-mysql"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("TierNames = %v, want %v", names, want)
		}
	}
	if len(sys.Servers()) != 3 || len(sys.VMs()) != 3 {
		t.Fatal("Servers/VMs accessors wrong length")
	}
}

func TestClusterNodeReuse(t *testing.T) {
	sim := des.NewSimulator(1)
	c := NewCluster(sim)
	a := c.Node("n", 1)
	b := c.Node("n", 4) // existing node wins; cores ignored
	if a != b {
		t.Fatal("Node did not reuse the existing node")
	}
	if a.Cores() != 1 {
		t.Fatalf("cores = %v, want 1 (first creation)", a.Cores())
	}
}

func TestArchString(t *testing.T) {
	if Sync.String() != "sync" || Async.String() != "async" || Arch(0).String() != "unknown" {
		t.Fatal("Arch.String wrong")
	}
}

func TestUnknownPayloadGetsDefaultPlan(t *testing.T) {
	// A stray non-Request payload should still be processed harmlessly.
	sim := des.NewSimulator(1)
	sys := NewCluster(sim).Build(Spec("s", NX0))

	done := false
	sys.Transport.Send(sys.Web, newCallWithReply(&done))
	run(t, sim, time.Second)
	if !done {
		t.Fatal("unknown payload never completed")
	}
}
