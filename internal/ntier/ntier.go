// Package ntier assembles complete 3-tier systems out of the substrate
// packages, mirroring the paper's testbed (Fig. 13): a web tier, an
// application tier and a database tier, each on its own VM, with optional
// VM consolidation (two systems sharing one physical node, Fig. 2) and the
// four architecture levels of the evaluation:
//
//	NX=0  Apache — Tomcat — MySQL      (all synchronous)
//	NX=1  Nginx — Tomcat — MySQL
//	NX=2  Nginx — XTomcat — MySQL
//	NX=3  Nginx — XTomcat — XMySQL     (all asynchronous)
package ntier

import (
	"fmt"
	"slices"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/server"
	"ctqosim/internal/simnet"
	"ctqosim/internal/workload"
)

// Arch selects a tier's server architecture.
type Arch int

// Architectures.
const (
	// Sync is a thread-per-request RPC server.
	Sync Arch = iota + 1
	// Async is an event-driven server with a lightweight queue.
	Async
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case Sync:
		return "sync"
	case Async:
		return "async"
	default:
		return "unknown"
	}
}

// TierSpec describes one tier of a system.
type TierSpec struct {
	// Name is the server name (e.g. "apache"); the full name is prefixed
	// with the system name.
	Name string
	// Arch selects sync or async.
	Arch Arch
	// Threads is the thread pool size (sync) or worker count (async).
	Threads int
	// Backlog is the TCP accept queue (sync only).
	Backlog int
	// LiteQDepth bounds the lightweight queue (async only).
	LiteQDepth int
	// SpareThreads and SpareAfter configure the sync spare-process
	// escalation (Apache).
	SpareThreads int
	SpareAfter   time.Duration
	// OverheadPerThread is the per-busy-thread CPU inflation (Fig. 12).
	OverheadPerThread float64
	// QueueTimeout enables fail-fast load shedding from the sync accept
	// queue (see server.SyncConfig.QueueTimeout).
	QueueTimeout time.Duration
	// Cores is the VM's vCPU count; zero means 1.
	Cores float64
	// Node optionally places the tier's VM on a named shared node for
	// consolidation experiments; empty means a dedicated node.
	Node string
	// Weight is the VM's CPU share on its node; zero means 1.
	Weight float64
}

// SystemSpec describes a complete 3-tier system.
type SystemSpec struct {
	// Name prefixes all server and VM names ("steady", "bursty").
	Name string
	// Web, App, DB are the three tiers, client side first.
	Web, App, DB TierSpec
	// DBConnPool bounds the app→db connection pool (sync JDBC, 50 in the
	// paper); zero disables pooling (the async connector).
	DBConnPool int
}

// System is a wired 3-tier system.
type System struct {
	// Spec echoes the build input.
	Spec SystemSpec
	// Web, App, DB are the running servers, client side first.
	Web, App, DB server.Server
	// WebVM, AppVM, DBVM are the hosting VMs.
	WebVM, AppVM, DBVM *cpu.VM
	// Pool is the app→db connection pool, nil when disabled.
	Pool *simnet.ConnPool
	// Transport carries this system's inter-tier and client packets.
	Transport *simnet.Transport
}

// Servers returns the tiers in invocation order.
func (s *System) Servers() []server.Server {
	return []server.Server{s.Web, s.App, s.DB}
}

// VMs returns the tier VMs in invocation order.
func (s *System) VMs() []*cpu.VM {
	return []*cpu.VM{s.WebVM, s.AppVM, s.DBVM}
}

// TierNames returns the full server names in invocation order.
func (s *System) TierNames() []string {
	return []string{s.Web.Name(), s.App.Name(), s.DB.Name()}
}

// Frontend returns the workload entry point for this system.
func (s *System) Frontend() workload.Frontend {
	return workload.Frontend{Transport: s.Transport, Target: s.Web}
}

// TotalDrops sums dropped packets across all hops of this system.
func (s *System) TotalDrops() int64 { return s.Transport.TotalDrops() }

// Cluster owns the physical nodes so multiple systems can share them
// (VM consolidation).
type Cluster struct {
	sim   *des.Simulator
	nodes map[string]*cpu.Node
}

// NewCluster creates an empty cluster.
func NewCluster(sim *des.Simulator) *Cluster {
	return &Cluster{sim: sim, nodes: make(map[string]*cpu.Node)}
}

// Node returns the named physical node, creating it with the given core
// count on first use.
func (c *Cluster) Node(name string, cores float64) *cpu.Node {
	if n, ok := c.nodes[name]; ok {
		return n
	}
	n := cpu.NewNode(c.sim, name, cores)
	c.nodes[name] = n
	return n
}

// Build wires a system per spec. Each tier gets its own transport-visible
// server; tiers with an explicit Node share that physical node with
// whatever else is placed there.
func (c *Cluster) Build(spec SystemSpec) *System {
	tr := simnet.NewTransport(c.sim)
	sys := &System{Spec: spec, Transport: tr}

	if spec.DBConnPool > 0 {
		sys.Pool = simnet.NewConnPool(spec.DBConnPool)
	}

	sys.DBVM = c.placeVM(spec.Name, spec.DB)
	sys.DB = c.buildServer(spec.Name, spec.DB, sys.DBVM, tr, dbPlan())

	sys.AppVM = c.placeVM(spec.Name, spec.App)
	sys.App = c.buildServer(spec.Name, spec.App, sys.AppVM, tr,
		appPlan(sys.DB, sys.Pool))

	sys.WebVM = c.placeVM(spec.Name, spec.Web)
	sys.Web = c.buildServer(spec.Name, spec.Web, sys.WebVM, tr,
		webPlan(sys.App))

	return sys
}

func (c *Cluster) placeVM(sysName string, t TierSpec) *cpu.VM {
	cores := t.Cores
	if cores <= 0 {
		cores = 1
	}
	weight := t.Weight
	if weight <= 0 {
		weight = 1
	}
	vmName := fullName(sysName, t.Name)
	nodeName := t.Node
	if nodeName == "" {
		nodeName = vmName + "-host"
	}
	// A dedicated node exactly fits the VM; a shared node is created with
	// a single core (the paper's consolidation host) unless it already
	// exists.
	node := c.Node(nodeName, cores)
	return node.AddVM(vmName, weight, cores)
}

func (c *Cluster) buildServer(sysName string, t TierSpec, vm *cpu.VM, tr *simnet.Transport, plan server.PlanFunc) server.Server {
	name := fullName(sysName, t.Name)
	switch t.Arch {
	case Async:
		return server.NewAsync(c.sim, vm, tr, plan, server.AsyncConfig{
			Name:              name,
			Workers:           t.Threads,
			LiteQDepth:        t.LiteQDepth,
			OverheadPerThread: t.OverheadPerThread,
		})
	case Sync:
		fallthrough
	default:
		return server.NewSync(c.sim, vm, tr, plan, server.SyncConfig{
			Name:              name,
			Threads:           t.Threads,
			Backlog:           t.Backlog,
			SpareThreads:      t.SpareThreads,
			SpareAfter:        t.SpareAfter,
			OverheadPerThread: t.OverheadPerThread,
			QueueTimeout:      t.QueueTimeout,
		})
	}
}

func fullName(sys, tier string) string {
	if sys == "" {
		return tier
	}
	return fmt.Sprintf("%s-%s", sys, tier)
}

// classOf extracts the interaction class from a request payload; unknown
// payloads get a small default demand so stray calls stay harmless.
func classOf(payload any) workload.Class {
	if req, ok := payload.(*workload.Request); ok {
		return req.Class
	}
	return workload.Class{Name: "unknown", WebCPU: 100 * time.Microsecond}
}

// webPlan serves static requests locally and proxies dynamic ones to the
// app tier.
func webPlan(app server.Server) server.PlanFunc {
	var down *server.Downstream
	if app != nil {
		down = &server.Downstream{Dest: app}
	}
	return func(payload any, buf server.Program) server.Program {
		c := classOf(payload)
		if c.Static || down == nil {
			return append(buf, server.Stage{CPU: c.WebCPU})
		}
		half := c.WebCPU / 2
		return append(buf,
			server.Stage{CPU: half, Call: down},
			server.Stage{CPU: c.WebCPU - half})
	}
}

// appPlan splits the app demand around the class's DB queries, mirroring
// the servlet structure of the paper's Fig. 14: a small pre-processing
// chunk before each query (forming the query is cheap) and the bulk of the
// work after the last result (post-processing and response rendering).
// The small pre-query chunk matters for Fig. 9: after an app-tier
// millibottleneck ends, the backlog's first query fires after only ~15% of
// the app demand, so the batch hits the database faster than the database
// can serve it.
func appPlan(db server.Server, pool *simnet.ConnPool) server.PlanFunc {
	var down *server.Downstream
	if db != nil {
		down = &server.Downstream{Dest: db, Pool: pool}
	}
	return func(payload any, buf server.Program) server.Program {
		c := classOf(payload)
		if c.DBQueries <= 0 || down == nil {
			return append(buf, server.Stage{CPU: c.AppCPU})
		}
		chunk := c.AppCPU * 15 / 100
		buf = slices.Grow(buf, c.DBQueries+1) // allocates only while the pooled visit's or task's buffer is too short
		for q := 0; q < c.DBQueries; q++ {
			buf = append(buf, server.Stage{CPU: chunk, Call: down})
		}
		post := c.AppCPU - chunk*time.Duration(c.DBQueries)
		if post < 0 {
			post = 0
		}
		return append(buf, server.Stage{CPU: post})
	}
}

// dbPlan executes one query's worth of CPU.
func dbPlan() server.PlanFunc {
	return func(payload any, buf server.Program) server.Program {
		return append(buf, server.Stage{CPU: classOf(payload).DBCPU})
	}
}
