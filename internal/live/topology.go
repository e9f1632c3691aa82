package live

import (
	"fmt"
	"time"
)

// TierRole names a position in the 3-tier chain.
type TierRole int

// Roles, client side first.
const (
	// RoleWeb is the client-facing tier.
	RoleWeb TierRole = iota + 1
	// RoleApp is the middle tier.
	RoleApp
	// RoleDB is the last tier.
	RoleDB
)

// TopologySpec describes a full live 3-tier deployment.
type TopologySpec struct {
	// Sync selects the architecture for all three tiers.
	Sync bool
	// NX, when 1–3, overrides Sync with the paper's mixed configurations:
	// that many tiers, starting from the web tier, run asynchronously
	// while the rest stay synchronous. Zero leaves Sync in charge.
	NX int
	// Workers per tier; zero means 2.
	Workers int
	// Queue per tier: the bounded backlog for sync (MaxSysQDepth =
	// Workers+Queue), the LiteQDepth for async. Zero defaults to Workers
	// (sync) or 10000 (async).
	Queue int
	// RTO is the application-level retransmission timeout between tiers,
	// and from the client a Topology hands out; zero means 3s.
	RTO time.Duration
	// IOTimeout caps socket operations, the client's included; zero
	// means 10s.
	IOTimeout time.Duration
	// Collector, when non-nil, records span intervals across all three
	// tiers (they share one process, hence one clock origin).
	Collector *Collector
}

// Topology is a running live 3-tier system on localhost.
type Topology struct {
	// Web, App, DB are the tiers, client side first.
	Web, App, DB *Server
}

// Deploy starts the three tiers wired web→app→db on loopback addresses.
// Close them with Shutdown.
func Deploy(spec TopologySpec) (*Topology, error) {
	workers := spec.Workers
	if workers < 1 {
		workers = 2
	}
	// tierConfig derives a tier's config: position 0 is the web tier.
	names := []string{"web", "app", "db", ""}
	tierConfig := func(position int, downstream string) Config {
		sync := spec.Sync
		if spec.NX > 0 {
			sync = position >= spec.NX
		}
		queue := spec.Queue
		if queue <= 0 {
			queue = workers // the bounded TCP-backlog analogue
			if !sync {
				queue = 10000 // LiteQDepth
			}
		}
		return Config{
			Addr:           "127.0.0.1:0",
			Sync:           sync,
			Workers:        workers,
			Queue:          queue,
			Downstream:     downstream,
			RTO:            spec.RTO,
			IOTimeout:      spec.IOTimeout,
			Name:           names[position],
			DownstreamName: names[position+1],
			Collector:      spec.Collector,
		}
	}

	db, err := Serve(tierConfig(2, ""))
	if err != nil {
		return nil, fmt.Errorf("live: db tier: %w", err)
	}
	app, err := Serve(tierConfig(1, db.Addr()))
	if err != nil {
		_ = db.Close()
		return nil, fmt.Errorf("live: app tier: %w", err)
	}
	web, err := Serve(tierConfig(0, app.Addr()))
	if err != nil {
		_ = app.Close()
		_ = db.Close()
		return nil, fmt.Errorf("live: web tier: %w", err)
	}
	return &Topology{Web: web, App: app, DB: db}, nil
}

// Client returns a load client aimed at the web tier that makes up to
// maxAttempts attempts per request, inheriting the topology's RTO, I/O
// timeout and collector.
func (t *Topology) Client(maxAttempts int) Client {
	cfg := t.Web.cfg
	return Client{
		Target:      t.Web.Addr(),
		RTO:         cfg.RTO,
		MaxAttempts: maxAttempts,
		IOTimeout:   cfg.IOTimeout,
		Name:        "web",
		Collector:   cfg.Collector,
	}
}

// TotalDrops sums refused connections across the three tiers.
func (t *Topology) TotalDrops() int64 {
	return t.Web.Stats().Dropped() + t.App.Stats().Dropped() + t.DB.Stats().Dropped()
}

// Shutdown closes all tiers, returning the first error.
func (t *Topology) Shutdown() error {
	var first error
	for _, s := range []*Server{t.Web, t.App, t.DB} {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
