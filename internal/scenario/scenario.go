// Package scenario defines the declarative experiment format that
// replaces hard-coded Go presets: a JSON document with three sections —
// a fleet (tiers, pools, workload mix, standing millibottleneck
// injectors), a sim-time-ordered event script (inject or stop a
// millibottleneck, kill or restore a tier, resize a pool, shift the
// workload mix), and declarative post-run assertions (drops observed or
// absent, VLRT count bounds, percentile ceilings, throughput floors).
//
// The package is deliberately stdlib-only and import-free of the
// simulator: it owns the schema, strict parsing (unknown fields are
// rejected with file/section context), validation, the seeded stress
// generator, and assertion evaluation against a plain Outcome snapshot.
// Compilation of a Document into a runnable core.Config lives in
// internal/core (core.FromScenario), which keeps the dependency arrow
// pointing one way: core reads scenarios, scenarios know nothing of the
// engine.
package scenario

import (
	"encoding/json"
	"fmt"
	"time"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "400ms"), the only duration syntax scenario files accept.
type Duration time.Duration

// D returns the plain time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting only duration
// strings — bare numbers are ambiguous (seconds? nanoseconds?) and are
// rejected so files stay self-describing.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"30s\" or \"400ms\"")
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q: %v", s, err)
	}
	*d = Duration(v)
	return nil
}

// Tier names the three tiers of a system, client side first.
const (
	TierWeb = "web"
	TierApp = "app"
	TierDB  = "db"
)

// ValidTier reports whether s names a tier.
func ValidTier(s string) bool {
	switch s {
	case TierWeb, TierApp, TierDB:
		return true
	default:
		return false
	}
}

// Document is one complete declarative scenario.
type Document struct {
	// Name labels the experiment in summaries; required.
	Name string `json:"name"`
	// Description is free-form authoring context.
	Description string `json:"description,omitempty"`
	// Seed drives all randomness; zero defaults to 1 at run time.
	Seed int64 `json:"seed,omitempty"`
	// WarmUp is excluded from statistics; zero takes the engine default.
	WarmUp Duration `json:"warmup,omitempty"`
	// Duration is the measured interval after warm-up; zero takes the
	// engine default.
	Duration Duration `json:"duration,omitempty"`
	// SampleInterval is the monitor period; zero takes the engine default.
	SampleInterval Duration `json:"sample_interval,omitempty"`
	// Trace enables the CTQO analysis over the transport's drop records.
	Trace bool `json:"trace,omitempty"`
	// Spans enables per-request span-tree tracing.
	Spans bool `json:"spans,omitempty"`

	// Fleet describes the system under test and its standing faults.
	Fleet Fleet `json:"fleet"`
	// Events is the timed chaos script, ordered by sim time; events with
	// equal times fire in file order.
	Events []Event `json:"events,omitempty"`
	// Assertions are evaluated against the finished run.
	Assertions []Assertion `json:"assertions,omitempty"`
}

// Fleet describes the 3-tier system: either a paper architecture level
// (nx) optionally refined by per-tier overrides, the client population,
// the workload mix, and the standing millibottleneck injectors that run
// for the whole experiment.
type Fleet struct {
	// NX is the paper's count of asynchronous tiers (0-3).
	NX int `json:"nx"`
	// Clients is the steady closed-loop population; required.
	Clients int `json:"clients"`
	// ThinkTime is the mean client think time; zero defaults to the
	// RUBBoS 7s.
	ThinkTime Duration `json:"think_time,omitempty"`
	// AppCores scales the app tier VM; zero means 1.
	AppCores float64 `json:"app_cores,omitempty"`
	// ThreadOverride, if positive, sets every synchronous tier's thread
	// pool (the Fig. 12 "2000-thread" configuration).
	ThreadOverride int `json:"thread_override,omitempty"`
	// OverheadPerThread enables the thread-management overhead model.
	OverheadPerThread float64 `json:"overhead_per_thread,omitempty"`
	// Web, App, DB optionally override single tiers of the nx baseline.
	Web *TierOverride `json:"web,omitempty"`
	App *TierOverride `json:"app,omitempty"`
	DB  *TierOverride `json:"db,omitempty"`
	// Mix overrides the interaction mix; empty uses the default RUBBoS
	// browse mix.
	Mix []MixEntry `json:"mix,omitempty"`
	// Burst modulates the steady population's think times.
	Burst *Burst `json:"burst,omitempty"`
	// Consolidation co-locates a bursty co-tenant system on a shared node.
	Consolidation *Consolidation `json:"consolidation,omitempty"`
	// LogFlush injects the periodic I/O millibottleneck for the whole run.
	LogFlush *LogFlush `json:"logflush,omitempty"`
	// GCPause injects periodic JVM stop-the-world collections.
	GCPause *GCPause `json:"gcpause,omitempty"`
}

// TierOverride adjusts one tier of the nx baseline fleet — the per-edge
// sync/async connector choice and the queueing parameters.
type TierOverride struct {
	// Arch switches the tier's server architecture: "sync" or "async".
	Arch string `json:"arch,omitempty"`
	// Threads is the thread pool (sync) or worker count (async).
	Threads int `json:"threads,omitempty"`
	// Backlog is the TCP accept queue (sync only).
	Backlog int `json:"backlog,omitempty"`
	// LiteQDepth bounds the lightweight queue (async only).
	LiteQDepth int `json:"liteq_depth,omitempty"`
	// Cores is the tier VM's vCPU count.
	Cores float64 `json:"cores,omitempty"`
}

// Zero reports whether the override changes nothing.
func (t *TierOverride) Zero() bool {
	return t.Arch == "" && t.Threads == 0 && t.Backlog == 0 &&
		t.LiteQDepth == 0 && t.Cores == 0
}

// MixEntry is one weighted interaction of the workload mix: either a
// reference to a built-in RUBBoS class by name, or an inline class with
// explicit per-tier service-time demands.
type MixEntry struct {
	// Class names a built-in interaction (Static, StoriesOfTheDay,
	// ViewStory, ViewComment, StoreComment, SubmitStory, BurstQuery).
	// Empty means an inline class defined by the demand fields below.
	Class string `json:"class,omitempty"`
	// Weight is the relative frequency; required, > 0.
	Weight float64 `json:"weight"`

	// Name labels an inline class.
	Name string `json:"name,omitempty"`
	// Static marks requests served entirely by the web tier.
	Static bool `json:"static,omitempty"`
	// WebCPU is the web-tier demand of an inline class.
	WebCPU Duration `json:"web_cpu,omitempty"`
	// AppCPU is the app-tier demand of an inline class.
	AppCPU Duration `json:"app_cpu,omitempty"`
	// DBQueries is the inline class's database round trips.
	DBQueries int `json:"db_queries,omitempty"`
	// DBCPU is the inline class's database demand per query.
	DBCPU Duration `json:"db_cpu,omitempty"`
}

// Burst mirrors the index-of-dispersion knob of the closed-loop workload.
type Burst struct {
	// Index is the burstiness index; values <= 1 mean no modulation.
	Index float64 `json:"index"`
	// Epoch is the modulation period; zero defaults to 1s.
	Epoch Duration `json:"epoch,omitempty"`
}

// Consolidation mirrors the VM-consolidation experiment: a bursty
// co-tenant sharing one physical node with the named steady tier.
type Consolidation struct {
	// Tier is the steady tier placed on the shared node; default "app".
	Tier string `json:"tier,omitempty"`
	// BatchSize is requests per burst; zero defaults to 400.
	BatchSize int `json:"batch_size,omitempty"`
	// BatchInterval is the burst period; zero defaults to 15s.
	BatchInterval Duration `json:"batch_interval,omitempty"`
	// BatchOffset delays the first burst; zero fires after one interval.
	BatchOffset Duration `json:"batch_offset,omitempty"`
	// TrainLength fires each burst as a train of sub-bursts (default 1).
	TrainLength int `json:"train_length,omitempty"`
	// TrainSpacing separates sub-bursts; zero defaults to the 3s RTO.
	TrainSpacing Duration `json:"train_spacing,omitempty"`
	// MMPPIndex > 1 replaces deterministic batches with a
	// Markov-modulated Poisson co-tenant of this index of dispersion.
	MMPPIndex float64 `json:"mmpp_index,omitempty"`
}

// LogFlush mirrors the collectl log-flush I/O millibottleneck.
type LogFlush struct {
	// Tier is the stalled tier; default "db".
	Tier string `json:"tier,omitempty"`
	// Interval between flushes; zero defaults to 30s.
	Interval Duration `json:"interval,omitempty"`
	// Duration of each stall; zero defaults to 1s.
	Duration Duration `json:"duration,omitempty"`
}

// GCPause mirrors the JVM stop-the-world collection injector.
type GCPause struct {
	// Tier is the collected tier; default "app".
	Tier string `json:"tier,omitempty"`
	// Interval between collections; zero defaults to 10s.
	Interval Duration `json:"interval,omitempty"`
	// Base is the fixed pause component; zero defaults to 50ms.
	Base Duration `json:"base,omitempty"`
	// PerRequest extends the pause per in-service request; zero defaults
	// to 2ms.
	PerRequest Duration `json:"per_request,omitempty"`
}

// Event actions.
const (
	// ActionLogFlush starts a periodic I/O-stall injector at sim time At.
	ActionLogFlush = "logflush"
	// ActionCPUHog starts a periodic CPU-burst injector.
	ActionCPUHog = "cpuhog"
	// ActionGCPause starts a periodic GC-pause injector.
	ActionGCPause = "gcpause"
	// ActionStop stops a previously started injector by its id.
	ActionStop = "stop"
	// ActionKillTier stalls a tier's VM indefinitely.
	ActionKillTier = "kill_tier"
	// ActionRestoreTier resumes a previously killed tier.
	ActionRestoreTier = "restore_tier"
	// ActionResizePool resizes the app→db connection pool.
	ActionResizePool = "resize_pool"
	// ActionShiftMix swaps the closed-loop workload mix.
	ActionShiftMix = "shift_mix"
)

// Actions lists every event action, in documentation order.
var Actions = []string{
	ActionLogFlush, ActionCPUHog, ActionGCPause, ActionStop,
	ActionKillTier, ActionRestoreTier, ActionResizePool, ActionShiftMix,
}

// Event is one step of the timed chaos script. At is absolute sim time
// from the start of the run (warm-up included); events with equal At
// fire in file order.
type Event struct {
	// At is the firing time; required, >= 0.
	At Duration `json:"at"`
	// Action selects the event kind; see the Action constants.
	Action string `json:"action"`
	// ID names an injector-starting event so a later "stop" can address
	// it; required on stop, optional elsewhere.
	ID string `json:"id,omitempty"`
	// Tier targets a steady tier (logflush, cpuhog, gcpause, kill_tier,
	// restore_tier).
	Tier string `json:"tier,omitempty"`
	// Interval is the injector period (logflush, cpuhog, gcpause). It is
	// required for cpuhog; zero defaults to 30s for logflush and to 10s
	// for gcpause, as in the fleet section.
	Interval Duration `json:"interval,omitempty"`
	// Duration is the per-flush stall length (logflush); zero defaults
	// to 1s, as in the fleet section.
	Duration Duration `json:"duration,omitempty"`
	// Demand is the CPU burst per interval (cpuhog).
	Demand Duration `json:"demand,omitempty"`
	// Base is the fixed pause component (gcpause); zero defaults to
	// 50ms, as in the fleet section.
	Base Duration `json:"base,omitempty"`
	// PerRequest extends the pause per in-service request (gcpause);
	// zero defaults to 2ms, as in the fleet section.
	PerRequest Duration `json:"per_request,omitempty"`
	// Size is the new pool capacity (resize_pool).
	Size int `json:"size,omitempty"`
	// Mix is the replacement workload mix (shift_mix).
	Mix []MixEntry `json:"mix,omitempty"`
}
