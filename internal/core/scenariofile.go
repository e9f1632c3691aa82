package core

import (
	"fmt"
	"io/fs"
	"os"
	"strings"
	"time"

	"embed"

	"ctqosim/internal/cpu"
	"ctqosim/internal/fault"
	"ctqosim/internal/ntier"
	"ctqosim/internal/scenario"
	"ctqosim/internal/server"
	"ctqosim/internal/workload"
)

// scenarioFS embeds every committed scenario file: the named registry at
// the top level, the Fig. 12 sweep templates, and the CTQO matrix cells.
// The files are the single source of truth for the paper's experiment
// parameters.
//
//go:embed scenarios
var scenarioFS embed.FS

// classByName maps the scenario mix vocabulary onto the built-in RUBBoS
// interaction classes (plus the consolidation burst query).
var classByName = map[string]workload.Class{
	"Static":          workload.ClassStatic,
	"StoriesOfTheDay": workload.ClassStoriesOfTheDay,
	"ViewStory":       workload.ClassViewStory,
	"ViewComment":     workload.ClassViewComment,
	"StoreComment":    workload.ClassStoreComment,
	"SubmitStory":     workload.ClassSubmitStory,
	"BurstQuery":      BurstClass,
}

// LoadScenarioFile reads, parses and compiles the scenario file at path,
// returning the document too so the caller can evaluate its assertions
// after the run.
func LoadScenarioFile(path string) (Config, *scenario.Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, nil, err
	}
	doc, err := scenario.Parse(path, data)
	if err != nil {
		return Config{}, nil, err
	}
	cfg, err := FromScenario(doc)
	if err != nil {
		return Config{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, doc, nil
}

// ResolveScenario turns ref into a runnable config and its document: a
// path that exists on disk is a scenario file, anything else a name in
// the registry.
func ResolveScenario(ref string) (Config, *scenario.Document, error) {
	if _, err := os.Stat(ref); err == nil {
		return LoadScenarioFile(ref)
	}
	cfg, ok := Scenarios()[ref]
	if !ok {
		return Config{}, nil, fmt.Errorf("unknown scenario %q (try: ntierlab list)", ref)
	}
	return cfg, ScenarioDocs()[ref], nil
}

// FromScenario compiles a validated scenario document into a runnable
// Config: the fleet section maps onto the Config fields (zero values flow
// through so the engine's run-time defaults apply, exactly as they do for
// hand-written configs), the events section compiles into a Config.Script
// chaos closure, and the assertions travel with the document — evaluate
// them against Result.Outcome() after the run.
func FromScenario(doc *scenario.Document) (Config, error) {
	if err := doc.Validate(); err != nil {
		return Config{}, err
	}
	f := doc.Fleet
	cfg := Config{
		Name:              doc.Name,
		Seed:              doc.Seed,
		NX:                ntier.NX(f.NX),
		Clients:           f.Clients,
		ThinkTime:         f.ThinkTime.D(),
		WarmUp:            doc.WarmUp.D(),
		Duration:          doc.Duration.D(),
		SampleInterval:    doc.SampleInterval.D(),
		AppCores:          f.AppCores,
		ThreadOverride:    f.ThreadOverride,
		OverheadPerThread: f.OverheadPerThread,
		Trace:             doc.Trace,
		Spans:             doc.Spans,
	}
	if len(f.Mix) > 0 {
		mix, err := compileMix(f.Mix)
		if err != nil {
			return Config{}, fmt.Errorf("fleet.mix: %w", err)
		}
		cfg.Mix = mix
	}
	if b := f.Burst; b != nil {
		cfg.Burst = &workload.BurstSpec{Index: b.Index, Epoch: b.Epoch.D()}
	}
	if c := f.Consolidation; c != nil {
		cfg.Consolidation = &ConsolidationSpec{
			Tier:          tierOf(c.Tier),
			BatchSize:     c.BatchSize,
			BatchInterval: c.BatchInterval.D(),
			BatchOffset:   c.BatchOffset.D(),
			TrainLength:   c.TrainLength,
			TrainSpacing:  c.TrainSpacing.D(),
			MMPPIndex:     c.MMPPIndex,
		}
	}
	if lf := f.LogFlush; lf != nil {
		cfg.LogFlush = &LogFlushSpec{
			Tier:     tierOf(lf.Tier),
			Interval: lf.Interval.D(),
			Duration: lf.Duration.D(),
		}
	}
	if gc := f.GCPause; gc != nil {
		cfg.GCPause = &GCPauseSpec{
			Tier:       tierOf(gc.Tier),
			Interval:   gc.Interval.D(),
			Base:       gc.Base.D(),
			PerRequest: gc.PerRequest.D(),
		}
	}
	if tw := compileTweak(f.Web, f.App, f.DB); tw != nil {
		cfg.Tweak = tw
	}
	script, err := compileScript(doc)
	if err != nil {
		return Config{}, err
	}
	cfg.Script = script
	return cfg, nil
}

// compileMix builds a workload mix from the document's entries. Validation
// has already vetted the shape; the only residual error is an unknown
// built-in class name, kept as a defensive check for callers that skip
// Validate.
func compileMix(entries []scenario.MixEntry) (*workload.Mix, error) {
	m := workload.NewMix()
	for i, e := range entries {
		var cl workload.Class
		if e.Class != "" {
			c, ok := classByName[e.Class]
			if !ok {
				return nil, fmt.Errorf("[%d]: unknown built-in class %q", i, e.Class)
			}
			cl = c
		} else {
			cl = workload.Class{
				Name:      e.Name,
				Static:    e.Static,
				WebCPU:    e.WebCPU.D(),
				AppCPU:    e.AppCPU.D(),
				DBQueries: e.DBQueries,
				DBCPU:     e.DBCPU.D(),
			}
		}
		m.Add(cl, e.Weight)
	}
	return m, nil
}

// compileTweak folds the per-tier overrides into a spec tweak; nil when no
// override changes anything, so an override-free document compiles to a
// config with a nil Tweak, as a hand-built Config has. The returned
// closure runs under the Tweak contract: it may only write through the
// spec handed to it.
//
//lint:pure
func compileTweak(web, app, db *scenario.TierOverride) func(*ntier.SystemSpec) {
	if (web == nil || web.Zero()) && (app == nil || app.Zero()) && (db == nil || db.Zero()) {
		return nil
	}
	return func(s *ntier.SystemSpec) {
		applyOverride(&s.Web, web)
		applyOverride(&s.App, app)
		applyOverride(&s.DB, db)
	}
}

// applyOverride adjusts one tier spec in place; only set fields override.
func applyOverride(dst *ntier.TierSpec, ov *scenario.TierOverride) {
	if ov == nil {
		return
	}
	switch ov.Arch {
	case "sync":
		dst.Arch = ntier.Sync
	case "async":
		dst.Arch = ntier.Async
	}
	if ov.Threads > 0 {
		dst.Threads = ov.Threads
	}
	if ov.Backlog > 0 {
		dst.Backlog = ov.Backlog
	}
	if ov.LiteQDepth > 0 {
		dst.LiteQDepth = ov.LiteQDepth
	}
	if ov.Cores > 0 {
		dst.Cores = ov.Cores
	}
}

// compiledEvent is one pre-compiled script step: everything that can fail
// has been resolved at compile time, so fire cannot error mid-run.
type compiledEvent struct {
	at   time.Duration
	fire func(h *RunHandles, injectors map[string]fault.Injector)
}

// compileScript turns the events section into a Config.Script closure.
// Events with equal sim times are scheduled in file order, and the DES
// kernel fires equal-time events in schedule order — that is the script
// determinism contract (DESIGN.md §13). Returns nil for an empty script.
func compileScript(doc *scenario.Document) (func(*RunHandles), error) {
	if len(doc.Events) == 0 {
		return nil, nil
	}
	events := make([]compiledEvent, 0, len(doc.Events))
	for i := range doc.Events {
		ce, err := compileEvent(&doc.Events[i], doc)
		if err != nil {
			return nil, fmt.Errorf("events[%d]: %w", i, err)
		}
		events = append(events, ce)
	}
	return func(h *RunHandles) {
		injectors := make(map[string]fault.Injector)
		for i := range events {
			ev := events[i]
			h.Sim.Schedule(ev.at, func() { ev.fire(h, injectors) })
		}
	}, nil
}

// compileEvent resolves one event against the document. The returned fire
// closures read only their pre-compiled captures and write only through
// the run handles and the per-run injector map.
func compileEvent(ev *scenario.Event, doc *scenario.Document) (compiledEvent, error) {
	at := ev.At.D()
	id := ev.ID
	tier := tierOf(ev.Tier)
	switch ev.Action {
	case scenario.ActionLogFlush:
		interval, dur := ev.Interval.D(), ev.Duration.D()
		if interval <= 0 {
			interval = fault.DefaultFlushInterval
		}
		if dur <= 0 {
			dur = fault.DefaultFlushDuration
		}
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			in, err := fault.NewLogFlush(h.Sim, tierVM(h.Steady, tier), interval, dur)
			if err != nil {
				panic(fmt.Sprintf("scenario logflush event: %v", err))
			}
			in.Start()
			if id != "" {
				inj[id] = in
			}
		}}, nil
	case scenario.ActionCPUHog:
		interval, demand := ev.Interval.D(), ev.Demand.D()
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			in, err := fault.NewCPUHog(h.Sim, tierVM(h.Steady, tier), interval, demand)
			if err != nil {
				panic(fmt.Sprintf("scenario cpuhog event: %v", err))
			}
			in.Start()
			if id != "" {
				inj[id] = in
			}
		}}, nil
	case scenario.ActionGCPause:
		interval, base, perReq := ev.Interval.D(), ev.Base.D(), ev.PerRequest.D()
		if interval <= 0 {
			interval = 10 * time.Second
		}
		if base <= 0 && perReq <= 0 {
			base, perReq = 50*time.Millisecond, 2*time.Millisecond
		}
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			srv := tierServer(h.Steady, tier)
			in, err := fault.NewGCPause(h.Sim, tierVM(h.Steady, tier), interval, base, perReq, srv.InService)
			if err != nil {
				panic(fmt.Sprintf("scenario gcpause event: %v", err))
			}
			in.Start()
			if id != "" {
				inj[id] = in
			}
		}}, nil
	case scenario.ActionStop:
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			if in, ok := inj[id]; ok {
				in.Stop()
			}
		}}, nil
	case scenario.ActionKillTier:
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			tierVM(h.Steady, tier).Stall()
		}}, nil
	case scenario.ActionRestoreTier:
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			tierVM(h.Steady, tier).Resume()
		}}, nil
	case scenario.ActionResizePool:
		// The pool exists only while the app→db connector is synchronous
		// (NX 0 and 1); reject at compile time so the script cannot no-op.
		if doc.Fleet.NX > 1 {
			return compiledEvent{}, fmt.Errorf("resize_pool: NX=%d has no app→db connection pool (the async connector is unpooled)", doc.Fleet.NX)
		}
		size := ev.Size
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			if h.Steady.Pool != nil {
				h.Steady.Pool.Resize(size)
			}
		}}, nil
	case scenario.ActionShiftMix:
		mix, err := compileMix(ev.Mix)
		if err != nil {
			return compiledEvent{}, fmt.Errorf("shift_mix: %w", err)
		}
		return compiledEvent{at, func(h *RunHandles, inj map[string]fault.Injector) {
			h.Clients.SetMix(mix)
		}}, nil
	default:
		return compiledEvent{}, fmt.Errorf("unknown action %q", ev.Action)
	}
}

// tierOf maps a scenario tier name onto the core enum; "" stays zero so
// the spec defaults apply.
func tierOf(name string) Tier {
	switch name {
	case scenario.TierWeb:
		return TierWeb
	case scenario.TierApp:
		return TierApp
	case scenario.TierDB:
		return TierDB
	default:
		return 0
	}
}

// tierVM returns the steady system's VM for a tier.
func tierVM(sys *ntier.System, t Tier) *cpu.VM {
	switch t {
	case TierWeb:
		return sys.WebVM
	case TierApp:
		return sys.AppVM
	case TierDB:
		return sys.DBVM
	default:
		return sys.DBVM
	}
}

// tierServer returns the steady system's server for a tier.
func tierServer(sys *ntier.System, t Tier) server.Server {
	switch t {
	case TierWeb:
		return sys.Web
	case TierApp:
		return sys.App
	case TierDB:
		return sys.DB
	default:
		return sys.DB
	}
}

// mustScenario loads and compiles an embedded scenario file. The files
// are committed and covered by tests, so a failure here is a build defect,
// and panicking keeps the registry's and Figure12Config's signatures
// free of an error no caller could handle.
func mustScenario(path string) Config {
	data, err := scenarioFS.ReadFile(path)
	if err != nil {
		panic(fmt.Sprintf("embedded scenario %s: %v", path, err))
	}
	doc, err := scenario.Parse(path, data)
	if err != nil {
		panic(fmt.Sprintf("embedded scenario: %v", err))
	}
	cfg, err := FromScenario(doc)
	if err != nil {
		panic(fmt.Sprintf("embedded scenario %s: %v", path, err))
	}
	return cfg
}

// mustScenarioDoc parses an embedded scenario file without compiling it,
// for callers that need the assertions section.
func mustScenarioDoc(path string) *scenario.Document {
	data, err := scenarioFS.ReadFile(path)
	if err != nil {
		panic(fmt.Sprintf("embedded scenario %s: %v", path, err))
	}
	doc, err := scenario.Parse(path, data)
	if err != nil {
		panic(fmt.Sprintf("embedded scenario: %v", err))
	}
	return doc
}

// ScenarioDocs returns the parsed documents of the named registry, keyed
// like Scenarios(); the CLI uses it to evaluate a named scenario's
// assertions after the run.
func ScenarioDocs() map[string]*scenario.Document {
	out := make(map[string]*scenario.Document)
	entries, err := fs.ReadDir(scenarioFS, "scenarios")
	if err != nil {
		panic(fmt.Sprintf("embedded scenarios: %v", err))
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		out[name] = mustScenarioDoc("scenarios/" + e.Name())
	}
	return out
}

// Outcome snapshots the run's aggregate statistics in the scenario
// package's assertion vocabulary; feed it to scenario.Evaluate.
func (r *Result) Outcome() scenario.Outcome {
	return scenario.Outcome{
		Throughput:     r.Throughput,
		Requests:       r.Recorder.Len(),
		VLRT:           r.VLRTCount,
		Failed:         r.Recorder.FailedCount(),
		TotalDrops:     r.TotalDrops,
		DropsPerServer: r.DropsPerServer,
		P50:            r.Recorder.Percentile(0.50),
		P99:            r.Recorder.Percentile(0.99),
		P999:           r.Recorder.Percentile(0.999),
		MaxRT:          r.Recorder.Percentile(1),
	}
}
