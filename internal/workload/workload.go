// Package workload generates RUBBoS-like traffic for the n-tier system.
//
// The paper drives its testbed with the RUBBoS bulletin-board benchmark:
// thousands of closed-loop clients with ~7-second think times and a
// configurable burstiness index (Mi et al., ICAC'09), plus a modified
// "SysBursty" generator that emits a fixed batch of requests at fixed
// intervals to create reproducible CPU millibottlenecks (Section V-B).
// This package provides both generators and the request/interaction
// model they share.
package workload

import (
	"math/rand"
	"time"
)

// DefaultThinkTime is the RUBBoS client think time. 4000/7000/8000 clients
// at a 7s think time yield the paper's ~572/990/1103 req/s throughputs.
const DefaultThinkTime = 7 * time.Second

// Class describes one RUBBoS interaction type and its per-tier CPU demands.
// Demands are calibrated so the paper's workloads hit the paper's
// utilizations (e.g. app tier ≈75% at WL 7000; see internal/ntier).
type Class struct {
	// Name is the RUBBoS interaction name.
	Name string
	// Static marks requests served entirely by the web tier (images, CSS).
	Static bool
	// WebCPU is the web-tier demand.
	WebCPU time.Duration
	// AppCPU is the application-tier demand, split evenly around the DB
	// queries.
	AppCPU time.Duration
	// DBQueries is the number of database round trips.
	DBQueries int
	// DBCPU is the database demand per query.
	DBCPU time.Duration
}

// Request is one end-to-end client request. It is the payload that travels
// the whole invocation chain, so transport drops on any hop are attributed
// to it (it implements simnet.DropRecorder). A generator's request rides
// in its recycled call, held by value: the next request reuses it once a
// Sink has recorded it, so nothing may keep a *Request after its Record
// returns.
type Request struct {
	// ID is unique within a generator.
	ID uint64
	// Class is the interaction type.
	Class Class
	// Submitted is when the client first sent the request.
	Submitted time.Duration
	// Completed is when the reply (or give-up) arrived; zero while in
	// flight.
	Completed time.Duration
	// Failed marks requests that never completed: retransmissions ran
	// out somewhere in the chain, or a queue timeout shed the request.
	Failed bool

	// droppedBy is the server that dropped the request's first packet on
	// any hop of the chain; "" while none has.
	droppedBy string
}

// DroppedAt implements simnet.DropRecorder. Only the first drop is kept:
// it names the server the request is attributed to.
func (r *Request) DroppedAt(server string) {
	if r.droppedBy == "" {
		r.droppedBy = server
	}
}

// ResponseTime returns the end-to-end latency, or zero if still in flight.
func (r *Request) ResponseTime() time.Duration {
	if r.Completed == 0 {
		return 0
	}
	return r.Completed - r.Submitted
}

// VLRT reports whether this is a very long response time request under the
// paper's 3-second criterion.
func (r *Request) VLRT() bool {
	return r.Completed > 0 && r.ResponseTime() > 3*time.Second
}

// DroppedBy returns the server responsible for this request's first drop,
// or "" if it was never dropped. The paper attributes each VLRT request to
// the server that dropped its packets.
func (r *Request) DroppedBy() string { return r.droppedBy }

// Sink receives completed requests; implemented by the metrics recorder.
// Record must not keep the *Request after it returns: the request lives
// in its generator's recycled call, and the next request overwrites it.
// A sink that needs a request later copies it.
type Sink interface {
	Record(*Request)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Request)

// Record implements Sink.
func (f SinkFunc) Record(r *Request) { f(r) }

// Mix is a weighted set of interaction classes.
type Mix struct {
	classes []Class
	weights []float64
	total   float64
}

// NewMix returns an empty mix.
func NewMix() *Mix { return &Mix{} }

// Add registers a class with the given relative weight.
func (m *Mix) Add(c Class, weight float64) *Mix {
	if weight <= 0 {
		return m
	}
	m.classes = append(m.classes, c)
	m.weights = append(m.weights, weight)
	m.total += weight
	return m
}

// Pick draws a class according to the weights.
func (m *Mix) Pick(rng *rand.Rand) Class {
	if len(m.classes) == 0 {
		return Class{Name: "empty"}
	}
	x := rng.Float64() * m.total
	for i, w := range m.weights {
		x -= w
		if x < 0 {
			return m.classes[i]
		}
	}
	return m.classes[len(m.classes)-1]
}

// MeanDemands returns the mix's expected CPU demand per request at each
// tier — the quantity that, multiplied by throughput, gives tier
// utilization.
func (m *Mix) MeanDemands() (web, app, db time.Duration) {
	if m.total == 0 {
		return 0, 0, 0
	}
	var w, a, d float64
	for i, c := range m.classes {
		p := m.weights[i] / m.total
		w += p * float64(c.WebCPU)
		a += p * float64(c.AppCPU)
		d += p * float64(c.DBCPU) * float64(c.DBQueries)
	}
	return time.Duration(w), time.Duration(a), time.Duration(d)
}

// RUBBoS interaction classes, calibrated against the paper's measured
// throughputs and utilizations (Fig. 1): at WL 7000 (≈990 req/s) the app
// tier runs at ≈75%, so the mean app demand is ≈0.75 ms per request.
var (
	// ClassStatic is a static file served by the web tier alone.
	ClassStatic = Class{
		Name:   "Static",
		Static: true,
		WebCPU: 150 * time.Microsecond,
	}
	// ClassStoriesOfTheDay is the RUBBoS front page.
	ClassStoriesOfTheDay = Class{
		Name:      "StoriesOfTheDay",
		WebCPU:    200 * time.Microsecond,
		AppCPU:    900 * time.Microsecond,
		DBQueries: 1,
		DBCPU:     400 * time.Microsecond,
	}
	// ClassViewStory is the paper's canonical dynamic-heavy interaction.
	ClassViewStory = Class{
		Name:      "ViewStory",
		WebCPU:    200 * time.Microsecond,
		AppCPU:    time.Millisecond,
		DBQueries: 2,
		DBCPU:     300 * time.Microsecond,
	}
	// ClassViewComment is a medium dynamic interaction.
	ClassViewComment = Class{
		Name:      "ViewComment",
		WebCPU:    200 * time.Microsecond,
		AppCPU:    900 * time.Microsecond,
		DBQueries: 1,
		DBCPU:     500 * time.Microsecond,
	}
)

// Write interactions of the RUBBoS submission mix. Writes are heavier at
// the database (index updates, logging) and slightly heavier at the app
// tier (validation, formatting).
var (
	// ClassStoreComment posts a comment.
	ClassStoreComment = Class{
		Name:      "StoreComment",
		WebCPU:    200 * time.Microsecond,
		AppCPU:    1100 * time.Microsecond,
		DBQueries: 2,
		DBCPU:     700 * time.Microsecond,
	}
	// ClassSubmitStory posts a new story.
	ClassSubmitStory = Class{
		Name:      "SubmitStory",
		WebCPU:    200 * time.Microsecond,
		AppCPU:    1200 * time.Microsecond,
		DBQueries: 3,
		DBCPU:     600 * time.Microsecond,
	}
)

// DefaultMix returns the browse-only RUBBoS mix used by all paper
// experiments.
func DefaultMix() *Mix {
	return NewMix().
		Add(ClassStatic, 0.20).
		Add(ClassStoriesOfTheDay, 0.30).
		Add(ClassViewStory, 0.30).
		Add(ClassViewComment, 0.20)
}

// SubmissionMix returns the RUBBoS read-write mix: the browse-only mix
// with 10% of the dynamic traffic replaced by writes, per the benchmark's
// submission workload.
func SubmissionMix() *Mix {
	return NewMix().
		Add(ClassStatic, 0.20).
		Add(ClassStoriesOfTheDay, 0.27).
		Add(ClassViewStory, 0.27).
		Add(ClassViewComment, 0.16).
		Add(ClassStoreComment, 0.07).
		Add(ClassSubmitStory, 0.03)
}
