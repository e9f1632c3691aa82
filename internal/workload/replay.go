package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
)

// Arrival is one scheduled request of a replay trace.
type Arrival struct {
	// At is the simulated arrival time.
	At time.Duration
	// Class names the interaction; empty falls back to the mix.
	Class string
}

// Replay re-issues a recorded arrival trace against a system: record a
// run's arrivals, replay them against a different configuration, compare.
type Replay struct {
	sim      *des.Simulator
	front    Frontend
	arrivals []Arrival
	classes  map[string]Class
	fallback *Mix
	sink     Sink

	nextID uint64
	sent   int64
}

// NewReplay creates a replay generator over the given arrivals (sorted
// internally). Classes resolves class names; nil or missing names fall
// back to mix (nil mix means DefaultMix).
func NewReplay(sim *des.Simulator, front Frontend, arrivals []Arrival, classes map[string]Class, mix *Mix, sink Sink) *Replay {
	sorted := make([]Arrival, len(arrivals))
	copy(sorted, arrivals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	if mix == nil {
		mix = DefaultMix()
	}
	return &Replay{
		sim: sim, front: front, arrivals: sorted,
		classes: classes, fallback: mix, sink: sink,
	}
}

// Start schedules every arrival.
func (r *Replay) Start() {
	for _, a := range r.arrivals {
		a := a
		r.sim.ScheduleAt(a.At, func() { r.fire(a) })
	}
}

// Sent returns the number of requests issued so far.
func (r *Replay) Sent() int64 { return r.sent }

func (r *Replay) fire(a Arrival) {
	class, ok := r.classes[a.Class]
	if !ok {
		class = r.fallback.Pick(r.sim.Rand())
	}
	req := &Request{ID: r.nextID, Class: class, Submitted: r.sim.Now()}
	r.nextID++
	r.sent++

	call := &simnet.Call{Payload: req}
	finish := func(failed bool) {
		req.Completed = r.sim.Now()
		req.Failed = failed
		if r.sink != nil {
			r.sink.Record(req)
		}
	}
	call.OnReply = func(any) { finish(false) }
	call.OnGiveUp = func() { finish(true) }
	r.front.Transport.Send(r.front.Target, call)
}

// ReadArrivalsCSV parses a trace of "time_s,class" rows (header optional;
// the class column may be omitted).
func ReadArrivalsCSV(rd io.Reader) ([]Arrival, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	var out []Arrival
	for lineNo := 1; ; lineNo++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("replay csv line %d: %w", lineNo, err)
		}
		if len(rec) == 0 {
			continue
		}
		secs, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			if lineNo == 1 {
				continue // header
			}
			return nil, fmt.Errorf("replay csv line %d: bad time %q", lineNo, rec[0])
		}
		a := Arrival{At: time.Duration(secs * float64(time.Second))}
		if len(rec) > 1 {
			a.Class = rec[1]
		}
		out = append(out, a)
	}
}

// WriteArrivalsCSV renders arrivals in the same format ReadArrivalsCSV
// accepts.
func WriteArrivalsCSV(w io.Writer, arrivals []Arrival) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "class"}); err != nil {
		return err
	}
	for _, a := range arrivals {
		if err := cw.Write([]string{
			strconv.FormatFloat(a.At.Seconds(), 'f', 6, 64),
			a.Class,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
