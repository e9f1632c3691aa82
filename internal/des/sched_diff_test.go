package des

// Differential check of the 4-ary heap + timer wheel scheduler, with its
// alarms, against a reference implementation kept on container/heap —
// the structure the kernel used before the rewrite. Both sides consume
// the same decoded schedule/alarm trace; the pop order must match
// event for event, which pins the (time, seq) total order across every
// container the new scheduler can route an event through (near heap,
// wheel levels 0–2, overflow, idle catch-up fallback, the armed alarms).
// The reference has no alarms: it keeps its own cancel and models Set
// as a cancel of the alarm's pending scheduling followed by a fresh
// schedule, and Stop as the cancel, which is the equivalence that lets
// a model move a withdrawable timer onto an alarm and keep every
// result. Both sides must also agree on the counters the golden digests
// print: Scheduled and PeakPending.

import (
	"container/heap"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// refEvent is one reference-scheduler entry. The id is the trace-wide
// event index used to compare pop orders across implementations.
type refEvent struct {
	time     time.Duration
	seq      uint64
	id       int
	canceled bool
	fired    bool
	index    int
}

// refHeap is the retained container/heap implementation: binary heap,
// dynamic dispatch, eager index maintenance — the pre-rewrite scheduler
// shape, kept verbatim as the semantic oracle.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*h = old[:n]
	return e
}

// refFire is one pop-order entry: which event fired, and at what clock.
type refFire struct {
	id int
	at time.Duration
}

// refSim is the reference scheduler: same clamping, same per-schedule
// seq assignment and same horizon semantics as Simulator, a cancel that
// withdraws an alarm's pending scheduling as Alarm.Stop does, and the
// same live-event accounting behind Pending and PeakPending.
type refSim struct {
	now  time.Duration
	seq  uint64
	h    refHeap
	log  []refFire
	live int
	peak int
}

func (r *refSim) schedule(t time.Duration, id int) *refEvent {
	if t < r.now {
		t = r.now
	}
	e := &refEvent{time: t, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.h, e)
	r.live++
	r.peak = max(r.peak, r.live)
	return e
}

func (r *refSim) cancel(e *refEvent) {
	if e != nil && !e.fired && !e.canceled {
		e.canceled = true
		r.live--
	}
}

func (r *refSim) run(horizon time.Duration) {
	for r.h.Len() > 0 {
		e := r.h[0]
		if e.canceled {
			heap.Pop(&r.h)
			continue
		}
		if e.time > horizon {
			break
		}
		heap.Pop(&r.h)
		r.now = e.time
		e.fired = true
		r.live--
		r.log = append(r.log, refFire{e.id, e.time})
	}
	if r.now < horizon {
		r.now = horizon
	}
}

// diffDriver applies one trace to both schedulers in lockstep.
// Scheduled events are numbered from 0 in scheduling order; alarm
// schedulings are numbered from -1 downwards, so the two kinds share
// one firing log.
type diffDriver struct {
	sim    *Simulator
	ref    refSim
	events int // events scheduled so far
	log    []refFire

	alarms    []*Alarm
	alarmRefs []*refEvent // each alarm's pending reference scheduling, nil when stopped or fired
	alarmIDs  []int       // each alarm's current scheduling's id
	alarmSets int

	// mismatch is the first divergence a run found, "" while none has;
	// checked is how much of the firing logs is known to agree.
	mismatch string
	checked  int
}

// maxDiffAlarms caps the alarms one trace creates: a run has one per
// CPU node, a handful.
const maxDiffAlarms = 6

func newDiffDriver() *diffDriver {
	return &diffDriver{sim: NewSimulator(1)}
}

func (d *diffDriver) schedule(at time.Duration) {
	id := d.events
	d.events++
	d.sim.ScheduleAt(at, func() {
		d.log = append(d.log, refFire{id, d.sim.Now()})
	})
	d.ref.schedule(at, id)
}

// setAlarm arms alarm i after delay, creating alarms up to i first, or
// re-arms it if it is armed. The reference cancels the alarm's pending
// scheduling, if any, then schedules afresh.
func (d *diffDriver) setAlarm(i int, delay time.Duration) {
	for len(d.alarms) <= i {
		k := len(d.alarms)
		d.alarms = append(d.alarms, d.sim.NewAlarm(func() {
			d.log = append(d.log, refFire{d.alarmIDs[k], d.sim.Now()})
		}))
		d.alarmRefs = append(d.alarmRefs, nil)
		d.alarmIDs = append(d.alarmIDs, 0)
	}
	d.alarmSets++
	id := -d.alarmSets
	d.alarms[i].Set(delay)
	d.ref.cancel(d.alarmRefs[i])
	d.alarmRefs[i] = d.ref.schedule(d.ref.now+delay, id)
	d.alarmIDs[i] = id
}

// stopAlarm disarms alarm i, if it exists; the reference cancels its
// pending scheduling.
func (d *diffDriver) stopAlarm(i int) {
	if i >= len(d.alarms) {
		return
	}
	d.alarms[i].Stop()
	d.ref.cancel(d.alarmRefs[i])
	d.alarmRefs[i] = nil
}

// run runs both schedulers to horizon and compares what fired since the
// last run, so a trace stops at its first divergence instead of running
// on from a corrupt state (an event stranded in the wheel would
// otherwise stall the final drain rather than fail it).
func (d *diffDriver) run(horizon time.Duration) {
	if err := d.sim.Run(horizon); err != nil && err != ErrHorizon {
		panic(err)
	}
	d.ref.run(horizon)
	if d.mismatch != "" {
		return
	}
	if d.sim.Now() != d.ref.now {
		d.mismatch = fmt.Sprintf("clock diverged: new %v, reference %v", d.sim.Now(), d.ref.now)
		return
	}
	for i := d.checked; i < min(len(d.log), len(d.ref.log)); i++ {
		if d.log[i] != d.ref.log[i] {
			d.mismatch = fmt.Sprintf("pop %d diverged: new fired event %d at %v, reference event %d at %v",
				i, d.log[i].id, d.log[i].at, d.ref.log[i].id, d.ref.log[i].at)
			return
		}
	}
	if len(d.log) != len(d.ref.log) {
		d.mismatch = fmt.Sprintf("by %v fired %d events, reference fired %d", horizon, len(d.log), len(d.ref.log))
		return
	}
	d.checked = len(d.log)
}

// applyDiffTrace decodes data as a schedule/advance/alarm op stream,
// applies it to both schedulers, then drains. The delay bands are
// chosen so traces reach every scheduler container: sub-ms and µs delays
// stay in the near heap or wheel level 0; the 0–17 ms band, in 64 µs
// steps, fills level-0 slots on both sides of the wheel's wrap-around,
// since level 0 spans 16.8 ms from a horizon anywhere in its revolution;
// the 3 s band (the RTO shape) parks in level 1 and cascades once;
// minutes-scale delays reach level 2 and the overflow list; and advance
// ops move the clock so placements happen against moving horizons.
// Alarms are set and re-armed on the same 64 µs grid as the 0–17 ms
// band and the instant pairs, so an alarm re-armed to the instant of an
// event scheduled since its last arming ties with it, and only the
// re-arm's fresh seq orders the two as the reference does. Events at
// the current instant go to the heap once the clock's bucket is
// promoted, and to the wheel before, including after an idle catch-up.
func applyDiffTrace(data []byte) *diffDriver {
	d := newDiffDriver()
	for i := 0; i+2 < len(data) && d.mismatch == ""; i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		ab := time.Duration(uint16(a)<<8 | uint16(b))
		switch op % 9 {
		case 0: // near band: µs-scale, heap or wheel level 0
			d.schedule(d.sim.Now() + ab*time.Microsecond)
		case 1: // RTO band: 3 s + jitter, wheel level 1
			d.schedule(d.sim.Now() + 3*time.Second + time.Duration(a)*time.Millisecond + time.Duration(b)*time.Microsecond)
		case 2: // deep band: minutes, wheel level 2 / overflow
			d.schedule(d.sim.Now() + time.Duration(a%30)*time.Minute + time.Duration(b)*time.Second)
		case 3: // an event at the current instant
			d.schedule(d.sim.Now())
		case 4: // advance the clock up to ~65 s
			d.run(d.sim.Now() + ab*time.Millisecond)
		case 5: // two events at one instant on the 64 µs grid
			at := d.sim.Now() + time.Duration(b)*64*time.Microsecond
			d.schedule(at)
			d.schedule(at)
		case 6: // level-0 band: 0–17 ms on a 64 µs grid, across the wrap
			d.schedule(d.sim.Now() + (ab%272)*64*time.Microsecond)
		case 7: // create, arm or re-arm an alarm on the 64 µs grid
			d.setAlarm(int(a)%maxDiffAlarms, time.Duration(b)*64*time.Microsecond)
		case 8: // stop an alarm (a no-op when it is not armed)
			d.stopAlarm(int(a) % maxDiffAlarms)
		}
	}
	if d.mismatch == "" {
		d.run(d.sim.Now() + time.Hour) // drain: every band is due within the hour
	}
	return d
}

// diffMismatch describes the first way the two schedulers disagree —
// the firing log or the clock at a run's end, the scheduling count, the
// peak of live events, or a live event left after the drain — or
// returns "". The handwritten traces call run themselves, and end with
// a drain, before it.
func diffMismatch(d *diffDriver) string {
	if d.mismatch != "" {
		return d.mismatch
	}
	if d.sim.Scheduled() != d.ref.seq {
		return fmt.Sprintf("Scheduled = %d, reference %d", d.sim.Scheduled(), d.ref.seq)
	}
	if d.sim.PeakPending() != d.ref.peak {
		return fmt.Sprintf("PeakPending = %d, reference %d", d.sim.PeakPending(), d.ref.peak)
	}
	if d.sim.Pending() != 0 || d.ref.live != 0 {
		return fmt.Sprintf("Pending = %d after drain, reference %d", d.sim.Pending(), d.ref.live)
	}
	return ""
}

// checkDiff asserts both schedulers popped the same events at the same
// times in the same order, and agree on the final clock and counters.
func checkDiff(t *testing.T, d *diffDriver) {
	t.Helper()
	if msg := diffMismatch(d); msg != "" {
		t.Fatal(msg)
	}
}

// FuzzSchedulerDifferential fuzzes op traces through both schedulers.
func FuzzSchedulerDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 10, 1, 0, 0, 1, 0, 0, 4, 0, 200}) // FIFO ties in both bands
	f.Add([]byte{1, 0, 0, 2, 5, 0, 2, 29, 255, 4, 255, 255, 3, 0, 1})
	f.Add([]byte{2, 0, 0, 4, 255, 255, 2, 0, 0, 4, 255, 255, 1, 0, 0}) // idle catch-up
	f.Add([]byte{0, 0, 1, 3, 0, 0, 3, 0, 0, 1, 0, 0, 3, 0, 1, 4, 16, 0})
	// Stale handles: an alarm stopped twice, stopped after it fired, and
	// one stopped before it was ever created, each a no-op.
	f.Add([]byte{7, 0, 50, 0, 0, 100, 8, 0, 0, 8, 0, 0, 7, 0, 10, 4, 0, 200, 8, 0, 0, 7, 0, 9, 8, 1, 0})
	// An alarm re-armed to the instant of an event scheduled since its
	// first arming fires after that event, by its fresh seq.
	f.Add([]byte{7, 0, 10, 6, 0, 20, 7, 0, 20})
	// The horizon sits at bucket 106 when an event 12.8 ms out lands in
	// a level-0 slot behind it, across the wrap, and one 0.64 ms out in
	// front: after draining the near one, the search must wrap.
	f.Add([]byte{4, 0, 7, 6, 0, 200, 6, 0, 10, 7, 1, 150})
	// From bucket 152, an event due at bucket 417 parks in level 1 and
	// one due at 396 in level 0, past the level-1 boundary at 256: the
	// horizon must stop at 256 and cascade the first before it reaches
	// the second. The alarms keep the later runs bounded.
	f.Add([]byte{4, 0, 10, 6, 1, 15, 6, 0, 250, 7, 0, 255, 4, 0, 12, 7, 0, 255, 4, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDiff(t, applyDiffTrace(data))
	})
}

// TestSchedulerDifferentialProperty drives randomized traces through the
// differential harness under testing/quick, so the comparison runs on
// every ordinary `go test` invocation, not only under -fuzz.
func TestSchedulerDifferentialProperty(t *testing.T) {
	f := func(data []byte) bool {
		if msg := diffMismatch(applyDiffTrace(data)); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerDifferentialTrace pins one handwritten trace that touches
// every container and moves and withdraws alarms across them, as a
// deterministic anchor for the fuzz harness itself.
func TestSchedulerDifferentialTrace(t *testing.T) {
	d := newDiffDriver()
	d.schedule(d.sim.Now() + 50*time.Microsecond) // near
	d.schedule(d.sim.Now() + 3*time.Second)       // RTO, level 1
	d.setAlarm(0, 3*time.Second)                  // ties with the RTO, after it by seq
	d.schedule(d.sim.Now() + 3*time.Second)       // simultaneous RTO, after the alarm
	d.schedule(d.sim.Now() + 30*time.Second)      // level 2
	d.schedule(d.sim.Now() + 20*time.Minute)      // overflow
	d.setAlarm(1, 30*time.Second)
	d.stopAlarm(1)
	d.run(d.sim.Now() + 10*time.Second)
	d.schedule(d.sim.Now() + 3*time.Second) // park against an advanced horizon
	d.stopAlarm(0)                          // already fired: no-op on both sides
	d.setAlarm(0, 40*time.Microsecond)      // re-armed after firing
	d.setAlarm(1, 20*time.Second)           // re-armed after a stop, tying with the level-2 event
	d.setAlarm(2, 3*time.Second)            // ties with the parked event, after it by seq
	d.setAlarm(2, time.Second)              // moved earlier
	d.run(d.sim.Now() + time.Hour)
	checkDiff(t, d)
}
