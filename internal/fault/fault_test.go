package fault

import (
	"strings"
	"testing"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
)

func setup() (*des.Simulator, *cpu.VM) {
	sim := des.NewSimulator(1)
	node := cpu.NewNode(sim, "n", 1)
	return sim, node.AddVM("vm", 1, 1)
}

func run(t *testing.T, sim *des.Simulator, horizon time.Duration) {
	t.Helper()
	if err := sim.Run(horizon); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
}

func mustLogFlush(t *testing.T, sim *des.Simulator, vm *cpu.VM, interval, duration time.Duration) *LogFlush {
	t.Helper()
	f, err := NewLogFlush(sim, vm, interval, duration)
	if err != nil {
		t.Fatalf("NewLogFlush: %v", err)
	}
	return f
}

func TestConstructorValidation(t *testing.T) {
	sim, vm := setup()
	tests := []struct {
		name string
		make func() error
		want string
	}{
		{"logflush nil sim", func() error {
			_, err := NewLogFlush(nil, vm, time.Second, time.Millisecond)
			return err
		}, "nil simulator"},
		{"logflush nil vm", func() error {
			_, err := NewLogFlush(sim, nil, time.Second, time.Millisecond)
			return err
		}, "nil VM"},
		{"logflush zero interval", func() error {
			_, err := NewLogFlush(sim, vm, 0, time.Millisecond)
			return err
		}, "interval must be > 0"},
		{"logflush negative duration", func() error {
			_, err := NewLogFlush(sim, vm, time.Second, -time.Millisecond)
			return err
		}, "duration must be > 0"},
		{"cpuhog nil sim", func() error {
			_, err := NewCPUHog(nil, vm, time.Second, time.Millisecond)
			return err
		}, "nil simulator"},
		{"cpuhog nil vm", func() error {
			_, err := NewCPUHog(sim, nil, time.Second, time.Millisecond)
			return err
		}, "nil VM"},
		{"cpuhog zero interval", func() error {
			_, err := NewCPUHog(sim, vm, 0, time.Millisecond)
			return err
		}, "interval must be > 0"},
		{"cpuhog zero demand", func() error {
			_, err := NewCPUHog(sim, vm, time.Second, 0)
			return err
		}, "demand must be > 0"},
		{"gcpause nil sim", func() error {
			_, err := NewGCPause(nil, vm, time.Second, time.Millisecond, 0, nil)
			return err
		}, "nil simulator"},
		{"gcpause nil vm", func() error {
			_, err := NewGCPause(sim, nil, time.Second, time.Millisecond, 0, nil)
			return err
		}, "nil VM"},
		{"gcpause negative interval", func() error {
			_, err := NewGCPause(sim, vm, -time.Second, time.Millisecond, 0, nil)
			return err
		}, "interval must be > 0"},
		{"gcpause negative base", func() error {
			_, err := NewGCPause(sim, vm, time.Second, -time.Millisecond, 0, nil)
			return err
		}, "must be >= 0"},
		{"gcpause all-zero pause", func() error {
			_, err := NewGCPause(sim, vm, time.Second, 0, 0, nil)
			return err
		}, "both zero"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.make()
			if err == nil {
				t.Fatal("constructor accepted invalid arguments")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLogFlushStallsPeriodically(t *testing.T) {
	sim, vm := setup()
	f := mustLogFlush(t, sim, vm, 30*time.Second, 400*time.Millisecond)
	f.Start()

	run(t, sim, 95*time.Second)
	if f.Fired() != 3 {
		t.Fatalf("flushes = %d, want 3 (at 30/60/90s)", f.Fired())
	}
	u := vm.Usage()
	want := 3 * 400 * time.Millisecond
	if u.Blocked != want {
		t.Fatalf("blocked = %v, want %v", u.Blocked, want)
	}
}

func TestLogFlushStop(t *testing.T) {
	sim, vm := setup()
	f := mustLogFlush(t, sim, vm, time.Second, 10*time.Millisecond)
	f.Start()
	sim.Schedule(2500*time.Millisecond, f.Stop)
	run(t, sim, 10*time.Second)
	if f.Fired() != 2 {
		t.Fatalf("flushes = %d, want 2", f.Fired())
	}
}

func TestLogFlushStartIdempotent(t *testing.T) {
	sim, vm := setup()
	f := mustLogFlush(t, sim, vm, time.Second, 10*time.Millisecond)
	f.Start()
	f.Start()
	run(t, sim, 1500*time.Millisecond)
	if f.Fired() != 1 {
		t.Fatalf("flushes = %d, want 1 (no double ticker)", f.Fired())
	}
}

func TestInjectorInterfaceFiredCounts(t *testing.T) {
	sim, vm := setup()
	lf := mustLogFlush(t, sim, vm, time.Second, time.Millisecond)
	hog, err := NewCPUHog(sim, vm, time.Second, time.Millisecond)
	if err != nil {
		t.Fatalf("NewCPUHog: %v", err)
	}
	gc, err := NewGCPause(sim, vm, time.Second, time.Millisecond, 0, nil)
	if err != nil {
		t.Fatalf("NewGCPause: %v", err)
	}
	injectors := []Injector{lf, hog, gc}
	for _, in := range injectors {
		in.Start()
	}
	run(t, sim, 3500*time.Millisecond)
	for i, in := range injectors {
		if in.Fired() != 3 {
			t.Errorf("injector %d: Fired() = %d, want 3", i, in.Fired())
		}
		in.Stop()
	}
	run(t, sim, 10*time.Second)
	for i, in := range injectors {
		if in.Fired() != 3 {
			t.Errorf("injector %d fired after Stop: %d", i, in.Fired())
		}
	}
}

func TestCPUHogSaturatesSharedCore(t *testing.T) {
	sim := des.NewSimulator(1)
	node := cpu.NewNode(sim, "n", 1)
	steady := node.AddVM("steady", 1, 1)
	hogVM := node.AddVM("hog", 1, 1)

	hog, err := NewCPUHog(sim, hogVM, 15*time.Second, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("NewCPUHog: %v", err)
	}
	hog.Start()

	// A steady job that should take 100ms alone.
	var doneAt time.Duration
	sim.Schedule(15*time.Second, func() {
		steady.Submit(100*time.Millisecond, func() { doneAt = sim.Now() })
	})
	run(t, sim, 20*time.Second)
	if hog.Fired() != 1 {
		t.Fatalf("bursts = %d, want 1", hog.Fired())
	}
	// Sharing the core with the 400ms hog burst, the 100ms job takes 200ms.
	want := 15*time.Second + 200*time.Millisecond
	if doneAt < want-time.Millisecond || doneAt > want+time.Millisecond {
		t.Fatalf("steady job finished at %v, want ~%v", doneAt, want)
	}
}

func TestGCPauseScalesWithLoad(t *testing.T) {
	sim, vm := setup()
	threads := 0
	g, err := NewGCPause(sim, vm, time.Second, 10*time.Millisecond, time.Millisecond, func() int {
		return threads
	})
	if err != nil {
		t.Fatalf("NewGCPause: %v", err)
	}
	g.Start()

	sim.Schedule(1500*time.Millisecond, func() { threads = 100 })
	run(t, sim, 2500*time.Millisecond)
	if g.Fired() != 2 {
		t.Fatalf("pauses = %d, want 2", g.Fired())
	}
	// First pause 10ms (0 threads), second 110ms (100 threads).
	u := vm.Usage()
	want := 120 * time.Millisecond
	if u.Blocked != want {
		t.Fatalf("blocked = %v, want %v", u.Blocked, want)
	}
}

func TestGCPauseNilLoadFn(t *testing.T) {
	sim, vm := setup()
	g, err := NewGCPause(sim, vm, time.Second, 5*time.Millisecond, time.Millisecond, nil)
	if err != nil {
		t.Fatalf("NewGCPause: %v", err)
	}
	g.Start()
	run(t, sim, 1100*time.Millisecond)
	if vm.Usage().Blocked != 5*time.Millisecond {
		t.Fatalf("blocked = %v, want 5ms", vm.Usage().Blocked)
	}
}
