package sim

import "testing"

// TestHookObservesDispatch checks the telemetry hook contract: it fires
// once per dispatched event, after the clock has advanced to the
// event's time but before the event function runs, and reports the
// number of events still pending.
func TestHookObservesDispatch(t *testing.T) {
	e := NewEngine()
	type sample struct {
		now     Tick
		pending int
	}
	var hooked []sample
	var fired []Tick
	e.SetHook(func(now Tick, pending int) {
		hooked = append(hooked, sample{now, pending})
	})
	for _, w := range []Tick{3, 8, 8, 20} {
		at(e, w, func(now Tick) {
			// The hook for this dispatch must already have run.
			if len(hooked) != len(fired)+1 {
				t.Errorf("event at %d ran before its hook", now)
			}
			fired = append(fired, now)
		})
	}
	e.Run()

	want := []sample{{3, 3}, {8, 2}, {8, 1}, {20, 0}}
	if len(hooked) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(hooked), len(want))
	}
	for i, w := range want {
		if hooked[i] != w {
			t.Errorf("hook call %d = %+v, want %+v", i, hooked[i], w)
		}
	}
}

// TestHookDetach verifies SetHook(nil) stops delivery without
// disturbing dispatch.
func TestHookDetach(t *testing.T) {
	e := NewEngine()
	calls := 0
	e.SetHook(func(Tick, int) { calls++ })
	e.ScheduleArg(1, nop, nil)
	e.Step()
	e.SetHook(nil)
	e.ScheduleArg(2, nop, nil)
	if !e.Step() {
		t.Fatal("second event not dispatched")
	}
	if calls != 1 {
		t.Errorf("hook called %d times, want 1 (detached before second event)", calls)
	}
}
