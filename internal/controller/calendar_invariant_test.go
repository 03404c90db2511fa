//go:build fgnvm_invariants

package controller

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// probePanic runs one NextWork probe and returns its panic message, or
// "" when it did not panic.
func probePanic(c *Controller, now sim.Tick) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	c.NextWork(now)
	return ""
}

// TestCalendarFaultCaught: under fgnvm_invariants every probe checks the
// channel calendar against the bank timers. A calendar advanced past a
// live timer must make the next probe panic. The first probe runs
// before the activation, so the check's per-bank release cache holds
// the idle bank's answer and is right only if the command resets it.
func TestCalendarFaultCaught(t *testing.T) {
	c, eng := newCtrl(t, core.AccessModes{}, 1)
	r := &mem.Request{ID: 1, Addr: addrFor(t, c, 3, 0, 1), Op: mem.Read}
	if !c.Enqueue(r, 0) {
		t.Fatal("request rejected")
	}
	if msg := probePanic(c, 0); msg != "" {
		t.Fatalf("probe before any command panicked: %s", msg)
	}
	eng.RunUntil(0)
	if c.Cycle(0) == 0 {
		t.Fatal("no activation at tick 0")
	}
	s := &c.shards[0]
	live := s.banks[s.bankIndex(r.Loc)].NextRelease(0)
	if live == sim.MaxTick {
		t.Fatal("the activation set no bank timer")
	}
	if msg := probePanic(c, 0); msg != "" {
		t.Fatalf("probe of a sound calendar panicked: %s", msg)
	}
	s.cal.Next(live) // the calendar forgets the live timer
	if msg := probePanic(c, 0); !strings.Contains(msg, "calendar says") {
		t.Fatalf("probe past a forgotten timer at tick %d gave %q, want the calendar invariant's panic", live, msg)
	}
}
