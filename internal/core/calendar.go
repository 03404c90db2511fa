package core

import "repro/internal/sim"

// calendarCap preallocates a Calendar's ticks. The paper matrix never
// holds more than 39 live ticks in one channel, so a probe or a note
// does not allocate on the default path.
const calendarCap = 64

// Calendar is a channel's release calendar: the ticks, sorted and
// without repeats, at which a bank timer of the channel expires. Every
// bank command notes the ticks it sets, and Next drops the ticks at or
// below the probe tick, so the first tick left is at or below the least
// live timer of any bank (Bank.NextRelease) — the next moment a bank
// predicate can change its answer, or earlier.
//
// Timers change only at commands, so the calendar holds every live
// timer tick above the last probe, and a jump to its first tick can
// only fall short of the true next release, never skip one. Equality
// fails only when a command raises a live timer, which leaves the old
// tick behind: with LocalSenseAmps, Partial-Activation and
// Multi-Activation on a bank of two or more CDs, a second activation of
// the SAG's open row through another CD raises the SAG's sense-end
// timer. No design reaches that combination; if one did, the stale tick
// would cost one landing that issues nothing, not a wrong result.
//
// Probes must come at non-decreasing ticks, as the run loop's do: a
// probe forgets the ticks at or below it for good.
type Calendar struct {
	ticks []sim.Tick
}

// NewCalendar returns an empty calendar.
func NewCalendar() *Calendar {
	return &Calendar{ticks: make([]sim.Tick, 0, calendarCap)}
}

// note adds t. Commands set timers a few cycles ahead, so the scan for
// t's place starts from the latest tick.
func (c *Calendar) note(t sim.Tick) {
	i := len(c.ticks)
	for i > 0 && c.ticks[i-1] > t {
		i--
	}
	if i > 0 && c.ticks[i-1] == t {
		return
	}
	c.ticks = append(c.ticks, 0)
	copy(c.ticks[i+1:], c.ticks[i:])
	c.ticks[i] = t
}

// Next returns the least noted tick strictly after now, or sim.MaxTick
// when there is none, and forgets every tick at or below now.
func (c *Calendar) Next(now sim.Tick) sim.Tick {
	i := 0
	for i < len(c.ticks) && c.ticks[i] <= now {
		i++
	}
	if i > 0 {
		c.ticks = c.ticks[:copy(c.ticks, c.ticks[i:])]
	}
	if len(c.ticks) == 0 {
		return sim.MaxTick
	}
	return c.ticks[0]
}
