// Tests for the warm-up memo (warm.go): a run that continues from a
// memoized warm-up must be byte-identical to one that warmed its LLC
// from cold, and the memo must stay bounded, race-free and untouched by
// cancelled warm-ups.

package fgnvm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/trace"
)

// resetWarmMemo empties the warm-up memo, so the next run of every key
// warms its LLC from cold. No warm-up may be in flight.
func resetWarmMemo() {
	warmMemo.lru = memo.NewLRU[warmKey, warmState](warmMemoCap)
}

// warmMemoLen returns the number of memoized warm-ups.
func warmMemoLen() int { return warmMemo.lru.Len() }

// warmCount returns the number of warm-ups computed so far.
func warmCount() uint64 { return warmMemo.warms.Load() }

// warmInstr keeps the memo tests short: the warm-up, not the timed
// region, is what they compare.
const warmInstr = 2_000

// runJSON runs o and returns its marshaled Result.
func runJSON(t *testing.T, o Options) []byte {
	t.Helper()
	res, err := Run(o)
	if err != nil {
		t.Fatalf("Run(%v/%s): %v", o.Design, o.Benchmark, err)
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// inPlaceJSON runs o's benchmark cores as custom streams, which bypass
// the memo and warm in place, and returns the Result JSON under o's
// workload name. It is the memo-free oracle: the same generators, seeds
// and address bases RunContext builds for o.
func inPlaceJSON(t *testing.T, o Options) []byte {
	t.Helper()
	canon, err := o.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	names := canon.Mix
	if len(names) == 0 {
		names = []string{canon.Benchmark}
	}
	custom := o
	custom.Benchmark, custom.Mix = "", nil
	for i, name := range names {
		p, _ := trace.ProfileByName(name)
		var s trace.Stream = trace.NewGenerator(p, 64, 0, canon.Seed+uint64(i)*0x9e3779b9)
		if i > 0 {
			s = trace.NewOffset(s, uint64(i)<<29)
		}
		custom.Streams = append(custom.Streams, s)
	}
	res, err := Run(custom)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	res.Benchmark = want.Benchmark
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// assertMemoExact runs o after clearing the memo (a cold fill), again
// (a memo hit), and with its streams warmed in place, and requires
// byte-identical Result JSON from all three.
func assertMemoExact(t *testing.T, o Options) {
	t.Helper()
	resetWarmMemo()
	cold := runJSON(t, o)
	hit := runJSON(t, o)
	if !bytes.Equal(hit, cold) {
		t.Errorf("memo hit diverged from the cold warm-up:\n  hit : %s\n  cold: %s", hit, cold)
	}
	if inPlace := inPlaceJSON(t, o); !bytes.Equal(inPlace, cold) {
		t.Errorf("memoized run diverged from the in-place warm-up:\n  memo    : %s\n  in place: %s", cold, inPlace)
	}
}

// TestWarmMemoMatchesColdWarmup is the memo's exactness gate: on every
// paper design × benchmark pair, a 4-core Mix and non-default warm-up
// lengths, a run restored from the memo equals one warmed from cold,
// and the Perfetto trace of a telemetry run does not move either.
func TestWarmMemoMatchesColdWarmup(t *testing.T) {
	for _, d := range Designs() {
		t.Run(d.String(), func(t *testing.T) {
			for _, bench := range Benchmarks() {
				t.Run(bench, func(t *testing.T) {
					assertMemoExact(t, Options{Design: d, SAGs: 8, CDs: 2, Benchmark: bench, Instructions: warmInstr})
				})
			}
		})
	}
	t.Run("mix", func(t *testing.T) {
		assertMemoExact(t, Options{Design: DesignFgNVM, Mix: []string{"mcf", "lbm", "milc", "omnetpp"},
			Seed: 3, Instructions: warmInstr})
	})
	t.Run("warmup-lengths", func(t *testing.T) {
		for _, warm := range []int{1, 5_000, 3 * DefaultWarmupAccesses} {
			assertMemoExact(t, Options{Design: DesignSALP, Benchmark: "GemsFDTD", WarmupAccesses: warm, Instructions: warmInstr})
		}
	})
	t.Run("perfetto", func(t *testing.T) {
		o := Options{Design: DesignFgNVMMultiIssue, Benchmark: "libquantum", Instructions: warmInstr}
		resetWarmMemo()
		coldRes, coldTrace := runArtifacts(t, o)
		hitRes, hitTrace := runArtifacts(t, o)
		if !bytes.Equal(hitRes, coldRes) {
			t.Errorf("memo hit diverged with telemetry:\n  hit : %s\n  cold: %s", hitRes, coldRes)
		}
		if !bytes.Equal(hitTrace, coldTrace) {
			t.Errorf("Perfetto trace diverged on a memo hit (%d vs %d bytes)", len(hitTrace), len(coldTrace))
		}
	})
}

// TestWarmMemoCancelledFill: a warm-up cancelled half way stores
// nothing, and the next run of the same key equals a cold one.
func TestWarmMemoCancelledFill(t *testing.T) {
	o := Options{Design: DesignFgNVM, Benchmark: "soplex", Seed: 11, Instructions: warmInstr}
	resetWarmMemo()
	// RunContext's entry poll passes; the warm-up's flight then finds
	// its only waiter gone as soon as it has started, and stops at its
	// next poll.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	idle, before := runtime.NumGoroutine(), warmCount()
	if _, err := RunContext(&leaveOnWaitCtx{Context: done}, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled mid-warm-up returned %v, want context.Canceled", err)
	}
	waitUntil(t, "the abandoned warm-up's goroutine to exit", func() bool { return runtime.NumGoroutine() <= idle })
	if n := warmCount() - before; n != 1 {
		t.Fatalf("%d warm-ups started, want the abandoned one", n)
	}
	if n := warmMemoLen(); n != 0 {
		t.Fatalf("cancelled warm-up left %d memo entries, want 0", n)
	}
	after := runJSON(t, o)
	resetWarmMemo()
	if cold := runJSON(t, o); !bytes.Equal(after, cold) {
		t.Errorf("run after a cancelled warm-up diverged from a cold one:\n  after: %s\n  cold : %s", after, cold)
	}
}

// leaveOnWaitCtx wraps a cancelled context but reports no error on its
// first poll: a run gets past its entry poll, starts its warm-up, and
// leaves it the moment it waits for it.
type leaveOnWaitCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *leaveOnWaitCtx) Err() error {
	if c.polls.Add(1) == 1 {
		return nil
	}
	return c.Context.Err()
}

// TestWarmMemoBound: the memo never holds more than warmMemoCap
// entries, however many keys pass through it.
func TestWarmMemoBound(t *testing.T) {
	resetWarmMemo()
	for seed := uint64(1); seed <= 2*warmMemoCap+3; seed++ {
		if _, err := Run(Options{Benchmark: "mcf", Seed: seed, Instructions: 100, WarmupAccesses: 64}); err != nil {
			t.Fatal(err)
		}
		if n := warmMemoLen(); n > warmMemoCap {
			t.Fatalf("after %d keys the memo holds %d entries, bound %d", seed, n, warmMemoCap)
		}
	}
	if n := warmMemoLen(); n != warmMemoCap {
		t.Errorf("memo holds %d entries after %d keys, want it full at %d", n, 2*warmMemoCap+3, warmMemoCap)
	}
}

// TestWarmMemoParallelSweep runs every point of a sweep concurrently on
// one warm-up key, so its first fills race each other (run it under
// -race), and requires the serial sweep's result.
func TestWarmMemoParallelSweep(t *testing.T) {
	p := SweepParams{Axis: "cds", Values: []int{1, 2, 4, 8}, Benchmark: "milc", Instructions: warmInstr, Parallel: 4}
	sweep := func() []byte {
		resetWarmMemo()
		r, err := SweepContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	par := sweep()
	p.Parallel = 1
	if ser := sweep(); !bytes.Equal(par, ser) {
		t.Errorf("parallel sweep diverged from the serial one:\n  parallel: %s\n  serial  : %s", par, ser)
	}
}

// TestConcurrentMissesWarmOnce: at Parallel 8, concurrent misses on one
// warm-up key coalesce into one warm-up. A sweep's runs all share one
// key, as do the stall story's; a two-benchmark Summary has two. Run
// it under -race.
func TestConcurrentMissesWarmOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		want uint64
		run  func() error
	}{
		{"sweep", 1, func() error {
			_, err := SweepContext(context.Background(), SweepParams{Axis: "cds", Values: []int{1, 2, 4, 8},
				Design: DesignFgNVM, Benchmark: "milc", Instructions: warmInstr, Parallel: 8})
			return err
		}},
		{"stall story", 1, func() error {
			_, err := StallStory(ExperimentParams{Instructions: warmInstr, Parallel: 8})
			return err
		}},
		{"summary", 2, func() error {
			_, err := Summary(ExperimentParams{Benchmarks: []string{"mcf", "lbm"}, Instructions: warmInstr, Parallel: 8})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			resetWarmMemo()
			before := warmCount()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			if got := warmCount() - before; got != c.want {
				t.Errorf("%d warm-ups, want %d", got, c.want)
			}
		})
	}
}

// TestWarmMemoWaiters drives one warm-up's flight through real
// callers: a waiter past its deadline stops waiting, and a leader that
// leaves while a waiter remains does not stop the warm-up, which
// completes once, leaves one memo entry and serves the waiter.
func TestWarmMemoWaiters(t *testing.T) {
	// Long enough that the callers below all meet the flight in flight.
	k := warmKey{profile: mustProfile(t, "mcf"), seed: 21, lineBytes: 64, accesses: 1 << 21}
	resetWarmMemo()
	var joined atomic.Int64
	warmMemo.flights.OnCoalesce = func() { joined.Add(1) }
	defer func() { warmMemo.flights.OnCoalesce = nil }()
	before := warmCount()

	leaderCtx, leave := context.WithCancel(context.Background())
	defer leave()
	leader := make(chan error, 1)
	go func() {
		_, _, err := warmedCore(leaderCtx, k)
		leader <- err
	}()
	waitUntil(t, "the leader's warm-up to start", func() bool { return warmCount() > before })

	late, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, _, err := warmedCore(late, k); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter past its deadline returned %v, want context.DeadlineExceeded", err)
	}
	if n := joined.Load(); n != 1 {
		t.Fatalf("the late waiter joined %d flights, want 1", n)
	}

	waiter := make(chan error, 1)
	go func() {
		_, _, err := warmedCore(context.Background(), k)
		waiter <- err
	}()
	waitUntil(t, "the waiter to join", func() bool { return joined.Load() == 2 })
	leave()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned leader returned %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter after an abandoned leader: %v", err)
	}
	if n := warmCount() - before; n != 1 || warmMemoLen() != 1 {
		t.Errorf("%d warm-ups left %d memo entries, want 1 and 1", n, warmMemoLen())
	}
}

// waitUntil polls cond until it holds, failing the test after a minute.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// mustProfile returns the named benchmark profile.
func mustProfile(t *testing.T, name string) trace.Profile {
	t.Helper()
	p, ok := trace.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return p
}

// fuzzRunBudget is FuzzRunOptions' deadline per run: generous for a
// run of at most 2,000 instructions, even under -race.
const fuzzRunBudget = 30 * time.Second

// FuzzRunOptions runs small decoded Options end to end. Each must fail
// with a clean error or succeed within its deadline, and a success must
// be reproduced byte for byte by a rerun (a warm-up memo hit) and by a
// rerun after clearing the memo (a cold fill). The last check guards the
// memo key: a key that missed an input of the warm-up would return
// another run's cache.
func FuzzRunOptions(f *testing.F) {
	f.Add(uint8(DesignFgNVM), uint8(6), false, uint64(1), uint8(1), false, uint16(500))
	f.Add(uint8(DesignFgNVM), uint8(6), false, uint64(2), uint8(1), false, uint16(500)) // differs in the seed only
	f.Add(uint8(DesignSALP), uint8(3), true, uint64(7), uint8(2), false, uint16(1999))
	f.Add(uint8(DesignDRAM), uint8(0), false, uint64(0), uint8(0), true, uint16(0))
	f.Add(uint8(DesignManyBanks), uint8(11), true, uint64(1<<63), uint8(0), false, uint16(64))
	f.Add(uint8(7), uint8(12), false, uint64(2), uint8(1), false, uint16(10))
	f.Fuzz(func(t *testing.T, design, bench uint8, mix bool, seed uint64, warm uint8, skipLLC bool, instr uint16) {
		names := Benchmarks()
		name := func(i int) string {
			if i %= len(names) + 1; i < len(names) {
				return names[i]
			}
			return "nope" // an unknown benchmark: a clean error
		}
		o := Options{
			Design:         Design(design % 8), // 6 and 7 are unknown designs
			Seed:           seed,
			WarmupAccesses: [...]int{-1, 0, 512}[warm%3],
			SkipLLC:        skipLLC,
			Instructions:   1 + uint64(instr)%2_000,
		}
		if mix {
			o.Mix = []string{name(int(bench)), name(int(bench) + 1)}
		} else {
			o.Benchmark = name(int(bench))
		}
		run := func() []byte {
			ctx, cancel := context.WithTimeout(context.Background(), fuzzRunBudget)
			defer cancel()
			res, err := RunContext(ctx, o)
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%+v did not finish within %v", o, fuzzRunBudget)
			}
			if err != nil {
				return nil
			}
			j, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%+v: marshaling the result: %v", o, err)
			}
			return j
		}
		first := run()
		if first == nil {
			return
		}
		if again := run(); !bytes.Equal(again, first) {
			t.Fatalf("%+v: rerun diverged:\n  first: %s\n  again: %s", o, first, again)
		}
		resetWarmMemo()
		if cold := run(); !bytes.Equal(cold, first) {
			t.Fatalf("%+v: rerun on a cleared warm-up memo diverged:\n  first: %s\n  cold : %s", o, first, cold)
		}
	})
}
