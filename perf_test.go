// The simulator's performance gate, in the golden harness: the eight
// cases of BENCH_pr5.json, every design on the write-heavy lbm profile
// plus the FgNVM designs on the read-bound mcf profile, at the file's
// 200 k instructions and seed 1 on the paper's 8×2 grid. Only figures
// that do not depend on the host are gated: simulated cycles exactly
// (TestGoldenPerf), allocations per run within 10 %
// (TestGoldenPerfAllocs, allocbudget_test.go) and how often the run
// loop jumps (TestGoldenPerf). Wall time is the repo benchmark's
// business (bench/), and `go test -bench RunWarmup` times one run.

package fgnvm

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// perfBaseline is the committed performance baseline. Its cycles are
// rewritten by `go test -run '^TestGoldenPerf$' -update`; its
// allocs_per_op figures are edited by hand.
const perfBaseline = "BENCH_pr5.json"

// perfCase is one design × benchmark entry of the baseline.
type perfCase struct {
	Design      string `json:"design"`
	Benchmark   string `json:"benchmark"`
	Cycles      uint64 `json:"cycles"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
}

// perfReport is the baseline's schema. GoVersion names the toolchain
// the allocation figures were measured with and is carried through
// unchanged.
type perfReport struct {
	Instructions uint64     `json:"instructions"`
	Seed         uint64     `json:"seed"`
	GoVersion    string     `json:"go_version"`
	Cases        []perfCase `json:"cases"`
}

// loadPerfReport decodes the baseline, refusing any field the schema
// lacks, and requires it to list every design on lbm, then FgNVM and
// FgNVM multi-issue on mcf, in that order, so that a case dropped from
// the file cannot drop its check.
func loadPerfReport(t *testing.T) perfReport {
	t.Helper()
	b, err := os.ReadFile(perfBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var rep perfReport
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("parse %s: %v", perfBaseline, err)
	}
	var want, got []string
	for _, d := range Designs() {
		want = append(want, d.String()+"/lbm")
	}
	want = append(want, DesignFgNVM.String()+"/mcf", DesignFgNVMMultiIssue.String()+"/mcf")
	for _, c := range rep.Cases {
		got = append(got, c.Design+"/"+c.Benchmark)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s lists %v, want %v", perfBaseline, got, want)
	}
	return rep
}

// options returns the run options of one case.
func (r perfReport) options(t *testing.T, c perfCase) Options {
	t.Helper()
	d, err := ParseDesign(c.Design)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Design: d, SAGs: 8, CDs: 2,
		Benchmark: c.Benchmark, Instructions: r.Instructions, Seed: r.Seed,
	}
}

// runPolls runs o and returns its marshaled Result, its cycle count
// and the number of times the run polled ctx.Err.
func runPolls(t *testing.T, o Options) ([]byte, uint64, int64) {
	t.Helper()
	const never = 1 << 40
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(never)
	r, err := RunContext(ctx, o)
	if err != nil {
		t.Fatalf("%v/%s (ff=%v): %v", o.Design, o.Benchmark, !o.DisableFastForward, err)
	}
	j, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return j, uint64(r.Cycles), never - ctx.left.Load()
}

// TestGoldenPerf reruns the baseline's cases twice each, with
// fast-forward on and off, and checks three things:
//
//   - the two runs' Result JSON is byte-identical, which extends the
//     fast-forward differential to the paper's run length;
//   - fast-forward still jumps. The run loop polls ctx.Err on every
//     4096th tick and once more after every jump, so the fast-forwarded
//     run polls more often than the cycle-by-cycle one by the number of
//     jumps minus the aligned ticks they skipped. Every NVM case must
//     gain polls, and DRAM, which never jumps, must gain none. The
//     per-case gains are pinned in testdata/golden/ffpolls.json;
//   - the baseline with only its cycles replaced by the measured ones
//     is byte-identical to the committed file.
//
// The counts are exact and the same on every host, unlike the
// wall-clock speedup they replace.
func TestGoldenPerf(t *testing.T) {
	type ffPolls struct {
		Design    string `json:"design"`
		Benchmark string `json:"benchmark"`
		JumpPolls int64  `json:"jump_polls"` // extra ctx.Err polls with fast-forward on
	}
	rep := loadPerfReport(t)
	var ff []ffPolls
	for i := range rep.Cases {
		c := &rep.Cases[i]
		o := rep.options(t, *c)
		res, cycles, polls := runPolls(t, o)
		o.DisableFastForward = true
		ref, _, refPolls := runPolls(t, o)
		if !bytes.Equal(res, ref) {
			t.Errorf("%s/%s: Result diverged from the cycle-by-cycle reference:\n  run: %s\n  ref: %s",
				c.Design, c.Benchmark, res, ref)
		}
		jump := polls - refPolls
		if dram := c.Design == DesignDRAM.String(); dram && jump != 0 || !dram && jump <= 0 {
			t.Errorf("%s/%s: %d polls with fast-forward on, %d with it off; want more on every NVM design and equal on DRAM",
				c.Design, c.Benchmark, polls, refPolls)
		}
		c.Cycles = cycles
		ff = append(ff, ffPolls{c.Design, c.Benchmark, jump})
	}
	if t.Failed() {
		t.FailNow() // -update must not record a state that fails the checks
	}
	checkGolden(t, perfBaseline, rep)
	checkGolden(t, "testdata/golden/ffpolls.json", ff)
}
