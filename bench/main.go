// Command bench is the repository benchmark: it times closed-loop
// workloads through fgnvm's public API with tracing off, checks every
// output, and in a separate traced pass splits host time across the
// simulator's layers by timing calls into them from outside.
//
//	go run ./bench -workload paper-matrix -seed 1 -trace 0
//	go run ./bench                        # every workload, both passes
//	go run ./bench compare A.json B.json  # parent vs change
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// digestsJSON holds each workload's output digest at seed 1. The
// simulated machine is frozen, so these never change.
//
//go:embed digests.json
var digestsJSON []byte

// runTimeout bounds one workload's passes, so a hung op still ends the
// process with a failure well inside three minutes.
const runTimeout = 170 * time.Second

// host states what a measurement ran on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Platform   string `json:"platform"`
}

func thisHost() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}

// record is one workload run, as appended to the -o file and read by
// compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest"`
	Host      host              `json:"host"`
	HostSpeed float64           `json:"host_speed,omitempty"` // the end-to-end times' scale, see hostspeed.go
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: paper-matrix, telemetry, sweep or all")
	seed := fs.Uint64("seed", 1, "workload seed (fgnvm Options.Seed)")
	seconds := fs.Int("seconds", runSeconds, "the run length the caller expects; it must be the benchmark's own, which its pass counts fix")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (default: both)")
	out := fs.String("o", "", "append each workload's result record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "bench: -seconds %d: the run length is fixed at %d s by each workload's pass count\n", *seconds, runSeconds)
		return 2
	}
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		fmt.Fprintln(os.Stderr, "bench: digests.json:", err)
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}

	status := 0
	for _, w := range selected {
		rec := runWorkload(w, *seed, *traceMode, digests[w.name], filepath.Join("bench", "out", w.name+".spans.json"))
		if err := report(stdout, rec, *traceMode); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// runWorkload runs the passes traceMode selects and checks the output
// digest: passes must agree, and at seed 1 match the committed digest.
func runWorkload(w workload, seed uint64, traceMode int, want, spansPath string) record {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	rec := record{Workload: w.name, Seed: seed, Host: thisHost(), Metrics: map[string]metric{}}
	var t tally
	merge := func(m map[string]metric, outs []outcome, pt tally) {
		for k, v := range m {
			rec.Metrics[k] = v
		}
		d := workloadDigest(outs)
		if rec.Digest != "" && d != rec.Digest {
			pt.fail("digest", errors.New("the end-to-end and traced passes disagree"))
		}
		rec.Digest = d
		t.attempted += pt.attempted
		t.failed += pt.failed
		t.invalid = t.invalid || pt.invalid
		t.notes = append(t.notes, pt.notes...)
	}
	if traceMode != 1 {
		m, outs, speed, pt := measureEndToEnd(ctx, w, seed)
		rec.HostSpeed = speed
		merge(m, outs, pt)
	}
	if traceMode != 0 {
		merge(measureLayers(ctx, w, seed, spansPath))
	}
	if seed == 1 && rec.Digest != want {
		t.fail("digest", fmt.Errorf("seed-1 digest %s, committed %q", rec.Digest, want))
	}
	rec.Correct = t.failed == 0 && !t.invalid
	rec.Attempted, rec.Failed, rec.Notes = t.attempted, t.failed, t.notes
	return rec
}

// report prints every metric of the selected passes with its unit and
// sample count, then the one-line JSON result.
func report(w io.Writer, rec record, traceMode int) error {
	fmt.Fprintf(w, "%s seed=%d correct=%t attempted=%d failed=%d digest=%s host_speed=%.4g nproc=%d gomaxprocs=%d %s\n",
		rec.Workload, rec.Seed, rec.Correct, rec.Attempted, rec.Failed, rec.Digest, rec.HostSpeed,
		rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion)
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "  FAIL", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	var defs []metricDef
	if traceMode != 1 {
		defs = append(defs, endToEnd...)
	}
	if traceMode != 0 {
		defs = append(defs, perLayer...)
	}
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-9s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
		line.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
