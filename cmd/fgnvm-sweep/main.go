// Command fgnvm-sweep runs a one-dimensional design-space sweep and
// prints a CSV of the results — the building block for plotting any
// axis of the FgNVM design space:
//
//	fgnvm-sweep -axis cds -values 1,2,4,8,16,32 -bench mcf
//	fgnvm-sweep -axis sags -values 2,4,8,16,32
//	fgnvm-sweep -axis lanes -values 1,2,4,8
//	fgnvm-sweep -axis cores -values 1,2,4
//	fgnvm-sweep -axis rob -values 64,128,256,512
//	fgnvm-sweep -axis mshrs -values 8,16,32,64
//	fgnvm-sweep -axis tile -values 512,1024,2048,4096
//	fgnvm-sweep -axis tiling -preset gpt2s-ffn-down
//
// Every row also reports the baseline-relative speedup and energy so
// the output plots directly against the paper's figures. Sweep points
// run concurrently (-parallel, default GOMAXPROCS) on a bounded pool;
// each simulation is deterministic and rows print in axis-value order,
// so output is byte-identical at any parallelism.
//
// With -server the sweep is delegated to a running fgnvm-serve via its
// streaming endpoint: per-point progress prints to stderr as it
// happens, the final CSV (identical to the local mode's, because the
// server's merged result is byte-identical to fgnvm.Sweep) prints to
// stdout, and an interrupted invocation re-run against the same server
// resumes from the server's store instead of recomputing:
//
//	fgnvm-sweep -server http://localhost:8080 -axis cds -values 1,2,4,8
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	fgnvm "repro"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var names []string
	for _, a := range fgnvm.SweepAxes() {
		names = append(names, a.Name)
	}
	var (
		axisName  = flag.String("axis", "cds", "sweep axis: "+strings.Join(names, ", "))
		values    = flag.String("values", "", "comma-separated values (default: axis-specific)")
		bench     = flag.String("bench", "mcf", "benchmark profile")
		preset    = flag.String("preset", "", "GEMM workload preset instead of -bench (required by -axis tiling; implies -skip-llc)")
		skipLLC   = flag.Bool("skip-llc", false, "bypass the LLC (post-cache workload streams)")
		design    = flag.String("design", "fgnvm", "design under sweep")
		instr     = flag.Uint64("n", 100_000, "instructions per run")
		seed      = flag.Uint64("seed", 1, "workload seed")
		parallel  = flag.Int("parallel", 0, "concurrent sweep points (0 = GOMAXPROCS)")
		serverURL = flag.String("server", "", "delegate to a running fgnvm-serve at this base URL (streams progress to stderr)")
	)
	flag.Parse()

	ax, err := fgnvm.SweepAxisByName(*axisName)
	if err != nil {
		return err
	}
	var sweep []int
	if *values != "" {
		for _, f := range strings.Split(*values, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad value %q: %v", f, err)
			}
			sweep = append(sweep, v)
		}
	}
	d, err := fgnvm.ParseDesign(*design)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p := fgnvm.SweepParams{
		Axis: *axisName, Values: sweep, Design: d, Benchmark: *bench,
		Instructions: *instr, Seed: *seed, Parallel: *parallel, SkipLLC: *skipLLC,
	}
	workload := *bench
	if *preset != "" {
		// A lowered GEMM stream is post-cache traffic: with the LLC in
		// the path every tiling scores identically, so bypass it.
		p.Benchmark, p.Workload, p.SkipLLC = "", &fgnvm.WorkloadSpec{Preset: *preset}, true
		workload = *preset
	}
	var res fgnvm.SweepResult
	if *serverURL != "" {
		res, err = serverSweep(ctx, *serverURL, p)
	} else {
		res, err = fgnvm.SweepContext(ctx, p)
	}
	if err != nil {
		return err
	}

	fmt.Printf("# axis=%s (%s) workload=%s design=%s n=%d\n", ax.Name, ax.Affects, workload, *design, *instr)
	fmt.Println("value,ipc,speedup,rel_energy,avg_read_lat,p95_read_lat,bg_reads")
	for _, pt := range res.Points {
		fmt.Printf("%d,%.4f,%.3f,%.3f,%.1f,%d,%d\n",
			pt.Value, pt.IPC, pt.Speedup, pt.RelEnergy,
			pt.AvgReadLatency, pt.P95ReadLatency, pt.BackgroundedRds)
	}
	return nil
}

// streamEvent decodes every /v1/sweep/stream NDJSON event shape.
type streamEvent struct {
	Event  string          `json:"event"`
	Value  int             `json:"value"`
	Cached bool            `json:"cached"`
	Remote bool            `json:"remote"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Cycles uint64          `json:"cycles"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// sweepBody is the server's SweepRequest wire form of p; zero fields
// are omitted and re-defaulted server-side identically. Parallel stays
// local: the server sizes its own pool.
func sweepBody(p fgnvm.SweepParams) ([]byte, error) {
	return json.Marshal(server.SweepRequest{
		Axis: p.Axis, Values: p.Values, Design: p.Design.String(),
		Benchmark: p.Benchmark, Workload: p.Workload,
		Instructions: p.Instructions, Seed: p.Seed, SkipLLC: p.SkipLLC,
	})
}

// serverSweep delegates the sweep to a running fgnvm-serve, consuming
// its progress stream: per-point status to stderr, the terminal merged
// result returned for the usual CSV rendering.
func serverSweep(ctx context.Context, base string, p fgnvm.SweepParams) (fgnvm.SweepResult, error) {
	body, err := sweepBody(p)
	if err != nil {
		return fgnvm.SweepResult{}, err
	}

	hreq, err := http.NewRequestWithContext(ctx, "POST",
		strings.TrimRight(base, "/")+"/v1/sweep/stream", strings.NewReader(string(body)))
	if err != nil {
		return fgnvm.SweepResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return fgnvm.SweepResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fgnvm.SweepResult{}, fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fgnvm.SweepResult{}, fmt.Errorf("bad stream event %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "start":
			fmt.Fprintf(os.Stderr, "sweep: %d points\n", ev.Total)
		case "point":
			src := "computed"
			if ev.Cached {
				src = "cached"
			} else if ev.Remote {
				src = "remote"
			}
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] value=%d %s\n", ev.Done, ev.Total, ev.Value, src)
		case "error":
			return fgnvm.SweepResult{}, fmt.Errorf("server: %s", ev.Error)
		case "done":
			var res fgnvm.SweepResult
			if err := json.Unmarshal(ev.Result, &res); err != nil {
				return fgnvm.SweepResult{}, fmt.Errorf("bad terminal result: %v", err)
			}
			return res, nil
		}
	}
	if err := sc.Err(); err != nil {
		return fgnvm.SweepResult{}, err
	}
	return fgnvm.SweepResult{}, fmt.Errorf("stream ended without a result (rerun to resume from the server's store)")
}
