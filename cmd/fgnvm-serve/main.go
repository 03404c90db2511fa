// Command fgnvm-serve runs the FgNVM simulator as an HTTP/JSON
// service: simulations bounded by a fixed number of worker slots and a
// queue (429 when both are full), identical in-flight requests
// coalesced into one run, completed results memoized in an LRU cache
// and written once to the optional disk store, and cancellation
// threaded down to the simulation loop so disconnected clients stop
// burning CPU.
//
//	fgnvm-serve -addr :8080 -workers 8 -queue 64 -cache 256
//
//	curl -d '{"design":"fgnvm","benchmark":"mcf"}' localhost:8080/v1/run
//	curl -d '{"benchmarks":["mcf","lbm"],"instructions":50000}' localhost:8080/v1/figure4
//	curl -d '{"axis":"cds","values":[1,2,4,8]}' localhost:8080/v1/sweep
//	curl localhost:8080/metrics
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, and
// in-flight runs drain before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/analytic"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "queued requests beyond executing before 429s (negative: none)")
		cache    = flag.Int("cache", 256, "result-cache entries (negative disables)")
		timeout  = flag.Duration("timeout", 10*time.Minute, "per-request timeout; a request's timeout_ms may only shorten it (0 = none)")
		maxInstr = flag.Uint64("max-instructions", 5_000_000, "reject runs longer than this (0 = unlimited)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")

		storeDir   = flag.String("store-dir", "", "disk store directory: results survive restarts and are shared by replicas on one volume (empty: memory cache only)")
		storeBytes = flag.Int64("store-bytes", 0, "disk-store payload byte budget, LRU-evicted (0 = unbounded)")
		peers      = flag.String("peers", "", "comma-separated sibling replica base URLs to shard sweeps across (e.g. http://host2:8080,http://host3:8080)")

		sizeFor  = flag.Float64("size-for", 0, "print the analytic worker count for this uncached request rate (req/s) and exit")
		serviceS = flag.Float64("size-service", 1.0, "with -size-for: mean seconds per simulation")
		sizeWait = flag.Float64("size-wait", 0, "with -size-for: target mean queueing wait in seconds (0: one service time)")
	)
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	if *sizeFor > 0 {
		// Offline capacity planning: the same M/D/c model that predicts
		// bank queueing sizes the worker pool (see internal/analytic).
		s, err := analytic.SizeWorkers(analytic.PoolParams{
			ArrivalPerSec: *sizeFor,
			ServiceSec:    *serviceS,
			TargetWaitSec: *sizeWait,
			MaxWorkers:    runtime.GOMAXPROCS(0),
		})
		if err != nil {
			return err
		}
		fmt.Printf("workers=%d utilization=%.2f wait_s=%.3f target_met=%v\n",
			s.Workers, s.Utilization, s.WaitSec, s.Met)
		if !s.Met {
			fmt.Println("target unreachable on this host: add replicas (-peers) instead of workers")
		}
		return nil
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}

	svc, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		DefaultTimeout:  *timeout,
		MaxInstructions: *maxInstr,
		StoreDir:        *storeDir,
		StoreMaxBytes:   *storeBytes,
		Peers:           peerList,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("fgnvm-serve: listening on %s (workers=%d queue=%d cache=%d)",
			*addr, *workers, *queue, *cache)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("fgnvm-serve: shutting down, draining in-flight runs (budget %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = hs.Shutdown(sctx)
	svc.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("fgnvm-serve: drained, bye")
	return nil
}
