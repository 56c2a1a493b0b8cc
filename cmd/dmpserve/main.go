// Command dmpserve is the simulation-as-a-service daemon: a
// long-running HTTP/JSON server that runs simulations and experiments
// on demand, deduplicates identical in-flight requests through the
// process-wide result cache (internal/sched), and persists every
// computed result in a content-addressed on-disk store (internal/store)
// so that repeated requests — and future daemon processes over the same
// store directory — answer without simulating.
//
// Usage:
//
//	dmpserve -store /var/lib/dmp -listen :8080
//
// then, from a client:
//
//	dmpexp -remote http://localhost:8080 -scale 1 all
//	curl -s localhost:8080/v1/runs -d '{"bench":"mcf","mode":"enhanced"}'
//	curl -s localhost:8080/metrics
//
// POST /v1/runs and /v1/experiments answer in the request: the
// response is the finished result (state done or failed) with 200.
// A ?wait=1 query is accepted and ignored. The daemon runs two
// requests at a time and queues up to 64 more; beyond that it sheds
// load with 429 and a fixed Retry-After of one second.
//
// -telemetry-out DIR records the host telemetry artifacts (spans.json,
// events.jsonl, metrics.json/.prom), finished on shutdown, in the same
// format dmpexp -telemetry-out writes and dmpobs -telemetry validates.
// Without it nothing is recorded. /metrics serves the process-wide
// metrics registry either way.
//
// SIGINT/SIGTERM shut down gracefully: stop admitting (new POSTs get
// 429), drain accepted requests, flush telemetry, exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmp/internal/serve"
	"dmp/internal/store"
	"dmp/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "address to serve HTTP on")
		storeDir = flag.String("store", "", "persistent result store directory (empty = in-memory only)")
		par      = flag.Int("parallel", 0, "simulation worker cap (default NumCPU)")

		telemetryOut = flag.String("telemetry-out", "", "record telemetry artifacts (spans.json, events.jsonl, metrics.json/.prom) in this directory on shutdown")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dmpserve: "+format+"\n", args...)
		os.Exit(1)
	}

	// The attached set parents one span per request; -telemetry-out
	// records it.
	tel, err := telemetry.Attach(*telemetryOut, "dmpserve", "listen "+*listen)
	if err != nil {
		fail("telemetry: %v", err)
	}

	cfg := serve.Config{Parallel: *par, Span: tel.Root()}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fail("store: %v", err)
		}
		cfg.Store = st
		fmt.Fprintf(os.Stderr, "dmpserve: store %s (%d results)\n", st.Dir(), st.Len())
	}
	srv := serve.New(cfg)

	httpSrv := &http.Server{Addr: *listen, Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dmpserve: listening on %s\n", *listen)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "dmpserve: shutting down")
	case err := <-errCh:
		fail("%v", err)
	}

	// Graceful drain: refuse new requests, let in-flight HTTP exchanges
	// (including waiting clients) finish, then drain admitted requests.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dmpserve: shutdown: %v\n", err)
	}
	srv.Close()

	if err := tel.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "dmpserve: telemetry: %v\n", err)
	}
}
