// Command campaignd is the distributed campaign service: a
// long-running coordinator that accepts experiment-spec documents
// over HTTP, shards each campaign's cell matrix across worker
// processes (internal/shard), merges the per-shard stores into a run
// byte-identical to a single-process fleet.Run, and serves the cached
// manifests and drift reports back out.
//
// Coordinator mode (the default):
//
//	campaignd -listen 127.0.0.1:7070 -dir results \
//	          -workers http://127.0.0.1:7071,http://127.0.0.1:7072
//
//	POST /v1/runs               submit a spec document (JSON or YAML)
//	GET  /v1/runs               list submitted runs
//	GET  /v1/runs/{id}          one run's status
//	GET  /v1/runs/{id}/manifest the merged run's manifest bytes
//	GET  /v1/runs/{id}/drift?baseline=ID  drift report vs a baseline
//	GET  /healthz               liveness
//
// Worker mode — one per process, each with its own store directory:
//
//	campaignd -worker -listen 127.0.0.1:7071 -dir worker1
//
// A spec's sharding: section picks its worker fleet; -workers is the
// default for specs that name none, and with neither the campaign
// runs in-process shards. Worker failure mid-campaign is survived by
// deterministic reassignment: cells re-execute elsewhere from their
// original substreams, and the merge deduplicates the byte-identical
// overlap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cloudvar/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// shutdownGrace bounds how long a draining server waits for open
// connections after SIGINT/SIGTERM. The in-flight campaign is drained
// separately (and unboundedly) by service.stop — a merge is never cut
// off half-written.
const shutdownGrace = 30 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	worker := fs.Bool("worker", false, "run as a worker process instead of the coordinator")
	listen := fs.String("listen", "127.0.0.1:7070", "address to listen on")
	dir := fs.String("dir", "", "store directory: merged results (coordinator) or the worker's shard store (required)")
	workerList := fs.String("workers", "", "comma-separated worker base URLs, the default fleet for specs without sharding.workers")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "campaignd:", err)
		return 1
	}
	if *dir == "" {
		return fatal(fmt.Errorf("-dir is required (the store directory)"))
	}

	// drain runs after the HTTP server stops accepting work: the
	// worker closes its open run handles, the coordinator finishes the
	// in-flight campaign and fails what is still queued.
	var handler http.Handler
	var drain func() error
	if *worker {
		if *workerList != "" {
			return fatal(fmt.Errorf("-workers is a coordinator flag; a worker has no fleet"))
		}
		ws := shard.NewWorkerServer(*dir)
		handler = ws.Handler()
		drain = ws.Close
		fmt.Fprintf(stdout, "campaignd: worker serving shards into %s on %s\n", *dir, *listen)
	} else {
		var urls []string
		if *workerList != "" {
			urls = strings.Split(*workerList, ",")
		}
		svc, err := newService(*dir, urls)
		if err != nil {
			return fatal(err)
		}
		svc.start()
		handler = svc.handler()
		drain = func() error { svc.stop(); return nil }
		fmt.Fprintf(stdout, "campaignd: coordinator serving %s on %s (%d configured workers)\n", *dir, *listen, len(urls))
	}
	return serve(*listen, handler, drain, stdout, stderr)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then shuts down
// gracefully: stop accepting, drain open connections (bounded by
// shutdownGrace), then drain the campaign state via drain().
func serve(listen string, handler http.Handler, drain func() error, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: listen, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "campaignd:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain
	fmt.Fprintln(stdout, "campaignd: shutting down")

	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	code := 0
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "campaignd: shutdown:", err)
		code = 1
	}
	if err := drain(); err != nil {
		fmt.Fprintln(stderr, "campaignd: drain:", err)
		code = 1
	}
	fmt.Fprintln(stdout, "campaignd: stopped")
	return code
}
