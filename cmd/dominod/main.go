// Command dominod is the synthesis-as-a-service daemon: a long-running
// HTTP front-end over the corpus engine (internal/serve). Clients POST
// BLIF/PLA files or tar/zip archives plus a JSON flow.Config to
// /v1/jobs, poll job status, and stream deterministic JSONL result rows;
// identical submissions are answered from a content-addressed cache
// without re-running the flow. See docs/api.md for the endpoint
// reference.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dominod: ")

	addr := flag.String("addr", ":8157", "listen address")
	queue := flag.Int("queue", 64, "bounded job queue depth; submissions beyond it get 429 + Retry-After")
	jobWorkers := flag.Int("job-workers", 1, "concurrent jobs (parallelism within a job is -flow-workers)")
	flowWorkers := flag.Int("flow-workers", 0, "circuits run concurrently per job (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-circuit wall-clock cap (0 = none); timed-out rows are never cached")
	cacheEntries := flag.Int("cache", 4096, "content-addressed result cache entries (negative disables)")
	maxUpload := flag.Int64("max-upload", 64<<20, "submission body size cap in bytes")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "HTTP shutdown grace after the job queue drains")
	flag.Parse()

	runDaemon(*addr, serve.Options{
		QueueDepth:     *queue,
		JobWorkers:     *jobWorkers,
		FlowWorkers:    *flowWorkers,
		CircuitTimeout: *timeout,
		CacheEntries:   *cacheEntries,
		MaxUploadBytes: *maxUpload,
		RetryAfter:     *retryAfter,
	}, *drainTimeout)
}

// runDaemon serves until SIGTERM/SIGINT, then drains gracefully: stop
// accepting (503 / readyz not-ready), finish every queued and running
// job, and only then shut the HTTP server down so the final row streams
// complete.
func runDaemon(addr string, opts serve.Options, drainTimeout time.Duration) {
	s := serve.NewServer(opts)
	s.Start()
	hs := &http.Server{Addr: addr, Handler: s.Handler()}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s (queue %d, job workers %d)", addr, opts.QueueDepth, opts.JobWorkers)

	select {
	case err := <-errc:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("%v: draining (finishing queued and running jobs, rejecting new ones)", got)
		s.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		log.Print("drained, exiting")
	}
}
