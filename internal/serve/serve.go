// Package serve is the synthesis-as-a-service layer: a long-running HTTP
// daemon (cmd/dominod) wrapping flow.RunCorpus. Clients POST a BLIF/PLA
// file or a tar/zip archive plus a JSON flow.Config to /v1/jobs, poll
// GET /v1/jobs/{id}, and stream report.CorpusRecord JSONL rows from
// GET /v1/jobs/{id}/rows — in deterministic index order, while later
// circuits are still running.
//
// Three properties make the service cheap to operate, all inherited from
// the corpus determinism contract (internal/README.md):
//
//   - Content-addressed caching. A corpus row is a pure function of
//     (file bytes, canonicalized configuration, flow selector), so
//     results are cached under CacheKey — the SHA-256 of exactly those
//     inputs — and identical resubmissions are answered without
//     re-entering the flow. No invalidation exists because none is
//     needed. Timeout/cancellation rows, the one documented
//     non-deterministic outcome, are never cached.
//   - Bounded queue with backpressure. Submissions beyond QueueDepth are
//     rejected with 429 and a Retry-After hint instead of accumulating
//     unbounded state; fully cached submissions bypass the queue and
//     complete at submit time.
//   - Graceful drain and real cancellation. On Drain (SIGTERM in the
//     daemon) the server stops accepting work (503, /readyz not ready),
//     finishes every queued and running job, and only then lets the
//     process exit. Per-circuit timeouts, DELETE /v1/jobs/{id}, and
//     client disconnects from ?cancel=1 row streams all cancel through
//     the cooperative budget token the flow polls (internal/budget), so
//     the worker goroutine exits — nothing is abandoned and the
//     goroutine count stays flat under sustained timeouts.
//
// See docs/api.md for the endpoint reference and docs/architecture.md
// for how the service sits on the synthesis pipeline.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/report"
)

// Options parameterizes a Server. The zero value is completed by
// defaults: a 64-deep queue, one job at a time with per-job circuit
// parallelism, a 4096-entry cache, 64 MiB uploads.
type Options struct {
	// QueueDepth bounds the pending-job queue; a submission that finds
	// it full is rejected with 429 + Retry-After (default 64).
	QueueDepth int
	// JobWorkers is how many jobs execute concurrently (default 1:
	// parallelism then lives inside the job, at the circuit grain).
	JobWorkers int
	// FlowWorkers is the per-job circuit concurrency, i.e.
	// flow.CorpusConfig.Workers (0 = GOMAXPROCS). Each circuit's own
	// flow is pinned to a single worker, exactly like cmd/dominoflow, so
	// JobWorkers x FlowWorkers is the box's circuit concurrency.
	FlowWorkers int
	// CircuitTimeout caps one circuit's wall-clock (0 = none) via the
	// corpus engine's cooperative cancellation: the circuit's goroutine
	// observes the tripped budget token and exits.
	CircuitTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache (0 =
	// default 4096; negative disables caching).
	CacheEntries int
	// MaxUploadBytes bounds one submission body (default 64 MiB) and
	// the total bytes an archive's circuit members expand to.
	MaxUploadBytes int64
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxJobs bounds retained job metadata; the oldest *done* jobs are
	// evicted beyond it (default 16384).
	MaxJobs int
}

func (o *Options) defaults() {
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.JobWorkers == 0 {
		o.JobWorkers = 1
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.MaxUploadBytes == 0 {
		o.MaxUploadBytes = 64 << 20
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 16384
	}
}

// Server is the dominod service core: the bounded job queue, its worker
// pool, the content-addressed cache, and the HTTP surface. Create with
// NewServer, attach Handler() to an http.Server, call Start, and Drain
// on shutdown.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *rowCache
	m     metrics
	start time.Time

	queue    chan *job
	submitMu sync.Mutex // serializes queue sends against Drain's close
	draining atomic.Bool
	workers  sync.WaitGroup

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order, for MaxJobs eviction

	// beforeJob, when non-nil, runs in the worker immediately before a
	// job executes — a test hook for holding the queue in a known state.
	beforeJob func(*job)
}

// NewServer builds a Server; call Start to launch its workers.
func NewServer(opts Options) *Server {
	opts.defaults()
	s := &Server{
		opts:  opts,
		cache: newRowCache(opts.CacheEntries),
		start: time.Now(),
		queue: make(chan *job, opts.QueueDepth),
		jobs:  make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/rows", s.handleRows)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the job workers.
func (s *Server) Start() {
	for i := 0; i < s.opts.JobWorkers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				if s.beforeJob != nil {
					s.beforeJob(j)
				}
				s.runJob(j)
			}
		}()
	}
}

// Drain is the graceful shutdown: stop accepting submissions (they get
// 503, /readyz reports not-ready), let the workers finish every queued
// and running job, then return. Idempotent; the daemon calls it from its
// SIGTERM/SIGINT handler before shutting the http.Server down, so row
// streams of the final jobs complete too.
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.submitMu.Lock()
	close(s.queue)
	s.submitMu.Unlock()
	s.workers.Wait()
}

// lookupJob returns a registered job.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// registerJob records a job, evicting the oldest done jobs past MaxJobs.
func (s *Server) registerJob(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobs) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.jobOrder {
			old, ok := s.jobs[id]
			if !ok {
				continue
			}
			old.mu.Lock()
			done := old.state == StateDone
			old.mu.Unlock()
			if done {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted { // everything retained is still live; let it ride
			break
		}
	}
}

func (s *Server) unregisterJob(id string) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	delete(s.jobs, id)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit implements POST /v1/jobs: parse the submission, resolve
// cache hits, and either finish the job on the spot (every circuit hit)
// or enqueue it — rejecting with 429 + Retry-After when the bounded
// queue is full, or 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	name, data, cfgRaw, timed, serr := readSubmission(w, r, s.opts.MaxUploadBytes)
	if serr != nil {
		writeError(w, serr.status, "%s", serr.msg)
		return
	}
	cfg, err := parseConfig(cfgRaw)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	circuits, err := expandSubmission(name, data, s.opts.MaxUploadBytes)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	cfgJSON, err := canonicalConfigJSON(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := newJob(circuits, cfg, cfgJSON, timed)

	// Resolve the cache before touching the queue: hits fill their slots
	// immediately, and a fully cached job never occupies a queue slot.
	misses := 0
	for i := range j.circuits {
		c := &j.circuits[i]
		c.key = keyFromCanonical(cfgJSON, timed, c.data)
		if hit, ok := s.cache.get(c.key); ok {
			c.cached = hit
			j.cacheHits++
			s.m.cacheHits.Add(1)
		} else {
			misses++
			s.m.cacheMisses.Add(1)
		}
	}

	if misses == 0 {
		s.registerJob(j)
		s.m.jobsSubmitted.Add(1)
		s.fillCachedSlots(j)
		s.finishJob(j)
		writeJSON(w, http.StatusOK, j.status())
		return
	}

	s.submitMu.Lock()
	if s.draining.Load() {
		s.submitMu.Unlock()
		s.m.rejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	s.registerJob(j)
	select {
	case s.queue <- j:
		s.submitMu.Unlock()
	default:
		s.submitMu.Unlock()
		s.unregisterJob(j.id)
		s.m.rejectedBusy.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d pending); retry after %v", s.opts.QueueDepth, s.opts.RetryAfter)
		return
	}
	s.m.jobsSubmitted.Add(1)
	s.fillCachedSlots(j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// errStatus maps an error to its HTTP status: submitErrors carry their
// own, anything else is a 400.
func errStatus(err error) int {
	var se *submitError
	if errors.As(err, &se) {
		return se.status
	}
	return http.StatusBadRequest
}

// fillCachedSlots emits every cache-hit row. Misses stay nil; the
// frontier advances as the flow fills them.
func (s *Server) fillCachedSlots(j *job) {
	for i := range j.circuits {
		if c := &j.circuits[i]; c.cached != nil {
			row := cachedCorpusRow(i, *c, c.cached)
			s.countRow(row)
			j.fill(i, row)
		}
	}
}

// countRow tracks row-level metrics at emission time.
func (s *Server) countRow(row *flow.CorpusRow) {
	s.m.rowsTotal.Add(1)
	if row.Err != "" {
		s.m.rowsFailed.Add(1)
	}
	if row.TimedOut {
		s.m.rowsTimedOut.Add(1)
	}
	switch row.Engine {
	case flow.EngineExactSifted:
		s.m.rowsReordered.Add(1)
	case flow.EngineDepthWeighted:
		s.m.rowsDegradedBDD.Add(1)
	case flow.EngineMonteCarlo:
		s.m.rowsDegradedMC.Add(1)
	}
	if row.BudgetTrips > 0 {
		s.m.budgetTrips.Add(int64(row.BudgetTrips))
	}
}

// finishJob finalizes metrics and state for a job whose slots are full.
func (s *Server) finishJob(j *job) {
	j.finish()
	s.m.jobsCompleted.Add(1)
	j.mu.Lock()
	failed := j.failed
	j.mu.Unlock()
	if failed > 0 {
		s.m.jobsFailedRows.Add(1)
	}
}

// runJob executes a job's cache misses through flow.RunCorpus: spool the
// miss bytes to a temp directory, run them as a sub-corpus, and remap
// each finished row back to its global index (submitted path restored,
// spool path never leaks). Every failure mode ends with a finished job —
// spool errors become error rows, and per-circuit flow failures are
// already isolated by the corpus engine.
func (s *Server) runJob(j *job) {
	s.m.jobsRunning.Add(1)
	defer s.m.jobsRunning.Add(-1)

	// A job cancelled while still queued never enters the flow: its
	// unfilled slots become cancellation rows and the job completes, so
	// streams and drain see a normal done state.
	if j.ctx.Err() != nil {
		s.fillCancelledSlots(j)
		s.finishJob(j)
		return
	}
	j.setState(StateRunning)

	type miss struct{ global int }
	var entries []corpus.Entry
	var misses []miss
	spool, err := os.MkdirTemp("", "dominod-"+j.id+"-")
	if err == nil {
		defer os.RemoveAll(spool)
		for i := range j.circuits {
			c := &j.circuits[i]
			if c.cached != nil {
				continue
			}
			p := filepath.Join(spool, filepath.FromSlash(c.relPath))
			if err = os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				break
			}
			if err = os.WriteFile(p, c.data, 0o644); err != nil {
				break
			}
			entries = append(entries, corpus.Entry{Path: p, Name: c.name, Format: c.format})
			misses = append(misses, miss{global: i})
		}
	}
	if err != nil {
		// Spool failure: answer every unfilled slot with an error row
		// rather than wedging the job.
		for i := range j.circuits {
			if j.circuits[i].cached == nil {
				row := &flow.CorpusRow{
					Index: i, Name: j.circuits[i].name, Path: j.circuits[i].relPath,
					Format: j.circuits[i].format.String(),
					Err:    fmt.Sprintf("serve: spool: %v", err),
				}
				s.countRow(row)
				j.fill(i, row)
			}
		}
		s.finishJob(j)
		return
	}

	// Each circuit's own flow runs single-worker (the dominoflow
	// convention): concurrency lives at the circuit and job grains.
	base := j.cfg
	base.Workers = 1
	cc := flow.CorpusConfig{
		Base:    base,
		Timed:   j.timed,
		Workers: s.opts.FlowWorkers,
		Timeout: s.opts.CircuitTimeout,
		OnRow: func(r *flow.CorpusRow) {
			g := misses[r.Index].global
			row := *r
			row.Index = g
			row.Path = j.circuits[g].relPath
			s.cache.put(j.circuits[g].key, &row)
			s.countRow(&row)
			j.fill(g, &row)
		},
	}
	s.m.flowRuns.Add(1)
	// RunCorpus runs under the job's context: cancellation trips the
	// per-circuit budget tokens, running circuits unwind into
	// cancellation rows, and circuits that never started are answered
	// below — the job always reaches done with every slot filled.
	_, _ = flow.RunCorpus(j.ctx, entries, cc)
	if j.ctx.Err() != nil {
		s.fillCancelledSlots(j)
	}
	s.finishJob(j)
}

// fillCancelledSlots answers every still-unfilled slot of a cancelled
// job with a cancellation row (TimedOut set, so nothing is cached).
func (s *Server) fillCancelledSlots(j *job) {
	cause := context.Cause(j.ctx)
	if cause == nil {
		cause = context.Canceled
	}
	for _, i := range j.unfilledSlots() {
		c := &j.circuits[i]
		row := &flow.CorpusRow{
			Index: i, Name: c.name, Path: c.relPath, Format: c.format.String(),
			Err: cause.Error(), TimedOut: true,
		}
		s.countRow(row)
		j.fill(i, row)
	}
}

// handleCancel implements DELETE /v1/jobs/{id}: cancel a queued or
// running job. Running circuits unwind cooperatively into cancellation
// rows; circuits that never started are answered with cancellation rows
// when the worker reaches the job. Cancelling a done job is a no-op.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", r.PathValue("id"))
		return
	}
	if j.requestCancel(errors.New("cancelled by client")) {
		s.m.jobsCancelled.Add(1)
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleStatus implements GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleRows implements GET /v1/jobs/{id}/rows: stream the job's JSONL
// rows in index order, flushing each batch, and hold the connection open
// until the job completes (or the client goes away). A finished job's
// rows remain fetchable for as long as the job is retained. With
// ?cancel=1 the stream owns the job: the client disconnecting before
// the job is done cancels it, so abandoned interactive sessions release
// their compute.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", r.PathValue("id"))
		return
	}
	cancelOnDisconnect := false
	if q := r.URL.Query().Get("cancel"); q != "" {
		if v, err := strconv.ParseBool(q); err == nil {
			cancelOnDisconnect = v
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Dominod-Schema-Version", strconv.Itoa(report.CorpusSchemaVersion))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers to the wire now: a ?cancel=1 client must be
		// able to open the stream (and later disconnect) while the job is
		// still running and no rows exist to force a flush.
		flusher.Flush()
	}
	cursor := 0
	for {
		j.mu.Lock()
		lines := j.lines[cursor:]
		done := j.state == StateDone
		wait := j.notify
		j.mu.Unlock()
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		cursor += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			if cancelOnDisconnect {
				if j.requestCancel(errors.New("rows stream client disconnected")) {
					s.m.jobsCancelled.Add(1)
				}
			}
			return
		}
	}
}

// handleHealthz: liveness — the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz: readiness — accepting new work. Draining flips it.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	fmt.Fprintf(w, "ok (queue %d/%d)\n", len(s.queue), s.opts.QueueDepth)
}

// handleMetrics: Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.write(w, len(s.queue), s.cache.len(), s.draining.Load(), time.Since(s.start))
}

// readSubmission extracts (file name, file bytes, config JSON, timed)
// from a request. Two shapes are accepted:
//
//   - multipart/form-data: a "file" part (file name from the part),
//     optional "config" part or value, optional "timed" value;
//   - raw body: the file bytes, name from the ?name= query parameter,
//     config from the X-Dominod-Config header, timed from ?timed=.
func readSubmission(w http.ResponseWriter, r *http.Request, maxBytes int64) (name string, data, cfgRaw []byte, timed bool, serr *submitError) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	if q := r.URL.Query().Get("timed"); q != "" {
		t, err := strconv.ParseBool(q)
		if err != nil {
			return "", nil, nil, false, badRequest("bad timed value %q", q)
		}
		timed = t
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "multipart/") {
		if err := r.ParseMultipartForm(maxBytes); err != nil {
			return "", nil, nil, false, uploadError(err)
		}
		files := r.MultipartForm.File["file"]
		if len(files) != 1 {
			return "", nil, nil, false, badRequest("want exactly one \"file\" part, got %d", len(files))
		}
		fh := files[0]
		f, err := fh.Open()
		if err != nil {
			return "", nil, nil, false, badRequest("bad file part: %v", err)
		}
		defer f.Close()
		data, err = io.ReadAll(f)
		if err != nil {
			return "", nil, nil, false, uploadError(err)
		}
		// config may arrive as a form value (-F config='{...}') or as an
		// attached file part (-F config=@cfg.json).
		if vs := r.MultipartForm.Value["config"]; len(vs) > 0 {
			cfgRaw = []byte(vs[0])
		} else if cf := r.MultipartForm.File["config"]; len(cf) > 0 {
			cfgF, err := cf[0].Open()
			if err != nil {
				return "", nil, nil, false, badRequest("bad config part: %v", err)
			}
			defer cfgF.Close()
			if cfgRaw, err = io.ReadAll(cfgF); err != nil {
				return "", nil, nil, false, uploadError(err)
			}
		}
		if vs := r.MultipartForm.Value["timed"]; len(vs) > 0 {
			t, err := strconv.ParseBool(vs[0])
			if err != nil {
				return "", nil, nil, false, badRequest("bad timed value %q", vs[0])
			}
			timed = t
		}
		return fh.Filename, data, cfgRaw, timed, nil
	}
	name = r.URL.Query().Get("name")
	if name == "" {
		return "", nil, nil, false, badRequest("raw submissions need a ?name= query parameter (or use multipart/form-data)")
	}
	var err error
	data, err = io.ReadAll(r.Body)
	if err != nil {
		return "", nil, nil, false, uploadError(err)
	}
	cfgRaw = []byte(r.Header.Get("X-Dominod-Config"))
	return name, data, cfgRaw, timed, nil
}

// uploadError maps body-read failures: MaxBytesReader overflow becomes
// 413, everything else 400.
func uploadError(err error) *submitError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &submitError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("submission too large: %v", err)}
	}
	return badRequest("reading submission: %v", err)
}
