package serve

import (
	"archive/tar"
	"archive/zip"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/report"
)

// Job states, in lifecycle order. A job is "done" once every circuit has
// a row; per-circuit failures are isolated into their rows (the corpus
// contract), so there is no job-level failed state — a malformed
// submission is rejected with 4xx before a job exists.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// jobCircuit is one submitted circuit: its bytes, its submitted
// (archive-relative) path, and its content-addressed cache key.
type jobCircuit struct {
	relPath string // submitted name; becomes the row's path field
	name    string // base name without extension; becomes the row's name
	format  corpus.Format
	data    []byte
	key     [32]byte
	cached  *cachedResult // non-nil when resolved from the cache at submit
}

// job is one submission's lifecycle: circuits in deterministic
// (path-sorted) order, rows accumulating as a contiguous prefix of
// serialized JSONL lines, and a broadcast channel for streamers.
type job struct {
	id        string
	timed     bool
	cfg       flow.Config
	cfgJSON   []byte // canonical config encoding (cache-key input)
	circuits  []jobCircuit
	submitted time.Time

	// ctx is the job's cancellation scope: RunCorpus executes under it,
	// so cancelling (DELETE /v1/jobs/{id}, or a rows stream opened with
	// ?cancel=1 disconnecting) trips the per-circuit budget tokens and
	// the running flow unwinds cooperatively. cancel is called with the
	// cancellation cause, and unconditionally when the job finishes.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	state     string
	cancelled bool
	slots     []*flow.CorpusRow // filled out of order by cache hits + OnRow
	lines     [][]byte          // serialized rows, always a contiguous prefix
	next      int               // emission frontier into slots
	failed    int
	cacheHits int
	wallSec   float64
	notify    chan struct{} // closed and replaced on every append / state change
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: job id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

func newJob(circuits []jobCircuit, cfg flow.Config, cfgJSON []byte, timed bool) *job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &job{
		id:        newJobID(),
		timed:     timed,
		cfg:       cfg,
		cfgJSON:   cfgJSON,
		circuits:  circuits,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		slots:     make([]*flow.CorpusRow, len(circuits)),
		notify:    make(chan struct{}),
	}
}

// requestCancel cancels a not-yet-done job with the given cause and
// reports whether this call was the one that cancelled it (for the
// cancellation counter — later calls and calls on done jobs are no-ops).
func (j *job) requestCancel(cause error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.cancelled {
		return false
	}
	j.cancelled = true
	j.cancel(cause)
	j.broadcast()
	return true
}

// unfilledSlots returns the indices still missing a row — after a
// cancelled RunCorpus returns, these are the circuits that never ran.
func (j *job) unfilledSlots() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var idx []int
	for i, s := range j.slots {
		if s == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// broadcast wakes every waiting streamer. Callers hold j.mu.
func (j *job) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *job) setState(s string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	j.broadcast()
}

// fill records circuit i's finished row and emits every newly contiguous
// row as a JSONL line — the same frontier discipline flow.RunCorpus uses
// for OnRow, extended here so cache hits (filled at submit) and flow
// rows (filled as they complete) interleave back into index order.
func (j *job) fill(i int, row *flow.CorpusRow) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.slots[i] = row
	for j.next < len(j.slots) && j.slots[j.next] != nil {
		r := j.slots[j.next]
		line, err := json.Marshal(report.NewCorpusRecord(r))
		if err != nil { // cannot happen for CorpusRecord; keep the frontier moving
			line = []byte(fmt.Sprintf(`{"index":%d,"error":%q}`, r.Index, err.Error()))
		}
		j.lines = append(j.lines, append(line, '\n'))
		if r.Err != "" {
			j.failed++
		}
		j.next++
	}
	j.broadcast()
}

// finish marks the job done. All slots must already be filled. The
// job's context is released unconditionally so no cancel arrangement
// outlives the job.
func (j *job) finish() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.wallSec = time.Since(j.submitted).Seconds()
	j.cancel(nil)
	j.broadcast()
}

// status is the GET /v1/jobs/{id} projection.
type jobStatus struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Timed      bool    `json:"timed"`
	Cancelled  bool    `json:"cancelled,omitempty"`
	Circuits   int     `json:"circuits"`
	Completed  int     `json:"completed"`
	Failed     int     `json:"failed"`
	CacheHits  int     `json:"cache_hits"`
	Submitted  string  `json:"submitted_at"`
	WallSec    float64 `json:"wall_seconds,omitempty"`
	RowsURL    string  `json:"rows_url"`
	SchemaVers int     `json:"schema_version"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:         j.id,
		State:      j.state,
		Timed:      j.timed,
		Cancelled:  j.cancelled,
		Circuits:   len(j.circuits),
		Completed:  j.next,
		Failed:     j.failed,
		CacheHits:  j.cacheHits,
		Submitted:  j.submitted.UTC().Format(time.RFC3339Nano),
		WallSec:    j.wallSec,
		RowsURL:    "/v1/jobs/" + j.id + "/rows",
		SchemaVers: report.CorpusSchemaVersion,
	}
}

// cachedCorpusRow reattaches submission metadata to a cached result.
func cachedCorpusRow(index int, c jobCircuit, hit *cachedResult) *flow.CorpusRow {
	return &flow.CorpusRow{
		Index:       index,
		Name:        c.name,
		Path:        c.relPath,
		Format:      hit.format,
		Sequential:  hit.sequential,
		Row:         hit.row,
		SeqRow:      hit.seqRow,
		Err:         hit.errText,
		Engine:      hit.engine,
		BudgetTrips: hit.budgetTrips,
		// WallSec ~0: a cache hit does no flow work. Wall-clock is
		// outside the deterministic row contract either way.
	}
}

// submitError carries an HTTP status through the parsing helpers.
type submitError struct {
	status int
	msg    string
}

func (e *submitError) Error() string { return e.msg }

func badRequest(format string, args ...any) *submitError {
	return &submitError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// parseConfig strictly decodes a JSON flow.Config (unknown fields are
// rejected so typos fail loudly instead of silently running defaults)
// and validates its ranges, so an impossible configuration is a
// structured 400 naming the offending field instead of a mid-job
// failure. An empty body means the zero config — all defaults.
func parseConfig(raw []byte) (flow.Config, error) {
	var cfg flow.Config
	if len(bytes.TrimSpace(raw)) == 0 {
		return cfg, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, badRequest("bad config JSON: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, badRequest("invalid config: %v", err)
	}
	return cfg, nil
}

// expandSubmission turns an uploaded body into its circuit list. The
// file name decides the container: .tar, .tar.gz/.tgz, and .zip are
// expanded (members that are not .blif/.pla are skipped unread, like
// corpus.Discover); anything else must itself be a .blif/.pla circuit.
// The members read from an archive may total at most maxBytes, the
// bound a raw upload obeys, so a small compressed body cannot expand
// into unbounded memory; past it the submission is a 413.
// Circuits are sorted by archive-relative path — the job's deterministic
// row order, mirroring the corpus engine's path-sorted discovery.
func expandSubmission(name string, data []byte, maxBytes int64) ([]jobCircuit, error) {
	var circuits []jobCircuit
	left := maxBytes
	readMember := func(r io.Reader, member string) ([]byte, error) {
		data, err := io.ReadAll(io.LimitReader(r, left+1))
		if err != nil {
			return nil, badRequest("bad archive member %s: %v", member, err)
		}
		if left -= int64(len(data)); left < 0 {
			return nil, &submitError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("submission too large: archive members expand past %d bytes", maxBytes)}
		}
		return data, nil
	}
	add := func(member string, read func() ([]byte, error)) error {
		c, ok, err := memberCircuit(member, read)
		if ok {
			circuits = append(circuits, c)
		}
		return err
	}
	lower := strings.ToLower(name)
	switch {
	case strings.HasSuffix(lower, ".tar"), strings.HasSuffix(lower, ".tar.gz"), strings.HasSuffix(lower, ".tgz"):
		var r io.Reader = bytes.NewReader(data)
		if !strings.HasSuffix(lower, ".tar") {
			gz, err := gzip.NewReader(r)
			if err != nil {
				return nil, badRequest("bad gzip stream: %v", err)
			}
			defer gz.Close()
			r = gz
		}
		tr := tar.NewReader(r)
		for {
			hdr, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, badRequest("bad tar archive: %v", err)
			}
			if hdr.Typeflag != tar.TypeReg {
				continue
			}
			if err := add(hdr.Name, func() ([]byte, error) { return readMember(tr, hdr.Name) }); err != nil {
				return nil, err
			}
		}
	case strings.HasSuffix(lower, ".zip"):
		zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return nil, badRequest("bad zip archive: %v", err)
		}
		for _, zf := range zr.File {
			if zf.FileInfo().IsDir() {
				continue
			}
			err := add(zf.Name, func() ([]byte, error) {
				rc, err := zf.Open()
				if err != nil {
					return nil, badRequest("bad zip member %s: %v", zf.Name, err)
				}
				defer rc.Close()
				return readMember(rc, zf.Name)
			})
			if err != nil {
				return nil, err
			}
		}
	default:
		c, ok, err := memberCircuit(name, func() ([]byte, error) { return data, nil })
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, badRequest("%s: unrecognized extension (want .blif, .pla, .tar, .tar.gz, .tgz, or .zip)", name)
		}
		circuits = append(circuits, c)
	}
	if len(circuits) == 0 {
		return nil, badRequest("submission contains no .blif/.pla circuits")
	}
	sort.Slice(circuits, func(i, k int) bool { return circuits[i].relPath < circuits[k].relPath })
	for i := 1; i < len(circuits); i++ {
		if circuits[i].relPath == circuits[i-1].relPath {
			return nil, badRequest("duplicate circuit path %s in submission", circuits[i].relPath)
		}
	}
	return circuits, nil
}

// memberCircuit classifies one file: (circuit, true) for .blif/.pla,
// (zero, false) for other extensions, error for unusable paths or a
// failed read. read runs only for a usable .blif/.pla path. Paths are
// normalized and must stay local — the spool directory is the
// containment boundary.
func memberCircuit(name string, read func() ([]byte, error)) (jobCircuit, bool, error) {
	rel := path.Clean(strings.ReplaceAll(name, "\\", "/"))
	f, ok := corpus.FormatOf(rel)
	if !ok {
		return jobCircuit{}, false, nil
	}
	if rel == "" || rel == "." || path.IsAbs(rel) || !filepath.IsLocal(filepath.FromSlash(rel)) {
		return jobCircuit{}, false, badRequest("unusable circuit path %q", name)
	}
	data, err := read()
	if err != nil {
		return jobCircuit{}, false, err
	}
	base := path.Base(rel)
	return jobCircuit{
		relPath: rel,
		name:    strings.TrimSuffix(base, path.Ext(base)),
		format:  f,
		data:    data,
	}, true, nil
}
