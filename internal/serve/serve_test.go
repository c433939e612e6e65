package serve

import (
	"archive/tar"
	"archive/zip"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/report"
)

// Tiny circuits (the corpus-test idiom: <= 3 outputs keeps every search
// exhaustive-feasible and fast), covering both formats plus the latched
// sequential path.
const tinyBLIF = `.model comb
.inputs a b c d
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names c d g
10 1
01 1
.end
`

const tinySeqBLIF = `.model counter
.inputs en
.outputs q0
.latch n0 q0 0
.names en q0 n0
10 1
01 1
.end
`

const tinyPLA = `.i 3
.o 2
.ilb x y z
.ob p q
11- 10
-11 01
1-1 11
.e
`

const testCfgJSON = `{"SimVectors":128,"SimShards":2}`

func testConfig() flow.Config {
	return flow.Config{SimVectors: 128, SimShards: 2, Workers: 1}
}

// testServer stands up a Server over httptest with fast-test options.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.FlowWorkers == 0 {
		opts.FlowWorkers = 2
	}
	s := NewServer(opts)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postRaw(t *testing.T, base, name string, body []byte, cfgJSON string, extraQuery string) *http.Response {
	t.Helper()
	url := base + "/v1/jobs?name=" + name + extraQuery
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if cfgJSON != "" {
		req.Header.Set("X-Dominod-Config", cfgJSON)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) jobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// fetchRows blocks until the job's stream completes, returning parsed
// records.
func fetchRows(t *testing.T, base, id string) []report.CorpusRecord {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rows: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dominod-Schema-Version"); got != fmt.Sprint(report.CorpusSchemaVersion) {
		t.Fatalf("schema version header %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var recs []report.CorpusRecord
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" {
			continue
		}
		var r report.CorpusRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

func tarOf(t *testing.T, files map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	// Deterministic member order (not that it matters: the server sorts).
	var names []string
	for n := range files {
		names = append(names, n)
	}
	for _, n := range names {
		data := []byte(files[n])
		if err := tw.WriteHeader(&tar.Header{Name: n, Mode: 0o644, Size: int64(len(data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitSingleFileMatchesDirectFlow: a raw single-file submission
// streams exactly the rows flow.RunCorpus produces for the same bytes
// and configuration (wall-clock excepted).
func TestSubmitSingleFileMatchesDirectFlow(t *testing.T) {
	_, ts := testServer(t, Options{})
	st := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, ""))
	if st.State == "" || st.ID == "" {
		t.Fatalf("bad status %+v", st)
	}
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 1 {
		t.Fatalf("got %d rows, want 1", len(recs))
	}
	checkMatchesDirect(t, map[string]string{"comb.blif": tinyBLIF}, recs)
}

// checkMatchesDirect runs files through flow.RunCorpus directly and
// requires every served record to byte-match its direct row, path made
// submission-relative and wall_seconds (the one non-deterministic field)
// copied across.
func checkMatchesDirect(t *testing.T, files map[string]string, got []report.CorpusRecord) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := corpus.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{Base: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(got) {
		t.Fatalf("served %d rows, direct run has %d", len(got), len(direct))
	}
	for i, row := range direct {
		want := report.NewCorpusRecord(row)
		rel, err := filepath.Rel(dir, row.Path)
		if err != nil {
			t.Fatal(err)
		}
		want.Path = filepath.ToSlash(rel)
		want.WallSec = got[i].WallSec
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got[i])
		if !bytes.Equal(wb, gb) {
			t.Errorf("served row != direct row:\n  http:   %s\n  direct: %s", gb, wb)
		}
	}
}

// TestArchiveSubmission: a tar mixing BLIF (combinational + latched),
// PLA, and a skippable member runs as one job with path-sorted rows that
// byte-match a direct flow.RunCorpus run.
func TestArchiveSubmission(t *testing.T) {
	_, ts := testServer(t, Options{})
	files := map[string]string{
		"z/comb.blif":  tinyBLIF,
		"counter.blif": tinySeqBLIF,
		"two.pla":      tinyPLA,
		"README.txt":   "not a circuit\n",
	}
	archive := tarOf(t, files)
	st := decodeStatus(t, postRaw(t, ts.URL, "batch.tar", archive, testCfgJSON, ""))
	if st.Circuits != 3 {
		t.Fatalf("job has %d circuits, want 3 (README skipped)", st.Circuits)
	}
	recs := fetchRows(t, ts.URL, st.ID)
	var paths, formats []string
	for _, r := range recs {
		paths = append(paths, r.Path)
		formats = append(formats, r.Format)
		if r.Error != "" {
			t.Errorf("%s: unexpected error row: %s", r.Path, r.Error)
		}
	}
	wantPaths := []string{"counter.blif", "two.pla", "z/comb.blif"}
	wantFormats := []string{"blif", "pla", "blif"}
	if fmt.Sprint(paths) != fmt.Sprint(wantPaths) || fmt.Sprint(formats) != fmt.Sprint(wantFormats) {
		t.Errorf("rows %v %v, want %v %v", paths, formats, wantPaths, wantFormats)
	}
	if !recs[0].Sequential || recs[0].FFs != 1 {
		t.Errorf("counter.blif should be a sequential row with 1 FF, got %+v", recs[0])
	}
	checkMatchesDirect(t, files, recs)
}

// TestCacheHitSecondSubmission is the end-to-end cache test: the second
// identical submission completes at submit time, reports full cache
// hits, does NOT re-enter the flow, and serves identical rows.
func TestCacheHitSecondSubmission(t *testing.T) {
	s, ts := testServer(t, Options{})
	first := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, ""))
	firstRows := fetchRows(t, ts.URL, first.ID)
	if runs := s.m.flowRuns.Load(); runs != 1 {
		t.Fatalf("flow entered %d times after first submission, want 1", runs)
	}

	resp := postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit status %d, want 200", resp.StatusCode)
	}
	second := decodeStatus(t, resp)
	if second.State != StateDone || second.CacheHits != 1 {
		t.Fatalf("cached resubmit: %+v, want done with 1 hit", second)
	}
	if runs := s.m.flowRuns.Load(); runs != 1 {
		t.Errorf("cached resubmit re-entered the flow (%d runs)", runs)
	}
	secondRows := fetchRows(t, ts.URL, second.ID)
	if len(secondRows) != 1 {
		t.Fatalf("cached job has %d rows", len(secondRows))
	}
	a, b := firstRows[0], secondRows[0]
	b.WallSec = a.WallSec
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Errorf("cached row differs:\n  first:  %s\n  second: %s", ab, bb)
	}
}

// TestCacheHitAcrossWallclockKnobs: resubmitting with different Workers
// / SimKernel — pure wall-clock knobs — still hits; a semantic change
// misses.
func TestCacheHitAcrossWallclockKnobs(t *testing.T) {
	s, ts := testServer(t, Options{})
	fetchRows(t, ts.URL, decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, "")).ID)
	if runs := s.m.flowRuns.Load(); runs != 1 {
		t.Fatalf("setup: %d flow runs", runs)
	}
	wallclock := `{"SimVectors":128,"SimShards":2,"Workers":8,"SimKernel":2}`
	st := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), wallclock, ""))
	if st.State != StateDone || s.m.flowRuns.Load() != 1 {
		t.Errorf("wall-clock knob variation missed the cache: %+v, %d runs", st, s.m.flowRuns.Load())
	}
	semantic := `{"SimVectors":256,"SimShards":2}`
	st = decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), semantic, ""))
	fetchRows(t, ts.URL, st.ID)
	if runs := s.m.flowRuns.Load(); runs != 2 {
		t.Errorf("semantic config change should re-run the flow, got %d runs", runs)
	}
}

// TestPartialCacheHit: an archive whose members are partly cached runs
// only the misses but still streams every row in index order.
func TestPartialCacheHit(t *testing.T) {
	s, ts := testServer(t, Options{})
	fetchRows(t, ts.URL, decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, "")).ID)

	archive := tarOf(t, map[string]string{"comb.blif": tinyBLIF, "two.pla": tinyPLA})
	st := decodeStatus(t, postRaw(t, ts.URL, "batch.tar", archive, testCfgJSON, ""))
	if st.CacheHits != 1 {
		t.Fatalf("partial submission reports %d hits, want 1", st.CacheHits)
	}
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 2 || recs[0].Path != "comb.blif" || recs[1].Path != "two.pla" {
		t.Fatalf("bad rows %+v", recs)
	}
	if runs := s.m.flowRuns.Load(); runs != 2 {
		t.Errorf("%d flow runs, want 2 (one per submission with misses)", runs)
	}
}

// TestBackpressure429: with a held worker and a 1-deep queue, the third
// concurrent job draws 429 + Retry-After; releasing the worker drains
// the queue.
func TestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	s := NewServer(Options{QueueDepth: 1, JobWorkers: 1, FlowWorkers: 1})
	s.beforeJob = func(*job) { <-release }
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})

	ids := make([]string, 0, 2)
	var got429 *http.Response
	for i := 0; i < 3; i++ {
		cfg := fmt.Sprintf(`{"SimVectors":128,"SimSeed":%d}`, i+1)
		resp := postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), cfg, "")
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, decodeStatus(t, resp).ID)
	}
	if got429 == nil {
		t.Fatal("no 429 after overfilling the queue")
	}
	if got429.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	got429.Body.Close()
	if len(ids) != 2 {
		t.Errorf("accepted %d jobs before 429, want 2 (1 running + 1 queued)", len(ids))
	}
	close(release)
	for _, id := range ids {
		fetchRows(t, ts.URL, id)
	}
}

// TestGracefulDrain: drain completes the in-flight job, flips readyz,
// and rejects new submissions with 503 — while finished jobs stay
// queryable.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	s := NewServer(Options{QueueDepth: 4, JobWorkers: 1, FlowWorkers: 1})
	s.beforeJob = func(*job) { <-release }
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	st := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, ""))

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Drain flips the flag before blocking on workers.
	deadline := time.After(5 * time.Second)
	for !s.draining.Load() {
		select {
		case <-deadline:
			t.Fatal("drain flag never flipped")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	reject := postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), `{"SimSeed":99}`, "")
	reject.Body.Close()
	if reject.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission during drain: %d, want 503", reject.StatusCode)
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 1 || recs[0].Error != "" {
		t.Errorf("in-flight job after drain: %+v", recs)
	}
	// healthz stays live through and after the drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after drain: %d", resp.StatusCode)
	}
}

// TestRowsStreamWaitsForCompletion: a rows request opened while the job
// is still held delivers the rows once the job runs, rather than
// returning an empty body.
func TestRowsStreamWaitsForCompletion(t *testing.T) {
	release := make(chan struct{})
	s := NewServer(Options{QueueDepth: 4, JobWorkers: 1, FlowWorkers: 1})
	s.beforeJob = func(*job) { <-release }
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})

	st := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, ""))
	type result struct {
		recs []report.CorpusRecord
	}
	got := make(chan result, 1)
	go func() {
		got <- result{fetchRows(t, ts.URL, st.ID)}
	}()
	select {
	case <-got:
		t.Fatal("rows stream completed while the job was still held")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case r := <-got:
		if len(r.recs) != 1 {
			t.Errorf("streamed %d rows, want 1", len(r.recs))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rows stream never completed")
	}
}

// TestTimeoutRowsNotCached: a timed-out row is the documented
// non-deterministic outcome — resubmitting must re-run the flow, not
// replay the timeout.
func TestTimeoutRowsNotCached(t *testing.T) {
	s, ts := testServer(t, Options{CircuitTimeout: time.Nanosecond, FlowWorkers: 1})
	st := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, ""))
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 1 || !recs[0].TimedOut || recs[0].Error == "" {
		t.Fatalf("expected a timed-out row, got %+v", recs)
	}
	st2 := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, ""))
	fetchRows(t, ts.URL, st2.ID)
	if runs := s.m.flowRuns.Load(); runs != 2 {
		t.Errorf("timed-out row was served from cache (%d flow runs, want 2)", runs)
	}
}

// TestSubmitRejections: malformed submissions are rejected up front with
// the right statuses; no job is created.
func TestSubmitRejections(t *testing.T) {
	_, ts := testServer(t, Options{MaxUploadBytes: 1 << 16})
	emptyTar := tarOf(t, nil)
	dupTar := func() []byte {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		for i := 0; i < 2; i++ {
			data := []byte(tinyBLIF)
			tw.WriteHeader(&tar.Header{Name: "same.blif", Mode: 0o644, Size: int64(len(data))})
			tw.Write(data)
		}
		tw.Close()
		return buf.Bytes()
	}()
	escapeTar := func() []byte {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		data := []byte(tinyBLIF)
		tw.WriteHeader(&tar.Header{Name: "../escape.blif", Mode: 0o644, Size: int64(len(data))})
		tw.Write(data)
		tw.Close()
		return buf.Bytes()
	}()
	cases := []struct {
		name     string
		fileName string
		body     []byte
		cfg      string
		want     int
	}{
		{"unknown extension", "circuit.v", []byte("module m; endmodule"), "", 400},
		{"no name", "", []byte(tinyBLIF), "", 400},
		{"bad config JSON", "c.blif", []byte(tinyBLIF), "{", 400},
		{"unknown config field", "c.blif", []byte(tinyBLIF), `{"NoSuchKnob":1}`, 400},
		{"empty archive", "e.tar", emptyTar, "", 400},
		{"duplicate members", "d.tar", dupTar, "", 400},
		{"path escape", "esc.tar", escapeTar, "", 400},
		{"oversize", "big.blif", bytes.Repeat([]byte{'x'}, 1<<17), "", 413},
	}
	for _, c := range cases {
		resp := postRaw(t, ts.URL, c.fileName, c.body, c.cfg, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	if resp := postRaw(t, ts.URL, "x.blif", []byte(tinyBLIF), "", "&timed=maybe"); resp.StatusCode != 400 {
		resp.Body.Close()
		t.Errorf("bad timed value: status %d, want 400", resp.StatusCode)
	}
}

// TestArchiveExpansionCapped: archive members are read against
// MaxUploadBytes, the bound a raw body obeys. A .tar.gz and a .zip far
// under that bound whose .blif member expands past it each get a 413
// and register no job. A member with another extension is skipped
// unread and does not count against the bound.
func TestArchiveExpansionCapped(t *testing.T) {
	const maxUpload = 1 << 16
	s, ts := testServer(t, Options{MaxUploadBytes: maxUpload})
	big := strings.Repeat("# padding\n", 1<<17)
	tgz := func(files map[string]string) []byte {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		gz.Write(tarOf(t, files))
		gz.Close()
		return buf.Bytes()
	}
	var zipBuf bytes.Buffer
	zw := zip.NewWriter(&zipBuf)
	f, err := zw.Create("big.blif")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(big + tinyBLIF))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"bomb.tar.gz": tgz(map[string]string{"big.blif": big + tinyBLIF}),
		"bomb.zip":    zipBuf.Bytes(),
	} {
		if len(body) >= maxUpload {
			t.Fatalf("%s: compressed body is %d bytes, want it under the cap", name, len(body))
		}
		resp := postRaw(t, ts.URL, name, body, testCfgJSON, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", name, resp.StatusCode)
		}
	}
	s.jobsMu.Lock()
	jobs := len(s.jobs)
	s.jobsMu.Unlock()
	if jobs != 0 {
		t.Errorf("%d jobs registered, want 0", jobs)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "dominod_jobs_submitted_total 0") {
		t.Error("/metrics does not report dominod_jobs_submitted_total 0")
	}

	st := decodeStatus(t, postRaw(t, ts.URL, "mixed.tar.gz",
		tgz(map[string]string{"notes.txt": big, "comb.blif": tinyBLIF}), testCfgJSON, ""))
	if recs := fetchRows(t, ts.URL, st.ID); len(recs) != 1 || recs[0].Path != "comb.blif" {
		t.Errorf("skipped oversize member: rows %+v", recs)
	}
}

// TestZipSubmission: the zip container works like tar.
func TestZipSubmission(t *testing.T) {
	_, ts := testServer(t, Options{})
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	f, err := zw.Create("comb.blif")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(tinyBLIF))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, postRaw(t, ts.URL, "one.zip", buf.Bytes(), testCfgJSON, ""))
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 1 || recs[0].Path != "comb.blif" || recs[0].Error != "" {
		t.Errorf("zip rows: %+v", recs)
	}
}

// TestMetricsAndStatusEndpoints: the observability surface reports the
// counters the service contract names.
func TestMetricsAndStatusEndpoints(t *testing.T) {
	_, ts := testServer(t, Options{})
	st := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, ""))
	fetchRows(t, ts.URL, st.ID)
	postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), testCfgJSON, "").Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"dominod_jobs_submitted_total 2",
		"dominod_cache_hits_total 1",
		"dominod_cache_misses_total 1",
		"dominod_cache_hit_rate 0.5",
		"dominod_flow_runs_total 1",
		"dominod_rows_total 2",
		"dominod_jobs_completed_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	status := decodeStatus(t, func() *http.Response {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}())
	if status.State != StateDone || status.Completed != 1 || status.SchemaVers != report.CorpusSchemaVersion {
		t.Errorf("status: %+v", status)
	}
	if r, _ := http.Get(ts.URL + "/v1/jobs/nope"); r.StatusCode != 404 {
		t.Errorf("unknown job: %d, want 404", r.StatusCode)
	}
}
