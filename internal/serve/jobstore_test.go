package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/flow"
	"repro/internal/gen"
)

// doneJob returns a finished job with no circuits.
func doneJob() *job {
	j := newJob(nil, flow.Config{}, nil, false)
	j.finish()
	return j
}

// TestMaxJobsEvictsOldestDone: past MaxJobs the oldest done job goes
// first, a live job is never evicted even when it is the oldest, and an
// evicted id answers 404.
func TestMaxJobsEvictsOldestDone(t *testing.T) {
	s := NewServer(Options{MaxJobs: 2})
	live := newJob(nil, flow.Config{}, nil, false)
	a, b, c := doneJob(), doneJob(), doneJob()
	for _, j := range []*job{live, a, b} {
		s.registerJob(j)
	}
	has := func(j *job) bool { _, ok := s.lookupJob(j.id); return ok }
	if !has(live) || has(a) || !has(b) {
		t.Fatalf("after 3 registrations: live=%v a=%v b=%v, want the oldest done job (a) evicted",
			has(live), has(a), has(b))
	}
	s.registerJob(c)
	if !has(live) || has(b) || !has(c) {
		t.Fatalf("after 4 registrations: live=%v b=%v c=%v, want b evicted", has(live), has(b), has(c))
	}
	if got := strings.Join(s.jobOrder, ","); got != live.id+","+c.id {
		t.Errorf("jobOrder %s, want live then c", got)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+a.id, nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET evicted job: status %d, want 404", rec.Code)
	}
}

// TestMaxJobsEvictionAllocatesPerJob: with a full store, each
// registration evicts one job without copying the store's submission
// order, so N more registrations allocate O(N) bytes, not O(N·MaxJobs).
func TestMaxJobsEvictionAllocatesPerJob(t *testing.T) {
	const maxJobs, n = 4096, 2048
	s := NewServer(Options{MaxJobs: maxJobs})
	for i := 0; i < maxJobs; i++ {
		s.registerJob(doneJob())
	}
	more := make([]*job, n)
	for i := range more {
		more[i] = doneJob()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, j := range more {
		s.registerJob(j)
	}
	runtime.ReadMemStats(&after)
	if len(s.jobs) != maxJobs {
		t.Fatalf("store holds %d jobs, want %d", len(s.jobs), maxJobs)
	}
	// One copy of the order per registration would be 64 KiB each.
	if perJob := (after.TotalAlloc - before.TotalAlloc) / n; perJob > 1024 {
		t.Errorf("registering a job into a full store allocated %d B, want O(1)", perJob)
	}
}

// TestJobOrderHoldsOnlyRegisteredJobs: submissions rejected with 429
// leave no id behind in the eviction order.
func TestJobOrderHoldsOnlyRegisteredJobs(t *testing.T) {
	release := make(chan struct{})
	s := NewServer(Options{QueueDepth: 1, JobWorkers: 1, FlowWorkers: 1})
	s.beforeJob = func(*job) { <-release }
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	defer close(release)
	rejected := 0
	for i := 0; i < 6; i++ {
		resp := postRaw(t, ts.URL, "comb.blif", []byte(tinyBLIF), fmt.Sprintf(`{"SimVectors":128,"SimSeed":%d}`, i+1), "")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no submission was rejected")
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for _, id := range s.jobOrder {
		if _, ok := s.jobs[id]; !ok {
			t.Errorf("jobOrder holds %s, which is not a registered job", id)
		}
	}
	if len(s.jobOrder) != len(s.jobs) {
		t.Errorf("jobOrder holds %d ids for %d jobs", len(s.jobOrder), len(s.jobs))
	}
}

// TestCachedSubmissionsDropUploadBytes: a cache hit keeps its job's
// metadata but not its upload, so N fully cached submissions of a large
// payload grow the live heap by far less than N payloads.
func TestCachedSubmissionsDropUploadBytes(t *testing.T) {
	_, ts := testServer(t, Options{})
	// A comment line pads the circuit to 1 MiB without changing it.
	payload := []byte("#" + strings.Repeat("x", 1<<20) + "\n" + tinyBLIF)
	fetchRows(t, ts.URL, decodeStatus(t, postRaw(t, ts.URL, "comb.blif", payload, testCfgJSON, "")).ID)

	const n = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		st := decodeStatus(t, postRaw(t, ts.URL, "comb.blif", payload, testCfgJSON, ""))
		if st.CacheHits != 1 || st.State != StateDone {
			t.Fatalf("submission %d: %+v, want a done cache hit", i, st)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > n*int64(len(payload))/4 {
		t.Errorf("%d cached submissions of %d B grew the live heap by %d B", n, len(payload), grew)
	}
}

// TestFinishedRowsRetainOnlyRecords: once a row is served, the cache
// entry and the retained job keep only its JSONL record, never the
// synthesis behind it (the prepared network, both phase blocks and both
// mapped blocks — about 220 KB for apex7). Cold submissions under
// distinct seeds therefore grow the live heap by a job's bookkeeping
// each.
func TestFinishedRowsRetainOnlyRecords(t *testing.T) {
	src, err := blif.WriteString(&blif.Model{Network: gen.Apex7().Net})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Options{})
	submit := func(seed int) {
		st := decodeStatus(t, postRaw(t, ts.URL, "apex7.blif", []byte(src), fmt.Sprintf(`{"SimVectors":128,"SimSeed":%d}`, seed), ""))
		if st.CacheHits != 0 {
			t.Fatalf("seed %d: %d cache hits, want a cold job", seed, st.CacheHits)
		}
		if recs := fetchRows(t, ts.URL, st.ID); len(recs) != 1 || recs[0].Error != "" {
			t.Fatalf("seed %d: rows %+v, want one finished row", seed, recs)
		}
	}
	submit(0) // first-use allocations (connections, pools) are not per row

	const n = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		submit(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if perRow := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; perRow > 16<<10 {
		t.Errorf("each cold apex7 submission grew the live heap by %d B, want under 16 KiB", perRow)
	}
}
