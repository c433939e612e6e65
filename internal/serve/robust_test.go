package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blif"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/report"
)

// waitStatus polls GET /v1/jobs/{id} until pred accepts the status (or
// the deadline passes).
func waitStatus(t *testing.T, base, id string, pred func(jobStatus) bool) jobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the expected status; last: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Hostile configurations, submitted as ordinary flow.Config JSON:
// pinnedCfgJSON holds a circuit in the sim loop (2^30 vectors) until a
// timeout or DELETE cancels it, and budgetBlowCfgJSON forces exact BDD
// probabilities (Method 1) under a node budget no circuit fits.
const (
	pinnedCfgJSON     = `{"SimVectors":1073741824,"SimShards":2}`
	budgetBlowCfgJSON = `{"SimVectors":128,"SimShards":2,"EstOpts":{"Method":1},"BDDNodeBudget":8}`
)

func deleteJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	req, err := http.NewRequest("DELETE", base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	return decodeStatus(t, resp)
}

// TestConfigValidationRejections: impossible configurations are a
// structured 400 at the submit boundary, and the error body names the
// offending field — table-driven over the range checks flow.Config
// .Validate performs.
func TestConfigValidationRejections(t *testing.T) {
	_, ts := testServer(t, Options{})
	cases := []struct {
		name  string
		cfg   string
		field string
	}{
		{"negative SimShards", `{"SimShards":-1}`, "SimShards"},
		{"oversized SimShards", `{"SimShards":1025}`, "SimShards"},
		{"oversized SearchRestarts", `{"SearchStrategy":4,"SearchRestarts":1025}`, "SearchRestarts"},
		{"negative SimVectors", `{"SimVectors":-5}`, "SimVectors"},
		{"negative Workers", `{"Workers":-2}`, "Workers"},
		{"InputProb above 1", `{"InputProb":1.5}`, "InputProb"},
		{"InputProb negative", `{"InputProb":-0.25}`, "InputProb"},
		{"unknown SimKernel", `{"SimKernel":9}`, "SimKernel"},
		{"oversized SimBlockWords", `{"SimBlockWords":99}`, "SimBlockWords"},
		{"unknown SearchStrategy", `{"SearchStrategy":12}`, "SearchStrategy"},
		{"unknown PhaseScoring", `{"PhaseScoring":7}`, "PhaseScoring"},
		{"unknown EstOpts.Method", `{"EstOpts":{"Method":42}}`, "EstOpts.Method"},
		{"negative BDDNodeBudget", `{"BDDNodeBudget":-1}`, "BDDNodeBudget"},
		{"negative SimVectorBudget", `{"SimVectorBudget":-8}`, "SimVectorBudget"},
		{"negative AnnealSteps", `{"AnnealSteps":-3}`, "AnnealSteps"},
		{"unbounded annealing", `{"AnnealSteps":4611686018427387904,"SearchRestarts":1024}`, "AnnealSteps"},
		{"branch-and-bound without bounds", `{"PhaseScoring":1,"SearchStrategy":2}`, "SearchStrategy"},
		{"partial Lib", `{"Lib":{"MaxSeries":4}}`, "Lib.MaxParallel"},
		{"negative Lib.InputCap", `{"Lib":{"MaxSeries":4,"MaxParallel":8,"BaseCellArea":2,"PerInputArea":1,"InverterArea":1,"InputCap":-1,"OutputCap":1}}`, "Lib.InputCap"},
		{"zero Timing model", `{"Timing":{}}`, "Timing.MaxSize"},
		{"oversized Timing.MaxSize", `{"Timing":{"Intrinsic":1,"SeriesDelay":0.15,"LoadDelay":0.5,"InverterDelay":0.5,"MaxSize":1000000,"SizeStep":1.01}}`, "Timing.MaxSize"},
		{"Timing.SizeStep at 1", `{"Timing":{"Intrinsic":1,"MaxSize":8,"SizeStep":1}}`, "Timing.SizeStep"},
		{"too many upsizings", `{"Timing":{"Intrinsic":1,"MaxSize":8,"SizeStep":1.01}}`, "Timing.SizeStep"},
		{"negative Timing.Intrinsic", `{"Timing":{"Intrinsic":-1,"MaxSize":8,"SizeStep":1.26}}`, "Timing.Intrinsic"},
		{"negative Timing.LoadDelay", `{"Timing":{"Intrinsic":1,"LoadDelay":-0.5,"MaxSize":8,"SizeStep":1.26}}`, "Timing.LoadDelay"},
	}
	for _, c := range cases {
		resp := postRaw(t, ts.URL, "c.blif", []byte(tinyBLIF), c.cfg, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: non-JSON error body %q", c.name, body)
			continue
		}
		if !strings.Contains(e.Error, c.field) {
			t.Errorf("%s: error %q does not name field %q", c.name, e.Error, c.field)
		}
	}
}

// TestCancelRunningJob: DELETE /v1/jobs/{id} on a job pinned in the sim
// loop cancels it through the cooperative budget token — the job reaches
// done with timed-out (uncached) rows instead of wedging the worker.
func TestCancelRunningJob(t *testing.T) {
	s, ts := testServer(t, Options{FlowWorkers: 1})
	st := decodeStatus(t, postRaw(t, ts.URL, "slow.blif", []byte(tinyBLIF), pinnedCfgJSON, ""))
	waitStatus(t, ts.URL, st.ID, func(s jobStatus) bool { return s.State == StateRunning })
	del := deleteJob(t, ts.URL, st.ID)
	if !del.Cancelled {
		t.Errorf("DELETE response not marked cancelled: %+v", del)
	}
	waitStatus(t, ts.URL, st.ID, func(s jobStatus) bool { return s.State == StateDone })
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 1 || !recs[0].TimedOut || recs[0].Error == "" {
		t.Fatalf("cancelled job should yield a timed-out row, got %+v", recs)
	}
	if n := s.m.jobsCancelled.Load(); n != 1 {
		t.Errorf("jobsCancelled = %d, want 1", n)
	}
	// Cancelling a done job is a no-op.
	deleteJob(t, ts.URL, st.ID)
	if n := s.m.jobsCancelled.Load(); n != 1 {
		t.Errorf("second DELETE bumped jobsCancelled to %d", n)
	}
}

// TestCancelQueuedJob: a job cancelled while still waiting in the queue
// never enters the flow; the worker answers its slots with cancellation
// rows and the job completes normally.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Options{JobWorkers: 1})
	s.beforeJob = func(*job) { <-release }
	stA := decodeStatus(t, postRaw(t, ts.URL, "a.blif", []byte(tinyBLIF), testCfgJSON, ""))
	stB := decodeStatus(t, postRaw(t, ts.URL, "b.blif", []byte(tinyBLIF+"\n"), testCfgJSON, ""))
	del := deleteJob(t, ts.URL, stB.ID)
	if !del.Cancelled {
		t.Errorf("queued job not marked cancelled: %+v", del)
	}
	close(release)
	waitStatus(t, ts.URL, stA.ID, func(s jobStatus) bool { return s.State == StateDone })
	waitStatus(t, ts.URL, stB.ID, func(s jobStatus) bool { return s.State == StateDone })
	recsA := fetchRows(t, ts.URL, stA.ID)
	if len(recsA) != 1 || recsA[0].Error != "" {
		t.Fatalf("uncancelled job should complete cleanly, got %+v", recsA)
	}
	recsB := fetchRows(t, ts.URL, stB.ID)
	if len(recsB) != 1 || !recsB[0].TimedOut ||
		!strings.Contains(recsB[0].Error, "cancelled by client") {
		t.Fatalf("cancelled queued job should yield cancellation rows, got %+v", recsB)
	}
	if s.m.flowRuns.Load() != 1 {
		t.Errorf("cancelled queued job entered the flow (%d runs, want 1)", s.m.flowRuns.Load())
	}
}

// TestRowsStreamDisconnectCancels: a rows stream opened with ?cancel=1
// owns the job — the client going away cancels it.
func TestRowsStreamDisconnectCancels(t *testing.T) {
	s, ts := testServer(t, Options{FlowWorkers: 1})
	st := decodeStatus(t, postRaw(t, ts.URL, "slow.blif", []byte(tinyBLIF), pinnedCfgJSON, ""))
	waitStatus(t, ts.URL, st.ID, func(s jobStatus) bool { return s.State == StateRunning })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+st.ID+"/rows?cancel=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // simulate the client going away mid-stream
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	fin := waitStatus(t, ts.URL, st.ID, func(s jobStatus) bool { return s.State == StateDone })
	if !fin.Cancelled {
		t.Errorf("disconnect did not cancel the job: %+v", fin)
	}
	if n := s.m.jobsCancelled.Load(); n != 1 {
		t.Errorf("jobsCancelled = %d, want 1", n)
	}
}

// TestBudgetDegradedRowCachedWithEngine: a circuit that blows its BDD
// node budget completes on a fallback engine with a
// non-error row; the row records the engine and budget trips, is
// cacheable (deterministic), and the cache round-trips both fields.
func TestBudgetDegradedRowCachedWithEngine(t *testing.T) {
	s, ts := testServer(t, Options{FlowWorkers: 1})
	st := decodeStatus(t, postRaw(t, ts.URL, "bddblow.blif", []byte(tinyBLIF), budgetBlowCfgJSON, ""))
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("degraded circuit should complete without error, got %+v", recs)
	}
	if recs[0].Engine == "" || recs[0].BudgetTrips == 0 {
		t.Fatalf("degraded row must record engine and trips, got %+v", recs[0])
	}
	st2 := decodeStatus(t, postRaw(t, ts.URL, "bddblow.blif", []byte(tinyBLIF), budgetBlowCfgJSON, ""))
	recs2 := fetchRows(t, ts.URL, st2.ID)
	if runs := s.m.flowRuns.Load(); runs != 1 {
		t.Errorf("degraded row was not served from cache (%d flow runs, want 1)", runs)
	}
	if recs2[0].Engine != recs[0].Engine || recs2[0].BudgetTrips != recs[0].BudgetTrips {
		t.Errorf("cache dropped degradation metadata: first %+v, cached %+v", recs[0], recs2[0])
	}

	// The metrics endpoint reflects the degradation counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"dominod_jobs_cancelled_total 0",
		"dominod_budget_trips_total",
		"dominod_rows_reordered_total",
		"dominod_rows_degraded_depth_total",
		"dominod_rows_degraded_mc_total",
		"dominod_rows_timed_out_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestExactSiftedRowCachedAndCounted: a circuit whose unsifted exact
// build blows the node budget but fits after in-place reordering is
// rescued by the exact-sifted stage over the HTTP surface — the row
// records the engine, the dominod_rows_reordered_total counter tracks
// it, and a resubmission is served from the content-addressed cache
// with the engine intact (rescue is deterministic, so it caches).
func TestExactSiftedRowCachedAndCounted(t *testing.T) {
	net := gen.Generate(gen.Params{Name: "sifted", Inputs: 20, Outputs: 4, Gates: 100, Seed: 0x5AA11})
	model, err := blif.WriteString(&blif.Model{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	cfgJSON, err := json.Marshal(flow.Config{
		SimVectors:    256,
		EstOpts:       power.Options{Method: power.Exact},
		BDDNodeBudget: 200, // between the sifted and unsifted peak node counts
	})
	if err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Options{FlowWorkers: 1})
	st := decodeStatus(t, postRaw(t, ts.URL, "sifted.blif", []byte(model), string(cfgJSON), ""))
	recs := fetchRows(t, ts.URL, st.ID)
	if len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("sifted circuit should complete without error, got %+v", recs)
	}
	if recs[0].Engine != flow.EngineExactSifted {
		t.Fatalf("engine = %q, want %q", recs[0].Engine, flow.EngineExactSifted)
	}
	if recs[0].BudgetTrips != 1 {
		t.Errorf("budget trips = %d, want 1 (only the unsifted stage trips)", recs[0].BudgetTrips)
	}
	if n := s.m.rowsReordered.Load(); n != 1 {
		t.Errorf("rowsReordered = %d after first run, want 1", n)
	}

	// Resubmit: served from cache, engine preserved, counter still bumps
	// (it counts emitted rows, cache hits included, like rowsTotal).
	st2 := decodeStatus(t, postRaw(t, ts.URL, "sifted.blif", []byte(model), string(cfgJSON), ""))
	recs2 := fetchRows(t, ts.URL, st2.ID)
	if runs := s.m.flowRuns.Load(); runs != 1 {
		t.Errorf("rescued row was not served from cache (%d flow runs, want 1)", runs)
	}
	if recs2[0].Engine != flow.EngineExactSifted || recs2[0].BudgetTrips != recs[0].BudgetTrips {
		t.Errorf("cache dropped rescue metadata: first %+v, cached %+v", recs[0], recs2[0])
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "dominod_rows_reordered_total 2") {
		t.Error("/metrics does not report dominod_rows_reordered_total 2 after resubmit")
	}
}

// TestHostileTrafficDrainsClean: on a short-timeout server, a healthy
// circuit, a corrupt BLIF, a pinned circuit left to time out, a pinned
// circuit cancelled by DELETE and a budget-blown circuit each yield
// their expected row and counters, and after Drain the goroutine count
// returns to its pre-traffic baseline.
func TestHostileTrafficDrainsClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewServer(Options{JobWorkers: 2, FlowWorkers: 1, CircuitTimeout: 300 * time.Millisecond})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(name, body, cfg string) string {
		return decodeStatus(t, postRaw(t, ts.URL, name, []byte(body), cfg, "")).ID
	}
	healthy := submit("healthy.blif", tinyBLIF, testCfgJSON)
	corrupt := submit("corrupt.blif", ".model broken\n.inputs a\n.outputs f\n.names g f\n.banana\n.end\n", testCfgJSON)
	timedOut := submit("pinned.blif", tinyBLIF, pinnedCfgJSON)
	cancelled := submit("cancelled.blif", tinyBLIF, pinnedCfgJSON)
	deleteJob(t, ts.URL, cancelled)
	blown := submit("blown.blif", tinyBLIF, budgetBlowCfgJSON)

	row := func(id string) report.CorpusRecord {
		recs := fetchRows(t, ts.URL, id)
		if len(recs) != 1 {
			t.Fatalf("job %s: %d rows, want 1", id, len(recs))
		}
		return recs[0]
	}
	if r := row(healthy); r.Error != "" {
		t.Errorf("healthy circuit failed amid hostile traffic: %+v", r)
	}
	if r := row(corrupt); r.Error == "" || r.TimedOut {
		t.Errorf("corrupt BLIF should be an error row, got %+v", r)
	}
	if r := row(timedOut); !r.TimedOut || !strings.Contains(r.Error, "timeout") {
		t.Errorf("pinned circuit was not timed out: %+v", r)
	}
	if r := row(cancelled); !r.TimedOut || r.Error == "" {
		t.Errorf("cancelled pinned circuit should be a cancellation row, got %+v", r)
	}
	b := row(blown)
	if b.Error != "" || b.Engine == "" || b.BudgetTrips == 0 {
		t.Errorf("budget-blown circuit should degrade without error, got %+v", b)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dominod_jobs_cancelled_total 1\n",
		"dominod_rows_timed_out_total 2\n",
		"dominod_rows_failed_total 3\n", // corrupt + timed out + cancelled
		fmt.Sprintf("dominod_budget_trips_total %d\n", b.BudgetTrips),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}

	// The leak check counts every goroutine, so the HTTP plumbing goes
	// first: only the serve layer's own hygiene is under test.
	s.Drain()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d after drain", baseline, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}
