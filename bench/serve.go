package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/report"
	"repro/internal/serve"
)

// The serve workload runs an in-process dominod (one job worker, one
// flow worker) on a loopback listener and drives it with two closed-loop
// clients: each submits one single-circuit job, reads its row stream to
// the end, then submits the next. The repository records no production
// traffic, so the mix takes the only submission ratio it does record,
// dominod -loadtest's default of 3000 cached to 24 cold submissions
// (125:1), under the same configurations: repeats of a primed
// {"SimVectors":256} submission, answered from the content-addressed
// cache without entering the flow, and submissions under a fresh
// SimSeed, which miss the cache and run the flow (dominated by the
// exhaustive MA search of the 12-output payload). It runs in rounds of
// roundCold+roundCached submissions in seeded order; wall_s is the
// median round.
const (
	roundCold    = 4   // one cold submission per payload
	roundCached  = 500 // 125 cached submissions per payload
	serveClients = 2
	// sampleChecks cold and as many cached submissions are re-run
	// directly through flow.RunCorpus and must stream identical records.
	sampleChecks = 5
	// fixedRounds is how many rounds peak_rss_mb and the quality
	// metrics cover, and the least a run measures. The server keeps
	// every finished job and caches every cold row, so its memory grows
	// with the submissions served; a fixed number of rounds keeps these
	// metrics independent of how many rounds a window fits.
	fixedRounds = 10
)

// baseConfig is dominod -loadtest's submission config, the one every
// cached submission repeats.
const baseConfig = `{"SimVectors":256}`

// coldConfig is baseConfig under another SimSeed, a distinct cache key.
func coldConfig(simSeed int64) string {
	return fmt.Sprintf(`{"SimVectors":256,"SimSeed":%d}`, simSeed)
}

func serveTwins() []gen.NamedCircuit {
	return []gen.NamedCircuit{gen.Apex7(), gen.Frg1(), gen.X1(), loadtestTwin()}
}

// submission is one scheduled job: a payload (corpus entry index) and
// the config JSON it is submitted under.
type submission struct {
	entry int
	cold  bool
	cfg   string
}

// outcome is what a client observed for one submission.
type outcome struct {
	sub     submission
	status  int
	latency float64 // seconds from POST to the end of the row stream
	recs    []report.CorpusRecord
	err     error
}

// service is a running in-process dominod with its HTTP listener.
type service struct {
	files  *corpusFiles
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
}

// startService writes the payloads, starts a server on a loopback port
// and primes its cache with every payload under baseConfig.
func startService() (*service, error) {
	files, err := writeCorpus(serveTwins)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{JobWorkers: 1, FlowWorkers: 1})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		files.remove()
		return nil, err
	}
	s := &service{
		files:  files,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	for i := range files.entries {
		if out := s.do(submission{entry: i, cfg: baseConfig}); out.err != nil {
			s.stop()
			return nil, fmt.Errorf("priming %s: %w", files.entries[i].Name, out.err)
		}
	}
	return s, nil
}

// stop drains the server, closes the listener and waits for it.
func (s *service) stop() {
	s.srv.Drain()
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.files.remove()
}

// do submits one job and reads its row stream to the end.
func (s *service) do(sub submission) outcome {
	out := outcome{sub: sub}
	e := s.files.entries[sub.entry]
	t0 := time.Now()
	out.status, out.recs, out.err = s.submit(e.Name+".blif", s.files.data[e.Name], sub.cfg)
	out.latency = time.Since(t0).Seconds()
	return out
}

func (s *service) submit(name string, data []byte, cfg string) (int, []report.CorpusRecord, error) {
	req, err := http.NewRequest("POST", s.base+"/v1/jobs?name="+url.QueryEscape(name), bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Dominod-Config", cfg)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("submit: %w", err)
	}
	rows, err := s.client.Get(s.base + "/v1/jobs/" + st.ID + "/rows")
	if err != nil {
		return resp.StatusCode, nil, err
	}
	defer rows.Body.Close()
	if rows.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, fmt.Errorf("rows: status %d", rows.StatusCode)
	}
	var recs []report.CorpusRecord
	dec := json.NewDecoder(rows.Body)
	for {
		var rec report.CorpusRecord
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return resp.StatusCode, nil, fmt.Errorf("rows: %w", err)
		}
		recs = append(recs, rec)
	}
	return resp.StatusCode, recs, nil
}

// round runs one round's submissions on serveClients closed-loop
// clients and returns the outcomes in schedule order.
func (s *service) round(subs []submission) []outcome {
	outs := make([]outcome, len(subs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				outs[i] = s.do(subs[i])
			}
		}()
	}
	wg.Wait()
	return outs
}

// schedule draws one round: one cold submission per payload under a
// fresh nonzero SimSeed and roundCached/payloads cached ones per payload
// under the primed baseConfig, in seeded random order.
func schedule(rng *rand.Rand, payloads int) []submission {
	var subs []submission
	for p := range payloads {
		subs = append(subs, submission{entry: p, cold: true, cfg: coldConfig(1 + rng.Int63n(1<<62))})
		for range roundCached / payloads {
			subs = append(subs, submission{entry: p, cfg: baseConfig})
		}
	}
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// runServe is the serve workload.
func runServe(o runOptions) (*result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	svc, setupSecs, err := repeatSetup(startService, (*service).stop)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	res := newResult()
	res.set("setup_s", setupSecs)

	before, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var walls []float64
	var outs []outcome
	var rss float64
	start := time.Now()
	for len(walls) < fixedRounds || time.Since(start)+secs(walls[len(walls)-1]) <= o.window {
		subs := schedule(rng, len(svc.files.entries))
		t0 := time.Now()
		outs = append(outs, svc.round(subs)...)
		walls = append(walls, time.Since(t0).Seconds())
		if len(walls) == fixedRounds {
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	after, err := svc.scrape()
	if err != nil {
		return nil, err
	}

	var all, cached, cold []float64
	// The quality metrics average the rows streamed in the first
	// fixedRounds rounds, so they are a function of the seed alone.
	var pwrSav, areaPen float64
	good := 0
	for i, out := range outs {
		res.attempted++
		if err := checkOutcome(out, svc.files.entries[out.sub.entry].Name); err != nil {
			res.problem("%v", err)
			continue
		}
		all = append(all, out.latency)
		if out.sub.cold {
			cold = append(cold, out.latency)
		} else {
			cached = append(cached, out.latency)
		}
		if i < fixedRounds*(roundCold+roundCached) {
			pwrSav += out.recs[0].PowerSavingPct
			areaPen += out.recs[0].AreaPenaltyPct
			good++
		}
	}
	if good == 0 {
		return nil, fmt.Errorf("no submission completed")
	}
	res.set("wall_s", median(walls))
	res.set("p50_ms", 1000*median(all))
	res.set("samples", float64(len(walls)))
	res.set("peak_rss_mb", rss)
	res.set("pwr_sav_pct", pwrSav/float64(good))
	res.set("area_pen_pct", areaPen/float64(good))
	res.set("jobs_per_s", float64(len(outs))/elapsed)
	res.set("cached_n", float64(len(cached)))
	res.set("cold_n", float64(len(cold)))
	if len(cached) > 0 {
		res.set("cached_p50_ms", 1000*median(cached))
	}
	if v, ok := tailPercentile(cached, 99); ok {
		res.set("cached_p99_ms", 1000*v)
	}
	if len(cold) > 0 {
		res.set("cold_p50_s", median(cold))
	}
	if v, ok := tailPercentile(cold, 90); ok {
		res.set("cold_p90_s", v)
	}
	hits, misses := after["dominod_cache_hits_total"]-before["dominod_cache_hits_total"],
		after["dominod_cache_misses_total"]-before["dominod_cache_misses_total"]
	if hits+misses > 0 {
		res.set("serve.cache_hit_ratio", hits/(hits+misses))
	}
	res.set("serve.flow_runs", after["dominod_flow_runs_total"]-before["dominod_flow_runs_total"])
	res.set("serve.rejected_429", after["dominod_jobs_rejected_busy_total"]-before["dominod_jobs_rejected_busy_total"])

	if err := checkSamples(res, svc.files, outs); err != nil {
		return nil, err
	}
	if o.traced {
		base, err := parseConfig(baseConfig)
		if err != nil {
			return nil, err
		}
		rows, err := traceEntries(res, svc.files.entries, flow.CorpusConfig{Base: base, Workers: 1})
		if err != nil {
			return nil, err
		}
		checkRows(res, svc.files.entries, rows)
	}
	return res, nil
}

// checkOutcome checks one submission: accepted, answered from the cache
// exactly when it repeated a primed submission, and streamed one
// error-free row for its circuit.
func checkOutcome(out outcome, name string) error {
	if out.err != nil {
		return fmt.Errorf("%s: %w", name, out.err)
	}
	want := http.StatusOK // answered from the cache at submit time
	if out.sub.cold {
		want = http.StatusAccepted
	}
	switch {
	case out.status != want:
		return fmt.Errorf("%s (cold=%v): status %d, want %d", name, out.sub.cold, out.status, want)
	case len(out.recs) != 1:
		return fmt.Errorf("%s: %d rows streamed, want 1", name, len(out.recs))
	case out.recs[0].Error != "":
		return fmt.Errorf("%s: error row: %s", name, out.recs[0].Error)
	case out.recs[0].Name != name:
		return fmt.Errorf("row for %q, want %q", out.recs[0].Name, name)
	}
	return nil
}

// checkSamples re-runs the first sampleChecks cold and cached
// submissions directly through flow.RunCorpus on the same bytes and
// config: the streamed record must equal the direct one (wall-clock
// excepted), and the direct row must pass the equivalence gate.
func checkSamples(res *result, files *corpusFiles, outs []outcome) error {
	type key struct {
		entry int
		cfg   string
	}
	direct := make(map[key]*flow.CorpusRow)
	nCold, nCached := 0, 0
	for _, out := range outs {
		if out.err != nil || len(out.recs) != 1 {
			continue
		}
		n := &nCached
		if out.sub.cold {
			n = &nCold
		}
		if *n == sampleChecks {
			continue
		}
		*n++
		res.attempted++
		k := key{out.sub.entry, out.sub.cfg}
		row, ok := direct[k]
		if !ok {
			var err error
			if row, err = directRow(files.entries[k.entry], k.cfg); err != nil {
				return err
			}
			direct[k] = row
			if err := checkRow(files.entries[k.entry], row); err != nil {
				res.problem("direct %s: %v", row.Name, err)
			}
		}
		want := deterministicRecords([]*flow.CorpusRow{row})[0]
		want.Path = row.Name + ".blif"
		got := out.recs[0]
		got.WallSec = 0
		if !reflect.DeepEqual(got, want) {
			res.problem("%s (cold=%v): streamed record differs from a direct flow.RunCorpus", row.Name, out.sub.cold)
		}
	}
	return nil
}

// directRow runs one payload through flow.RunCorpus under a submission's
// config, as the server does (per-circuit flow pinned to one worker).
func directRow(e corpus.Entry, cfgJSON string) (*flow.CorpusRow, error) {
	cfg, err := parseConfig(cfgJSON)
	if err != nil {
		return nil, err
	}
	rows, err := flow.RunCorpus(context.Background(), []corpus.Entry{e}, flow.CorpusConfig{Base: cfg, Workers: 1})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// parseConfig decodes a submission config the way the server does
// (strictly), with the per-circuit flow pinned to one worker.
func parseConfig(cfgJSON string) (flow.Config, error) {
	var cfg flow.Config
	dec := json.NewDecoder(strings.NewReader(cfgJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("config %s: %w", cfgJSON, err)
	}
	cfg.Workers = 1
	return cfg, nil
}

// scrape reads the server's /metrics counters.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] = f
	}
	return out, sc.Err()
}
