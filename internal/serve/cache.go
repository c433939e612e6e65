package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/flow"
)

// CacheKey content-addresses one circuit's flow result: the SHA-256 of
// (canonical configuration JSON, flow selector, submitted path, file
// bytes). Because a corpus row is a pure function of exactly those
// inputs (the corpus determinism contract, internal/README.md), a key
// collision-free cache lookup is always a correct answer — no
// invalidation is ever needed.
//
// The configuration is hashed in its flow.Config.Canonical() form, so
// zero-valued and explicitly-defaulted configurations key identically
// and the pure wall-clock knobs (Workers, SimKernel, SimBlockWords) do
// not key at all. The timed flag is part of the key because the untimed
// (Table 1) and timed (Table 2) flows produce different rows from the
// same file. The path — the submitted, normalized circuit path — is
// part of it because the row depends on it: its extension selects the
// parser, and the row's name and its parse and flow errors carry it.
func CacheKey(cfg flow.Config, timed bool, path string, fileBytes []byte) ([32]byte, error) {
	cfgJSON, err := canonicalConfigJSON(cfg)
	if err != nil {
		return [32]byte{}, err
	}
	return keyFromCanonical(cfgJSON, timed, path, fileBytes), nil
}

// canonicalConfigJSON is the deterministic byte form of a configuration:
// encoding/json marshals struct fields in declaration order, so the
// canonicalized struct has exactly one encoding.
func canonicalConfigJSON(cfg flow.Config) ([]byte, error) {
	b, err := json.Marshal(cfg.Canonical())
	if err != nil {
		return nil, fmt.Errorf("serve: canonicalize config: %w", err)
	}
	return b, nil
}

// keyFromCanonical hashes a precomputed canonical config encoding — the
// per-job fast path (one config encoding, many files). The 0x00
// separator cannot occur inside JSON text, the selector has a fixed
// length and the path is length-prefixed, so the framing is
// unambiguous.
func keyFromCanonical(cfgJSON []byte, timed bool, path string, fileBytes []byte) [32]byte {
	h := sha256.New()
	h.Write(cfgJSON)
	sel := []byte{0, 't', 0}
	if !timed {
		sel[1] = 'u'
	}
	h.Write(sel)
	h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(path))))
	h.Write([]byte(path))
	h.Write(fileBytes)
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// cachedResult is the deterministic portion of one corpus row — the
// fields that are a pure function of (config, flow selector, path, file
// bytes). Submission metadata (index, submitted path, wall-clock) is
// reattached per job.
type cachedResult struct {
	sequential bool
	row        *flow.Row
	seqRow     *flow.SequentialRow
	errText    string
	format     string
	// engine and budgetTrips record the degradation-chain stage that
	// produced the row. Budget trips are deterministic (per-build node
	// caps, pre-shard vector clamps), so degraded rows are cacheable —
	// unlike timeouts.
	engine      string
	budgetTrips int
}

// rowCache is the content-addressed result cache: a bounded map from
// CacheKey to the immutable flow result, evicted FIFO. Values are
// shared, never mutated.
type rowCache struct {
	mu      sync.Mutex
	max     int
	entries map[[32]byte]*cachedResult
	order   [][32]byte // insertion order, for FIFO eviction
}

func newRowCache(max int) *rowCache {
	return &rowCache{max: max, entries: make(map[[32]byte]*cachedResult)}
}

func (c *rowCache) get(key [32]byte) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[key]
	return r, ok
}

// put stores a completed row's deterministic portion. Rows flagged
// TimedOut are refused: whether a circuit beats its timeout depends on
// machine load, so caching one would freeze a non-deterministic outcome.
func (c *rowCache) put(key [32]byte, r *flow.CorpusRow) {
	if r.TimedOut || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.entries) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = &cachedResult{
		sequential:  r.Sequential,
		row:         r.Row,
		seqRow:      r.SeqRow,
		errText:     r.Err,
		format:      r.Format,
		engine:      r.Engine,
		budgetTrips: r.BudgetTrips,
	}
	c.order = append(c.order, key)
}

// len reports the resident entry count (metrics).
func (c *rowCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
