package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/flow"
	"repro/internal/report"
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

// rowCache is the content-addressed result cache: a bounded map from
// CacheKey to the finished row's JSONL record with Index and WallSec
// zeroed — the row's deterministic portion, a few hundred bytes however
// large its circuit, so the entry bound is also a memory bound. The key
// covers the submitted path, so a hit's name, path and format already
// match its submission; only the index is set per job. Entries are
// evicted FIFO and copied out, never shared.
type rowCache struct {
	mu      sync.Mutex
	max     int
	entries map[[32]byte]report.CorpusRecord
	order   [][32]byte // insertion order, for FIFO eviction
}

func newRowCache(max int) *rowCache {
	return &rowCache{max: max, entries: make(map[[32]byte]report.CorpusRecord)}
}

func (c *rowCache) get(key [32]byte) (report.CorpusRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.entries[key]
	return rec, ok
}

// put stores a finished row's record. Rows flagged TimedOut are
// refused: whether a circuit beats its timeout depends on machine load,
// so caching one would freeze a non-deterministic outcome. Budget trips
// are deterministic (per-build node caps, pre-shard vector clamps), so
// degraded rows are cached with their engine and trip count.
func (c *rowCache) put(key [32]byte, rec report.CorpusRecord) {
	if rec.TimedOut || c.max <= 0 {
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
	rec.Index, rec.WallSec = 0, 0
	c.entries[key] = rec
	c.order = append(c.order, key)
}

// len reports the resident entry count (metrics).
func (c *rowCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
