// Package corpus discovers circuit files on disk and parses them into
// the circuit types the synthesis flows consume. It is the bridge from
// real benchmark directories (BLIF and PLA, the MCNC suite's formats) to
// the batch engine: Discover expands files, directories, and glob
// patterns into a deterministic entry list, and Load parses one entry —
// combinational models become gen.NamedCircuit values, latched BLIF
// models additionally carry a seq.Circuit so the partitioned sequential
// flow (internal/seq) can run on them, exactly like the generated -seq
// path.
//
// The package does no flow work itself; internal/flow's RunCorpus drives
// entries through the concurrent pipeline with per-circuit error
// isolation (a corrupt file yields an error row, never a failed batch).
package corpus

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/internal/pla"
	"repro/internal/seq"
)

// Format identifies a circuit file format.
type Format int

// Supported formats, keyed by file extension.
const (
	FormatBLIF Format = iota
	FormatPLA
)

func (f Format) String() string {
	switch f {
	case FormatBLIF:
		return "blif"
	case FormatPLA:
		return "pla"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// FormatOf maps a file name to its format by extension (.blif or .pla,
// case-insensitive).
func FormatOf(path string) (Format, bool) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".blif":
		return FormatBLIF, true
	case ".pla":
		return FormatPLA, true
	}
	return 0, false
}

// SplitList splits a comma-separated flag value into trimmed, non-empty
// elements — the parsing every corpus-taking CLI flag shares.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Entry is one discovered circuit file.
type Entry struct {
	Path string
	// Name is the file's base name without extension — the circuit name
	// result rows report.
	Name   string
	Format Format
	// Data, when non-nil, is the file's content: Load parses it instead
	// of reading Path, which then only names the circuit in diagnostics
	// and rows (dominod passes a submission's bytes this way).
	Data []byte
}

// Discover expands paths — files, directories (walked recursively), or
// glob patterns — into a deduplicated entry list sorted by path.
// Directories and globs pick up only .blif/.pla files; naming a file
// with another extension explicitly is an error, as is a path that
// matches nothing. The sorted order is the batch's deterministic row
// order, independent of filesystem iteration.
func Discover(paths ...string) ([]Entry, error) {
	seen := make(map[string]bool)
	var entries []Entry
	add := func(path string, explicit bool) error {
		path = filepath.Clean(path) // so "./x.blif" and "x.blif" dedup
		f, ok := FormatOf(path)
		if !ok {
			if explicit {
				return fmt.Errorf("corpus: %s: unrecognized extension (want .blif or .pla)", path)
			}
			return nil
		}
		if seen[path] {
			return nil
		}
		seen[path] = true
		base := filepath.Base(path)
		entries = append(entries, Entry{
			Path:   path,
			Name:   strings.TrimSuffix(base, filepath.Ext(base)),
			Format: f,
		})
		return nil
	}
	addTree := func(root string) error {
		return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			return add(path, false)
		})
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		switch {
		case err == nil && info.IsDir():
			if err := addTree(p); err != nil {
				return nil, fmt.Errorf("corpus: walking %s: %w", p, err)
			}
		case err == nil:
			if err := add(p, true); err != nil {
				return nil, err
			}
		default:
			matches, gerr := filepath.Glob(p)
			if gerr != nil {
				return nil, fmt.Errorf("corpus: bad pattern %q: %v", p, gerr)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("corpus: %s: no such file, directory, or glob match", p)
			}
			for _, m := range matches {
				mi, merr := os.Stat(m)
				if merr != nil {
					return nil, fmt.Errorf("corpus: %s: %w", m, merr)
				}
				if mi.IsDir() {
					if err := addTree(m); err != nil {
						return nil, fmt.Errorf("corpus: walking %s: %w", m, err)
					}
					continue
				}
				if err := add(m, false); err != nil {
					return nil, err
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}

// Circuit is one parsed corpus member.
type Circuit struct {
	Entry Entry
	// Named is the combinational view, ready for the Table 1/2 flows.
	// For a latched BLIF model the network is the standard combinational
	// view (latch outputs as pseudo-inputs, next-state functions as
	// pseudo-outputs).
	Named gen.NamedCircuit
	// Seq is non-nil when the source BLIF declared latches; it carries
	// the sequential structure for the partitioned flow.
	Seq *seq.Circuit
}

// Load parses one entry from its Data, or from disk when Data is nil.
func Load(e Entry) (*Circuit, error) {
	if e.Data != nil {
		return Read(e, bytes.NewReader(e.Data))
	}
	f, err := os.Open(e.Path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	return Read(e, f)
}

// Read parses an entry's content from r (the path is used only in
// diagnostics and row metadata).
func Read(e Entry, r io.Reader) (*Circuit, error) {
	switch e.Format {
	case FormatBLIF:
		m, err := blif.Parse(r)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", e.Path, err)
		}
		c := &Circuit{Entry: e, Named: gen.FromNetwork(e.Name, "BLIF", m.Network)}
		if len(m.Latches) > 0 {
			s, err := seq.FromModel(m)
			if err != nil {
				return nil, fmt.Errorf("corpus: %s: %w", e.Path, err)
			}
			c.Seq = s
			c.Named.Desc = fmt.Sprintf("BLIF (%d FFs)", len(m.Latches))
		}
		return c, nil
	case FormatPLA:
		p, err := pla.Parse(r)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", e.Path, err)
		}
		net, err := p.ToNetwork()
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", e.Path, err)
		}
		net.Name = e.Name
		return &Circuit{Entry: e, Named: gen.FromNetwork(e.Name, "PLA", net)}, nil
	}
	return nil, fmt.Errorf("corpus: %s: unknown format", e.Path)
}
