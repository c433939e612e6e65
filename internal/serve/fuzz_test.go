package serve

import (
	"archive/tar"
	"archive/zip"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzParseConfig drives the config decoder, the first thing dominod
// does with a submission's untrusted JSON. parseConfig must never
// panic; an accepted config must pass Validate; Canonical must be
// idempotent; the canonical JSON must decode strictly back to the same
// canonical form; and the cache key of a config must equal that of its
// canonical form.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"SimVectors":256}`,
		`{"SimVectors":256,"SimSeed":7}`,
		`{"SimVectors":4096,"SimShards":2,"MaxPairs":24,"EstOpts":{"Method":1,"Depth":3,"MaxFrontier":8},"BDDNodeBudget":20000}`,
		`{"Resynthesize":true,"MaxCollapseSupport":12}`,
		`{"Resynthesize":true,"MaxCollapseSupport":21}`,
		`{"SimShards":-1}`,
		`{"SimVectors":-5}`,
		`{"Workers":-2}`,
		`{"InputProb":1.5}`,
		`{"InputProb":-0.25}`,
		`{"SimKernel":9}`,
		`{"SimBlockWords":99}`,
		`{"SearchStrategy":12}`,
		`{"PhaseScoring":7}`,
		`{"EstOpts":{"Method":42}}`,
		`{"BDDNodeBudget":-1}`,
		`{"SimVectorBudget":-8}`,
		`{"AnnealSteps":-3}`,
		`{"SimShards":1025}`,
		`{"SearchStrategy":4,"SearchRestarts":1025}`,
		`{"Timing":{"Intrinsic":1,"SeriesDelay":0.15,"LoadDelay":0.5,"InverterDelay":0.5,"MaxSize":8,"SizeStep":1.26}}`,
		`{"Timing":{"Intrinsic":1,"MaxSize":8,"SizeStep":1.05},"Slack":1.1}`,
		`{"Timing":{}}`,
		`{"Timing":{"Intrinsic":1,"MaxSize":1000000,"SizeStep":1.01}}`,
		`{"Timing":{"Intrinsic":1,"MaxSize":8,"SizeStep":1.01}}`,
		`{"Timing":{"Intrinsic":-1,"MaxSize":8,"SizeStep":1.26}}`,
		`{"Timing":{"LoadDelay":1e308,"MaxSize":1024,"SizeStep":2}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := parseConfig(raw)
		if err != nil {
			if errStatus(err) != http.StatusBadRequest {
				t.Fatalf("rejection %v is not a 400", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}
		canon := cfg.Canonical()
		if again := canon.Canonical(); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", canon, again)
		}
		cj, err := canonicalConfigJSON(cfg)
		if err != nil {
			t.Fatalf("canonical form does not encode: %v", err)
		}
		back, err := parseConfig(cj)
		if err != nil {
			t.Fatalf("canonical JSON %s is rejected: %v", cj, err)
		}
		if !reflect.DeepEqual(back.Canonical(), canon) {
			t.Fatalf("canonical JSON %s decodes to another canonical form:\n%+v\n%+v", cj, back.Canonical(), canon)
		}
		k1, err1 := CacheKey(cfg, false, "c.blif", raw)
		k2, err2 := CacheKey(canon, false, "c.blif", raw)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("CacheKey differs between a config and its canonical form (%v, %v)", err1, err2)
		}
	})
}

// archiveMember is one fuzzed archive entry.
type archiveMember struct {
	name string
	data []byte
}

// writeTarMember appends one regular-file member to tw, which writes
// into buf. tar.Writer refuses a regular file whose name ends in "/",
// but a hand-made archive can carry one: such a name (at most 100
// bytes, so USTAR stores it whole) is written with a stand-in last byte,
// which is then patched in the raw header block.
func writeTarMember(tw *tar.Writer, buf *bytes.Buffer, name string, data []byte) error {
	hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(data)), Typeflag: tar.TypeReg}
	patch := strings.HasSuffix(name, "/")
	if patch {
		if len(name) > 100 {
			return errors.New("a slash-terminated member name over 100 bytes cannot be patched")
		}
		hdr.Name = name[:len(name)-1] + "_"
		hdr.Format = tar.FormatUSTAR
	}
	// Pad the previous member, so the header starts at buf.Len().
	if err := tw.Flush(); err != nil {
		return err
	}
	at := buf.Len()
	if err := tw.WriteHeader(hdr); err != nil {
		return err
	}
	if patch {
		block := buf.Bytes()[at : at+512]
		block[len(name)-1] = '/'
		copy(block[148:156], "        ") // the checksum sums its own field as spaces
		sum := 0
		for _, b := range block {
			sum += int(b)
		}
		copy(block[148:156], fmt.Sprintf("%06o\x00 ", sum))
	}
	_, err := tw.Write(data)
	return err
}

// archiveBodies packs one member list, in order, as a .tar, a .tar.gz
// and a .zip body, uncompressed (compression only costs fuzzing
// throughput; the readers are the subject). It fails when a writer
// rejects a member name.
func archiveBodies(members []archiveMember) (map[string][]byte, error) {
	var tarBuf bytes.Buffer
	tw := tar.NewWriter(&tarBuf)
	for _, m := range members {
		if err := writeTarMember(tw, &tarBuf, m.name, m.data); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	var gzBuf bytes.Buffer
	gz, _ := gzip.NewWriterLevel(&gzBuf, gzip.NoCompression)
	gz.Write(tarBuf.Bytes())
	if err := gz.Close(); err != nil {
		return nil, err
	}
	var zipBuf bytes.Buffer
	zw := zip.NewWriter(&zipBuf)
	for _, m := range members {
		w, err := zw.CreateHeader(&zip.FileHeader{Name: m.name, Method: zip.Store})
		if err != nil {
			return nil, err
		}
		w.Write(m.data)
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return map[string][]byte{
		"sub.tar":    tarBuf.Bytes(),
		"sub.tar.gz": gzBuf.Bytes(),
		"sub.zip":    zipBuf.Bytes(),
	}, nil
}

// expansion is the container-independent outcome of expandSubmission.
type expansion struct {
	status   int
	circuits []jobCircuit
}

// FuzzExpandSubmission packs fuzzed member names (newline-separated, at
// most eight) and contents (split evenly across the members) into the
// three container formats dominod accepts. Expansion must never panic,
// must fail only with 400 or 413, must accept only local, unique and
// sorted paths whose circuit bytes total at most the cap, and must
// expand the three containers of one member set identically.
func FuzzExpandSubmission(f *testing.F) {
	f.Add("comb.blif\ntwo.pla\nREADME", []byte(tinyBLIF+tinyPLA), uint16(4096))
	f.Add("d/a.blif\nd/b.blif\nnotes.txt", []byte(tinyBLIF+tinyBLIF+"xxxx"), uint16(64))
	f.Add("dup.blif\n./dup.blif", []byte(tinyBLIF+tinyBLIF), uint16(4096))
	f.Add("../escape.blif", []byte(tinyBLIF), uint16(4096))
	f.Add("/abs.pla\nok.pla", []byte(tinyPLA+tinyPLA), uint16(4096))
	f.Add("big.blif", []byte(tinyBLIF), uint16(16))
	f.Add("skip.txt\nsmall.blif", []byte(strings.Repeat("x", 200)+"ab"), uint16(8))
	f.Add("x.blif/\nok.blif", []byte(tinyBLIF+tinyBLIF), uint16(4096))
	f.Fuzz(func(t *testing.T, names string, content []byte, capBytes uint16) {
		split := strings.Split(names, "\n")
		if len(split) > 8 {
			split = split[:8]
		}
		members := make([]archiveMember, len(split))
		for i, name := range split {
			members[i] = archiveMember{name, content[i*len(content)/len(split) : (i+1)*len(content)/len(split)]}
		}
		bodies, err := archiveBodies(members)
		if err != nil {
			t.Skip("a container writer rejects the member names:", err)
		}
		maxBytes := int64(capBytes)
		var first *expansion
		for _, name := range []string{"sub.tar", "sub.tar.gz", "sub.zip"} {
			got := &expansion{}
			circuits, err := expandSubmission(name, bodies[name], maxBytes)
			if err != nil {
				var se *submitError
				if !errors.As(err, &se) || (se.status != http.StatusBadRequest && se.status != http.StatusRequestEntityTooLarge) {
					t.Fatalf("%s: error %v is neither a 400 nor a 413", name, err)
				}
				got.status = se.status
			} else {
				got.circuits = circuits
				checkExpansion(t, name, circuits, maxBytes)
			}
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s expands differently from sub.tar:\n%+v\n%+v", name, got, first)
			}
		}
	})
}

// checkExpansion asserts an accepted expansion's path and size
// invariants.
func checkExpansion(t *testing.T, name string, circuits []jobCircuit, maxBytes int64) {
	t.Helper()
	total := int64(0)
	paths := make([]string, len(circuits))
	for i, c := range circuits {
		if !filepath.IsLocal(filepath.FromSlash(c.relPath)) {
			t.Fatalf("%s: accepted non-local path %q", name, c.relPath)
		}
		if i > 0 && c.relPath == paths[i-1] {
			t.Fatalf("%s: duplicate path %q", name, c.relPath)
		}
		paths[i] = c.relPath
		total += int64(len(c.data))
	}
	if !sort.StringsAreSorted(paths) {
		t.Fatalf("%s: paths not sorted: %q", name, paths)
	}
	if total > maxBytes {
		t.Fatalf("%s: circuit bytes total %d, over the %d cap", name, total, maxBytes)
	}
}

// TestMemberCircuitSkipsDirectoryNames: a name ending in a slash, after
// backslashes become slashes, is a directory and is skipped unread.
func TestMemberCircuitSkipsDirectoryNames(t *testing.T) {
	for _, name := range []string{"x.blif/", "d/x.pla/", "d\\x.blif\\", "x.blif//"} {
		_, ok, err := memberCircuit(name, func() ([]byte, error) {
			t.Errorf("%q: directory member was read", name)
			return nil, nil
		})
		if ok || err != nil {
			t.Errorf("%q: got (ok=%v, err=%v), want skipped", name, ok, err)
		}
	}
	c, ok, err := memberCircuit("d\\x.blif", func() ([]byte, error) { return []byte(tinyBLIF), nil })
	if !ok || err != nil || c.relPath != "d/x.blif" || c.name != "x" {
		t.Errorf("d\\x.blif: got (%+v, %v, %v), want circuit d/x.blif", c, ok, err)
	}
}

// TestExpandSubmissionSkipsSlashedTarMember: a regular tar member named
// "x.blif/" (hand-patched, since tar.Writer refuses the name) is a
// directory, as zip treats it, not the circuit x.blif.
func TestExpandSubmissionSkipsSlashedTarMember(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, name := range []string{"x.blif/", "ok.blif"} {
		if err := writeTarMember(tw, &buf, name, []byte(tinyBLIF)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, err := tar.NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err != nil || hdr.Name != "x.blif/" || hdr.Typeflag != tar.TypeReg {
		t.Fatalf("patched member reads back as %+v, %v; want regular file x.blif/", hdr, err)
	}
	circuits, err := expandSubmission("sub.tar", buf.Bytes(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(circuits) != 1 || circuits[0].relPath != "ok.blif" {
		t.Fatalf("expanded %+v, want only ok.blif", circuits)
	}
}
