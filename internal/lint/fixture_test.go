package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRE extracts the quoted expectations of a `// want "re" "re"`
// comment.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// runFixture loads testdata/src/<path> relative to the caller and
// checks the analyzer's surviving findings against the fixture's
// `// want "regex"` comments: every finding must match an expectation
// on its line, and every expectation must be matched by a finding.
func runFixture(t testing.TB, a *Analyzer, path string) {
	t.Helper()
	pkg, err := LoadFixture(filepath.Join("testdata", "src"), path)
	if err != nil {
		t.Fatalf("load fixture %s: %v", path, err)
	}
	findings := CheckPackage(pkg, []*Analyzer{a})

	type key struct {
		file string
		line int
	}
	want := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture source: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, m[1], err)
				}
				want[key{name, i + 1}] = append(want[key{name, i + 1}], re)
			}
		}
	}

	matched := make(map[key][]bool)
	for k, res := range want {
		matched[k] = make([]bool, len(res))
	}
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		ok := false
		for i, re := range want[k] {
			if re.MatchString(f.Message) {
				matched[k][i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s", f)
		}
	}
	var keys []key
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, re := range want[k] {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, re)
			}
		}
	}
}
