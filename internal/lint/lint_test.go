package lint

import (
	"path/filepath"
	"testing"
)

// TestDetRangeFixture covers a flow package and an engine package: the
// detrange scope is every package that feeds rows.
func TestDetRangeFixture(t *testing.T) {
	runFixture(t, DetRange, "detrange/flow")
	runFixture(t, DetRange, "detrange/prob")
}

func TestBudgetPollFixture(t *testing.T) { runFixture(t, BudgetPoll, "budgetpoll/sim") }
func TestWallTimeFixture(t *testing.T)   { runFixture(t, WallTime, "walltime/power") }
func TestErrSinkFixture(t *testing.T)    { runFixture(t, ErrSink, "errsink/blif") }

func TestCacheKeyFixtures(t *testing.T) {
	runFixture(t, CacheKey, "cachekey/good/flow")
	runFixture(t, CacheKey, "cachekey/bad/flow")
	runFixture(t, CacheKey, "cachekey/nocanon/flow")
}

func TestDirectiveFixture(t *testing.T) { runFixture(t, DirectiveAnalyzer, "directive/flow") }

// TestSuiteOutOfScope: the full suite over a package outside every
// scope reports nothing even though each violation pattern is present.
func TestSuiteOutOfScope(t *testing.T) {
	pkg, err := LoadFixture(filepath.Join("testdata", "src"), "nonscope/other")
	if err != nil {
		t.Fatal(err)
	}
	if findings := CheckPackage(pkg, Suite()); len(findings) != 0 {
		t.Errorf("out-of-scope package produced findings: %v", findings)
	}
}

// TestSeededFixtureFails proves the CI seeded-violation gate can fire:
// the loader path `dominolint -dir` uses (LoadDir) must surface the
// deliberate violations in testdata/src/seeded/flow.
func TestSeededFixtureFails(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "seeded", "flow"))
	if err != nil {
		t.Fatal(err)
	}
	findings := CheckPackage(pkg, Suite())
	if len(findings) < 2 {
		t.Fatalf("seeded fixture should trip walltime and detrange, got %v", findings)
	}
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, want := range []string{"walltime", "detrange"} {
		if byAnalyzer[want] == 0 {
			t.Errorf("seeded fixture did not trip %s: %v", want, findings)
		}
	}
}

// TestDirectiveNamesMatchSuite keeps the knownDirectives table and the
// Analyzer.Directive fields from drifting apart: a directive name the
// suite does not own would be reported as unknown, and an analyzer
// whose directive the table misses could never be suppressed.
func TestDirectiveNamesMatchSuite(t *testing.T) {
	fromSuite := map[string]string{}
	for _, a := range Suite() {
		if a.Directive != "" {
			fromSuite[a.Directive] = a.Name
		}
	}
	if len(fromSuite) != len(knownDirectives) {
		t.Errorf("suite declares %d directives, knownDirectives has %d", len(fromSuite), len(knownDirectives))
	}
	for name, analyzer := range knownDirectives {
		if fromSuite[name] != analyzer {
			t.Errorf("knownDirectives[%q] = %q, suite says %q", name, analyzer, fromSuite[name])
		}
	}
}
