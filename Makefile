# CI and humans invoke the same targets (see .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race fuzz bench benchtest corpussmoke examples loc lint lintgate staticcheck staticcheck-install docgate testinggate fmt

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native fuzzing, 30 s per target (go test fuzzes one target at a
# time): the decoders that read untrusted uploads — the BLIF/PLA
# parsers, dominod's config JSON and its archive expansion — and the
# BDD engine's in-place sifting, checked against its unsifted build and,
# under a cap taken from a transport peak of the swap-transport oracle,
# against that oracle's trip. A failing input is saved under the
# package's testdata/fuzz and replays in `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/blif
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/pla
	$(GO) test -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzExpandSubmission$$' -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSiftPreservesFunctions$$' -fuzztime 30s ./internal/bdd

# Short smoke pass over every benchmark: one iteration each, no tests.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Benchmark-harness drift gate: the bench/ module's own tests (its
# traced rows must still match the flow). The root `go test ./...`
# never enters the separate bench module, so this target runs it.
benchtest:
	cd bench && $(GO) test .

# Corpus smoke: emit the small public twins and three latched models
# (seq0-seq2, dominoflow -seq's set) as BLIF, stream the directory
# through the concurrent corpus engine (untimed and timed flows; the
# latched models take the sequential flow in both), and gate on row
# agreement with the direct in-memory gen-twin flow (-check-twins, which
# skips seq0-seq2: no twin has those names): sizes must match exactly,
# measured/estimated power to float-noise tolerance. Exits non-zero on
# any disagreement, parse failure, or error row — the sequential rows'
# included. The untimed rows land in corpus-smoke/rows.jsonl and the
# timed ones in rows_timed.jsonl (both uploaded as CI artifacts, so a
# change's rows, three sequential ones among them, can be diffed
# against its parent's).
corpussmoke:
	rm -rf corpus-smoke
	$(GO) run ./cmd/genbench -dir corpus-smoke -only apex7,frg1,x1,seq0,seq1,seq2
	$(GO) run ./cmd/dominoflow -dir corpus-smoke -vectors 512 -workers 4 -check-twins -jsonl corpus-smoke/rows.jsonl
	$(GO) run ./cmd/dominoflow -dir corpus-smoke -table 2 -vectors 512 -workers 2 -check-twins -jsonl corpus-smoke/rows_timed.jsonl

# Examples: build each program under examples/, run it twice, and fail
# on an error exit or on a second run whose output differs from the
# first (every example prints deterministic results). Build products go
# to a temporary directory that is removed afterwards.
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for d in examples/*/; do \
		ex=$$(basename $$d); \
		$(GO) build -o "$$tmp/$$ex" ./$$d || exit 1; \
		for run in 1 2; do \
			"$$tmp/$$ex" > "$$tmp/$$ex.$$run" || { echo "examples: $$ex exited with an error"; exit 1; }; \
		done; \
		diff -u "$$tmp/$$ex.1" "$$tmp/$$ex.2" || { echo "examples: $$ex printed different output on its second run"; exit 1; }; \
	done; \
	echo "examples: every example ran twice with identical output"

# Go line counts outside bench/: non-test code (ROADMAP aim 2's measure),
# then _test.go files, so code moved into test files shows as a rise in
# the second number rather than as a fall in the first. Only files git
# tracks are counted: `git add` new files first.
loc:
	@echo "non-test Go lines: $$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test.go$$' | grep -v testdata | xargs cat | wc -l)"
	@echo "test Go lines:     $$(git ls-files '*.go' | grep -v '^bench/' | grep '_test.go$$' | grep -v testdata | xargs cat | wc -l)"

# Static-analysis ladder, cheapest first: gofmt (formatting), docgate
# (package docs), testinggate (no production "testing" import), go vet
# (stdlib checks), dominolint (repo contracts: determinism, cache keys,
# budget polling — see internal/lint), then staticcheck when installed. dominolint findings are persisted to
# dominolint-findings.txt (uploaded as a CI artifact, empty when clean).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@$(MAKE) --no-print-directory docgate
	@$(MAKE) --no-print-directory testinggate
	$(GO) vet ./...
	$(GO) run ./cmd/dominolint -out dominolint-findings.txt ./...
	@$(MAKE) --no-print-directory staticcheck

# staticcheck rides along when present; the version is pinned here so
# local installs and CI agree. The binary cannot live in go.mod (the
# build environment has no module network access), so the gate degrades
# to a hint instead of a hard failure when the tool is missing.
STATICCHECK_VERSION ?= 2025.1.1

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# Proves the dominolint gate is live: the seeded fixture carries
# deliberate walltime and detrange violations, so dominolint must exit 1
# (findings) on it — exit 0 means the gate is dead, exit 2 means the
# checker itself broke.
lintgate:
	@$(GO) run ./cmd/dominolint -dir internal/lint/testdata/src/seeded/flow; \
	status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "lintgate: expected exit 1 (findings) on the seeded fixture, got $$status"; exit 1; \
	fi; \
	echo "lintgate: seeded violations detected, the gate is live"

# Every package must carry a doc comment ("Package x ..." for libraries,
# "Command x ..." for binaries) so the godoc surface stays complete.
docgate:
	@missing=0; \
	for d in internal/*/ cmd/*/; do \
		if ! grep -qE '^// (Package|Command) ' $$d*.go 2>/dev/null; then \
			echo "docgate: $$d has no package doc comment"; missing=1; \
		fi; \
	done; \
	[ $$missing -eq 0 ] || exit 1

# No non-test Go file outside bench/ may import "testing": code only
# tests call lives in _test.go files. `go list` reports each package's
# non-test imports (bench/ is its own module, so ./... skips it).
testinggate:
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -E ' testing( |$$)' | cut -d: -f1); \
	if [ -n "$$bad" ]; then \
		echo "testinggate: non-test files of these packages import \"testing\":"; echo "$$bad"; exit 1; \
	fi

fmt:
	gofmt -w .
