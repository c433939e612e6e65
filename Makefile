# CI and humans invoke the same targets (see .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race fuzz bench benchtest corpussmoke lint lintgate staticcheck staticcheck-install docgate fmt

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native fuzzing of the parsers that read untrusted uploads, 30 s per
# target (go test fuzzes one package at a time). A failing input is
# saved under the package's testdata/fuzz and replays in `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/blif
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/pla

# Short smoke pass over every benchmark: one iteration each, no tests.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Benchmark-harness drift gate: the bench/ module's own tests (its
# traced rows must still match the flow). The root `go test ./...`
# never enters the separate bench module, so this target runs it.
benchtest:
	cd bench && $(GO) test .

# Corpus smoke: emit the small public twins as BLIF, stream the
# directory through the concurrent corpus engine (untimed and timed
# flows), and gate on row agreement with the direct in-memory gen-twin
# flow (-check-twins): sizes must match exactly, measured/estimated
# power to float-noise tolerance. Exits non-zero on any disagreement,
# parse failure, or error row.
corpussmoke:
	rm -rf corpus-smoke
	$(GO) run ./cmd/genbench -dir corpus-smoke -only apex7,frg1,x1
	$(GO) run ./cmd/dominoflow -dir corpus-smoke -vectors 512 -workers 4 -check-twins -jsonl corpus-smoke/rows.jsonl
	$(GO) run ./cmd/dominoflow -dir corpus-smoke -table 2 -vectors 512 -workers 2 -check-twins

# Static-analysis ladder, cheapest first: gofmt (formatting), docgate
# (package docs), go vet (stdlib checks), dominolint (repo contracts:
# determinism, cache keys, budget polling — see internal/lint), then
# staticcheck when installed. dominolint findings are persisted to
# dominolint-findings.txt (uploaded as a CI artifact, empty when clean).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@$(MAKE) --no-print-directory docgate
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

fmt:
	gofmt -w .
