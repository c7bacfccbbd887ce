# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep them in sync.

# pipefail so `go test | benchjson` pipelines fail when go test fails.
SHELL       := /bin/bash
.SHELLFLAGS := -o pipefail -c

GO        ?= go
BENCHTIME ?= 200x
# The microbenchmark set archived per PR: scheduler (wheel vs heap),
# batched ticks, descriptor-store lookup and churn, the data-plane
# fast paths from PR 1, PR 5's pooled-vs-unpooled infection pair, and
# the graph layer (CSR snapshot, BFS, DDSR takedown with pruning).
BENCH     ?= SchedulerSteadyState|SchedulerBatchedTicks|DescriptorStore|CellRelayHop|SealOpenSession|HiddenServiceDial|InfectFrom|Snapshot5000x10|BFS5000x10|RemoveNodeWithPruning

# External lint tool versions are pinned in tools/go.mod (a separate
# module, so the simulator's go.mod keeps zero dependencies). The
# Makefile reads them from there; bump them only in tools/go.mod.
STATICCHECK_VERSION := $(shell awk '$$1 == "honnef.co/go/tools" {print $$2}' tools/go.mod)
GOVULNCHECK_VERSION := $(shell awk '$$1 == "golang.org/x/vuln" {print $$2}' tools/go.mod)
GOBIN_DIR           := $(shell $(GO) env GOPATH)/bin

.PHONY: all build test race bench determinism sweep-smoke scenario-smoke serve-smoke linkcheck fuzz-smoke lint tools

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the determinism-contract gate: go vet, then onionlint
# (internal/lint: detclock/detrand/maporder/substream — the analyzers
# that ban the Graph.Snapshot map-order and MaybeReadByte keygen bug
# classes), then staticcheck and govulncheck at the versions pinned in
# tools/go.mod. The external tools need `make tools` (network) once;
# until then they are skipped with a notice so offline trees still get
# the full onionlint sweep.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/onionlint ./...
	@sc=$$(command -v staticcheck || echo $(GOBIN_DIR)/staticcheck); \
	if [ -x "$$sc" ]; then "$$sc" ./...; \
	else echo "lint: staticcheck $(STATICCHECK_VERSION) not installed; run 'make tools' to enable"; fi
	@gv=$$(command -v govulncheck || echo $(GOBIN_DIR)/govulncheck); \
	if [ -x "$$gv" ]; then "$$gv" ./...; \
	else echo "lint: govulncheck $(GOVULNCHECK_VERSION) not installed; run 'make tools' to enable"; fi

# tools installs the pinned external lint tools (network required).
# Standalone `go install pkg@version` honours the pin without needing a
# go.sum in tools/.
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# race runs the short test set under the race detector. The simulator
# itself is single-threaded by design; this guards the concurrent
# surfaces — the experiment runner's worker pool, task timeouts, and
# result aggregation.
race:
	$(GO) test -race -short ./...

# bench runs the microbenchmark set with -benchmem, then the n=10^6
# Fig 5 memory-plane point in a test process of its own (one iteration
# IS the experiment; it reports the process's peak resident set,
# getrusage ru_maxrss, as a custom peak-rss-MiB metric), and archives
# both as BENCH_pr9.json (stderr keeps the human-readable stream).
bench:
	{ $(GO) test -run=NONE -bench='$(BENCH)' -benchtime=$(BENCHTIME) -benchmem ./... && \
	  $(GO) test -run=NONE -bench=Fig5MillionNode -benchtime=1x -timeout 60m ./internal/experiment/; } \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_pr9.json

# fuzz-smoke runs every native fuzz target for a short budget each —
# enough to shake out parser panics, and graph/reference disagreements,
# on every CI run while keeping the
# job bounded. Longer local sessions: make fuzz-smoke FUZZTIME=30s.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/churn/
	$(GO) test -run=NONE -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/churn/
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/soap/
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faults/
	$(GO) test -run=NONE -fuzz=FuzzParseSweep -fuzztime=$(FUZZTIME) ./internal/experiment/
	$(GO) test -run=NONE -fuzz=FuzzReplayJournal -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzGraphOps -fuzztime=$(FUZZTIME) ./internal/graph/

# determinism asserts the scheduler/runner contract: -exp all output is
# byte-identical at any -parallel value.
determinism:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	/tmp/onionsim-ci -exp all -quick -seed 1 -parallel 1 > /tmp/onionsim-p1.txt
	/tmp/onionsim-ci -exp all -quick -seed 1 -parallel 4 > /tmp/onionsim-p4.txt
	cmp /tmp/onionsim-p1.txt /tmp/onionsim-p4.txt

sweep-smoke:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	/tmp/onionsim-ci -sweep examples/sweep/fig6-grid.json -parallel 4 -json > /dev/null
	/tmp/onionsim-ci -sweep examples/sweep/fig5-fig6-quick.json -parallel 4 -json > /dev/null
	# The churn grid doubles as the dynamic-membership determinism gate:
	# the full JSON document must be byte-identical at any worker count.
	/tmp/onionsim-ci -sweep examples/sweep/churn-grid.json -parallel 1 -json > /tmp/onionsim-churn-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/churn-grid.json -parallel 4 -json > /tmp/onionsim-churn-p4.json
	cmp /tmp/onionsim-churn-p1.json /tmp/onionsim-churn-p4.json
	# Same gate for the churn × SOAP composition: a live mitigation
	# campaign against a moving population must stay byte-deterministic.
	/tmp/onionsim-ci -sweep examples/sweep/churn-soap-grid.json -parallel 1 -json > /tmp/onionsim-churnsoap-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/churn-soap-grid.json -parallel 4 -json > /tmp/onionsim-churnsoap-p4.json
	cmp /tmp/onionsim-churnsoap-p1.json /tmp/onionsim-churnsoap-p4.json
	# And for the infrastructure fault plane: correlated HSDir outages,
	# retry budgets, and repair republishes must not cost determinism.
	/tmp/onionsim-ci -sweep examples/sweep/hsdir-outage-grid.json -parallel 1 -json > /tmp/onionsim-faults-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/hsdir-outage-grid.json -parallel 4 -json > /tmp/onionsim-faults-p4.json
	cmp /tmp/onionsim-faults-p1.json /tmp/onionsim-faults-p4.json

# scenario-smoke runs the whole named-question library in quick mode —
# every expectation must PASS (non-zero exit otherwise) — and
# byte-compares the full output at -parallel 1 vs 4. Replay scenarios
# resolve trace files relative to the repo root, so run from here.
scenario-smoke:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	/tmp/onionsim-ci -scenario all -quick -parallel 1 > /tmp/onionsim-scenario-p1.txt
	/tmp/onionsim-ci -scenario all -quick -parallel 4 > /tmp/onionsim-scenario-p4.txt
	cmp /tmp/onionsim-scenario-p1.txt /tmp/onionsim-scenario-p4.txt

# serve-smoke is the crash-safety gate for server mode: submit a fig6
# grid to a live `onionsim -serve`, kill -9 the process mid-sweep,
# restart it over the same jobs dir, and byte-compare the resumed
# result against an uninterrupted batch run (scripts/serve_smoke.sh).
serve-smoke:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	BIN=/tmp/onionsim-ci ./scripts/serve_smoke.sh

# linkcheck fails on dangling docs/*.md references anywhere in the tree
# (markdown or Go docs), so the handbook cannot silently rot.
linkcheck:
	@refs=$$(grep -rhoE 'docs/[A-Za-z0-9_.-]+\.md' --include='*.md' --include='*.go' . | sort -u); \
	status=0; \
	for f in $$refs; do \
		if [ ! -f "$$f" ]; then echo "dangling doc reference: $$f"; status=1; fi; \
	done; \
	exit $$status
