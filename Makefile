# The gate. .github/workflows/ci.yml calls these targets and nothing else.

.PHONY: all build vet lint lint-fast test race fmt smoke ci

all: ci

ci: fmt build vet lint test race smoke

fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

build:
	go build ./...

vet:
	go vet ./...

# predis-lint: the repo's own go/analysis suite (tools/analyzers). The
# per-function analyzers enforce the simnet determinism contract, wire
# round-trip symmetry, lock discipline in sim-visible code, and
# dropped-error hygiene; the interprocedural analyzers (detflow,
# hotalloc, handlercomplete) chase taint and allocations through the
# whole-program call graph.
lint:
	go run ./cmd/predis-lint ./...

# lint-fast: lint only the packages whose Go files changed vs
# origin/main (committed, staged, or untracked). Fixture packages under
# testdata carry intentional violations and are skipped; when
# origin/main is unavailable (fresh or shallow clone) the full suite
# runs instead. The call graph covers the linted packages only, so a
# chain that leaves them is `make lint`'s to find.
lint-fast:
	@base=$$(git merge-base origin/main HEAD 2>/dev/null); \
	if [ -z "$$base" ]; then \
		echo "lint-fast: origin/main unavailable, running full suite"; \
		go run ./cmd/predis-lint ./...; exit $$?; \
	fi; \
	pkgs=$$( { git diff --name-only "$$base" HEAD -- '*.go'; \
	           git diff --name-only -- '*.go'; \
	           git ls-files --others --exclude-standard -- '*.go'; } \
		| xargs -r -n1 dirname | sort -u | grep -v testdata \
		| while read -r d; do [ -d "$$d" ] && echo "./$$d"; done; true); \
	if [ -z "$$pkgs" ]; then \
		echo "lint-fast: no changed Go packages vs origin/main"; exit 0; \
	fi; \
	echo "lint-fast:" $$pkgs; \
	go run ./cmd/predis-lint $$pkgs

# test is tier-1; race is the same suite under the detector (the
# raceEnabled-guarded allocation pins run only in the former).
test:
	go test ./...

race:
	go test -race ./...

# smoke: the checks no `go test` runs, one row each. `make smoke` runs
# every row and names the one that failed; `make smoke ROW=replay` runs one.
SMOKE_ROWS = trace bench replay fuzz scale examples
ROW ?= $(SMOKE_ROWS)

# trace: the exported Chrome trace of a quickstart run parses and has a
# span for every pipeline stage (submit … fullnode_delivered), and the
# exported metrics CSV has its header and a non-zero txs_committed for
# consensus node 0, the counters the harness publishes after the run.
smoke_trace = go run ./cmd/predis-bench -quick quickstart -trace -metrics \
		-trace-out bin/trace-smoke.json -metrics-out bin/trace-smoke >/dev/null \
	&& go run ./tools/tracecheck bin/trace-smoke.json \
	&& head -n 1 bin/trace-smoke-metrics.csv | grep -qx 'metric,node,field,value' \
	&& grep -Eq '^txs_committed,0,value,[1-9]' bin/trace-smoke-metrics.csv

# bench: every root benchmark (bench_*_test.go: kernels, figures, scale,
# stream) still builds and survives one iteration.
smoke_bench = go test -run '^$$' -bench . -benchtime=1x .

# replay: cross-process determinism. replaydiff builds predis-bench -race
# once and, per target, diffs replay hashes and terminal output between a
# -parallel 1 and a -parallel 4 process; `all` is every -quick experiment
# (recovery and byzantine included, a non-zero exit fails the row) and
# must still be the committed quick_results.txt; the streaming quickstart
# is the one schedule -quick all does not run.
smoke_replay = go run ./tools/replaydiff all "quickstart -mode stream"

# fuzz: short coverage-guided runs on top of the checked-in corpora
# (testdata/fuzz): Unmarshal never panics and re-marshals canonically,
# on arbitrary frames and on arbitrary bodies of every core and zone
# message; the state commitment matches its from-scratch oracle however
# the writes were batched.
smoke_fuzz = go test ./internal/wire/ -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s \
	&& go test ./internal/core/ -run '^$$' -fuzz FuzzCoreMessages -fuzztime 5s \
	&& go test ./internal/multizone/ -run '^$$' -fuzz FuzzZoneMessages -fuzztime 5s \
	&& go test ./internal/exec/ -run '^$$' -fuzz FuzzStateCommitment -fuzztime 5s

# scale: the quick population sweep (N ∈ {100, 1k, 10k}, four tree
# shapes each) finishes inside a 60 s budget.
smoke_scale = go build -o bin/predis-bench ./cmd/predis-bench \
	&& timeout 60 ./bin/predis-bench -quick -parallel 4 scale >/dev/null

# examples: every example runs and checks its own outcome, exiting non-zero
# on a violation: quickstart when nothing confirms, bank unless all replicas
# agree on the balances, multizone when a full node completes no block, and
# faults' narrated scenarios (partition, leader crash, relayer outage,
# corrupting relayer) assert internally; scenario 3's skip-sync anchor is
# sensitive to pull timing.
smoke_examples = go run ./examples/quickstart >/dev/null \
	&& go run ./examples/bank >/dev/null \
	&& go run ./examples/multizone >/dev/null \
	&& go run ./examples/faults >/dev/null

smoke:
	@mkdir -p bin
	@$(foreach r,$(ROW),$(if $(smoke_$(r)),,$(error smoke: no row '$(r)' (rows: $(SMOKE_ROWS)))) \
		echo "== smoke $(r)"; \
		{ $(smoke_$(r)); } || { echo "smoke: row '$(r)' FAILED"; exit 1; };)
