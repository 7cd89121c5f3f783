# The gate. .github/workflows/ci.yml calls these targets and nothing else.

.PHONY: all build vet lint lint-fast test race fmt smoke ci

all: ci

ci: fmt build vet lint test race smoke

fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# The arm64 build compiles the erasure package without its amd64 kernels,
# so a kernel declared without a fallback body fails here.
build:
	go build ./...
	GOARCH=arm64 go build ./...

vet:
	go vet ./...

# predis-lint: the repo's own go/analysis suite (tools/analyzers). The
# per-function analyzers enforce wire round-trip symmetry, lock discipline
# in sim-visible code, and dropped-error hygiene; the call-graph analyzers
# enforce the simnet determinism contract (detflow: direct sources and
# taint through call chains), zero-alloc hot paths (hotalloc) and handler
# completeness (handlercomplete).
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
SMOKE_ROWS = bench replay fuzz scale examples rt
ROW ?= $(SMOKE_ROWS)

# bench: the root benchmarks (bench_scale_test.go, population cost) still
# build and survive one iteration.
smoke_bench = go test -run '^$$' -bench . -benchtime=1x .

# replay: cross-process determinism. replaydiff builds predis-bench -race
# once and diffs replay hashes and terminal output between a -parallel 1
# and a -parallel 4 process; `all` is every -quick experiment (recovery,
# byzantine and the streaming quickstream included, a non-zero exit fails
# the row) and must still be the committed quick_results.txt.
smoke_replay = go run ./tools/replaydiff all

# fuzz: short coverage-guided runs on top of the checked-in corpora
# (testdata/fuzz): Unmarshal never panics and re-marshals canonically,
# on arbitrary frames and on arbitrary bodies of every core, zone and
# microblock message; a transaction and a transaction list decode and
# re-encode canonically; the state commitment matches its from-scratch oracle
# however the writes were batched; the GF(2^8) row kernels match the
# scalar reference for any coefficient, offset and row.
smoke_fuzz = go test ./internal/wire/ -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s \
	&& go test ./internal/types/ -run '^$$' -fuzz FuzzDecodeTx -fuzztime 5s \
	&& go test ./internal/core/ -run '^$$' -fuzz FuzzCoreMessages -fuzztime 5s \
	&& go test ./internal/multizone/ -run '^$$' -fuzz FuzzZoneMessages -fuzztime 5s \
	&& go test ./internal/microblock/ -run '^$$' -fuzz FuzzMicroblockMessages -fuzztime 5s \
	&& go test ./internal/exec/ -run '^$$' -fuzz FuzzStateCommitment -fuzztime 5s \
	&& go test ./internal/erasure/ -run '^$$' -fuzz FuzzGFKernels -fuzztime 5s

# scale: the quick population sweep (N ∈ {100, 1k, 10k}, four tree
# shapes each) finishes inside a 60 s budget.
smoke_scale = go build -o bin/predis-bench ./cmd/predis-bench \
	&& timeout 60 ./bin/predis-bench -quick -parallel 4 scale >/dev/null

# examples: every example is a harness.Deploy that runs and checks its own
# outcome, exiting non-zero on a violation: quickstart when nothing
# confirms, bank unless all replicas end on the same height and state root,
# multizone when a full node completes no block or a zone lacks exactly one
# relayer per stripe index (the placement rule), and faults' narrated
# scenarios (forking attack, silent leader, relayer crash, corrupting
# relayer) assert internally.
smoke_examples = go run ./examples/quickstart >/dev/null \
	&& go run ./examples/bank >/dev/null \
	&& go run ./examples/multizone >/dev/null \
	&& go run ./examples/faults >/dev/null

# rt: the same node and client over real loopback TCP with Ed25519 keys —
# four predis-node processes and a predis-client at 300 tx/s for 3 s; fails
# unless something confirms, and kills every node when it ends.
smoke_rt = go build -o bin/ ./cmd/predis-node ./cmd/predis-client \
	&& timeout 30 tools/rtsmoke.sh bin

smoke:
	@mkdir -p bin
	@$(foreach r,$(ROW),$(if $(smoke_$(r)),,$(error smoke: no row '$(r)' (rows: $(SMOKE_ROWS)))) \
		echo "== smoke $(r)"; \
		{ $(smoke_$(r)); } || { echo "smoke: row '$(r)' FAILED"; exit 1; };)
