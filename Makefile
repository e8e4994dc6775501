GO ?= go

.PHONY: build test vet fmt check bench-check race fuzz-smoke loc bench-smoke serve-smoke cluster-smoke exp-smoke cli-smoke scale-smoke bce

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the files) if anything is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# check is the pre-commit gate: formatting, static analysis, full tests,
# the bounds-check pin on the hot kernels, and the benchmark module's own
# vet + smoke test.
check: fmt vet test bce bench-check

# bench-check reaches the module the root gate cannot: bench/ has its own
# go.mod, so `./...` stops at its door. The smoke test runs all five
# workloads at toy size (~12 s) and compiles every call the benchmark
# makes into serve, qio, perf, core and the facade.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# bce asserts the SIMD-shaped kernels — the multigrid stencils and every
# butterfly stage of the FFT engine — compile with zero bounds checks:
# `ssa/check_bce` prints one "Found IsInBounds" line per surviving check,
# and any line naming a pinned kernel file fails the target.
# (IsSliceInBounds from cutting the operand rows is fine — those run once
# per row/pass, not per point.) -a defeats the build cache so the
# diagnostic always runs.
bce:
	@out="$$($(GO) build -a -gcflags=-d=ssa/check_bce ./internal/multigrid/ ./internal/fft/ 2>&1 | grep -E 'stencil\.go|stockham\.go' | grep 'Found IsInBounds' || true)"; \
	if [ -n "$$out" ]; then echo "bounds checks survive in pinned kernel files:"; echo "$$out"; exit 1; fi; \
	echo "bce: stencil.go and stockham.go are bounds-check free"

# Race-check the concurrency-heavy packages (internal/par — the one
# parallel loop every fan-out runs on: nesting, panics, pool resizing —
# and its callers: CGemm's row panels, FFT passes and pooled
# scratch arenas, bsd's domain workers, the collective I/O gather; the
# per-domain scf engines, parallel SCF assembly, atomic perf counters,
# pooled pw/pseudo scratch, checkpoint writes:
# concurrent collective checkpoint I/O during a trajectory and a reader
# racing 200 atomic replacements of one checkpoint, in both
# internal/qio and the root package, plus the job manager's lease
# table / in-process slots / queue / SSE fan-out and interleaved
# checkpoint uploads in internal/serve, the reactive Field's reused
# list and accumulator scratch — two serve slots run two Fields at once —
# and the experiment harness's host-kernel measurement, which shares the
# process-wide FLOP counter with running jobs).
# -short skips the full SCF-convergence solves and the long reactive
# production runs (minutes each under the race detector) while
# keeping every concurrency path: pool error/panic ordering, parallel
# SCFStep, collective and checkpoint writes, registry hammering,
# concurrent Cached3 lookups, job submission/cancellation races, and the
# warm-start cache's concurrent get/put path.
race: vet
	$(GO) test -race -short . ./internal/linalg/... ./internal/scf/... ./internal/fft/... ./internal/pw/... ./internal/pseudo/... ./internal/bsd/... ./internal/par/... ./internal/qio/... ./internal/core/... ./internal/perf/... ./internal/md/... ./internal/atoms/... ./internal/reactive/... ./internal/serve/... ./internal/serve/lease/... ./internal/waitfor/... ./internal/cache/... ./internal/expmatrix/...

# fuzz-smoke mutates the inputs of the four binary decoders that share
# internal/qio/frame.go for a few seconds each (`go test -fuzz` takes one
# target per invocation). Every input also runs with its CRC resealed, so
# mutations reach the section parsers; the properties are no panic,
# allocation bounded by the input size, and a stable re-encoding. The
# seed corpus (the golden fixtures) already runs under plain `go test`.
# FuzzDecodeSpec does the same for the JSON job spec the daemon accepts
# (decode → Validate → BuildSystem): no panic, a valid spec builds, and
# the decoded spec survives a JSON round trip unchanged. FuzzLeaseBodies
# covers the four lease request bodies (acquire, renew, step, complete)
# through the strict decoder their handlers share: no panic, and a body
# that decodes re-encodes to a value that decodes to the same encoding.
# Two workers and a short minimisation budget keep the run small and
# spend it mutating. A failure writes its input under the package's
# testdata/fuzz/, to be committed with the fix. CI runs this on every PR.
FUZZ = $(GO) test -run '^$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2
fuzz-smoke:
	$(FUZZ) -fuzz '^FuzzDecodeCheckpoint$$' ./internal/qio/
	$(FUZZ) -fuzz '^FuzzDecodeCheckpointDelta$$' ./internal/qio/
	$(FUZZ) -fuzz '^FuzzDecompressField$$' ./internal/qio/
	$(FUZZ) -fuzz '^FuzzDecodeEntry$$' ./internal/cache/
	$(FUZZ) -fuzz '^FuzzDecodeSpec$$' ./internal/serve/
	$(FUZZ) -fuzz '^FuzzLeaseBodies$$' ./internal/serve/

# loc prints the non-test Go line count ROADMAP aim 2 tracks: every *.go
# that is not a *_test.go and not under bench/ (a module of its own), for
# the root module, per internal/ package and per cmd/ directory.
loc:
	@printf '%6d  root module, non-test\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@for d in internal/*/ cmd/*/; do printf '%6d  %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$$d"; done

# serve-smoke drives the built qmdd daemon end to end over HTTP: start
# on a random port, submit a tiny 2-atom job and poll it to completion,
# resubmit it and assert the warm-start cache hit in /metrics (no SCF
# re-entry), cancel a third job mid-flight, assert the /metrics
# counters, then SIGTERM and check the graceful drain. CI runs this on
# every PR.
serve-smoke:
	$(GO) test -run TestQMDDSmoke -count=1 -v ./cmd/qmdd/

# cluster-smoke is the fault-injecting multi-node gate: 1 coordinator +
# 2 worker nodes as separate OS processes, a job array submitted through
# qmdctl, SIGKILL of the worker holding the longest job mid-trajectory,
# then assertions that the orphaned job is requeued after lease expiry
# and finished by the surviving node with energies bitwise identical to
# an uninterrupted standalone run — and that the dead worker's lease
# epoch is fenced with 409. CI runs this on every PR.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -timeout 10m -v ./cmd/qmdd/

# exp-smoke is the experiment-harness gate: a 2×2 reactive validation
# matrix runs through a real standalone qmdd daemon as a job array, the
# first qmdexp campaign is SIGKILLed mid-flight, and the rerun must
# resume from the durable store (cached cells skipped, only the
# remainder resubmitted) and pass every validator — including the
# Arrhenius fit against the paper's 0.068 eV — plus a qmdctl results
# fetch of one array job. Beside it every computed builtin spec runs
# against a fresh store and must pass: the model tables and figures
# within their tolerances of the paper, the §3.3 memory sweep (8 → 512
# domains through 4 workspaces under one retained-heap ceiling, ≈ 5 s),
# Fig. 7's buffer scan non-increasing for LDC and DC, and §5.5 (LDC-DFT
# vs the O(N³) code: ≤ 1e-3 Ha/atom, ≤ 0.05 Ha/Bohr) —
# ≈ 20 s each for those two real-solver studies. CI runs this on every PR.
exp-smoke:
	$(GO) test -run 'TestExpSmoke|TestBuiltinComputedSpecs' -count=1 -timeout 10m -v ./cmd/qmdexp/ ./internal/expmatrix/

# cli-smoke builds the two trajectory commands and drives what they share
# (cmd/internal/trajcli over md.Trajectory): conflicting flags exit
# non-zero with a diagnostic; SIGINT mid-run writes a final checkpoint of
# the last completed step and exits 130, and -resume continues from it —
# for ldcmd to the same per-step energies an uninterrupted run prints.
# CI runs this on every PR.
cli-smoke:
	$(GO) test -count=1 -run 'TestSIGINT|TestFlagValidation' ./cmd/ldcmd/ ./cmd/h2od/

# bench-smoke compiles and runs every benchmark function exactly once, so
# benchmark code cannot rot silently. These are kernel and ablation
# benchmarks — run one by hand (`go test -run '^$$' -bench Benchmark3DBatch
# -benchmem ./internal/fft/`) to reproduce a ratio; the performance
# record is bench/ (bench/README.md) and the paper's tables and figures
# are qmdexp specs (exp-smoke). CI runs this on every PR.
bench-smoke: build
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# scale-smoke is the bounded-memory CI gate: a 512-domain LDC-DFT step
# streamed through 4 solver workspaces must finish under a hard RSS
# ceiling — a resident-per-domain regression (O(domains) memory) blows
# the ceiling and fails loudly. GOMEMLIMIT keeps the Go heap honest so
# lazily-collected garbage cannot hide under the ceiling. The process
# floor moves with the core count and the pool size, so GOMAXPROCS is
# pinned at 2 and the ceiling sits between what was measured on both
# sides of that regression there: the test peaks at 18–25 MiB (24 runs,
# median 19; 1.28× headroom) and, with one workspace per occupied domain
# kept resident (384 of them), at 40–43 MiB (16 runs) — which the former
# 40 MiB ceiling let through in 2 runs of 5.
# `qmdexp run sec33-streaming-memory` (exp-smoke) gates the same
# property on the retained heap, which does not move with the core count.
scale-smoke:
	GOMAXPROCS=2 GOMEMLIMIT=400MiB LDC_SCALE_RSS_MAX_MB=32 $(GO) test -run TestScaleSmoke512 -count=1 -v ./internal/core/
