GO ?= go

.PHONY: build test vet fmt check bench-check race fuzz-smoke loc bench bench-smoke serve-smoke cluster-smoke exp-smoke cli-smoke bench-cache bench-multigrid bench-scale scale-smoke bce

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

# Race-check the concurrency-heavy packages (linalg's CGemm row-panel
# fan-out, the per-domain scf engines, FFT worker pool and pooled
# scratch arenas, goroutine pool, collective I/O, parallel SCF assembly,
# atomic perf counters, pooled pw/pseudo scratch, checkpoint writes:
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
	$(GO) test -race -short . ./internal/linalg/... ./internal/scf/... ./internal/fft/... ./internal/pw/... ./internal/pseudo/... ./internal/bsd/... ./internal/qio/... ./internal/core/... ./internal/perf/... ./internal/md/... ./internal/atoms/... ./internal/reactive/... ./internal/serve/... ./internal/serve/lease/... ./internal/waitfor/... ./internal/cache/... ./internal/expmatrix/...

# fuzz-smoke mutates the inputs of the four binary decoders that share
# internal/qio/frame.go for a few seconds each (`go test -fuzz` takes one
# target per invocation). Every input also runs with its CRC resealed, so
# mutations reach the section parsers; the properties are no panic,
# allocation bounded by the input size, and a stable re-encoding. The
# seed corpus (the golden fixtures) already runs under plain `go test`.
# Two workers and a short minimisation budget keep the run small and
# spend it mutating. A failure writes its input under the package's
# testdata/fuzz/, to be committed with the fix. CI runs this on every PR.
FUZZ = $(GO) test -run '^$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2
fuzz-smoke:
	$(FUZZ) -fuzz '^FuzzDecodeCheckpoint$$' ./internal/qio/
	$(FUZZ) -fuzz '^FuzzDecodeCheckpointDelta$$' ./internal/qio/
	$(FUZZ) -fuzz '^FuzzDecompressField$$' ./internal/qio/
	$(FUZZ) -fuzz '^FuzzDecodeEntry$$' ./internal/cache/

# loc prints the non-test Go line count ROADMAP aim 2 tracks: every *.go
# that is not a *_test.go and not under bench/ (a module of its own), for
# the root module and per internal/ package.
loc:
	@printf '%6d  root module, non-test\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@for d in internal/*/; do printf '%6d  %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$$d"; done

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
# within their tolerances of the paper, Fig. 7's buffer scan
# non-increasing for LDC and DC, and §5.5 (LDC-DFT vs the O(N³) code:
# ≤ 1e-3 Ha/atom, ≤ 0.05 Ha/Bohr, same census) — ≈ 20 s each for the two
# real-solver studies. CI runs this on every PR.
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

bench: bench-fft
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-smoke compiles and runs every benchmark exactly once and pushes
# one benchmark through the cmd/benchjson pipe, so benchmark code and the
# BENCH_fft.json plumbing cannot rot silently. These are kernel and
# ablation benchmarks; the paper's tables and figures are qmdexp specs
# (exp-smoke). CI runs this on every PR.
bench-smoke: build
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	$(GO) test -run '^$$' -bench 'Benchmark3DBatch' -benchtime 1x ./internal/fft/ | $(GO) run ./cmd/benchjson > /dev/null

# bench-fft runs the FFT/Hamiltonian hot-path benchmarks with allocation
# reporting and records the machine-readable results in BENCH_fft.json.
# 3DBatchPruned/3DBatchDense and ApplyAllPruned/ApplyAllDense (g12, g10)
# are the sphere-pruning pairs: like vectorized/Ref, their ratio is the
# machine-independent record.
bench-fft:
	$(GO) test -run '^$$' -bench 'Benchmark(3DBatch|R3Batch|Plan3|RPlan3|Forward|HartreeFFT|ApplyAll$$|ApplyAllSeparate|ApplyAllBLAS|ApplyAllPruned|ApplyAllDense)' -benchtime 2s ./internal/fft/ ./internal/pw/ | $(GO) run ./cmd/benchjson > BENCH_fft.json
	@cat BENCH_fft.json

# bench-multigrid runs the multigrid stencil kernels (vectorized vs the
# per-point wrapMul references), the transfer operators, and the V-cycle /
# full-solve paths, recording the results in BENCH_multigrid.json. The
# Smooth*/Residual* vs *Ref* ratios are the vectorization win.
bench-multigrid:
	$(GO) test -run '^$$' -bench 'Benchmark(Smooth|Residual|Restrict|Prolong|VCycle|Poisson)' -benchtime 2s ./internal/multigrid/ | $(GO) run ./cmd/benchjson > BENCH_multigrid.json
	@cat BENCH_multigrid.json

# bench-cache benchmarks the warm-start cache hot paths (put, exact and
# near lookup, entry codec) and records the machine-readable results in
# BENCH_cache.json.
bench-cache:
	$(GO) test -run '^$$' -bench 'Benchmark(Cache|EntryCodec)' -benchtime 2s ./internal/cache/ | $(GO) run ./cmd/benchjson > BENCH_cache.json
	@cat BENCH_cache.json

# bench-scale measures workspace-streaming memory scaling: one
# subprocess per decomposition (8 → 512 domains of the same system, so
# VmHWM isolates each point's true peak RSS), a c·dᵃ power-law fit over
# the sweep, and BENCH_scale.json as the machine-readable record. With
# bounded solver workspaces the fitted rssAlpha must stay ≈0 (memory
# follows the worker count, not the domain count).
bench-scale:
	$(GO) run ./cmd/scalebench -scale -scale-json BENCH_scale.json
	@cat BENCH_scale.json

# scale-smoke is the bounded-memory CI gate: a 512-domain LDC-DFT step
# streamed through 4 solver workspaces must finish under a hard RSS
# ceiling — a resident-per-domain regression (O(domains) memory) blows
# the ceiling and fails loudly. GOMEMLIMIT keeps the Go heap honest so
# lazily-collected garbage cannot hide under the ceiling.
scale-smoke:
	GOMEMLIMIT=400MiB LDC_SCALE_RSS_MAX_MB=512 $(GO) test -run TestScaleSmoke512 -count=1 -v ./internal/core/
