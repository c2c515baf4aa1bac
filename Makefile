# Developer entry points. `make check` is the tier-1 gate: everything a
# change must keep green.

GO ?= go

.PHONY: all build test race vet check bench-smoke bench-e2e bench-e2e-smoke recovery fuzz-smoke cluster-smoke clean

all: build

# Compile every package and the two binaries into ./bin.
build:
	$(GO) build ./...
	$(GO) build -o bin/ops5run ./cmd/ops5run
	$(GO) build -o bin/ops5d ./cmd/ops5d
	$(GO) build -o bin/ops5proxy ./cmd/ops5proxy
	$(GO) build -o bin/psmbench ./cmd/psmbench

test:
	$(GO) test ./...

# The durability suites: the kill-and-recover differential (WM +
# timetags + firing trace vs an uninterrupted control), the lifecycle
# differential (a session diverged by runtime build,
# excise and budget quarantine taken through compaction+crash, restore,
# export/import and fork+crash), recovery of a data directory and import
# of an export payload written by earlier builds (a vs1 or parallel
# session among them, which comes back on vs2), torn-tail truncation,
# the compaction crash points (a kill after every file operation of a
# segment switch and snapshot install, then recovery against the same
# oracle) and the compaction lifecycle races (delete, restore and close
# against an in-flight compaction, a queued one cancelled, a threshold
# skipped while one is pending). Compaction runs on its own goroutine,
# so these oracles are schedules too: both targets below repeat them 20
# times under the race detector, with the wmlog package.
DURABILITY_TESTS = TestCrashRecoveryDifferential|TestLifecycleDifferential|TestRecoverParentDataDir|TestImportParentPayload|TestRecoveryTornTail|TestCompactionCrashPoints|TestCompactionLifecycleRaces

# Race-detect the concurrent subsystems: the inference server (many
# sessions admitted through its semaphore of Workers slots, compactions
# behind them) and the engine over the parallel matcher; then the
# engine's dynamic suites (runtime build/excise on 1-8 workers under
# both lock schemes: each change retracts working memory through the old
# network, moves the drained, empty matcher onto the recompiled one and
# re-asserts working memory, refraction carried across), the durability
# suites, and the parallel matcher, its task queues and the token store
# under it, 20 times over — their oracles are schedules (who wins the
# last unit of a phase, which process buffers a terminal activation, a
# control hand-off between goroutines, which same-side activation
# re-keys a run slot another still holds a Ref to, whether a compaction
# is queued, in flight or done when its session goes), and one pass
# samples too few of them. The conflict set is no longer concurrent:
# match goroutines buffer their terminal activations and only the
# control process applies them. Session starts are
# schedules too: concurrent creates of a new program race to build its
# one init image while others thaw it, and forks thaw a template's
# image with no lock, so the image suite, fork isolation and the
# concurrent session suites also run 20 times. The image suite plays four
# paper programs to halt twice under the race detector, the second time
# on the token table the first one's delete handed back. A delete hands
# a session's table to the next start while a request may still wait
# for the session's lock, so the delete-race suite runs 20 times too.
# Last, the golden traces (TestReorderDifferential, internal/tables):
# every paper program on lisp, vs1, vs2 and the parallel matcher (simple
# locks with 1 and 4 processes, MRSW with 2), source-order and planned
# compile, must reproduce its pinned fingerprint under the race
# detector.
race:
	$(GO) test -race ./internal/server ./internal/engine
	$(GO) test -race -count=20 -run 'TestCreateForksProgramImage|TestForkIsolation|TestConcurrentSession|TestDeleteRacesBatch' ./internal/server
	$(GO) test -race -count=20 -run 'TestDynamic|TestSlotSafetyLifecycle|TestAdaptiveGrowthEquivalence|TestDynamicAddAcrossGrowth' ./internal/engine
	$(GO) test -race -count=20 -run '$(DURABILITY_TESTS)' ./internal/server
	$(GO) test -race -count=20 ./internal/wmlog ./internal/parmatch ./internal/taskqueue ./internal/hashmem ./internal/wm
	$(GO) test -race -run 'TestReorderDifferential' ./internal/tables

# The durability suites on their own, verbose, plus template-fork
# isolation and the quarantine fd release.
recovery:
	$(GO) test -race -count=20 -run '$(DURABILITY_TESTS)|TestForkIsolation|TestQuarantine' -v ./internal/server
	$(GO) test -race -count=20 ./internal/wmlog

# go vet, and gofmt: an unformatted Go file fails the gate.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

check: build vet test race bench-smoke bench-e2e-smoke fuzz-smoke cluster-smoke

# The cluster fabric suite under the race detector: in-process
# backends behind the routing proxy — least-loaded placement, the
# content-addressed program cache (push on 424: a backend's first
# create of a program, concurrent first creates and a backend
# restarted with no health probe since; source that does not parse is
# refused at registration), backend-loss re-routing,
# route discovery by a restarted proxy, a never-started proxy's prompt
# Close, and the migrate-under-load differential (a session migrated mid-run must end
# with the same WM and firing trace as one that never moved, with
# pending (accept) input and a runtime-diverged network intact:
# TestMigrateDivergedEpoch). The migrate-under-load test then
# runs 20 more times: its oracle is the migration write fence (every
# acknowledged tick applied exactly once), a race that showed up once in
# 5-10 runs before forwards held the route lock across the backend call.
cluster-smoke:
	$(GO) test -race -run 'TestCloseWithoutStart|TestCluster|TestProgramCache|TestCreateAfterBackendRestart|TestCreateByUnregisteredHash|TestRegisterRejectsUnparsableSource|TestBackendLoss|TestDiscoveryAfterProxyRestart|TestMigrate|TestProxyMetrics' -v ./internal/cluster
	$(GO) test -race -count=20 -run 'TestMigrateUnderLoad' ./internal/cluster
	$(GO) test -race -run 'TestConcurrentSessionLifecycle|TestSnapshotFormat' ./internal/server ./internal/wmlog

# Cross-backend differential fuzzing: replay the deterministic 60-seed
# corpus (vector attributes, negations, accepts) across all four
# matcher backends under the race detector, then let the go-native
# fuzzer mutate seeds for a few seconds.
fuzz-smoke:
	$(GO) test -race -run 'TestCorpusDifferential' -v ./internal/fuzz
	$(GO) test -fuzz FuzzDifferential -fuzztime 5s -run '^$$' ./internal/fuzz

# Performance gates kept out of a plain `go test` (each skips without
# BENCH_SMOKE=1) and green on 1, 2 and 4+ CPUs. Their bounds are
# constants in the tests.
#  - The serving path's fixed-cost gate
#    (TestRequestCostIndependentOfSessionSize, internal/server, 1 s): a
#    max_cycles:1 batch on a token table resized to 2^10 vs 2^18 lines
#    (a test hook: no session knob sets the size) and a one-tag retract
#    at WM 10^2 vs 10^5 must each cost within 4x of each other (min-of-N
#    ratios, so host speed cancels) — a request pays for what it
#    changes, not what the session holds.
#  - The template fork gate (TestForkFasterThanColdSpawn,
#    internal/server): fork to first served batch at least 3x faster
#    than building the same session cold.
#  - The init image gate (TestCreateFromImageFasterThanInit,
#    internal/server): a warm Weaver(20, 9) create, a thaw of the
#    program's init image, at least 3x faster than build + Init on the
#    same server (medians of 9).
#  - The token store's allocation gate (TestMatchAllocationGate,
#    internal/engine, counts): one Weaver(20, 9) session on vs2 played to
#    halt in 25-cycle slices must stay under 0.14 mallocs and 33 bytes
#    per node activation and 13 k mallocs in Init, add at most 1 MB of
#    scannable heap at its peak of live tokens, and its conflict set must
#    rescan at most 30 000 instantiations and report no lock spins.
#  - The kernel sweep (TestBenchSmoke, internal/tables): conflict-set
#    churn and Select at 10 k vs 1 k live instantiations within 3x, churn
#    0 allocs/op; match-kernel allocs/op at most 2 on GOMAXPROCS(1) and
#    64 at the host's concurrency; the bigmem layouts at most 2 opposite
#    tokens per pair, a list/runs gain of at least 2, line depth at most
#    64 and at least one resize.
#  - The paper-scale shape checks (TestSimShapes, internal/tables): the
#    simulated Tables 4-5..4-9 at scale 1 keep the shapes EXPERIMENTS.md
#    reports — one queue saturates, 8 queues at least double Weaver's
#    and Rubik's 1+13 speed-up while Tourney stays under 3x, 8 queues
#    cut queue spins, MRSW slows the base case, and Tourney's line
#    contention is the largest, left over right, MRSW under simple.
#  - The 2-backend scaling gate (TestTwoBackendsScale, internal/cluster):
#    at least 1.2x the 1-backend batches/s through the proxy; it runs
#    only with >= 2 CPUs per backend.
# The join planner's skew gain (TestPlannerSkewGain, internal/rete) and
# the match budget's cross-product containment
# (TestMatchBudgetContainsCrossProduct, internal/engine) are counters,
# not timings, and run in every `go test`.
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run 'TestRequestCostIndependentOfSessionSize|TestForkFasterThanColdSpawn|TestCreateFromImageFasterThanInit' -v ./internal/server
	BENCH_SMOKE=1 $(GO) test -run TestMatchAllocationGate -v ./internal/engine
	BENCH_SMOKE=1 $(GO) test -run 'TestBenchSmoke|TestSimShapes' -v ./internal/tables
	BENCH_SMOKE=1 $(GO) test -run TestTwoBackendsScale -v ./internal/cluster

# The end-to-end benchmark BENCHMARK.json declares: four workloads from
# library call to proxy -> ops5d -> journal, 7 end-to-end metrics plus
# the per-layer breakdown, one JSON document on stdout. It is its own
# module (benchmark/go.mod), so root `go test ./...` does not reach it;
# bench-e2e-smoke runs its 9 s self-test.
bench-e2e:
	bash benchmark/run.sh --seed 1 --seconds 20

bench-e2e-smoke:
	$(GO) -C benchmark test ./...

clean:
	rm -rf bin .bench_build
