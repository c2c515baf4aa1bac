# Developer entry points. `make check` is the tier-1 gate: everything a
# change must keep green.

GO ?= go

.PHONY: all build test race vet check bench bench-smoke bench-e2e bench-e2e-smoke recovery reorder-differential fuzz-smoke cluster-smoke clean

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
# timetags + firing trace vs an uninterrupted control, on vs1 and vs2),
# the lifecycle differential (a session diverged by runtime build,
# excise and budget quarantine taken through compaction+crash, restore,
# export/import and fork+crash), recovery of a data directory and import
# of an export payload written by earlier builds, torn-tail truncation,
# the compaction crash points (a kill after every file operation of a
# segment switch and snapshot install, then recovery against the same
# oracle) and the compaction lifecycle races (delete, restore and close
# against an in-flight compaction, a queued one cancelled, a threshold
# skipped while one is pending). Compaction runs on its own goroutine,
# so these oracles are schedules too: both targets below repeat them 20
# times under the race detector, with the wmlog package.
DURABILITY_TESTS = TestCrashRecoveryDifferential|TestLifecycleDifferential|TestRecoverParentDataDir|TestImportParentPayload|TestRecoveryTornTail|TestCompactionCrashPoints|TestCompactionLifecycleRaces

# Race-detect the concurrent subsystems: the inference server (many
# sessions on the worker pool, compactions behind them) and the engine
# over the parallel matcher (runtime build/excise epoch swaps); then the
# durability suites, and the parallel matcher, its task queues and the
# token store under it, 20 times over — their oracles are schedules (who
# wins the last unit of a phase, which process buffers a terminal
# activation, a control hand-off between goroutines, which same-side
# activation re-keys a run slot another still holds a Ref to, whether a
# compaction is queued, in flight or done when its session goes), and
# one pass samples too few of them. The conflict set is no longer
# concurrent: match goroutines buffer their terminal activations and
# only the control process applies them.
race:
	$(GO) test -race ./internal/server ./internal/engine
	$(GO) test -race -count=20 -run '$(DURABILITY_TESTS)' ./internal/server
	$(GO) test -race -count=20 ./internal/wmlog ./internal/parmatch ./internal/taskqueue ./internal/hashmem ./internal/wm

# The durability suites on their own, verbose, plus template-fork
# isolation and the quarantine fd release.
recovery:
	$(GO) test -race -count=20 -run '$(DURABILITY_TESTS)|TestForkIsolation|TestQuarantine' -v ./internal/server
	$(GO) test -race -count=20 ./internal/wmlog

# The join-order equivalence suite: every workload compiled with the
# cost-based reorderer on vs off must produce identical WM, timetags
# and firing traces on vs1/vs2/parallel, under the race detector.
reorder-differential:
	$(GO) test -race -run 'TestReorderDifferential' -v ./internal/tables

vet:
	$(GO) vet ./...

check: build vet test race bench-smoke bench-e2e-smoke reorder-differential fuzz-smoke cluster-smoke

# The cluster fabric suite under the race detector: two in-process
# backends behind the routing proxy — consistent-hash placement, the
# content-addressed program cache (one push per backend, hash-only
# creates after), backend-loss re-routing, and the migrate-under-load
# differential (a session migrated mid-run must end with the same WM
# and firing trace as one that never moved, on vs1 and vs2,
# with pending (accept) input and a runtime-diverged network intact:
# TestMigrateDivergedEpoch). The migrate-under-load test then
# runs 20 more times: its oracle is the migration write fence (every
# acknowledged tick applied exactly once), a race that showed up once in
# 5-10 runs before forwards held the route lock across the backend call.
cluster-smoke:
	$(GO) test -race -run 'TestRing|TestCluster|TestProgramCache|TestCreateByUnregisteredHash|TestBackendLoss|TestMigrate|TestProxyMetrics' -v ./internal/cluster
	$(GO) test -race -count=20 -run 'TestMigrateUnderLoad' ./internal/cluster
	$(GO) test -race -run 'TestConcurrentSessionLifecycle|TestSnapshotFormat' ./internal/server ./internal/wmlog

# Cross-backend differential fuzzing: replay the deterministic 60-seed
# corpus (vector attributes, negations, accepts) across all four
# matcher backends under the race detector, then let the go-native
# fuzzer mutate seeds for a few seconds.
fuzz-smoke:
	$(GO) test -race -run 'TestCorpusDifferential' -v ./internal/fuzz
	$(GO) test -fuzz FuzzDifferential -fuzztime 5s -run '^$$' ./internal/fuzz

# Host-independent performance gates (green on 1, 2 and 4+ CPUs: the
# kernel allocs/op gate measures on GOMAXPROCS(1), as its baseline did,
# and holds the real-concurrency figure under a flat cap; the 2-backend
# scaling gate runs only with >= 2 CPUs per backend). First the serving
# path's fixed-cost gate (1 s): a max_cycles:1 batch at hash_lines 2^10
# vs 2^18 and a one-tag retract at WM 10^2 vs 10^5 must each cost within
# 4x of each other (min-of-N ratios, so host speed cancels) — a request
# pays for what it changes, not what the session holds. Then the token
# store's allocation gate (counts): one Weaver(20, 9) session on vs2
# played to halt in 25-cycle slices must stay under 0.14 mallocs and 33
# bytes per node activation and 13 k mallocs in Init, add at most 1 MB of
# scannable heap at its peak of live tokens, and its conflict set must
# rescan at most 30 000 instantiations and report no lock spins.
# Then the 1-rep
# match-kernel + conflict-set sweep plus the fork-vs-cold session-spawn
# ratio, failing on regression against the checked-in
# BENCH_baseline.json (scaling ratios and allocs/op, not wall-clock).
# Regenerate the baseline after an intentional change with:
#   BENCH_SMOKE=update $(GO) test -run TestBenchSmoke ./internal/tables
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run TestRequestCostIndependentOfSessionSize -v ./internal/server
	BENCH_SMOKE=1 $(GO) test -run TestMatchAllocationGate -v ./internal/engine
	BENCH_SMOKE=1 $(GO) test -run TestBenchSmoke -v ./internal/tables

# Refresh BENCH_server.json (the test writes only where BENCH_OUT
# points) and print the server throughput benchmark.
bench:
	BENCH_OUT=$(CURDIR)/BENCH_server.json $(GO) test -count=1 -run TestBenchServerJSON -v ./internal/server
	$(GO) test -bench ServerThroughput -benchtime 3x -run '^$$' ./internal/server

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
