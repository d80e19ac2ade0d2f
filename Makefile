GO ?= go

.PHONY: all build bench-module test race vet fmt fmt-check lint lint-analyzers ci check bench bench-smoke smoke smoke-obs smoke-trace smoke-genalgd smoke-loadgen fuzz-short check-baselines update-baselines fuzz-sql-short fuzz-sql

all: check

build:
	$(GO) build ./...

# UNUSEDRESULT_FUNCS lists the functions whose results stock vet's
# unusedresult pass requires to be used. The flag replaces vet's default
# list, so the defaults come first, then this repository's additions.
# The flag matches package-level functions only; methods are covered by
# -unusedresult.stringmethods (default Error,String).
UNUSEDRESULT_FUNCS := \
	context.WithCancel context.WithDeadline context.WithTimeout context.WithValue \
	errors.New fmt.Errorf fmt.Sprint fmt.Sprintf \
	slices.Clip slices.Compact slices.CompactFunc slices.Delete slices.DeleteFunc \
	slices.Grow slices.Insert slices.Replace sort.Reverse \
	context.Background context.TODO errors.Join errors.Unwrap fmt.Sprintln \
	strings.Clone strings.Compare strings.Contains strings.Count strings.Fields \
	strings.Index strings.Join strings.Repeat strings.Replace strings.ReplaceAll \
	strings.Split strings.SplitN strings.Title strings.ToLower strings.ToUpper \
	strings.TrimSpace strings.TrimPrefix strings.TrimSuffix \
	genalg/internal/obs.Join
empty :=
comma := ,

vet:
	$(GO) vet -unusedresult.funcs=$(subst $(empty) $(empty),$(comma),$(strip $(UNUSEDRESULT_FUNCS))) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -w .

# fmt-check fails (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint: fmt-check vet

# lint-analyzers runs the project's own go/analysis suite (pin/unpin
# balance, span lifecycle, context threading, WAL durability, lock
# ordering and lock-held I/O, goroutine shutdown, network deadlines,
# deterministic replay, metric naming, error classification) once over
# the whole tree, tests included, and fails on findings and on
# //genalgvet:ignore directives that suppress nothing. See
# internal/analysis/.
bin/genalgvet: $(shell find cmd/genalgvet internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o bin/genalgvet ./cmd/genalgvet

lint-analyzers: bin/genalgvet
	./bin/genalgvet -audit-ignores ./...

# bench-module vets and tests the perfbench module, which has its own
# go.mod and so is outside `./...`: an API change that breaks the
# benchmark driver fails here. (No `go build`: it would leave a
# perfbench/perfbench binary in the tree.)
bench-module:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# ci is exactly what the GitHub Actions test job runs; `make ci` locally
# reproduces it.
ci: lint lint-analyzers build bench-module test race check-baselines smoke-genalgd smoke-loadgen

# check is the verification gate: lint clean, everything builds, and the
# full test suite passes under the race detector.
check: ci

bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke runs the measured benchtab experiment once at small scale
# and writes a throwaway BENCH_e12.json snapshot — CI proof that both the
# experiment and the -bench-json emitter stay runnable. The committed
# BENCH_e12.json at the repo root is regenerated at full scale with
# `go run ./cmd/benchtab -only e12 -bench-json .`.
bench-smoke:
	mkdir -p bin/bench-smoke
	$(GO) run ./cmd/benchtab -only e12 -quick -bench-json bin/bench-smoke
	@test -s bin/bench-smoke/BENCH_e12.json || { echo "bench-smoke: missing BENCH_e12.json"; exit 1; }
	@echo "bench-smoke: ok"

# smoke drives the two binaries end to end with small fixtures, then the
# durable-warehouse example (reopen by WAL replay, no save step) — the CI
# smoke job, runnable locally.
smoke:
	$(GO) run ./cmd/etlrun -records 200 -rounds 2
	$(GO) run ./cmd/etlrun -records 100 -rounds 2 -faults 0.2
	$(GO) run ./cmd/benchtab -only e12 -quick
	$(GO) run ./examples/persistent_warehouse

# smoke-obs drives the observability surface: EXPLAIN ANALYZE through the
# shell plus a \metrics snapshot, grepping for the plan annotations and the
# per-pool gauges.
smoke-obs:
	@out=$$(printf 'EXPLAIN ANALYZE SELECT id FROM fragments WHERE quality >= 0.2\n\\metrics\n\\q\n' \
		| $(GO) run ./cmd/genalgsh -lang sql -slow 1ns); \
	for want in 'access: scan fragments' 'act=' 'storage.pool' 'sqlang.slow_queries'; do \
		echo "$$out" | grep -q "$$want" || { \
			echo "smoke-obs: missing '$$want' in genalgsh output"; echo "$$out"; exit 1; }; \
	done; \
	echo "smoke-obs: ok"

# smoke-trace drives the tracing surface: a traced statement through the
# shell (span tree + slow-log trace ID), a traced ETL run with JSONL
# export, and the embedded observability HTTP server's endpoints.
smoke-trace:
	./scripts/smoke_trace.sh

# smoke-genalgd drives the network daemon end to end: a wire-protocol
# session through genalgsh -connect, kill -9 in the middle of a
# concurrent write burst, restart, and proof that every acknowledged
# statement survived (WAL recovery), then a clean SIGTERM drain.
smoke-genalgd:
	./scripts/smoke_genalgd.sh

# smoke-loadgen drives the population-scale load generator against a live
# genalgd: an open-loop four-scenario mix gated on p95/p99 and
# error/timeout SLOs with a schema-versioned BENCH_e18.json snapshot,
# then a kill -9 chaos run gated on measured recovery time. Set
# BENCH_DIR to keep the snapshot (CI uploads it as an artifact).
smoke-loadgen:
	./scripts/smoke_loadgen.sh

# fuzz-short runs the sources parser fuzzer, the row decoder's column-map
# fuzzer, the join-key equality property, the plan cache's warm-equals-
# cold property, the wire frame and request decoders, the WAL frame
# decoder, the k-mer index against a brute-force scan and the
# incremental-equals-reload oracle briefly (CI budget).
fuzz-short:
	$(GO) test ./internal/sources -run='^$$' -fuzz=FuzzParseFormats -fuzztime=10s
	$(GO) test ./internal/db -run='^$$' -fuzz='^FuzzDecodeRow$$' -fuzztime=10s
	$(GO) test ./internal/sqlang -run='^$$' -fuzz='^FuzzJoinKeyEquality$$' -fuzztime=10s
	$(GO) test ./internal/sqlang -run='^$$' -fuzz='^FuzzPlanCache$$' -fuzztime=10s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=10s
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s
	$(GO) test ./internal/kmeridx -run='^$$' -fuzz='^FuzzIndexAgainstScan$$' -fuzztime=10s
	$(GO) test ./internal/warehouse -run='^$$' -fuzz='^FuzzIncrementalEqualsReload$$' -fuzztime=10s

# fuzz-sql-short runs the SQL parser fuzzer briefly (CI budget). Seeds
# come from the regression corpus; the target also checks the
# String() round-trip property the shrinker depends on.
fuzz-sql-short:
	$(GO) test ./internal/sqlang -run='^$$' -fuzz=FuzzParseSQL -fuzztime=10s

# check-baselines diffs the sqlang regression corpus against its
# committed result/plan golden files (see internal/sqlang/regress).
check-baselines:
	$(GO) run ./cmd/sqlregress check

# update-baselines re-blesses the golden files after an intended
# planner or executor change; review the resulting diff before commit.
update-baselines:
	$(GO) run ./cmd/sqlregress update

# fuzz-sql runs the differential SQL fuzzer for a few minutes — the
# nightly CI job; any divergence fails and leaves a corpus-ready
# reproducer under bin/fuzz-repro.
fuzz-sql:
	$(GO) run ./cmd/sqlregress fuzz -seed $$(date +%s) -duration 5m -out bin/fuzz-repro
