# Dragster reproduction — common workflows.

GO ?= go

.PHONY: all build test race cover loc bench bench-gp bench-e2e bench-e2e-gate bench-layers bench-snapshot bench-flat fuzz-smoke lint lint-sarif repro repro-check repro-quick examples clean

all: build test lint

# perfbench/ is a module of its own (root ./... never reaches it), so it
# is vetted separately to catch breakage of the APIs it drives.
build:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# Static-analysis suite (internal/analysis): simclock, detrand, maporder,
# errflow, chaoshook, fleethook, hotpath, goroutine, lockorder — the
# determinism, error-handling, fault-model, allocation, and concurrency
# invariants. Runs through `go vet -vettool` so analyzers see
# build-accurate type information. See DESIGN.md "Static analysis".
lint:
	$(GO) build -o bin/dragsterlint ./cmd/dragsterlint
	$(GO) vet -vettool=$(CURDIR)/bin/dragsterlint ./...

# Same run in SARIF: cmd/go echoes each package's tool output on stderr,
# so the stream is captured there and merged into one SARIF 2.1.0 file
# (dragsterlint.sarif) for CI artifact upload / code-scanning import.
# The text-mode `lint` target stays the gate; this one always exits 0
# per package and reports through the document instead.
lint-sarif:
	$(GO) build -o bin/dragsterlint ./cmd/dragsterlint
	$(GO) vet -vettool=$(CURDIR)/bin/dragsterlint -sarif ./... 2> lint.stream
	bin/dragsterlint -merge-sarif lint.stream > dragsterlint.sarif
	rm -f lint.stream

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-package coverage with the checked-in floors enforced
# (COVERAGE_FLOOR.txt; see cmd/covergate). CI runs the same gate.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covergate -profile cover.out -floors COVERAGE_FLOOR.txt

# Non-test Go lines outside perfbench/ and every testdata/ directory:
# the size measure simplicity changes are judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

# Short coverage-guided run of every fuzz target (go test accepts one
# -fuzz pattern per invocation, hence the loop). Catches fuzz-harness rot
# and shallow panics; long campaigns stay a manual job.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzNewCholesky -fuzztime 3s ./internal/linalg
	$(GO) test -run NONE -fuzz FuzzCholeskyExtend -fuzztime 3s ./internal/linalg
	$(GO) test -run NONE -fuzz FuzzCholeskyUpdateDiag -fuzztime 3s ./internal/linalg
	$(GO) test -run NONE -fuzz FuzzGraphBuild -fuzztime 3s ./internal/dag
	$(GO) test -run NONE -fuzz FuzzFleetEvent -fuzztime 3s ./internal/fleet/event
	$(GO) test -run NONE -fuzz FuzzLoadTraceCSV -fuzztime 3s ./internal/workload
	$(GO) test -run NONE -fuzz FuzzSubmitJob -fuzztime 3s ./internal/daemon
	$(GO) test -run NONE -fuzz FuzzResumeCheckpoint -fuzztime 3s ./internal/daemon
	$(GO) test -run NONE -fuzz FuzzReadJSONL -fuzztime 3s ./internal/telemetry

# Everything: the GP-stack micro-benchmarks, the end-to-end harness
# benchmarks and the dag/OSP layer benchmarks.
bench: bench-gp bench-e2e bench-layers

# GP/linalg/UCB micro-benchmarks only (the optimizer inner loops).
bench-gp:
	$(GO) test -run NONE -bench 'Posterior|Observe|Select|MaximizeLML|Cholesky' -benchmem \
		./internal/gp ./internal/ucb ./internal/linalg

# End-to-end harness benchmarks — full Run rounds/sec, the 8-seed Repeat
# fan-out at 1 and 4 workers, and fleet rounds at 10 and 100 tenants —
# snapshotted into BENCH_e2e.json for the CI regression gate.
bench-e2e:
	$(GO) test -run NONE -bench 'RunRoundsPerSec|Repeat8Seeds|FleetRound' -benchmem \
		./internal/experiment ./internal/fleet | $(GO) run ./cmd/benchsnapshot -out BENCH_e2e.json -label "make bench-e2e"

# Layer benchmarks — one evaluation and one gradient of a two-operator
# chain, one saddle-point step at λ = 0, one per built-in workload with
# the dual update moving λ before every step (and the Yahoo one alone),
# one stream-simulator tick of a chain, one 600-second slot of the noisy
# Yahoo job through flink.Job.RunSlot (engine with its slot totals and
# cluster clock), one full controller decision, one RNG seeding, one
# Gaussian draw, one Yahoo capacity plan, one 100- and one 1000-tenant
# admission round (fleet.New plus round 0) and one spec of each built-in
# workload kind, by constructor and by name — snapshotted into
# BENCH_layers.json. Recorded, not gated; CI's layer bench smoke runs the
# same pattern over the same packages once each.
bench-layers:
	$(GO) test -run NONE -bench 'EvaluateChain|GradientChain|SaddlePointStep|TickChain|RunSlotYahoo|ControllerDecide|NewRNG|Normal|PlannerBuild|FleetAdmit|WorkloadSpecs' -benchmem \
		. ./internal/dag ./internal/osp ./internal/streamsim ./internal/flink ./internal/stats ./internal/planner ./internal/fleet ./internal/workload | $(GO) run ./cmd/benchsnapshot -out BENCH_layers.json -label "make bench-layers"

# Re-run the e2e benchmarks five times and fail if any median ns/op
# regressed more than 20% against the committed snapshot (CI runs the
# same gate). The median of five keeps up to two noisy runs from
# tripping the gate.
bench-e2e-gate:
	$(GO) test -run NONE -bench 'RunRoundsPerSec|Repeat8Seeds|FleetRound' -benchmem -count 5 \
		./internal/experiment ./internal/fleet | $(GO) run ./cmd/benchsnapshot -gate BENCH_e2e.json

# Snapshot the GP-stack micro-benchmarks (posterior, incremental refit,
# UCB select, LML search, Cholesky) into BENCH_gp.json so perf PRs can
# diff ns/op and allocs/op against the recorded trajectory.
bench-snapshot:
	$(GO) test -run NONE -bench 'Posterior|Observe|Select|MaximizeLML|Cholesky' -benchmem \
		./internal/gp ./internal/ucb ./internal/linalg | $(GO) run ./cmd/benchsnapshot -out BENCH_gp.json

# Flat-horizon gate: inside the committed BENCH_gp.json, the 10k-warm
# grid Observe/Select benchmarks must sit within 1.2× of their 1k-warm
# twins, and inside BENCH_e2e.json the warm-started fleet's rounds
# 241–256 within 1.2× of its rounds 1–16 — a GP holds one row per
# distinct configuration, so per-round cost depends on the candidate
# grid, not the horizon. Reads only the snapshots, so CI can run it
# without timing jitter.
bench-flat:
	$(GO) run ./cmd/benchsnapshot -flat BENCH_gp.json \
		-pair BenchmarkObserveGrid1k=BenchmarkObserveGrid10k \
		-pair BenchmarkSelectGrid1k=BenchmarkSelectGrid10k
	$(GO) run ./cmd/benchsnapshot -flat BENCH_e2e.json \
		-pair BenchmarkFleetRound100Jobs=BenchmarkFleetRoundWarmLate100Jobs

# Regenerate every paper table and figure at the paper's 10-minute slots.
repro:
	$(GO) run ./cmd/benchmark -exp all -slotsec 600 | tee results_full.txt

# Byte-identity contract: a fresh -exp all run must reproduce the
# committed results_full.txt exactly. The check assumes amd64: on arm64
# Go may fuse multiply-adds, which changes the last bits of some floats.
repro-check:
	$(GO) run ./cmd/benchmark -exp all -slotsec 600 | diff -u results_full.txt -

# Same experiments at 1-minute slots (~10× faster, same shapes).
repro-quick:
	$(GO) run ./cmd/benchmark -exp all -slotsec 60

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/customdag
	$(GO) run ./examples/vertical
	$(GO) run ./examples/wordcount -slotsec 60
	$(GO) run ./examples/workloadshift -slots 40 -phase 10 -slotsec 60
	$(GO) run ./examples/yahoo -slots 24 -change 12 -slotsec 60

clean:
	$(GO) clean ./...
	rm -rf bin
