# Build and verification entry points. `make verify` is the full CI gate:
# tier-1 (build + tests), formatting and static analysis, race-enabled tests
# of the packages with real concurrency (the TCP transport and the
# daemon/fault machinery it carries), and every golden.

GO ?= go

.PHONY: build test fmt vet race verify perfbench-check bench experiments-golden replay-golden perfdb-golden sync-golden wire-golden trend-golden chaos fuzz fuzz-perfdb fuzz-wire

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/wire ./internal/frontend ./internal/daemon ./internal/faults ./internal/trace ./internal/core ./internal/session ./internal/perfdb

verify: build fmt vet test race perfbench-check replay-golden perfdb-golden sync-golden wire-golden trend-golden experiments-golden

# perfbench-check vets and tests the nested benchmark module (perfbench/,
# its own go.mod), which the root `./...` patterns never reach — so a change
# to a name the benchmark uses fails here rather than only in a benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Opt into the chaos sweep as part of verify with `make verify CHAOS=1`.
ifeq ($(CHAOS),1)
verify: chaos
endif

# chaos runs ~50 seeded random fault plans end-to-end under the race
# detector. Invariants per plan: the run terminates, coverage stays within
# [0,1], nothing panics, and an identical-seed re-run is byte-identical.
# Each failing case logs its plan text, which reproduces it exactly.
chaos:
	CHAOS=1 $(GO) test -race -run TestChaosPlans ./internal/faults

# fuzz hammers the fault-plan parser: no input may panic it, and every
# accepted plan must round-trip through its canonical String form.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/faults

# wire-golden pins the shared reliability plane's observable behaviour: the
# exact backoff schedules every channel draws, and the cross-stack
# equivalence of ctl/bulk/sync resilience accounting under one fault plan.
wire-golden:
	$(GO) test -count=1 -run 'TestBackoffPinnedSchedules|TestCrossStackFaultPlanEquivalence' ./internal/wire
	@echo "wire-golden: backoff schedules pinned; ctl/bulk/sync accounting equivalent"

# fuzz-wire feeds arbitrary byte streams through the server-side frame read
# path: garbage, truncations and bit flips must error, never panic or hang.
fuzz-wire:
	$(GO) test -fuzz=FuzzWireFrame -fuzztime=30s ./internal/wire

# fuzz-perfdb holds the chunked-archive and sample-delta decoders total:
# arbitrary bytes must produce an archive or an error, never a panic.
fuzz-perfdb:
	$(GO) test -fuzz=FuzzChunkDecoder -fuzztime=30s ./internal/perfdb
	$(GO) test -fuzz=FuzzUnpackSamples -fuzztime=30s ./internal/perfdb

bench:
	$(GO) test -bench=. -benchmem

# experiments-golden regenerates every paper experiment and byte-compares the
# report against the committed results/experiments_report.txt. After an
# intended change, regenerate the file with
# `go run ./cmd/experiments > results/experiments_report.txt`.
experiments-golden:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments > "$$tmp/report.txt" && \
	cmp "$$tmp/report.txt" results/experiments_report.txt && \
	echo "experiments-golden: report matches results/experiments_report.txt"

# replay-golden records a seeded run with the CLI, replays the archive, and
# fails on any difference between the live and replayed reports (the
# "Trace written to" line names different files, so the report is compared
# with the trace paths normalized).
replay-golden:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/pperf -prog small-messages -seed 7 -hierarchy -critical-path \
		-trace "$$tmp/live.json" -record "$$tmp/run.ppdb" 2>/dev/null \
		| sed "s#$$tmp/live.json#TRACE#" > "$$tmp/live.txt" && \
	$(GO) run ./cmd/pperf -replay "$$tmp/run.ppdb" -hierarchy -critical-path \
		-trace "$$tmp/replay.json" 2>/dev/null \
		| sed "s#$$tmp/replay.json#TRACE#" > "$$tmp/replay.txt" && \
	diff "$$tmp/live.txt" "$$tmp/replay.txt" && \
	cmp "$$tmp/live.json" "$$tmp/replay.json" && \
	echo "replay-golden: live and replayed reports and trace exports are identical"

# perfdb-golden records a healthy and a bandwidth-degraded run of the same
# seeded program into a fresh store, then cross-run-diffs them twice. The
# diff must flag significant REGRESSIONs (db diff exits 3 when it does) and
# the two reports must be byte-identical.
perfdb-golden:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/pperf" ./cmd/pperf && \
	"$$tmp/pperf" -prog big-message -seed 7 \
		-db "$$tmp/store" -db-label healthy >/dev/null 2>&1 && \
	"$$tmp/pperf" -prog big-message -seed 7 -faults 't=500ms degrade-link * bw=0.1' \
		-db "$$tmp/store" -db-label degraded >/dev/null 2>&1 && \
	{ "$$tmp/pperf" db -store "$$tmp/store" diff healthy degraded > "$$tmp/d1.txt"; [ $$? -eq 3 ]; } && \
	{ "$$tmp/pperf" db -store "$$tmp/store" diff healthy degraded > "$$tmp/d2.txt"; [ $$? -eq 3 ]; } && \
	cmp "$$tmp/d1.txt" "$$tmp/d2.txt" && \
	grep -q REGRESSION "$$tmp/d1.txt" && \
	echo "perfdb-golden: degraded run flagged with significant regressions; diff is byte-deterministic"

# trend-golden seeds a five-run store of one program — three healthy seeds,
# then two with a degraded link — and checks the store-wide trend query:
# it must flag DRIFTING series (db trend exits 3), attribute the changepoint
# to the first degraded run (first-bad r0004), be byte-deterministic, and
# say the same in its JSON form. A second store holds a same-seed pair whose
# fault fires at t=3s: with a 3% effect floor the full-run diff dilutes the
# post-fault regression away (exit 0, no REGRESSION) while -since-fault
# anchors the window at the fault and recovers it (exit 3).
trend-golden:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/pperf" ./cmd/pperf && \
	for s in 7 8 9; do \
		"$$tmp/pperf" -prog big-message -seed $$s \
			-db "$$tmp/trend" -db-label healthy-$$s >/dev/null 2>&1 || exit 1; \
	done && \
	for s in 10 11; do \
		"$$tmp/pperf" -prog big-message -seed $$s -faults 't=0s degrade-link * bw=0.5' \
			-db "$$tmp/trend" -db-label degraded-$$s >/dev/null 2>&1 || exit 1; \
	done && \
	{ "$$tmp/pperf" db -store "$$tmp/trend" trend -alpha=0.1 big-message > "$$tmp/t1.txt"; [ $$? -eq 3 ]; } && \
	{ "$$tmp/pperf" db -store "$$tmp/trend" trend -alpha=0.1 big-message > "$$tmp/t2.txt"; [ $$? -eq 3 ]; } && \
	cmp "$$tmp/t1.txt" "$$tmp/t2.txt" && \
	grep -q 'DRIFTING-UP' "$$tmp/t1.txt" && \
	grep -q 'first-bad r0004' "$$tmp/t1.txt" && \
	{ "$$tmp/pperf" db -store "$$tmp/trend" trend -alpha=0.1 -format=json big-message > "$$tmp/t.json"; [ $$? -eq 3 ]; } && \
	grep -q '"verdict": "DRIFTING-UP"' "$$tmp/t.json" && \
	grep -q '"first_bad": "r0004"' "$$tmp/t.json" && \
	"$$tmp/pperf" -prog big-message -seed 7 -db "$$tmp/pair" -db-label healthy >/dev/null 2>&1 && \
	"$$tmp/pperf" -prog big-message -seed 7 -faults 't=3s degrade-link * bw=0.25' \
		-db "$$tmp/pair" -db-label late-fault >/dev/null 2>&1 && \
	"$$tmp/pperf" db -store "$$tmp/pair" diff -min-effect=0.03 r0001 r0002 > "$$tmp/plain.txt" && \
	! grep -q REGRESSION "$$tmp/plain.txt" && \
	{ "$$tmp/pperf" db -store "$$tmp/pair" diff -since-fault -min-effect=0.03 r0001 r0002 > "$$tmp/since.txt"; [ $$? -eq 3 ]; } && \
	grep -q 'window: \[3.000s, end)' "$$tmp/since.txt" && \
	grep -q REGRESSION "$$tmp/since.txt" && \
	{ "$$tmp/pperf" db -store "$$tmp/pair" diff -since-fault -min-effect=0.03 -format=json r0001 r0002 > "$$tmp/since.json"; [ $$? -eq 3 ]; } && \
	grep -q '"since_fault": true' "$$tmp/since.json" && \
	grep -q '"verdict": "REGRESSION"' "$$tmp/since.json" && \
	echo "trend-golden: 5-run drift flagged with first-bad r0004; -since-fault recovers the late-fault regression a full-run diff dilutes"

# sync-golden exercises the store-sync plane end to end with the real CLI:
# record a run into store a, serve empty store b, push the run under a
# seeded fault plan (dropped frames + degraded link), check a re-push
# dedupes, pull into store c, and require all three archives to be
# byte-identical.
sync-golden:
	@set -e; tmp=$$(mktemp -d); \
	$(GO) build -o "$$tmp/pperf" ./cmd/pperf; \
	"$$tmp/pperf" -prog small-messages -seed 7 -db "$$tmp/a" -db-label golden >/dev/null 2>&1; \
	"$$tmp/pperf" db -store "$$tmp/b" -addr-file "$$tmp/addr" serve 127.0.0.1:0 >/dev/null 2>&1 & \
	srv=$$!; \
	trap 'kill "$$srv" 2>/dev/null; wait "$$srv" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ]; \
	addr=$$(cat "$$tmp/addr"); \
	"$$tmp/pperf" db -store "$$tmp/a" \
		-sync-faults 'seed=7; t=0s drop-transport client n=2 chan=sync; t=0s degrade-link * lat=1 bw=0.9' \
		push golden "$$addr" >/dev/null; \
	"$$tmp/pperf" db -store "$$tmp/a" push golden "$$addr" | grep -q 'already has'; \
	"$$tmp/pperf" db -store "$$tmp/c" pull "$$addr" --all >/dev/null; \
	cmp "$$tmp/a/runs/r0001.ppdb" "$$tmp/b/runs/r0001.ppdb"; \
	cmp "$$tmp/a/runs/r0001.ppdb" "$$tmp/c/runs/r0001.ppdb"; \
	echo "sync-golden: pushed and pulled archives are byte-identical under a seeded fault plan"
