# Single source of truth for build/test commands: CI invokes these
# targets, so passing `make ci` locally means CI passes too.

GO ?= go

# Pinned staticcheck release; `go run` executes exactly this version.
STATICCHECK_VERSION ?= 2025.1
# Pinned govulncheck release for the advisory CI job.
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race race-phase4 fuzz-smoke bench bench-smoke bench-compare e2e-netstore e2e-chaos fmt vet staticcheck lint vulncheck docs loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused, uncached -race pass over the phase-4 concurrency surface:
# the sharded-tape executor and ownership layer at workers=4, the
# executor error-path drains, the tuple table's Close-vs-ShardAhead and
# concurrent-AddBatch tests on both media, the
# emulated device's debt accounting, mid-run cancellation, and the
# engine's retry ladder healing every store exchange. `race`
# already runs these once; this target re-runs them with -count=1 so
# CI exercises the racy interleavings fresh on every push. Tests are
# selected by name, so a rename could silently shrink the pass: the
# target first prints what the pattern matches in each package and
# fails when any package matches nothing.
RACE_PHASE4_RUN = Worker|Sharded|Parallel|Split|Cancel|Close|Device|Pipelined|MidTape|Commit|PartStore|Emit|NetStore|NetOwner|Lease|Torn|Shard|Agree|Heal
RACE_PHASE4_PKGS = ./internal/pigraph ./internal/core ./internal/tuples ./internal/disk ./internal/netstore ./internal/lint
race-phase4:
	@for pkg in $(RACE_PHASE4_PKGS); do \
		tests="$$($(GO) test -list '$(RACE_PHASE4_RUN)' $$pkg | grep '^Test' | tr '\n' ' ')"; \
		if [ -z "$$tests" ]; then \
			echo "race-phase4: no test in $$pkg matches '$(RACE_PHASE4_RUN)'"; exit 1; fi; \
		echo "race-phase4: $$pkg: $$tests"; \
	done
	$(GO) test -race -count=1 -run '$(RACE_PHASE4_RUN)' $(RACE_PHASE4_PKGS)

# Each native fuzz target for FUZZTIME: the partition-state and
# worker-partial decoders, the serve-view decoder, the replica's
# WATCH-frame parse, the frame reader, the COLLECT-item decoder, the
# decoders of the update, mutation and staleness bodies store clients
# send (PUSHUPD, ADDUSER, DRAINMUT), the client's decoders of the
# answers shards send back (EPOCH, LEASE, GETVIEW/PROFILE, NEIGHBORS and
# the drained batches), the profile-vector decoder an ADDUSER profile
# passes through, the profile arena a partition state decodes into and
# the top-k accumulator decoder must never panic, never size storage
# from a count the input cannot back, and round-trip what they accept;
# a shard's journal replay must never panic, allocate in proportion to
# the journal, and rebuild the same state from the prefix it accepts;
# every planner's schedule of a fuzzed PI graph must validate and never
# load more under MIN than under LRU; the tuple table must serve a
# fuzzed multiset, consumed in either shard orientation, exactly once
# and de-duplicated; a -faults spec the parser accepts must validate.
# `go test -fuzz` takes one target and one package per run. A crasher
# is written under the package's testdata/fuzz/ — commit it with the
# fix.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePartState$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMergePartial$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime $(FUZZTIME) ./internal/pigraph
	$(GO) test -run '^$$' -fuzz '^FuzzDiskTableShards$$' -fuzztime $(FUZZTIME) ./internal/tuples
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeView$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeShipFrame$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCollectItem$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeUpdates$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMutations$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStaleness$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponses$$' -fuzztime $(FUZZTIME) ./internal/netstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeVector$$' -fuzztime $(FUZZTIME) ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzArenaDecode$$' -fuzztime $(FUZZTIME) ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTopK$$' -fuzztime $(FUZZTIME) ./internal/knn
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/fault

# End-to-end proof of the network state store: launches cmd/statestore
# with 2 shards, runs knnrun once in-process and once with -netstore on
# the same preset topology, and diffs the emitted graphs byte for byte.
e2e-netstore:
	./scripts/e2e_netstore.sh

# End-to-end proof of the robustness stack: a run against shards under
# a seeded -faults plan must emit a byte-identical graph (and the plan
# digest must reproduce across boots), and a run that loses a shard to
# SIGKILL mid-iteration must heal through journal replay and
# still match the fault-free reference byte for byte.
e2e-chaos:
	./scripts/e2e_chaos.sh

# The repository's benchmark (bench/README.md): four workloads, three
# end-to-end runs plus one traced pass each, ~8 min. Results land in
# bench/out/results.json.
bench:
	$(GO) run ./bench

# A short suite for CI: timings at this length mean little, but the
# digest-repeat, exact-count-repeat and correctness checks the suite
# applies to itself are host-neutral, and a failed one exits non-zero.
bench-smoke:
	$(GO) run ./bench -runs 2 -seconds 5

# Applies the benchmark's bounds to the last `make bench` against BASE,
# e.g. `make bench-compare BASE=BENCH_36.json`; exits non-zero on
# a regressed or unresolved end-to-end metric, or on an exact count
# that differs at equal seeds.
bench-compare:
	$(GO) run ./bench -compare $(BASE) bench/out/results.json

# Fails when any file needs reformatting, printing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Runs the pinned staticcheck via `go run`, which resolves the exact
# release from the module cache (downloading it on first use) — the
# target can no longer silently skip when no binary is on PATH.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# knnlint: the repository's own static-analysis suite (internal/lint,
# driven by cmd/knnlint) — six analyzers enforcing the determinism,
# locking, and protocol invariants documented in docs/LINTING.md. Needs
# only the Go toolchain, so it runs everywhere, offline included.
lint:
	$(GO) run ./cmd/knnlint ./...

# Known-vulnerability scan at a pinned govulncheck release. Advisory:
# CI runs it in a non-blocking job so a fresh CVE in a dependency
# surfaces without turning every PR red.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Documentation lints: every exported symbol in the core packages must
# carry a doc comment (scripts/doccheck), and every cmd/ binary flag
# must appear in docs/OPERATIONS.md (scripts/check_flags.sh). The
# PROTOCOL.md op-table sync check runs with the normal test suite.
docs:
	./scripts/doccheck.sh
	./scripts/check_flags.sh

# The size the ROADMAP's reduction targets are measured in: lines of
# non-test Go outside bench/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

ci: build fmt vet staticcheck lint race race-phase4 fuzz-smoke e2e-netstore e2e-chaos docs bench-smoke
