#!/usr/bin/env bash
# Documentation lint: every exported symbol in the engine's core
# packages must carry a doc comment, and every package a package
# comment; README.md and docs/*.md may cite only Benchmark* functions,
# cmd/ binaries and internal/ packages that exist; README.md, docs/*.md,
# the Makefile and the CI workflows may cite only committed BENCH_*.json
# files, and every BASE= compare base must be the highest-numbered one
# (ROADMAP.md, CHANGES.md and bench/ are history and are not scanned).
# Run via `make docs` (CI runs it on every push).
set -euo pipefail
cd "$(dirname "$0")/.."

PACKAGES=(
  internal/fault
  internal/netstore
  internal/pigraph
  internal/core
  internal/delta
  internal/tuples
  internal/api
  internal/latency
  internal/serve
  internal/load
  internal/lint
  internal/disk
  internal/graph
  internal/profile
  internal/partition
  internal/knn
  internal/dataset
  internal/exact
  internal/nndescent
)

go run ./scripts/doccheck "${PACKAGES[@]}" README.md docs/*.md Makefile .github/workflows/*.yml
echo "doccheck: all exported symbols documented in: ${PACKAGES[*]}"
echo "doccheck: every Benchmark*, cmd/ and internal/ citation in README.md and docs/ resolves"
echo "doccheck: every BENCH_*.json citation resolves and every BASE= is the latest"
