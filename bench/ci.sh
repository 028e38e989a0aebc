#!/usr/bin/env bash
# The benchmark's own checks: vet, unit tests (synthedge against an
# in-memory controller, the BENCHMARK.json schema), and a smoke run of
# all four workloads at 1/50 of the work that checks outputs and
# compares no timings. Not yet wired into .github/workflows/ci.yml.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"
test -z "$(gofmt -l .)"
go vet ./...
go test ./...
bash "$here/run.sh" -smoke
