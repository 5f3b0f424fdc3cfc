#!/usr/bin/env bash
# Builds cmd/figures, cmd/scenarios, cmd/swapd and the benchmark itself
# from source into .bench_build/ (only when a source file changed since the
# last build), then runs one benchmark workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload quote-mix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, the binaries, scratch stores and trace files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/swapd || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOENV=off \
	GOWORK=off GOFLAGS= CGO_ENABLED=0 XDG_CONFIG_HOME=$build/config TMPDIR=$build/tmp
mkdir -p "$build/bin" "$TMPDIR"

# The tree hash identifies the Go source the binaries were built from (the
# checkout need not be a git repository); it keys the build cache and is
# recorded in every run's fingerprint.
tree=$(find . \( -path ./.bench_build -o -path ./.git \) -prune -o -type f \
	\( -name '*.go' -o -name go.mod -o -name go.sum \) -print |
	LC_ALL=C sort | xargs -d '\n' sha256sum | sha256sum | cut -c1-16)
if [[ "$(cat "$build/stamp" 2>/dev/null || true)" != "$tree" ]]; then
	go build -o "$build/bin/" ./cmd/figures ./cmd/scenarios ./cmd/swapd >&2
	(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
	echo "$tree" > "$build/stamp"
fi
commit=$(git rev-parse HEAD 2>/dev/null || true)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" \
	-tree "$tree" -commit "${commit:-none}" "$@"
