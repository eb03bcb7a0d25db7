#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, temporary state and the
# span logs of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

# The build fails, and nothing is printed on stdout, unless the
# program's sources sit beside this directory.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2

# Identify the measured code: the git commit where there is one, else a
# hash of the Go sources.
if [ -e "$root/.git" ] && PERFBENCH_SOURCE=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	:
else
	PERFBENCH_SOURCE="tree-sha256:$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)"
fi
export PERFBENCH_SOURCE

exec "$out/perfbench" "$@"
