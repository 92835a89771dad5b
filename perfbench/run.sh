#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload tier1-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# cache directories, trace and profile files) stays under the build
# directory, $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$here/../go.mod" ] || [ ! -d "$here/../internal" ]; then
	echo "perfbench: no xui module beside $here; run from a repository checkout" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
