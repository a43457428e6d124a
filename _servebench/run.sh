#!/bin/sh
# Builds the unmodified pynamic-serve binary and the servebench harness
# from the source tree in the current directory (the repository root),
# then runs the harness with the given arguments:
#
#	sh _servebench/run.sh --workload warm-jobs --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and run directory stays under
# .bench_build/ in the current directory.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/pynamic-serve ] || [ ! -f _servebench/go.mod ]; then
	echo "servebench: run from the repository root (go.mod, cmd/pynamic-serve, _servebench/)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -o "$out/bin/pynamic-serve" ./cmd/pynamic-serve
(cd _servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -root "$root" "$@"
