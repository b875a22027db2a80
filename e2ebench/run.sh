#!/usr/bin/env bash
# Builds e2ebench from the sources of the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload adhoc --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, databases, spans) stays
# under $CARGO_TARGET_DIR, default .bench_build, in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .)
commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/e2ebench" --workdir "$out/e2ebench-work" --commit "$commit" "$@"
