#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh
#       builds release, re-derives the references (`e2e --verify`), runs the
#       four workloads untraced and then traced at the default seed, prints
#       every metric as `name value unit n=<samples>`; exit code 0 only if
#       every answer and rewriting size was correct.
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of standard output is the result as JSON
#       (this is the `command` of BENCHMARK.json).
#
# Run it from the repository root. It builds into bench/target unless
# CARGO_TARGET_DIR says otherwise, and writes only below bench/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Always release: e2e itself refuses to measure a debug build.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
e2e="$target/release/e2e"

if [ "$#" -gt 0 ]; then
    exec "$e2e" "$@" --out-dir "$here/out"
fi

echo "host nproc=$(nproc) rustc=\"$(rustc -V)\" commit=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
status=0
"$e2e" --verify || status=1
for trace in 0 1; do
    for workload in suite_cold lubm_join lubm_serve lubm_rw; do
        echo "== $workload trace=$trace"
        "$e2e" --workload "$workload" --trace "$trace" --out-dir "$here/out" || status=1
    done
done
exit "$status"
