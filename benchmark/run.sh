#!/usr/bin/env bash
# The repository benchmark: one command that builds the harness (and the shard worker),
# runs workloads each in its own process, checks every output and prints every metric by
# name with its unit. BENCHMARK.json (repository root) names the metrics and the five
# workloads offered to the driver; sharded-cold is run and printed here all the same.
#
#   benchmark/run.sh                         all six workloads, tracing off (end-to-end metrics)
#   benchmark/run.sh --trace                 all six, traced (per-layer sheet; spans in benchmark/out/)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one workload; the last line of stdout is its result
#                                            as one JSON object (the form the driver calls)
#
# Options: --seed N (default 11), --seconds S (default 15), --save DIR (also write each
# workload's output to DIR/<workload>.<seed>.json, the files `--compare` and agree.sh read).
# Exit status is nonzero if the build fails, an output is wrong, or an operation failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

workload="" seed=11 seconds=15 trace=0 save=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --save) save="$2"; shift 2 ;;
        --trace)
            # `--trace` alone means `--trace 1`.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        -h|--help) sed -n '2,15p' "${BASH_SOURCE[0]}"; exit 0 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

# Everything a build leaves behind stays under benchmark/ unless the caller says otherwise.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# The harness is a package of its own; the shard worker is a binary of the main workspace,
# and only sharded-cold (which BENCHMARK.json does not list) needs it.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
if [ -z "$workload" ] || [ "$workload" = sharded-cold ]; then
    cargo build --release --offline -p rws-shard >&2
fi
bin="$CARGO_TARGET_DIR/release/rws-benchmark"
worker="$CARGO_TARGET_DIR/release/shard-worker"

RWS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
RWS_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export RWS_BENCH_RUSTC RWS_BENCH_COMMIT

run_one() {
    local args=(--workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace"
                --worker "$worker" --out benchmark/out)
    if [ -n "$save" ]; then
        mkdir -p "$save"
        "$bin" "${args[@]}" | tee "$save/$1.$seed.json"
    else
        "$bin" "${args[@]}"
    fi
}

if [ -n "$workload" ]; then
    run_one "$workload"
    exit
fi

status=0
for w in $("$bin" --list); do
    run_one "$w" || status=1
done
if [ "$status" -ne 0 ]; then
    echo "run.sh: at least one workload reported failed operations" >&2
fi
exit "$status"
