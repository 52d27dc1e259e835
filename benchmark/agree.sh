#!/usr/bin/env bash
# Does the benchmark agree with itself? Two sets of full runs of the *same* build,
# interleaved A B A B ..., on the same seeds; then each end-to-end metric's spread within
# a set and the relative difference of the two sets' medians, beside the metric's bound.
# Exit status is nonzero if any difference (or spread) is outside its bound.
#
#   benchmark/agree.sh [RUNS_PER_SET=5] [SECONDS=15]
#
# A full run takes about a hundred seconds, so the default takes about seventeen minutes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

runs="${1:-5}"
seconds="${2:-15}"
if [ "$runs" -lt 5 ]; then
    echo "agree.sh: a set needs at least 5 runs for its quartiles to mean anything" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
out=benchmark/out/agree
rm -rf "$out"
mkdir -p "$out/A" "$out/B"

for i in $(seq 1 "$runs"); do
    for set in A B; do
        echo "agree.sh: set $set, run $i of $runs" >&2
        benchmark/run.sh --seed $((10 + i)) --seconds "$seconds" --save "$out/$set" \
            > "$out/$set/run.$i.log"
    done
done

"$CARGO_TARGET_DIR/release/rws-benchmark" --compare "$out/A" "$out/B"
