#!/usr/bin/env bash
# The paired ruler: alternating parent/change runs of the benchmark spine,
# summarised as one BENCH_trajectory.json row per seed.
#
#   scripts/bench_pair.sh PARENT CHANGE --workloads W[,W…] [--pairs N]
#       [--seeds S[,S…]] [--seconds SEC] [--quick] [--claim "metric on W"]
#       [--out FILE]
#
# PARENT and CHANGE are git revisions of this repository (a commit, a branch,
# or the commit `git stash create` makes of a dirty tree). Each is checked
# out with `git worktree` into a directory of equal path length under a
# temporary directory and its spine is built there (offline); both
# worktrees are removed on exit. Then, per seed, per workload and per pair,
# the BENCHMARK.json command runs once on each side (`--trace 0`), the
# side that runs first alternating from pair to pair. Every run must report
# `correct`; the failed-operation counts of both sides are kept in the row.
#
# Per metric the row holds each side's median and quartiles (inclusive
# method), how many pairs the change won, the change/parent median ratio
# and a verdict: "gain" when the change won at least 9 of every 10 pairs
# and its median beats the parent's by more than the parent's
# inter-quartile range, "loss" for the same the other way, "unresolved"
# otherwise. Rows go to stdout (one JSON object per line) and, with --out,
# to FILE. The row's `commit` is CHANGE's hash; set it to null before
# appending a row to the ledger in the commit it measures.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$(pwd)"

usage() {
    sed -n '4,8p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent_rev="$1"
change_rev="$2"
shift 2
workloads=""
pairs=10
seeds="7"
seconds=10
quick=""
claim=""
out=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || [ "$1" = "--quick" ] || usage
    case "$1" in
        --workloads) workloads="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --claim) claim="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --quick) quick="--quick"; shift ;;
        *) usage ;;
    esac
done
[ -n "$workloads" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "bench_pair: --pairs must be a positive count" >&2; exit 2; }
command -v jq >/dev/null || { echo "bench_pair: jq is required" >&2; exit 2; }

parent="$(git rev-parse --verify "$parent_rev^{commit}")"
change="$(git rev-parse --verify "$change_rev^{commit}")"
subject="$(git log -1 --format=%s "$change")"
metrics=$(jq -r '.end_to_end[] | "\(.name):\(.better)"' BENCHMARK.json)
# The BENCHMARK.json command, one word per line.
mapfile -t bench_cmd < <(jq -r '.command[]' BENCHMARK.json)
for w in ${workloads//,/ }; do
    jq -e --arg w "$w" '.workloads | any(.name == $w)' BENCHMARK.json >/dev/null \
        || { echo "bench_pair: $w is not a BENCHMARK.json workload" >&2; exit 2; }
done

root="$(mktemp -d)"
cleanup() {
    local side
    for side in p c; do
        [ -d "$root/$side" ] && git -C "$repo" worktree remove --force "$root/$side" >/dev/null 2>&1
    done
    git -C "$repo" worktree prune
    rm -rf "$root"
}
trap cleanup EXIT

# Check out and build each side: `$root/p` and `$root/c` have equal
# lengths. Building the spine rewrites its lock file; the tracked one is
# put back, as scripts/check.sh's spine_check does.
for side in p c; do
    rev=$parent
    [ "$side" = c ] && rev=$change
    git worktree add --detach --quiet "$root/$side" "$rev"
    (
        cd "$root/$side"
        cp benchmarks/Cargo.lock "$root/$side.lock"
        cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml --bin spine
        cp "$root/$side.lock" benchmarks/Cargo.lock
    ) >&2
done

# One run on `side`: its JSON result line, with failures checked.
run() {
    local side=$1 w=$2 seed=$3 line
    line=$(cd "$root/$side" && "${bench_cmd[@]}" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 $quick | tail -n 1)
    if ! jq -e '.correct == true' <<<"$line" >/dev/null 2>&1; then
        echo "bench_pair: $w seed $seed on $side is not correct: $line" >&2
        exit 1
    fi
    echo "$line"
}

# Median and inclusive quartiles of the numbers on stdin, as a JSON object.
summary() {
    sort -g | awk '
        { x[n++] = $1 }
        function q(p,   pos, lo) {
            pos = (n - 1) * p; lo = int(pos)
            return lo + 1 < n ? x[lo] + (x[lo + 1] - x[lo]) * (pos - lo) : x[lo]
        }
        END { printf "{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", q(0.5), q(0.25), q(0.75) }'
}

host="$(nproc)-CPU host, $(uname -m), $(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2 | sed 's/^ //')"
for seed in ${seeds//,/ }; do
    row_workloads="{}"
    for w in ${workloads//,/ }; do
        results="$root/$w.$seed"
        : >"$results"
        for i in $(seq "$pairs"); do
            if [ $((i % 2)) -eq 1 ]; then order="p c"; else order="c p"; fi
            for side in $order; do
                echo "$side $(run "$side" "$w" "$seed")" >>"$results"
            done
            echo "bench_pair: $w seed $seed pair $i/$pairs done" >&2
        done
        entry=$(jq -n --argjson pairs "$pairs" '{pairs: $pairs, metrics: {}}')
        for m in $metrics; do
            name=${m%%:*}
            better=${m##*:}
            values() { awk -v s="$1" '$1 == s { $1 = ""; print }' "$results" \
                | jq -r --arg m "$name" '.metrics[$m].value // empty'; }
            pv=$(values p)
            cv=$(values c)
            [ -n "$pv" ] && [ -n "$cv" ] || continue
            won=$(paste <(echo "$pv") <(echo "$cv") | awk -v b="$better" \
                '{ if ((b == "lower" && $2 < $1) || (b == "higher" && $2 > $1)) n++ } END { print n + 0 }')
            entry=$(jq --arg m "$name" --arg better "$better" --argjson won "$won" \
                --argjson ps "$(echo "$pv" | summary)" --argjson cs "$(echo "$cv" | summary)" '
                (.pairs) as $n
                | (if $better == "lower" then $ps.median - $cs.median else $cs.median - $ps.median end) as $gain
                | ($ps.q3 - $ps.q1) as $iqr
                | .metrics[$m] = {
                    parent: $ps, change: $cs, won: $won,
                    ratio: (if $ps.median == 0 then null else ($cs.median / $ps.median * 1000 | round / 1000) end),
                    verdict: (if $won * 10 >= $n * 9 and $gain > $iqr then "gain"
                              elif ($n - $won) * 10 >= $n * 9 and -$gain > $iqr then "loss"
                              else "unresolved" end)
                  }' <<<"$entry")
        done
        failed=$(jq -n --argjson p "$(awk '$1 == "p" { $1 = ""; print }' "$results" | jq -s 'map(.failed) | add')" \
            --argjson c "$(awk '$1 == "c" { $1 = ""; print }' "$results" | jq -s 'map(.failed) | add')" \
            '{parent: $p, change: $c}')
        entry=$(jq --argjson f "$failed" '.failed_operations = $f' <<<"$entry")
        row_workloads=$(jq --arg w "$w" --argjson e "$entry" '.[$w] = $e' <<<"$row_workloads")
    done
    row=$(jq -nc --arg commit "${change:0:7}" --arg parent "${parent:0:7}" --arg change "$subject" \
        --argjson seed "$seed" --arg host "$host" --arg claim "$claim" \
        --arg command "spine --workload W --seed $seed --seconds $seconds --trace 0${quick:+ --quick}, $pairs alternating parent/change pairs (scripts/bench_pair.sh)" \
        --argjson workloads "$row_workloads" '
        {commit: $commit, parent: $parent, change: $change, seeds: [$seed], host: $host,
         command: $command, workloads: $workloads}
        + (if $claim == "" then {} else {claim: $claim} end)')
    echo "$row"
    [ -z "$out" ] || echo "$row" >>"$out"
done
