#!/usr/bin/env bash
# Full pre-merge gate: release build, workspace tests (the conformance
# oracles, the contract checks and the scheduler simulator included), a
# deeper run of the replica-state oracle, repeated runs of the service's
# and the prefetch's concurrency tests, formatting, lints, rustdoc
# links, the bit-pinning suites built for baseline x86-64, a check of the
# benchmark crate, a run of every example program, a CLI ingest/replay
# smoke, and one pair of the paired ruler (scripts/bench_pair.sh).
# `cargo fmt` is skipped
# with a warning where it is not installed; `cargo clippy` is required,
# because it enforces the determinism contract (DESIGN.md §3.6).
#
#   --metrics      also smoke-test the observability exports: one Conviva
#                  query through the CLI with --metrics-out, the JSON
#                  snapshot validated against scripts/metrics_schema.json
#                  and the Prometheus text grepped for expected families
#   --bench-smoke  also run benchmarks/run.sh --quick: every benchmark
#                  workload once at 2k rows, bit-identity checked
set -uo pipefail
cd "$(dirname "$0")/.."

metrics=0
bench_smoke=0
for arg in "$@"; do
    case "$arg" in
        --metrics) metrics=1 ;;
        --bench-smoke) bench_smoke=1 ;;
        *) echo "usage: $0 [--metrics] [--bench-smoke]" >&2; exit 2 ;;
    esac
done

failures=0
step() {
    echo "==> $*"
    if "$@"; then
        echo "    ok"
    else
        echo "    FAILED: $*"
        failures=$((failures + 1))
    fi
}

gola() { cargo run --release -q -p gola-cli --bin gola -- "$@"; }

# The service's runners pick and charge sessions concurrently, and its
# sessions fill one weight store, so one green run of their tests shows
# little about ordering races: run the bit-identity, end-exactly-once,
# park-and-wake and store-race tests 20 times in release.
sched_race_loop() {
    local i
    for i in $(seq 20); do
        cargo test --release -q --test sched_equivalence --test sched_cancel \
            --test sched_park >/dev/null \
            && cargo test --release -q -p gola-core --lib weight_store_racing >/dev/null \
            || { echo "    run $i failed" >&2; return 1; }
    done
}

# On two or more threads a step's next batch is gathered and weighed on the
# pool while the step runs, and a shuffled pool reorders every parallel
# stage: run the bit-identity and weights-once tests 20 times in release.
prefetch_race_loop() {
    local i
    for i in $(seq 20); do
        cargo test --release -q --test parallel_equivalence --test schedule_perturbation \
            --test weights_once >/dev/null \
            || { echo "    run $i failed" >&2; return 1; }
    done
}

# `gola ingest` seals a workload into write-once segments, then two
# `--append` console runs replay the directory; their drained final answers
# must match byte for byte (streamed report lines carry wall-clock timings,
# so the final answer is the deterministic surface).
ingest_cli_smoke() {
    local tmp run ok=0
    tmp="$(mktemp -d)" || return 1
    local sql='SELECT device, AVG(play_time) AS a0, SUM(buffer_time) AS a1 FROM replayed GROUP BY device ORDER BY device;'
    gola ingest --dir "$tmp/stream" --workload conviva --rows 2400 --seal-rows 800 --seed 11 \
        && [ -s "$tmp/stream/MANIFEST" ] || ok=1
    for run in 1 2; do
        [ "$ok" -eq 0 ] || break
        printf '%s\n\\q\n' "$sql" | gola --threads 2 --append "replayed=$tmp/stream" \
            | sed -n '/^final answer/,$p' >"$tmp/answer$run" || ok=1
        [ -s "$tmp/answer$run" ] || { echo "    replay $run: no final answer" >&2; ok=1; }
    done
    [ "$ok" -eq 0 ] && diff -u "$tmp/answer1" "$tmp/answer2" || ok=1
    rm -rf "$tmp"
    return "$ok"
}

# Every example program in examples/ runs in release and exits 0: `cargo
# test` only compiles them. `ad_optimization` is the one end-to-end
# dimension-join program, and `udaf_and_udf` builds an executor by hand.
examples_smoke() {
    local ex
    for ex in examples/*.rs; do
        ex="$(basename "$ex" .rs)"
        cargo run --release -q -p g-ola --example "$ex" >/dev/null \
            || { echo "    example $ex failed" >&2; return 1; }
    done
}

# `.cargo/config.toml` builds for the host ISA and claims that moves no
# bit. Build the suites that pin report, plan and scheduler bits for
# baseline x86-64, in their own target directory, and run them: a kernel
# whose numbers depend on the build's CPU features fails here.
portable_bits() {
    RUSTFLAGS="-C target-cpu=x86-64" cargo test --release -q --target-dir target/x86-64 \
        -p gola-server -p gola-sql -p gola-core -p gola-conformance \
        --test report_golden --test plan_golden --test sched_trace --test cdm \
        --test smoke >/dev/null
}

# The frozen benchmark crate under benchmarks/ builds against this tree's
# public API: check it on every run, so an API change breaks here rather
# than at benchmark time. Cargo rewrites that crate's stale lock file as it
# resolves; the tracked one is put back.
spine_check() {
    local lock ok=0
    lock="$(mktemp)" || return 1
    cp benchmarks/Cargo.lock "$lock"
    cargo check --offline -q --manifest-path benchmarks/Cargo.toml || ok=1
    cp "$lock" benchmarks/Cargo.lock
    rm -f "$lock"
    return "$ok"
}

# The paired ruler end to end: HEAD against itself, one quick pair of one
# workload, its row checked against the ledger schema
# (tests/bench_trajectory.rs reads the file BENCH_LEDGER names).
bench_pair_smoke() {
    local tmp ok=0
    tmp="$(mktemp -d)" || return 1
    scripts/bench_pair.sh HEAD HEAD --workloads c2_fold_t1 --pairs 1 --seconds 1 --quick \
        --out "$tmp/row.json" >/dev/null 2>"$tmp/log" || { tail -5 "$tmp/log" >&2; ok=1; }
    if [ "$ok" -eq 0 ]; then
        { printf '{"rows": ['; cat "$tmp/row.json"; printf ']}\n'; } >"$tmp/ledger.json"
        BENCH_LEDGER="$tmp/ledger.json" cargo test -q --test bench_trajectory >/dev/null || ok=1
    fi
    rm -rf "$tmp"
    return "$ok"
}

# One online query through the console with the registry enabled
# (--threads 2 so the worker pool registers its metrics: the first batch's
# weight fill runs on it, and every later batch is prefetched on it).
metrics_smoke() {
    local tmp out fam
    tmp="$(mktemp -d)" || return 1
    out="$tmp/metrics.json"
    printf '%s\n' \
        "SELECT AVG(play_time) FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions);" \
        '\q' | gola --threads 2 --metrics-out "$out" >/dev/null || return 1
    [ -s "$out" ] && [ -s "$out.prom" ] || { echo "    no snapshot at $out{,.prom}" >&2; return 1; }
    cargo run --release -q -p gola-obs --bin validate-metrics -- \
        "$out" scripts/metrics_schema.json || return 1
    for fam in gola_report_batches_total gola_pool_jobs_total \
               gola_span_classify_total gola_report_ci_width; do
        grep -q "^$fam" "$out.prom" || { echo "    $fam missing from $out.prom" >&2; return 1; }
    done
    rm -rf "$tmp"
}

step cargo build --release --workspace
step cargo test --workspace -q
# The replicated states against their plain per-replica oracle at 2000
# cases in release (seconds), far past the 96 of the workspace run: the
# dense sums' spill paths on hostile values.
step env PROPTEST_CASES=2000 cargo test --release -q -p gola-agg --test proptests run_fold_equivalence
step sched_race_loop
step prefetch_race_loop
if cargo fmt --version >/dev/null 2>&1; then
    step cargo fmt --check
else
    echo "==> cargo fmt not installed — skipping"
fi
step cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc warnings fail the gate, so a renamed public item cannot leave a
# dead intra-doc link behind.
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
step portable_bits
step spine_check
step examples_smoke
step ingest_cli_smoke
step bench_pair_smoke
[ "$metrics" -eq 1 ] && step metrics_smoke
[ "$bench_smoke" -eq 1 ] && step benchmarks/run.sh --quick

if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all checks passed"
