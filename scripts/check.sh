#!/usr/bin/env bash
# Full pre-merge gate: build, tests, formatting, lints.
# `cargo fmt` is skipped with a warning where it is not installed; `cargo
# clippy` is required, because it enforces the determinism contract.
#
# The conformance smoke tier (crates/conformance/tests/smoke.rs) runs as
# part of `cargo test --workspace`. Pass --soak to additionally run the
# release soak binary: the same three oracles (differential, invariant,
# calibration) at fuzzing volume, printing shrunk replayable artifacts for
# any failure. Pass --contracts to run the release contract-conformance
# runner (gola-contracts): the ERROR/WITHIN contract oracle over ≥200 seeds
# per class, the planted absolute-stopping bug, generated contract queries,
# and the uniform-vs-stratified rare-group convergence check (≤60s).
# Pass --service to run the multi-tenant service gates: the scheduler
# simulator property tests in release and the gola-service conformance leg
# (generated queries interleaved through the fair scheduler on a shared
# pool, bit-compared against solo runs).
# Pass --ingest to run the streaming-ingest gates: the gola-ingest
# conformance leg (generated queries over streams growing under the query,
# four variants per case bit-compared, durable manifests replayed) plus a
# CLI smoke — `gola ingest` writes a durable segment directory and two
# console replays of it must agree byte for byte.
# Pass --metrics to smoke-test the observability exports: one
# Conviva query through the CLI with --metrics-out, the JSON snapshot
# validated against scripts/metrics_schema.json and the Prometheus text
# grepped for the expected families.
set -uo pipefail
cd "$(dirname "$0")/.."

soak=0
contracts=0
service=0
ingest=0
metrics=0
bench_smoke_flag=0
for arg in "$@"; do
    case "$arg" in
        --soak) soak=1 ;;
        --contracts) contracts=1 ;;
        --service) service=1 ;;
        --ingest) ingest=1 ;;
        --metrics) metrics=1 ;;
        --bench-smoke) bench_smoke_flag=1 ;;
        *)
            echo "usage: $0 [--soak] [--contracts] [--service] [--ingest] [--metrics] [--bench-smoke]" >&2
            exit 2
            ;;
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

step cargo build --release --workspace
step cargo test --workspace -q

if cargo fmt --version >/dev/null 2>&1; then
    step cargo fmt --check
else
    echo "==> cargo fmt not installed — skipping"
fi

# Clippy carries the determinism contract (DESIGN.md §3.6: crate-root
# denies, clippy.toml's disallowed-methods, reasoned `#[expect]`s), so it is
# not optional: a toolchain without clippy fails the gate.
step cargo clippy --workspace --all-targets -- -D warnings

if [ "$soak" -eq 1 ]; then
    step cargo run --release -q -p gola-conformance --bin gola-soak
fi

if [ "$contracts" -eq 1 ]; then
    step cargo run --release -q -p gola-conformance --bin gola-contracts
fi

# Multi-tenant service gates: (1) the deterministic scheduler simulator
# property tests (fairness, no-starvation, admission, trace determinism)
# in release; (2) the conformance service leg — generated queries
# interleaved through the fair scheduler on a shared worker pool, every
# stream bit-compared against its solo single-threaded run. Socket latency
# is the benchmark's `svc_mix_2c` workload; the 503 at `max_connections`
# is pinned by tests/http_surface.rs.
if [ "$service" -eq 1 ]; then
    step cargo test --release -q -p gola-core --test sched_sim
    step cargo run --release -q -p gola-conformance --bin gola-service
fi

# Streaming-ingest gates: (1) the gola-ingest conformance leg — generated
# queries over streams that grow under the query via seed-derived append
# schedules, with same-seed rerun / threads=N / durable-segment variants
# bit-compared and every manifest replayed; (2) a CLI smoke: `gola ingest`
# seals a workload into write-once segments, then two `--append` console
# runs replay the directory and their drained final answers must match
# byte for byte (streamed report lines carry wall-clock timings, so the
# final answer is the deterministic surface).
ingest_cli_smoke() {
    local tmp
    tmp="$(mktemp -d)" || return 1
    cargo run --release -q -p gola-cli --bin gola -- ingest \
        --dir "$tmp/stream" --workload conviva --rows 2400 --seal-rows 800 \
        --seed 11 || { rm -rf "$tmp"; return 1; }
    [ -s "$tmp/stream/MANIFEST" ] \
        || { echo "    ingest wrote no MANIFEST" >&2; rm -rf "$tmp"; return 1; }
    local sql run
    sql='SELECT device, AVG(play_time) AS a0, SUM(buffer_time) AS a1 FROM replayed GROUP BY device ORDER BY device;'
    for run in 1 2; do
        printf '%s\n\\q\n' "$sql" \
            | cargo run --release -q -p gola-cli --bin gola -- \
                --threads 2 --append "replayed=$tmp/stream" \
            | sed -n '/^final answer/,$p' >"$tmp/answer$run" \
            || { rm -rf "$tmp"; return 1; }
        [ -s "$tmp/answer$run" ] || {
            echo "    replay run $run produced no final answer" >&2
            rm -rf "$tmp"
            return 1
        }
    done
    diff -u "$tmp/answer1" "$tmp/answer2" || {
        echo "    replayed final answers differ between runs" >&2
        rm -rf "$tmp"
        return 1
    }
    rm -rf "$tmp"
}
if [ "$ingest" -eq 1 ]; then
    step cargo run --release -q -p gola-conformance --bin gola-ingest -- --quick
    step ingest_cli_smoke
fi

# Observability smoke: drive one online query through the console with the
# registry enabled (--threads 2 so the worker pool registers its metrics),
# then validate both export formats.
metrics_smoke() {
    local tmp out
    tmp="$(mktemp -d)" || return 1
    out="$tmp/metrics.json"
    # The nested query keeps an uncertain candidate set alive, which is what
    # drives the chunked classify through the worker pool (a certain-filter
    # query folds every tuple at ingest and never submits pool jobs).
    printf '%s\n' \
        "SELECT AVG(play_time) FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions);" \
        '\q' \
        | cargo run --release -q -p gola-cli --bin gola -- \
            --threads 2 --metrics-out "$out" >/dev/null || return 1
    [ -s "$out" ] || { echo "    no JSON snapshot at $out" >&2; return 1; }
    [ -s "$out.prom" ] || { echo "    no Prometheus text at $out.prom" >&2; return 1; }
    cargo run --release -q -p gola-obs --bin validate-metrics -- \
        "$out" scripts/metrics_schema.json || return 1
    local fam
    for fam in gola_report_batches_total gola_pool_jobs_total \
               gola_span_classify_total gola_report_ci_width; do
        grep -q "^$fam" "$out.prom" \
            || { echo "    $fam missing from $out.prom" >&2; return 1; }
    done
    rm -rf "$tmp"
}
if [ "$metrics" -eq 1 ]; then
    step metrics_smoke
fi

# Bench smoke: the benchmark spine on its 2k-row shapes — every workload
# and code path once; it exits non-zero on a failed operation or a lost
# bit-identity check.
if [ "$bench_smoke_flag" -eq 1 ]; then
    step benchmarks/run.sh --quick
fi

if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all checks passed"
