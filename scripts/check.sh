#!/usr/bin/env bash
# Full pre-merge gate: build, tests, formatting, lints.
# Components that are not installed (fmt/clippy on minimal toolchains) are
# skipped with a warning rather than failing the gate.
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

if cargo clippy --version >/dev/null 2>&1; then
    step cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed — skipping"
fi

# Determinism & soundness audit (crates/xlint). Deny-by-default: any
# unannotated finding from the eight rules (hash-order, wall-clock, unsafe,
# float-fold, panic, float-total-order, lossy-cast, merge-commutativity)
# fails the gate, and the audit is self-hosting — crates/xlint is itself in
# the panic/lossy-cast scopes. See README.md for the allow-comment
# convention.
step cargo run --release -q -p xlint --bin golint -- --root .

# Contract checks on the machine-readable report: the --json document must
# validate against scripts/golint_schema.json (schema_version 2, count
# consistent with the diagnostics array), and the full AST pass over the
# workspace must finish inside a 10-second wall budget (the lint runs on
# every gate; a quadratic parser blowup should fail loudly, not be endured).
golint_contract() {
    local out t0 t1
    out="$(mktemp)" || return 1
    t0="$(date +%s%N)"
    cargo run --release -q -p xlint --bin golint -- \
        --json --unsafe-inventory --root . >"$out" || {
        cat "$out" >&2
        rm -f "$out"
        return 1
    }
    t1="$(date +%s%N)"
    python3 - "$out" scripts/golint_schema.json "$t0" "$t1" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
schema = json.load(open(sys.argv[2]))
elapsed = (int(sys.argv[4]) - int(sys.argv[3])) / 1e9
failed = False


def err(msg):
    global failed
    print(f"    golint --json: {msg}", file=sys.stderr)
    failed = True


try:
    import jsonschema
except ImportError:
    jsonschema = None

if jsonschema is not None:
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as e:
        err(f"schema violation: {e.message}")
else:
    # Structural fallback mirroring scripts/golint_schema.json, so the
    # gate holds even without the jsonschema package.
    props = schema["properties"]
    if set(doc) - set(props):
        err(f"unknown top-level keys {sorted(set(doc) - set(props))}")
    for key in schema["required"]:
        if key not in doc:
            err(f"missing required key `{key}`")
    if doc.get("schema_version") != props["schema_version"]["const"]:
        err(f"schema_version is {doc.get('schema_version')!r}, want "
            f"{props['schema_version']['const']}")
    rules = set(props["diagnostics"]["items"]["properties"]["rule"]["enum"])
    for d in doc.get("diagnostics", []):
        if set(d) != {"file", "line", "rule", "message"}:
            err(f"diagnostic keys {sorted(d)} do not match the schema")
        elif not (isinstance(d["line"], int) and d["line"] >= 1
                  and d["rule"] in rules and d["file"] and d["message"]):
            err(f"malformed diagnostic {d}")
    kinds = set(
        props["unsafe_inventory"]["items"]["properties"]["kind"]["enum"])
    for s in doc.get("unsafe_inventory", []):
        if set(s) != {"file", "line", "kind", "has_safety_comment"}:
            err(f"unsafe site keys {sorted(s)} do not match the schema")
        elif not (isinstance(s["line"], int) and s["line"] >= 1
                  and s["kind"] in kinds
                  and isinstance(s["has_safety_comment"], bool)):
            err(f"malformed unsafe site {s}")

if doc.get("count") != len(doc.get("diagnostics", [])):
    err(f"count={doc.get('count')} but {len(doc.get('diagnostics', []))} "
        "diagnostics listed")
if "unsafe_inventory" not in doc:
    err("--unsafe-inventory run is missing the unsafe_inventory array")

budget = 10.0
verdict = "ok" if elapsed <= budget else "OVER BUDGET"
print(f"    golint AST pass: {elapsed:.2f}s (budget {budget:.0f}s) {verdict}")
if elapsed > budget:
    failed = True
sys.exit(1 if failed else 0)
PY
    local rc=$?
    rm -f "$out"
    return $rc
}
step golint_contract

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
