//! Conformance smoke tier — the `cargo test` face of the harness.
//!
//! Small enough to run in tier-1, large enough to mean something:
//!
//! * ≥ 100 distinct generated queries per schema through the differential
//!   and invariant oracles at threads {1, 4}
//! * CI calibration of every default class over 200 seeded datasets,
//!   checked against the exact binomial acceptance band
//! * the `ERROR p%` contract oracle (promise + coverage) over 200 seeds
//!   per class, a `WITHIN` query end to end, and stratified mini-batches
//!   reaching an error target in fewer batches than uniform ones
//! * three planted bugs demonstrably caught: the off-by-one bootstrap
//!   weight (calibration oracle), an online result skew (differential
//!   oracle) and an absolute stopping rule (contract promise)
//! * generated queries interleaved through one fair scheduler stream
//!   bit-identically to their solo runs
//! * byte-mutated generator SQL never panics the SQL front end
//!
//! A failure prints the seed and SQL that replay it.

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::task::{Poll, Waker};

use gola_common::rng::SplitMix64;
use gola_conformance::gen::{Filter, GroupBy};
use gola_conformance::{
    assert_reports_identical, calibrate, check_contract, default_classes, default_contract_classes,
    run_case, CalibConfig, ContractConfig, Fault, OracleConfig, QueryGen, SchemaClass,
};
use gola_core::sched::{Admitted, Quantum, SchedTask, Scheduler, Urgency};
use gola_core::{
    BatchReport, ContractStop, OnlineConfig, OnlineExecution, OnlineSession, WeightStore,
    WorkerPool,
};
use gola_storage::{Catalog, ColumnChunk, Table};
use gola_workloads::ConvivaGenerator;

const ROWS: usize = 360;
const DATA_SEED: u64 = 0x5EED_DA7A;
const QUERIES_PER_SCHEMA: usize = 100;

/// Generated queries per schema: [`QUERIES_PER_SCHEMA`], or more where
/// `CONFORMANCE_QUERIES` says so (`scripts/check.sh` runs a deeper corpus
/// in release).
fn queries_per_schema() -> usize {
    let deeper = std::env::var("CONFORMANCE_QUERIES").ok();
    deeper
        .and_then(|n| n.parse().ok())
        .unwrap_or(QUERIES_PER_SCHEMA)
}

fn oracle_cfg() -> OracleConfig {
    OracleConfig {
        num_batches: 5,
        trials: 24,
        threads: 4,
        ..OracleConfig::default()
    }
}

fn catalog_of(class: SchemaClass, data: &Arc<Table>) -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .register(class.table_name(), Arc::clone(data))
        .expect("register table");
    catalog
}

/// Differential, invariant and replay oracles over a generated corpus:
/// ≥ 100 distinct queries per schema, each run at threads 1, 1 (rerun),
/// and 4, and at a tight slack against classical delta maintenance.
#[test]
fn generated_corpus_passes_differential_and_invariant_oracles() {
    let cfg = oracle_cfg();
    let queries = queries_per_schema();
    for class in [SchemaClass::Conviva, SchemaClass::Tpch] {
        let data = Arc::new(class.generate(ROWS, DATA_SEED));
        let mut gen = QueryGen::new(class, &data, 0xC0FFEE ^ class.table_name().len() as u64);
        let mut seen = BTreeSet::new();
        let mut grouped = 0usize;
        let mut subquery = 0usize;
        let mut with_uncertainty = 0usize;
        let mut recovered = 0usize;
        let mut failures = Vec::new();
        while seen.len() < queries {
            let q = gen.next_query();
            let sql = q.sql(class.table_name());
            if !seen.insert(sql.clone()) {
                continue;
            }
            grouped += usize::from(q.group_by.is_some());
            subquery += usize::from(q.filters.iter().any(|f| {
                matches!(
                    f,
                    Filter::ScalarSub { .. } | Filter::CorrSub { .. } | Filter::Membership { .. }
                )
            }));
            match run_case(class, &data, &sql, q.key_cols(), &cfg, Fault::None) {
                Ok(stats) => {
                    with_uncertainty += usize::from(stats.uncertain_peak > 0);
                    recovered += usize::from(stats.replay_recomputations > 0);
                }
                Err(f) => failures.push(format!("{sql}\n    -> {f}")),
            }
        }
        assert!(
            failures.is_empty(),
            "{} oracle failure(s) on {class}:\n{}",
            failures.len(),
            failures.join("\n")
        );
        // The corpus must actually exercise the hard paths, or a green run
        // proves nothing.
        assert!(grouped >= 20, "{class}: only {grouped} grouped queries");
        assert!(subquery >= 5, "{class}: only {subquery} subquery queries");
        assert!(
            with_uncertainty >= 1,
            "{class}: no query ever produced an uncertain set"
        );
        assert!(recovered >= 1, "{class}: the replay leg never recovered");
    }
}

/// Calibration oracle, clean: every default class's empirical 95% CI
/// coverage over 200 seeded datasets lands inside the binomial band.
#[test]
fn calibration_coverage_within_binomial_band() {
    let cfg = CalibConfig::default();
    assert!(cfg.seeds >= 200, "ISSUE floor: ≥ 200 seeds per class");
    for class in default_classes() {
        let report = calibrate(&class, &cfg, Fault::None);
        assert!(report.pass, "calibration failed clean: {report}");
    }
}

/// Contract oracle, clean: every default `ERROR p% CONFIDENCE c%` class
/// over 200 seeded datasets keeps its promise (zero runs that claim the
/// target was met while the achieved relative error exceeds it) and stays
/// within-contract often enough (binomial band at the contract confidence;
/// exhausted runs are exact and count as hits). The suite must actually
/// stop early somewhere, or the oracle would be vacuous.
#[test]
fn contract_oracle_clean_within_band() {
    let cfg = ContractConfig::default();
    assert!(cfg.seeds >= 200, "ISSUE floor: ≥ 200 seeds per class");
    let mut stopped_early = 0;
    for class in default_contract_classes() {
        let report = check_contract(&class, &cfg, Fault::None);
        assert!(report.pass, "contract oracle failed clean: {report}");
        assert_eq!(report.violations, 0, "{report}");
        stopped_early += report.stopped_early;
    }
    assert!(
        stopped_early > 100,
        "suite never exercises early stopping ({stopped_early} early stops)"
    );
}

/// Planted bug #3: the absolute-instead-of-relative stopping rule
/// (`ERROR 5%` read as "half-width ≤ 0.05" instead of "≤ 5% of the
/// value"). The differential oracle cannot see it — only *when* the run
/// stops changes, not the answer — but on the `rate` class (a ≈0.04
/// failure rate) an absolute 0.05 is satisfied almost immediately while
/// the relative error is still ~10×, so the promise check trips
/// deterministically. The honest rule on the same class stays clean: the
/// fault is the rule, not the class.
#[test]
fn injected_absolute_stopping_rule_is_caught() {
    let cfg = ContractConfig::default();
    let rate = default_contract_classes()
        .into_iter()
        .find(|c| c.kind == "rate")
        .expect("rate class present");

    let report = check_contract(&rate, &cfg, Fault::AbsoluteStop);
    assert!(!report.pass, "AbsoluteStop must be caught: {report}");
    assert!(
        report.violations > 0,
        "the promise leg, not just coverage, must trip: {report}"
    );
    let clean = check_contract(&rate, &cfg, Fault::None);
    assert_eq!(clean.violations, 0, "honest rule violated promise: {clean}");
}

/// Planted bug #1: the off-by-one bootstrap weight. Point estimates are
/// untouched, so only the calibration oracle can see it — coverage
/// collapses for SUM/COUNT-like classes (every replica roughly doubles)
/// while AVG, a ratio whose skew cancels, degrades less.
#[test]
fn injected_weight_bias_is_caught() {
    let cfg = CalibConfig::default();
    let caught: Vec<&str> = default_classes()
        .iter()
        .filter(|class| !calibrate(class, &cfg, Fault::WeightBias).pass)
        .map(|class| class.kind)
        .collect();
    assert!(
        caught.contains(&"count") && caught.contains(&"sum"),
        "weight bias must collapse count/sum coverage; caught only {caught:?}"
    );
}

/// Planted bug #2: a multiplicative skew on the online executor's final
/// float cells. The differential oracle catches it: the final batch no
/// longer bit-matches the exact engine.
#[test]
fn injected_online_skew_is_caught() {
    let class = SchemaClass::Conviva;
    let data = Arc::new(class.generate(ROWS, DATA_SEED));
    let mut gen = QueryGen::new(class, &data, 0xBAD_5EED);
    let failure = std::iter::from_fn(|| Some(gen.next_query()))
        .take(50)
        .find_map(|q| {
            let sql = q.sql(class.table_name());
            let skew = Fault::SkewOnline(1.001);
            run_case(class, &data, &sql, q.key_cols(), &oracle_cfg(), skew).err()
        })
        .expect("skew fault must trip the differential oracle within 50 queries");
    assert_eq!(
        failure.kind(),
        "differential",
        "unexpected failure: {failure}"
    );
}

/// Columnar-path smoke: the fact table is deliberately re-chunked into
/// small, irregular [`ColumnChunk`]s — every low-cardinality group (and in
/// particular every dictionary-encoded string key) splits across many chunk
/// boundaries, and each chunk carries its own string dictionary. The corpus
/// is restricted to queries that group or filter on string columns, so the
/// vectorized classify kernels run against dictionary codes and the
/// per-group fold merges partial states that originate in different
/// chunks. The differential oracle then checks exactness and the
/// threads-{1,1,4} runs check merge-order bit-identity.
#[test]
fn columnar_chunk_splits_and_dictionary_strings_pass_oracles() {
    let cfg = oracle_cfg();
    for class in [SchemaClass::Conviva, SchemaClass::Tpch] {
        let generated = class.generate(ROWS, DATA_SEED ^ 0xC01);
        let schema = Arc::clone(generated.schema());
        let rows = generated.rows();
        // Irregular chunk lengths (including a singleton) so no index
        // arithmetic shortcut survives: 37, 1, 96, 37, 1, 96, ...
        let mut chunks = Vec::new();
        let mut at = 0usize;
        for (i, _) in std::iter::repeat(()).enumerate() {
            if at >= rows.len() {
                break;
            }
            let take = [37usize, 1, 96][i % 3].min(rows.len() - at);
            chunks.push(ColumnChunk::from_rows(&schema, &rows[at..at + take]));
            at += take;
        }
        assert!(chunks.len() > 4, "re-chunking must produce many chunks");
        let data = Arc::new(Table::from_chunks(schema, chunks).expect("consistent chunks"));
        assert_eq!(data.num_rows(), rows.len());

        let strs: BTreeSet<&str> = class.info().str_keys.iter().map(|(c, _)| *c).collect();
        let mut gen = QueryGen::new(class, &data, 0xD1C7_0000 ^ class.table_name().len() as u64);
        let mut seen = BTreeSet::new();
        let mut str_grouped = 0usize;
        let mut str_filtered = 0usize;
        let mut failures = Vec::new();
        let mut attempts = 0usize;
        // Collect until both coverage quotas are met, not a fixed count —
        // the generator's mix of string-keyed shapes varies per schema.
        while str_grouped < 10 || str_filtered < 8 {
            attempts += 1;
            assert!(
                attempts < 5000,
                "{class}: generator starved of string-key queries"
            );
            let q = gen.next_query();
            let grouped_on_str = matches!(&q.group_by, Some(GroupBy::Key { col, .. }) if strs.contains(col.as_str()));
            let filtered_on_str = q
                .filters
                .iter()
                .any(|f| matches!(f, Filter::KeyEq { col, .. } if strs.contains(col.as_str())));
            if !(grouped_on_str || filtered_on_str) {
                continue;
            }
            let sql = q.sql(class.table_name());
            if !seen.insert(sql.clone()) {
                continue;
            }
            str_grouped += usize::from(grouped_on_str);
            str_filtered += usize::from(filtered_on_str);
            if let Err(f) = run_case(class, &data, &sql, q.key_cols(), &cfg, Fault::None) {
                failures.push(format!("{sql}\n    -> {f}"));
            }
        }
        assert!(
            failures.is_empty(),
            "{} columnar oracle failure(s) on {class}:\n{}",
            failures.len(),
            failures.join("\n")
        );
        assert!(
            seen.len() >= 15,
            "{class}: only {} distinct queries",
            seen.len()
        );
    }
}

/// A `WITHIN` contract end to end through a session: every report carries
/// contract progress, and the run ends because the deadline was reached or
/// the data ran out.
#[test]
fn within_contract_query_reports_progress_and_stops() {
    let class = SchemaClass::Conviva;
    let data = Arc::new(class.generate(600, 0xC0_47AC7));
    let session = OnlineSession::new(
        catalog_of(class, &data),
        OnlineConfig::for_tests(6).with_trials(24),
    );
    let reports = session
        .execute_online(
            "SELECT AVG(play_time) FROM sessions \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions) WITHIN 0.2 SECONDS",
        )
        .expect("contract query compiles")
        .collect::<Result<Vec<_>, _>>()
        .expect("batches succeed");
    assert!(
        reports.iter().all(|r| r.contract.is_some()),
        "a report without contract progress"
    );
    // One report per step: a deadline never folds batches into one report.
    let batches: Vec<usize> = reports.iter().map(|r| r.batch_index).collect();
    assert!(
        batches.iter().enumerate().all(|(i, &b)| b == i),
        "WITHIN reports skip batches: {batches:?}"
    );
    let stop = reports.last().and_then(|r| r.contract.as_ref()?.stop);
    assert!(
        matches!(
            stop,
            Some(ContractStop::DeadlineReached | ContractStop::Exhausted)
        ),
        "WITHIN run stopped with {stop:?}"
    );
}

/// Rare-group convergence (EXPERIMENTS.md, Contracts): on geo-skewed data
/// (one geo ≈ 1% of rows) a grouped `ERROR 10%` query reaches its target
/// in fewer batches, on average over seeds, when the mini-batches are
/// stratified on `geo` than when they are uniform.
#[test]
fn stratified_batches_reach_the_error_target_sooner() {
    const SQL: &str =
        "SELECT geo, AVG(play_time) FROM sessions GROUP BY geo ERROR 10% CONFIDENCE 95%";
    let (mut uniform, mut stratified) = (0usize, 0usize);
    for seed in 0..3u64 {
        let table = ConvivaGenerator {
            seed: 0xF_EED5 + seed * 7919,
            geo_skew: true,
            ..Default::default()
        }
        .generate(4000);
        let mut catalog = Catalog::new();
        catalog.register("sessions", Arc::new(table)).unwrap();
        let stop_batch = |config: OnlineConfig| {
            let session = OnlineSession::new(catalog.clone(), config.with_seed(0x9A_27 ^ seed));
            let reports = session
                .execute_online(SQL)
                .expect("query compiles")
                .collect::<Result<Vec<_>, _>>()
                .expect("batches succeed");
            reports.last().expect("at least one report").batch_index + 1
        };
        let base = OnlineConfig::for_tests(16).with_trials(64);
        uniform += stop_batch(base.clone());
        stratified += stop_batch(base.with_stratify_column("geo"));
    }
    assert!(
        stratified < uniform,
        "stratified took {stratified} batches over 3 seeds, uniform {uniform}"
    );
}

/// A generated query under the scheduler: one quantum is one report round.
/// Generated queries carry no contract and read a table that does not
/// grow, so a quantum is never urgent and never parks.
struct Session(OnlineExecution);

impl SchedTask for Session {
    type Output = gola_common::Result<BatchReport>;

    fn run_quantum(&mut self, waker: &Waker) -> Quantum<Self::Output> {
        let Poll::Ready(output) = self.0.poll_next(waker) else {
            panic!("a query over a table that does not grow parked");
        };
        Quantum {
            finished: !matches!(output, Some(Ok(_))) || self.0.is_complete(),
            output,
            parked: false,
            urgency: Urgency::Normal,
        }
    }
}

/// Generated queries interleaved through one fair scheduler on a shared
/// pool — two active slots and a two-deep queue, so that admission queues
/// and stalls — must stream bit-identically to their solo single-threaded
/// runs.
#[test]
fn interleaved_service_streams_match_solo_runs() {
    const CASES: usize = 10;
    for class in [SchemaClass::Conviva, SchemaClass::Tpch] {
        let data = Arc::new(class.generate(ROWS, DATA_SEED));
        let catalog = catalog_of(class, &data);
        let mut gen = QueryGen::new(class, &data, 0x05E4_A1CE);
        let mut seen = BTreeSet::new();
        let queries: Vec<String> = std::iter::from_fn(|| Some(gen.next_query()))
            .map(|q| q.sql(class.table_name()))
            .filter(|sql| seen.insert(sql.clone()))
            .take(CASES)
            .collect();
        let config = |threads| {
            OnlineConfig::for_tests(5)
                .with_trials(16)
                .with_threads(threads)
        };
        let session = OnlineSession::new(catalog.clone(), config(2));
        let pool = Arc::new(WorkerPool::new(2));
        // One weight store for every session, as a `QueryService` shares.
        let store = Arc::new(WeightStore::new(session.config().bootstrap, ROWS));
        let mut sched: Scheduler<Session> = Scheduler::new(2, 2);
        let mut streams: Vec<Vec<BatchReport>> = vec![Vec::new(); CASES];
        let mut round = |sched: &mut Scheduler<Session>| {
            if let Some(r) = sched.round() {
                if let Some(report) = r.output {
                    streams[r.id.0 as usize].push(report.expect("interleaved batch succeeds"));
                }
            }
        };
        let mut queued = 0;
        for sql in &queries {
            let prepared = session
                .prepare(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let exec = session
                .execute_prepared_with_pool(&prepared, Arc::clone(&pool), Arc::clone(&store))
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            while sched.num_active() >= 2 && sched.num_queued() >= 2 {
                round(&mut sched);
            }
            let admitted = sched
                .submit(Session(exec))
                .unwrap_or_else(|e| panic!("{sql} admits: {e}"));
            queued += usize::from(matches!(admitted, Admitted::Queued(_)));
        }
        while !sched.is_idle() {
            round(&mut sched);
        }
        assert!(queued > 0, "{class}: admission queue never exercised");
        for (sql, stream) in queries.iter().zip(&streams) {
            let solo = OnlineSession::new(catalog.clone(), config(1))
                .execute_online(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .collect::<Result<Vec<_>, _>>()
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_reports_identical(&format!("{class}: {sql}"), &solo, stream);
        }
    }
}

/// One random mutation of `sql`: truncate it at a byte, flip one bit, or
/// delete or duplicate one space-separated token.
fn mutate(sql: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = sql.as_bytes().to_vec();
    let at = rng.next_below(bytes.len() as u64) as usize;
    match rng.next_below(4) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1u8 << rng.next_below(8),
        op => {
            let mut tokens: Vec<&str> = sql.split(' ').collect();
            let i = rng.next_below(tokens.len() as u64) as usize;
            if op == 2 {
                tokens.remove(i);
            } else {
                tokens.insert(i, tokens[i]);
            }
            return tokens.join(" ");
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Robustness of the SQL front end: 2,000 byte-mutated generator queries
/// per schema go through `gola_sql::compile` and `OnlineSession::prepare`.
/// Generator SQL reaches the binder, which random token soup almost never
/// does; every mutant must come back `Ok` or `Err`, never panic.
#[test]
fn mutated_generator_sql_never_panics_the_front_end() {
    const MUTANTS: usize = 2000;
    let mut panicked = Vec::new();
    for class in [SchemaClass::Conviva, SchemaClass::Tpch] {
        let data = Arc::new(class.generate(ROWS, DATA_SEED));
        let catalog = catalog_of(class, &data);
        let session = OnlineSession::new(catalog.clone(), OnlineConfig::default());
        let mut gen = QueryGen::new(class, &data, 0xF0_22ED);
        let mut rng = SplitMix64::new(0xB17_F11B ^ class.table_name().len() as u64);
        let mut bound = 0usize;
        for _ in 0..MUTANTS {
            let mutant = mutate(&gen.next_query().sql(class.table_name()), &mut rng);
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let compiled = gola_sql::compile(&mutant, &catalog);
                let _ = session.prepare(&mutant);
                matches!(compiled, Ok(_) | Err(gola_common::Error::Bind(_)))
            }));
            match run {
                Ok(reached_binder) => bound += usize::from(reached_binder),
                Err(_) => panicked.push(mutant),
            }
        }
        // Mutants that parse reach the binder; if almost none did, this
        // would be the random-soup fuzzer again.
        assert!(
            bound >= MUTANTS / 10,
            "{class}: only {bound} of {MUTANTS} mutants reached the binder"
        );
    }
    assert!(
        panicked.is_empty(),
        "{} mutant(s) panicked the front end:\n{}",
        panicked.len(),
        panicked.join("\n")
    );
}
