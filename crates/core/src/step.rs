//! The mini-batch step driver.
//!
//! [`OnlineExecutor::step`] runs one mini-batch through the stages, in
//! topological block order, one module each: [`crate::join`] →
//! [`crate::classify`] → [`crate::fold`] (together: a block's *ingest*),
//! [`crate::publish`], [`crate::recover`] on a detected failure, then
//! [`crate::report`]. The driver owns the state the stages pass between
//! batches and times each stage into [`BatchTiming`].

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gola_common::timing::Stopwatch;
use gola_common::{Error, FxHashSet, Result, Value};
use gola_expr::Tri;
use gola_plan::{BlockRole, MetaPlan};
use gola_storage::{Catalog, MiniBatch, Partitioner};

use crate::classify::ChunkClass;
use crate::compiled::CompiledBlock;
use crate::config::OnlineConfig;
use crate::join::{BatchWeights, Candidates, DimMaps};
use crate::metrics::SessionMetrics;
use crate::pool::WorkerPool;
use crate::publish::{PublishInput, Violated};
use crate::recover::{GroupScope, RecoverInput};
use crate::report::{BatchReport, BatchTiming, ReportInput};
use crate::runtime::{BlockEnv, BlockRuntime, Published, UncertainSet};
use crate::{classify, fold, groups, join, publish, recover, report};

/// The online query executor for one prepared query.
pub struct OnlineExecutor {
    pub(crate) config: OnlineConfig,
    pub(crate) meta: MetaPlan,
    pub(crate) compiled: Vec<CompiledBlock>,
    pub(crate) partitioner: Arc<Partitioner>,
    /// Per block: its hashed dimension tables.
    dims: Vec<DimMaps>,
    pub(crate) runtimes: Vec<BlockRuntime>,
    pub(crate) published: Vec<Published>,
    /// Direct consumers of each block.
    pub(crate) consumers: Vec<Vec<usize>>,
    /// Persistent worker pool, alive for the whole query session (workers
    /// park between batches instead of respawning per ingest). Under the
    /// multi-tenant scheduler many sessions share one pool
    /// ([`OnlineExecutor::with_pool`]); batch-granularity preemption means
    /// at most one session's batch runs on it at a time.
    pool: Arc<WorkerPool>,
    /// Lazily resolved per-session metric handles, so a disabled registry
    /// never registers anything (see [`SessionMetrics`]).
    session_metrics: OnceLock<SessionMetrics>,
    batches_done: usize,
    recomputations: usize,
    /// Root-block group keys the user has already seen flagged
    /// `row_certain = true`. A later batch may only break such a claim
    /// through a counted failure event (see `step`), never silently.
    claimed_certain: FxHashSet<Vec<Value>>,
    cumulative: Duration,
    /// The scoped-recovery oracle's switch: every recovery replays every
    /// group, as before scoping existed.
    #[cfg(test)]
    pub(crate) full_scope_only: bool,
    /// Recoveries that replayed a group scope rather than every group.
    #[cfg(test)]
    pub(crate) scoped_recoveries: usize,
}

impl OnlineExecutor {
    /// Build an executor: compiles blocks, hashes dimension tables, and
    /// computes static (non-streaming) blocks exactly.
    pub fn new(
        catalog: &Catalog,
        meta: MetaPlan,
        partitioner: Arc<Partitioner>,
        config: OnlineConfig,
    ) -> Result<OnlineExecutor> {
        let pool = OnlineExecutor::own_pool(&config);
        OnlineExecutor::with_pool(catalog, meta, partitioner, config, pool)
    }

    /// The pool a session that shares none runs on.
    pub(crate) fn own_pool(config: &OnlineConfig) -> Arc<WorkerPool> {
        Arc::new(match config.schedule_perturbation {
            Some(seed) => WorkerPool::with_perturbation(config.threads, seed),
            None => WorkerPool::new(config.threads),
        })
    }

    /// As [`OnlineExecutor::new`], but execute on a caller-provided worker
    /// pool. The multi-tenant scheduler uses this so every session
    /// time-slices one shared pool instead of spawning `threads - 1` OS
    /// threads per session. The determinism contract makes sharing safe:
    /// reports are bit-identical at any thread count, so the pool's size
    /// (not `config.threads`) governing physical parallelism cannot change
    /// any session's output.
    pub fn with_pool(
        catalog: &Catalog,
        meta: MetaPlan,
        partitioner: Arc<Partitioner>,
        config: OnlineConfig,
        pool: Arc<WorkerPool>,
    ) -> Result<OnlineExecutor> {
        config.validate()?;
        let compiled: Vec<CompiledBlock> = meta
            .blocks
            .iter()
            .cloned()
            .map(CompiledBlock::new)
            .collect();
        let dims = compiled
            .iter()
            .map(|cb| join::hash_dims(catalog, cb))
            .collect::<Result<_>>()?;
        let mut consumers = vec![Vec::new(); compiled.len()];
        for cb in &compiled {
            for d in &cb.block.deps {
                consumers[d.0].push(cb.block.id);
            }
        }
        let mut exec = OnlineExecutor {
            config,
            runtimes: compiled.iter().map(|_| BlockRuntime::default()).collect(),
            published: compiled.iter().map(|_| Published::default()).collect(),
            meta,
            compiled,
            partitioner,
            dims,
            consumers,
            pool,
            session_metrics: OnceLock::new(),
            batches_done: 0,
            recomputations: 0,
            claimed_certain: FxHashSet::default(),
            cumulative: Duration::ZERO,
            #[cfg(test)]
            full_scope_only: false,
            #[cfg(test)]
            scoped_recoveries: 0,
        };
        // Static (non-streaming) producers publish once, exactly, in
        // topological order.
        for b in exec.meta.order.clone() {
            let block = &exec.compiled[b].block;
            if !block.is_streaming && block.role != BlockRole::Root {
                exec.published[b] = publish::publish_static(&exec.env(b), catalog)?;
                exec.runtimes[b].static_done = true;
            }
        }
        Ok(exec)
    }

    /// What the stages may read while they run for block `b`.
    pub(crate) fn env(&self, b: usize) -> BlockEnv<'_> {
        BlockEnv {
            cb: &self.compiled[b],
            dims: &self.dims[b],
            config: &self.config,
            pool: &self.pool,
            pubs: &self.published,
        }
    }

    /// Number of batches processed so far.
    pub fn batches_done(&self) -> usize {
        self.batches_done
    }

    /// Total mini-batches `k`.
    pub fn num_batches(&self) -> usize {
        self.partitioner.num_batches()
    }

    /// Cumulative failure-triggered recomputations.
    pub fn recomputations(&self) -> usize {
        self.recomputations
    }

    /// Total uncertain items across all blocks: cached uncertain tuples
    /// plus, for live membership producers, the number of group keys whose
    /// membership is still classified as may-flip.
    pub fn uncertain_tuples(&self) -> usize {
        let cached: usize = self.runtimes.iter().map(|r| r.uncertain.len()).sum();
        #[expect(clippy::disallowed_methods, reason = "a count; order-free")]
        let maybe_members: usize = self
            .published
            .iter()
            .filter(|p| p.live)
            .map(|p| p.members.values().filter(|m| m.tri == Tri::Maybe).count())
            .sum();
        cached + maybe_members
    }

    /// Uncertain-set size of one block.
    pub fn uncertain_in_block(&self, block: usize) -> usize {
        self.runtimes[block].uncertain.len()
    }

    /// Re-evaluate the root block's uncertain set against the current
    /// publications, exactly as each step's report does, and return
    /// `(uncertain tuples, groups)`. Reads state, changes none: a
    /// measurement hook for `benches/micro.rs`.
    pub fn reevaluate_root(&self) -> Result<(usize, usize)> {
        let root = self.meta.root;
        let groups = groups::effective_states(&self.env(root), &self.runtimes[root])?;
        Ok((self.uncertain_in_block(root), groups.len()))
    }

    /// `true` once every batch has been processed. For a growing query
    /// this first pulls newly sealed segments into the schedule, so
    /// "finished" means the stream is closed *and* drained — a query that
    /// has merely caught up with an open stream is not finished.
    pub fn is_finished(&self) -> bool {
        self.partitioner.refresh();
        self.batches_done == self.partitioner.num_batches() && self.partitioner.finalized()
    }

    /// Process the next mini-batch and return the refined answer.
    ///
    /// Over a growing stream this may **block**: when every visible batch
    /// is processed but the stream is still open, the step parks on the
    /// stream's condvar until a segment seals (another mini-batch) or the
    /// stream closes. Ingest therefore drives query progress directly —
    /// no polling loop in between.
    pub fn step(&mut self) -> Result<BatchReport> {
        if self.is_finished() {
            return Err(Error::exec("all mini-batches already processed"));
        }
        while self.batches_done == self.partitioner.num_batches() {
            self.partitioner.wait_for_growth();
            if self.is_finished() {
                // Closed with nothing new: the true last batch was already
                // reported (its `last` flag said so), so there is nothing
                // left to publish.
                return Err(Error::exec("stream closed with no further batches"));
            }
        }
        let start = Stopwatch::start();
        let i = self.batches_done;
        let batch = self.partitioner.batch(i);
        let m = self.partitioner.multiplicity_after(i);
        let last = self.partitioner.is_final_batch(i);
        let _batch_span = gola_obs::span!("batch", index = i);

        let mut timing = BatchTiming {
            batch_rows: batch.len(),
            ..Default::default()
        };
        let mut violated = Vec::new();
        let mut weights = BatchWeights::new(&batch, &self.config.bootstrap);
        // Blocks in the same wavefront are mutually independent, so their
        // ingests run concurrently; publication follows per wave (in block
        // order) so later waves classify against fresh envelopes.
        for wave in self.meta.wavefronts() {
            let streaming: Vec<usize> = wave
                .into_iter()
                .filter(|&b| self.compiled[b].block.is_streaming)
                .collect();
            if streaming.is_empty() {
                continue;
            }
            {
                let _span = gola_obs::span!("ingest");
                self.ingest_wave(
                    &streaming,
                    &batch,
                    &GroupScope::All,
                    &mut weights,
                    &mut timing,
                )?;
            }
            let t_pub = Stopwatch::start();
            let _span = gola_obs::span!("publish");
            for &b in &streaming {
                let keys = self.publish_block(b, m, last)?;
                if !keys.is_empty() {
                    violated.push((b, keys));
                }
            }
            timing.publish += t_pub.elapsed();
        }

        if !violated.is_empty() {
            let t_rec = Stopwatch::start();
            let _span = gola_obs::span!("recover", blocks = violated.len());
            let input = RecoverInput {
                violated: &violated,
                upto: i,
                m,
                last,
            };
            self.recomputations += recover::recover(self, input)?;
            timing.recover = t_rec.elapsed();
        }

        let t_rep = Stopwatch::start();
        let report_span = gola_obs::span!("report");
        let root = self.meta.root;
        let input = ReportInput {
            rt: &self.runtimes[root],
            partitioner: &self.partitioner,
            batch_index: i,
            m,
            last,
            uncertain_tuples: self.uncertain_tuples(),
            recomputations: self.recomputations,
        };
        let out = report::build(&self.env(root), input)?;
        drop(report_span);
        let mut report = out.report;
        // Honor previously reported certainty: once the user has seen a row
        // flagged `row_certain`, that row may not silently vanish or revert
        // — the claim is a reliance exactly like a consumer's envelope, and
        // breaking it (a classification range widened under new data) is a
        // failure event. There is no state to replay — the claim went only
        // to the user — so the recovery action is the corrected report
        // itself, plus the counted recomputation that makes the correction
        // auditable.
        let still_certain: FxHashSet<&Vec<Value>> =
            (out.claims.iter().filter(|(_, c)| *c).map(|(k, _)| k)).collect();
        let claimed = self.claimed_certain.len();
        self.claimed_certain
            .retain(|key| still_certain.contains(key));
        if self.claimed_certain.len() < claimed {
            self.recomputations += 1;
            report.recomputations = self.recomputations;
        }
        let newly_certain = out.claims.into_iter().filter(|(_, c)| *c).map(|(k, _)| k);
        self.claimed_certain.extend(newly_certain);
        // The report is the root block's publication — same bucket.
        timing.publish += t_rep.elapsed();
        self.batches_done += 1;
        let elapsed = start.elapsed();
        self.cumulative += elapsed;
        report.batch_time = elapsed;
        report.cumulative_time = self.cumulative;
        report.timing = timing;
        if gola_obs::enabled() {
            let metrics = self
                .session_metrics
                .get_or_init(|| SessionMetrics::resolve(self.config.session_label.as_deref()));
            metrics.batches.inc();
            metrics.fpc.set(out.fpc);
            metrics.uncertain.set(report.uncertain_tuples as f64);
            metrics.recomputations.set(report.recomputations as f64);
            if let Some(ci) = report.ci() {
                metrics.ci_width.set(ci.width());
            }
        }
        Ok(report)
    }

    /// Ingest one batch into every block of a wavefront: join → classify →
    /// fold per block. The blocks are mutually independent, so each is one
    /// pool item (block-level parallelism composes with the chunk-level
    /// parallelism inside the stages via the pool's nested-run support).
    /// Between classify and fold the wave meets once, to generate the
    /// bootstrap weights its folds will read — each tuple's once per step,
    /// whichever blocks and waves need it (`weights` carries them from wave
    /// to wave); that time is fold time. Only the batch's tuples in `scope`
    /// are ingested; returns how many became candidates, summed over the
    /// wave.
    pub(crate) fn ingest_wave(
        &mut self,
        blocks: &[usize],
        batch: &MiniBatch,
        scope: &GroupScope,
        weights: &mut BatchWeights,
        timing: &mut BatchTiming,
    ) -> Result<usize> {
        // Take the wave's runtimes out so each item owns its block's state
        // while sharing `&self`.
        let taken: Vec<(usize, BlockRuntime)> = blocks
            .iter()
            .map(|&b| (b, std::mem::take(&mut self.runtimes[b])))
            .collect();
        let this = &*self;
        let classified = this.pool.map(taken, |(b, mut rt)| {
            let mut t = BatchTiming::default();
            let carried = std::mem::take(&mut rt.uncertain);
            let result = join_classify(&this.env(b), batch, carried, scope, &mut t);
            (b, rt, t, result)
        });

        let t_weights = Stopwatch::start();
        let ready = (classified.iter()).filter_map(|(_, _, _, result)| result.as_ref().ok());
        let fresh = ready.clone().map(|(cand, _)| cand.batch_rows.len()).sum();
        let needed = ready.flat_map(|(cand, classes)| fold::weights_needed(cand, classes));
        weights.extend(&this.config.bootstrap, &this.pool, batch, needed);
        timing.fold += t_weights.elapsed();

        let weights = &*weights;
        let done = this.pool.map(classified, |(b, mut rt, mut t, result)| {
            let folded = result.and_then(|(cand, classes)| {
                let t_fold = Stopwatch::start();
                let _span = gola_obs::span!("fold");
                let folded = fold::fold(&this.env(b), &cand, &classes, weights, &mut rt);
                t.fold += t_fold.elapsed();
                folded
            });
            (b, rt, t, folded)
        });
        let mut first_err = Ok(());
        for (b, rt, t, result) in done {
            self.runtimes[b] = rt;
            timing.accumulate(&t);
            first_err = first_err.and(result);
        }
        first_err.map(|()| fresh)
    }

    /// Refresh block `b`'s published output. Returns the keys whose
    /// relied-upon value violated its committed envelope (failure detected
    /// when non-empty).
    pub(crate) fn publish_block(&mut self, b: usize, m: f64, last: bool) -> Result<Violated> {
        if self.compiled[b].block.role == BlockRole::Root {
            return Ok(Violated::default());
        }
        let old = std::mem::take(&mut self.published[b]);
        let input = PublishInput {
            rt: &self.runtimes[b],
            old: &old,
            m,
            last,
        };
        let (new_pub, violated) = publish::publish(&self.env(b), input)?;
        self.published[b] = new_pub;
        Ok(violated)
    }
}

/// The first two stages of one block's ingest of one batch, each timed into
/// `timing` under the span of the same name.
fn join_classify(
    env: &BlockEnv<'_>,
    batch: &MiniBatch,
    carried: UncertainSet,
    scope: &GroupScope,
    timing: &mut BatchTiming,
) -> Result<(Candidates, Vec<ChunkClass>)> {
    let t = Stopwatch::start();
    let span = gola_obs::span!("join");
    let cand = join::join(env, batch, carried, scope)?;
    drop(span);
    timing.join += t.elapsed();

    let t = Stopwatch::start();
    let _span = gola_obs::span!("classify");
    let classes = classify::classify(env, &cand)?;
    timing.classify += t.elapsed();
    Ok((cand, classes))
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact float results")]
mod tests {
    use super::*;
    use gola_common::rng::SplitMix64;
    use gola_common::{DataType, Row, Schema};
    use gola_storage::Table;

    /// Which non-finite and NULL values `catalog_with` plants in `q`.
    #[derive(Clone, Copy, PartialEq)]
    enum Hostile {
        None,
        Nan,
        /// NaN, ±Inf, −0.0 and NULL.
        All,
    }

    /// `t(k, j, q, x, s)`: 3000 rows over 60 keys `k` × 3 sub-keys `j`,
    /// skewed quantities, a three-valued string. A hostile catalog replaces
    /// one `q` in 80 — the compared column and the inner aggregates' input
    /// alike — per kind of planted value.
    fn catalog_with(hostile: Hostile) -> Catalog {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("j", DataType::Int),
            ("q", DataType::Float),
            ("x", DataType::Float),
            ("s", DataType::Str),
        ]));
        let mut rng = SplitMix64::new(11);
        let rows: Vec<Row> = (0..3000)
            .map(|r| {
                let k = rng.next_below(60) as i64;
                let q = 1.0 + 49.0 * rng.next_f64() * rng.next_f64();
                let x = 100.0 + 900.0 * rng.next_f64() + k as f64;
                let q = match (hostile, r % 80) {
                    (Hostile::Nan | Hostile::All, 0) => Value::Float(f64::NAN),
                    (Hostile::All, 16) => Value::Float(f64::INFINITY),
                    (Hostile::All, 32) => Value::Float(f64::NEG_INFINITY),
                    (Hostile::All, 48) => Value::Float(-0.0),
                    (Hostile::All, 64) => Value::Null,
                    _ => Value::Float(q),
                };
                let s = Value::Str(["a", "b", "c"][usize::try_from(r / 3 % 3).unwrap()].into());
                Row::new(vec![
                    Value::Int(k),
                    Value::Int(r % 3),
                    q,
                    Value::Float(x),
                    s,
                ])
            })
            .collect();
        let mut catalog = Catalog::new();
        let table = Table::new_unchecked(schema, rows);
        catalog.register("t", Arc::new(table)).unwrap();
        catalog
    }

    fn catalog() -> Catalog {
        catalog_with(Hostile::None)
    }

    fn executor(catalog: &Catalog, sql: &str, threads: usize) -> OnlineExecutor {
        executor_with(
            catalog,
            sql,
            OnlineConfig::for_tests(8).with_threads(threads),
        )
    }

    fn executor_with(catalog: &Catalog, sql: &str, config: OnlineConfig) -> OnlineExecutor {
        let session = crate::OnlineSession::new(catalog.clone(), config.clone());
        let prepared = session.prepare(sql).unwrap();
        let table = catalog.get(&prepared.stream_table).unwrap();
        let (k, seed) = (config.num_batches, config.partition_seed);
        let partitioner = Arc::new(Partitioner::new(table, k, seed).unwrap());
        OnlineExecutor::new(catalog, prepared.meta, partitioner, config).unwrap()
    }

    /// A publication's entries in key order, every bit visible.
    #[expect(clippy::disallowed_methods, reason = "sorted before it is compared")]
    fn entries(p: &Published) -> Vec<String> {
        let scalars = p.scalars.iter().map(|(k, v)| format!("{k:?} {v:?}"));
        let members = p.members.iter().map(|(k, v)| format!("{k:?} {v:?}"));
        let mut all: Vec<String> = scalars.chain(members).collect();
        all.sort();
        all
    }

    /// The deterministic content of a report (no wall-clock fields).
    fn answer(r: &BatchReport) -> String {
        format!(
            "{:?} {:?} {:?} |U|={} recomputes={}",
            r.table, r.estimates, r.row_certain, r.uncertain_tuples, r.recomputations
        )
    }

    /// `fast_scalar_cmp` and `fast_having` are pure shortcuts: with both
    /// cleared, every stage seam — classify output, published entries —
    /// and every report must equal the fast-path run exactly. The seams
    /// are probed on a third executor's state: classifying marks reliance
    /// on the publications it reads, which must not reach the two runs
    /// whose reports are compared.
    fn assert_fast_equals_generic(sql: &str, threads: usize) {
        assert_fast_equals_generic_over(&catalog(), sql, threads);
    }

    fn assert_fast_equals_generic_over(catalog: &Catalog, sql: &str, threads: usize) {
        let mut fast = executor(catalog, sql, threads);
        let mut generic = executor(catalog, sql, threads);
        let mut probe = executor(catalog, sql, threads);
        let shortcut =
            |cb: &CompiledBlock| cb.fast_scalar_cmp.is_some() || cb.fast_having.is_some();
        assert!(
            fast.compiled.iter().any(shortcut),
            "query takes no fast path"
        );
        for cb in &mut generic.compiled {
            cb.fast_scalar_cmp = None;
            cb.fast_having = None;
        }
        let mut uncertain_seen = 0;
        while !fast.is_finished() {
            let i = fast.batches_done();
            let batch = fast.partitioner.batch(i);
            let m = fast.partitioner.multiplicity_after(i);
            let last = fast.partitioner.is_final_batch(i);
            for b in 0..probe.compiled.len() {
                // Same state, same candidates; only the compiled block differs.
                let env = probe.env(b);
                let plain = BlockEnv {
                    cb: &generic.compiled[b],
                    ..env
                };
                let cand = join::join(&env, &batch, Default::default(), &GroupScope::All).unwrap();
                let classes = classify::classify(&env, &cand).unwrap();
                assert_eq!(classes, classify::classify(&plain, &cand).unwrap());
                uncertain_seen += classes.iter().map(|c| c.uncertain_idx.len()).sum::<usize>();
                if env.cb.block.role == BlockRole::Root {
                    continue;
                }
                let input = || PublishInput {
                    rt: &probe.runtimes[b],
                    old: &probe.published[b],
                    m,
                    last,
                };
                let (by_fast, v_fast) = publish::publish(&env, input()).unwrap();
                let (by_plain, v_plain) = publish::publish(&plain, input()).unwrap();
                assert_eq!(
                    entries(&by_fast),
                    entries(&by_plain),
                    "block {b}, batch {i}"
                );
                assert_eq!(v_fast, v_plain);
            }
            probe.step().unwrap();
            let (a, b) = (fast.step().unwrap(), generic.step().unwrap());
            assert_eq!(answer(&a), answer(&b), "batch {i}");
            for (p, q) in fast.published.iter().zip(&generic.published) {
                assert_eq!(entries(p), entries(q), "after batch {i}");
            }
        }
        assert!(
            uncertain_seen > 0,
            "nothing was ever uncertain: vacuous run"
        );
    }

    #[test]
    fn q17_shape_fast_scalar_cmp_equals_generic() {
        let sql = "SELECT SUM(x) / 7.0 AS s FROM t l \
                   WHERE q < 0.5 * (SELECT AVG(q) FROM t i WHERE i.k = l.k)";
        assert_fast_equals_generic(sql, 1);
        assert_fast_equals_generic(sql, 3);
    }

    /// The query's root block re-evaluates its uncertain set against
    /// cached RHS vectors, not through `Inclusion::Generic`.
    fn assert_root_takes_scalar_cmp(catalog: &Catalog, sql: &str, conjuncts: usize) {
        let exec = executor(catalog, sql, 1);
        let root = &exec.compiled[exec.meta.root];
        let fscs = root.fast_scalar_cmp.as_ref();
        assert_eq!(fscs.map(Vec::len), Some(conjuncts), "{sql}");
    }

    const C2_SHAPE: &str = "SELECT k, AVG(x) AS a, COUNT(*) AS n FROM t \
                            WHERE q > (SELECT AVG(q) FROM t) + (SELECT STDDEV(q) FROM t) \
                            GROUP BY k ORDER BY k";
    const Q20_SHAPE: &str = "SELECT k, COUNT(*) AS n FROM t l \
                             WHERE q > 0.1 * (SELECT SUM(q) FROM t i WHERE i.k = l.k AND i.j = l.j) \
                             GROUP BY k ORDER BY k";
    const TWO_CONJUNCTS: &str = "SELECT SUM(x) AS s, COUNT(*) AS n FROM t l \
                                 WHERE q < 0.9 * (SELECT AVG(q) FROM t i WHERE i.k = l.k) \
                                 AND x >= (SELECT AVG(x) FROM t) - (SELECT STDDEV(x) FROM t)";

    #[test]
    fn c2_shape_two_refs_fast_scalar_cmp_equals_generic() {
        assert_root_takes_scalar_cmp(&catalog(), C2_SHAPE, 1);
        assert_fast_equals_generic(C2_SHAPE, 1);
        assert_fast_equals_generic(C2_SHAPE, 3);
    }

    #[test]
    fn q20_shape_two_keys_fast_scalar_cmp_equals_generic() {
        assert_root_takes_scalar_cmp(&catalog(), Q20_SHAPE, 1);
        assert_fast_equals_generic(Q20_SHAPE, 1);
        assert_fast_equals_generic(Q20_SHAPE, 3);
    }

    #[test]
    fn two_conjuncts_fast_scalar_cmp_equals_generic() {
        assert_root_takes_scalar_cmp(&catalog(), TWO_CONJUNCTS, 2);
        assert_fast_equals_generic(TWO_CONJUNCTS, 1);
        assert_fast_equals_generic(TWO_CONJUNCTS, 3);
    }

    /// Strings do not compare through `f64`: a tuple whose comparison has
    /// a string on either side is decided by the generic path, inside the
    /// fast one. (MIN alone never leaves a tuple uncertain; the COUNT puts
    /// the small groups' values under the small-sample guard.)
    #[test]
    fn string_comparison_in_fast_scalar_cmp_equals_generic() {
        let sql = "SELECT COUNT(*) AS n FROM t l WHERE s > \
                   (SELECT CASE WHEN COUNT(*) > 0 THEN MIN(s) END FROM t i \
                    WHERE i.k = l.k AND i.j = l.j)";
        assert_root_takes_scalar_cmp(&catalog(), sql, 1);
        assert_fast_equals_generic(sql, 1);
    }

    /// NaN, ±Inf, −0.0 and NULL in the compared column and in the inner
    /// aggregates' input: the sweep orders them as the generic evaluator
    /// does (`Value::total_cmp`), through every query shape. With NaN
    /// alone the last report is also the exact engine's answer; a group
    /// holding both a NaN and an Inf is left out of that claim, because
    /// the exact engine's running sum and the online `ExactSum` disagree
    /// on such a group's total — upstream of any comparison.
    #[test]
    fn hostile_floats_fast_scalar_cmp_equals_generic() {
        let q17 = "SELECT SUM(x) / 7.0 AS s FROM t l \
                   WHERE q < 0.5 * (SELECT AVG(q) FROM t i WHERE i.k = l.k)";
        // The hostile values reach both sides of a comparison: MAX keeps a
        // NaN or an Inf where AVG and SUM may not.
        let max = "SELECT SUM(x) AS s, COUNT(*) AS n FROM t l \
                   WHERE q >= (SELECT MAX(q) FROM t i WHERE i.k = l.k)";
        let (all, nan) = (catalog_with(Hostile::All), catalog_with(Hostile::Nan));
        for sql in [q17, max, C2_SHAPE, Q20_SHAPE, TWO_CONJUNCTS] {
            assert_fast_equals_generic_over(&all, sql, 1);
            assert_fast_equals_generic_over(&all, sql, 2);
            assert_final_equals_exact(&nan, sql);
        }
    }

    /// The last report is the exact engine's answer (to summation
    /// rounding; NaN for NaN).
    fn assert_final_equals_exact(catalog: &Catalog, sql: &str) {
        let mut exec = executor(catalog, sql, 1);
        let mut last = None;
        while !exec.is_finished() {
            last = Some(exec.step().unwrap());
        }
        let online = last.expect("at least one batch").table.rows();
        let session = crate::OnlineSession::new(catalog.clone(), OnlineConfig::for_tests(8));
        let exact = session.execute_exact(sql).unwrap().rows();
        assert_eq!(online.len(), exact.len(), "{sql}: rows");
        for (o, e) in online.iter().zip(&exact) {
            for (o, e) in o.iter().zip(e.iter()) {
                let close = match (o.as_f64(), e.as_f64()) {
                    (Some(o), Some(e)) if o.is_nan() || e.is_nan() => o.is_nan() && e.is_nan(),
                    (Some(o), Some(e)) => o == e || (o - e).abs() <= 1e-9 * e.abs(),
                    _ => o == e,
                };
                assert!(close, "{sql}: online {o:?}, exact {e:?}");
            }
        }
    }

    /// Every report of a run to the end, each followed by every block's
    /// published entries (reliance marks included), and how many of its
    /// recoveries took a group scope. `full_scope_only` is the oracle:
    /// every recovery replays every group.
    fn run_recovering(
        sql: &str,
        threads: usize,
        seed: u64,
        full_scope_only: bool,
    ) -> (Vec<String>, usize) {
        // Tight envelopes: every seed's run recovers several times.
        let config = OnlineConfig::for_tests(8)
            .with_threads(threads)
            .with_seed(seed)
            .with_envelope_inflation(0.5);
        let mut exec = executor_with(&catalog(), sql, config);
        exec.full_scope_only = full_scope_only;
        let mut seen = Vec::new();
        while !exec.is_finished() {
            seen.push(answer(&exec.step().unwrap()));
            seen.extend(exec.published.iter().flat_map(entries));
        }
        assert!(exec.recomputations() > 0, "{sql} seed {seed}: no recovery");
        (seen, exec.scoped_recoveries)
    }

    /// Scoped recovery is bit-identical to full replay — every report and
    /// every publication after every step — at threads 1/2/3 over three
    /// partition seeds; `scoped` says whether each run's recoveries take a
    /// group scope (some must) or none may.
    fn assert_scoped_equals_full(sql: &str, scoped: bool) {
        for seed in [3, 17, 2024] {
            for threads in [1, 2, 3] {
                let (oracle, _) = run_recovering(sql, threads, seed, true);
                let (seen, n) = run_recovering(sql, threads, seed, false);
                assert_eq!(seen, oracle, "{sql} seed {seed} threads {threads}");
                assert_eq!(n > 0, scoped, "{sql} seed {seed}: {n} scoped recoveries");
            }
        }
    }

    const Q20_FILTER: &str = "q > 0.1 * (SELECT SUM(q) FROM t i WHERE i.k = l.k AND i.j = l.j)";

    #[test]
    fn scoped_recovery_equals_full_replay() {
        assert_scoped_equals_full(Q20_SHAPE, true);
        // Grouped by the other key column, and by a column outside the key.
        for group in ["j", "s"] {
            let sql = format!(
                "SELECT {group}, COUNT(*) AS n FROM t l WHERE {Q20_FILTER} \
                 GROUP BY {group} ORDER BY {group}"
            );
            assert_scoped_equals_full(&sql, true);
        }
        let every_mergeable = format!(
            "SELECT k, SUM(x) AS s, AVG(x) AS a, VAR_POP(x) AS v, MIN(x) AS lo, \
             MAX(x) AS hi, COUNT(*) AS n FROM t l WHERE {Q20_FILTER} GROUP BY k ORDER BY k"
        );
        assert_scoped_equals_full(&every_mergeable, true);
        // A second conjunct whose producer filters: its entry may be absent
        // when the first conjunct decides a tuple, and published by the
        // time a full replay re-decides it — which then relies on it.
        let sparse = format!(
            "SELECT k, COUNT(*) AS n FROM t l WHERE {Q20_FILTER} AND x < \
             (SELECT AVG(x) FROM t m WHERE m.k = l.k AND m.j = l.j AND m.q > 35) \
             GROUP BY k ORDER BY k"
        );
        assert_scoped_equals_full(&sparse, true);
    }

    /// P² quantile states depend on fold order, a root without GROUP BY has
    /// one group, and an uncorrelated reference reaches every tuple: all
    /// three replay every group.
    #[test]
    fn unscopable_recoveries_replay_every_group() {
        let median =
            format!("SELECT k, MEDIAN(x) AS m FROM t l WHERE {Q20_FILTER} GROUP BY k ORDER BY k");
        let q17 = "SELECT SUM(x) / 7.0 AS s FROM t l \
                   WHERE q < 0.5 * (SELECT AVG(q) FROM t i WHERE i.k = l.k)";
        for sql in [median.as_str(), q17, C2_SHAPE] {
            assert_scoped_equals_full(sql, false);
        }
    }

    #[test]
    fn q18_shape_fast_having_equals_generic() {
        // MEDIAN cannot merge, so the consumer classifies and caches
        // uncertain tuples against the membership block's HAVING.
        let sql = "SELECT COUNT(*) AS n, MEDIAN(x) AS mid FROM t WHERE k IN \
                   (SELECT k FROM t GROUP BY k HAVING SUM(q) > 620)";
        assert_fast_equals_generic(sql, 1);
        assert_fast_equals_generic(sql, 3);
    }
}
