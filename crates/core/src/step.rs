//! The running query, [`OnlineExecution`], and the mini-batch step that
//! drives it.
//!
//! A step is one list of stages, [`Stage::ALL`], run in order, each one
//! function over the step's state: `gather` (the next batch, adopted from
//! the prefetch or gathered here) → `join` → `classify` → `fold` (together
//! a block's *ingest*, once per streaming block of a wavefront) →
//! `publish` (once per wavefront) → `recover` on a detected failure →
//! `report` ([`crate::report`]). One wrapper, `stage`, opens each
//! stage's span and times it into its [`BatchTiming`] bucket. The
//! execution owns the state the stages pass between batches. On a pool
//! with a worker it also gathers and weighs the next batch while a step
//! runs (`join::Prefetch`).
//!
//! A step never waits. When every visible batch of a growing stream is
//! processed and the stream is still open, `gather` registers the caller's
//! waker with the stream and [`OnlineExecution::poll_next`] returns
//! `Pending`; the stream's next seal or its close wakes the waker. The
//! blocking [`Iterator::next`] waits for that wake on the calling thread
//! (`block_on`). One poll is one step under an `ERROR`/`WITHIN` contract
//! too: the contract's driver reads every report, and the execution ends
//! at its stopping report. [`OnlineExecution::step_recomputing`] drives
//! the same stages as classical delta maintenance, the paper's Fig. 3(b)
//! baseline.

use std::sync::{Arc, OnceLock};
use std::task::{ready, Poll, Wake, Waker};
use std::time::Duration;

use gola_common::timing::Stopwatch;
use gola_common::{Error, FxHashSet, Result, Value};
use gola_engine::HashIndex;
use gola_expr::Tri;
use gola_obs::span::SpanGuard;
use gola_plan::{BlockRole, MetaPlan};
use gola_storage::{Catalog, MiniBatch, Partitioner};

use crate::classify::Classes;
use crate::compiled::CompiledBlock;
use crate::config::OnlineConfig;
use crate::contract::ContractDriver;
use crate::join::{BatchWeights, Candidates, Prefetch, WeightStore};
use crate::metrics::SessionMetrics;
use crate::pool::WorkerPool;
use crate::publish::{PublishInput, Violated};
use crate::recover::{RecoverInput, SeenIndex};
use crate::report::{BatchReport, BatchTiming, ReportInput};
use crate::runtime::{BlockEnv, BlockRuntime, Published};
use crate::sched::Urgency;
use crate::{classify, fold, groups, join, publish, recover, report};

/// A running online query, started by an
/// [`OnlineSession`](crate::OnlineSession). Each `next()` processes one
/// mini-batch and yields the refined answer; drop it at any time to stop
/// the query. [`OnlineExecution::poll_next`] is the same without waiting
/// for a stream to grow. When the query carries an `ERROR`/`WITHIN` contract the
/// iterator ends at the contract's stopping report (flagged in
/// [`BatchReport::contract`]) instead of running every batch.
pub struct OnlineExecution {
    pub(crate) config: OnlineConfig,
    pub(crate) meta: MetaPlan,
    pub(crate) compiled: Vec<CompiledBlock>,
    pub(crate) partitioner: Arc<Partitioner>,
    /// Per block: its dimension tables indexed on their join keys (none
    /// for a static producer, which publishes before the first batch).
    dims: Vec<Vec<HashIndex>>,
    pub(crate) runtimes: Vec<BlockRuntime>,
    pub(crate) published: Vec<Published>,
    /// Direct consumers of each block.
    pub(crate) consumers: Vec<Vec<usize>>,
    /// Persistent worker pool, alive for the whole query (workers park
    /// between batches instead of respawning per ingest). Under the
    /// multi-tenant scheduler sessions share one pool, and the service's
    /// runners can run several sessions' batches on it at once.
    pub(crate) pool: Arc<WorkerPool>,
    /// Where every bootstrap weight of the session comes from: the
    /// service's store, shared by its sessions, or an empty one.
    pub(crate) store: Arc<WeightStore>,
    /// The next batch's prefetch, once submitted (see
    /// [`OnlineExecution::prefetch_next`]).
    prefetch: Option<Prefetch>,
    /// Lazily resolved per-session metric handles, so a disabled registry
    /// never registers anything (see [`SessionMetrics`]).
    session_metrics: OnceLock<SessionMetrics>,
    /// The query's `ERROR`/`WITHIN` contract, if it carries one.
    driver: Option<ContractDriver>,
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
    /// Recoveries that took a key scope rather than replaying every group.
    #[cfg(test)]
    pub(crate) scoped_recoveries: usize,
    /// Groups those recoveries retracted from, refolded and replayed.
    #[cfg(test)]
    pub(crate) redone: [usize; 3],
}

impl OnlineExecution {
    /// Compile `meta`'s blocks, hash their dimension tables, and compute
    /// static (non-streaming) blocks exactly, on a worker pool and weight
    /// store other sessions may share. The determinism contract makes
    /// sharing safe: reports are bit-identical at any thread count, so the
    /// pool's size (not `config.threads`) governing physical parallelism
    /// cannot change any session's output; the store memoizes a pure
    /// function, so which session generated a block cannot reach a report
    /// either. A SQL-level contract wins over `config`'s.
    pub(crate) fn with_pool(
        catalog: &Catalog,
        meta: MetaPlan,
        partitioner: Arc<Partitioner>,
        config: OnlineConfig,
        pool: Arc<WorkerPool>,
        store: Arc<WeightStore>,
    ) -> Result<OnlineExecution> {
        config.validate()?;
        let compiled: Vec<CompiledBlock> = meta
            .blocks
            .iter()
            .cloned()
            .map(CompiledBlock::new)
            .collect();
        let dims = compiled
            .iter()
            .map(|cb| {
                if static_producer(cb) {
                    Ok(Vec::new())
                } else {
                    join::index_dims(catalog, &cb.block)
                }
            })
            .collect::<Result<_>>()?;
        let mut consumers = vec![Vec::new(); compiled.len()];
        for cb in &compiled {
            for d in &cb.block.deps {
                consumers[d.0].push(cb.block.id);
            }
        }
        let driver = meta.contract.or(config.contract).map(ContractDriver::new);
        let mut exec = OnlineExecution {
            config,
            runtimes: compiled.iter().map(|_| BlockRuntime::default()).collect(),
            published: compiled.iter().map(|_| Published::default()).collect(),
            meta,
            compiled,
            partitioner,
            dims,
            consumers,
            pool,
            store,
            prefetch: None,
            session_metrics: OnceLock::new(),
            driver,
            batches_done: 0,
            recomputations: 0,
            claimed_certain: FxHashSet::default(),
            cumulative: Duration::ZERO,
            #[cfg(test)]
            full_scope_only: false,
            #[cfg(test)]
            scoped_recoveries: 0,
            #[cfg(test)]
            redone: [0; 3],
        };
        for (b, cb) in exec.compiled.iter().enumerate() {
            if recover::scopable(cb, &exec.consumers[b]) {
                exec.runtimes[b].seen = Some(SeenIndex::default());
            }
        }
        // Static (non-streaming) producers publish once, exactly, in
        // topological order.
        for b in exec.meta.order.clone() {
            if static_producer(&exec.compiled[b]) {
                exec.published[b] = publish::publish_exact(&exec.env(b), catalog)?;
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
            pubs: &self.published,
        }
    }

    /// [`env`](Self::env) beside block `b`'s runtime, which the uncertain
    /// set's re-merge updates.
    fn env_mut(&mut self, b: usize) -> (BlockEnv<'_>, &mut BlockRuntime) {
        let env = BlockEnv {
            cb: &self.compiled[b],
            dims: &self.dims[b],
            config: &self.config,
            pubs: &self.published,
        };
        (env, &mut self.runtimes[b])
    }

    /// `true` once the execution will yield no further reports — the
    /// contract stopped it, or every mini-batch has been processed. The
    /// scheduler polls this between quanta.
    pub fn is_complete(&self) -> bool {
        self.driver.as_ref().is_some_and(ContractDriver::is_stopped) || self.is_finished()
    }

    /// The next report without waiting: one step, whose report a contract
    /// annotates with its progress. `Pending` when the query has caught up
    /// with a stream that is still open (`waker` is registered for the
    /// stream's next seal or its close); `Ready(None)` once the iterator
    /// has ended, which a stream that closes with nothing new also ends,
    /// with no error.
    pub fn poll_next(&mut self, waker: &Waker) -> Poll<Option<Result<BatchReport>>> {
        if self.is_complete() {
            return Poll::Ready(None);
        }
        if let Some(driver) = &mut self.driver {
            driver.start_clock();
        }
        let mut report = match ready!(self.poll_advance(false, waker).map_ok(|(r, _)| r)) {
            Some(Ok(report)) => report,
            end => return Poll::Ready(end),
        };
        if let Some(mut driver) = self.driver.take() {
            driver.note_batch(report.batch_time.as_secs_f64());
            driver.observe(&mut report, self.is_finished());
            self.driver = Some(driver);
        }
        Poll::Ready(Some(Ok(report)))
    }

    /// The scheduling pressure the contract driver set at the last report;
    /// an uncontracted query is always normal.
    pub(crate) fn urgency(&self) -> Urgency {
        self.driver
            .as_ref()
            .map_or(Urgency::Normal, ContractDriver::urgency)
    }

    /// The next mini-batch as classical delta maintenance processes it
    /// (paper §3.1, the Fig. 3(b) baseline): every streaming block whose
    /// predicates read another block's output restarts empty and re-ingests
    /// every batch seen so far, after the blocks it reads have taken this
    /// batch; every other block ingests the new batch only. Such a step
    /// needs no recovery — every block that reads a moved value was rebuilt
    /// after it moved — and its report equals `next`'s bit for bit. It
    /// blocks like `next` and ends like it, but never consults the
    /// contract. Returns the report and how many candidates the rebuild
    /// re-read.
    pub fn step_recomputing(&mut self) -> Option<Result<(BatchReport, usize)>> {
        block_on(|waker| self.poll_advance(true, waker))
    }

    /// Run until the iterator ends — the final (exact) batch, or the
    /// contract's stopping report. Returns the last report.
    pub fn run_to_completion(mut self) -> Result<BatchReport> {
        let mut last = None;
        for report in &mut self {
            last = Some(report?);
        }
        last.ok_or_else(|| Error::exec("query had no batches"))
    }

    /// Re-evaluate the root block's uncertain set against the current
    /// publications, exactly as each step's report does, and return
    /// `(uncertain tuples, groups)`. It stores the decisions it takes, as
    /// a report would, and changes nothing a report reads: a measurement
    /// hook for `benches/micro.rs`.
    pub fn reevaluate_root(&mut self) -> Result<(usize, usize)> {
        let (env, rt) = self.env_mut(self.meta.root);
        let groups = groups::effective_states(&env, rt)?.len();
        Ok((rt.uncertain.len(), groups))
    }

    /// Total uncertain items across all blocks: cached uncertain tuples
    /// plus, for live membership producers, the number of group keys whose
    /// membership is still classified as may-flip.
    fn uncertain_tuples(&self) -> usize {
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

    /// `true` once every batch has been processed. For a growing query
    /// this first pulls newly sealed segments into the schedule, so
    /// "finished" means the stream is closed *and* drained — a query that
    /// has merely caught up with an open stream is not finished.
    fn is_finished(&self) -> bool {
        self.partitioner.refresh();
        self.batches_done == self.partitioner.num_batches() && self.partitioner.finalized()
    }

    /// One step of [`OnlineExecution::poll_next`], or with `recompute` of
    /// [`OnlineExecution::step_recomputing`]: the stages of [`Stage::ALL`],
    /// in order.
    fn poll_advance(
        &mut self,
        recompute: bool,
        waker: &Waker,
    ) -> Poll<Option<Result<(BatchReport, usize)>>> {
        let Some(mut step) = ready!(self.gather(recompute, waker)) else {
            return Poll::Ready(None);
        };
        let report = self
            .waves(&mut step)
            .and_then(|()| self.recover(&mut step))
            .and_then(|()| self.report(&mut step));
        Poll::Ready(Some(report.map(|report| self.finish(step, report))))
    }

    /// Stage `gather`: once batch `batches_done` is visible, its rows and
    /// their weights, adopted from the prefetch or gathered and weighed
    /// here. On a stream that is still open with every visible batch
    /// processed it registers `waker` and is `Pending`; it is `Ready(None)`
    /// once no batch will come.
    fn gather(&mut self, recompute: bool, waker: &Waker) -> Poll<Option<Step>> {
        let i = self.batches_done;
        // Segments sealed, and a close, since the last step: so a batch
        // knows whether it is the stream's last.
        self.partitioner.refresh();
        if i == self.partitioner.num_batches() {
            ready!(self.partitioner.poll_refresh(waker));
            if i == self.partitioner.num_batches() {
                return Poll::Ready(None);
            }
        }
        let start = Stopwatch::start();
        // The step's span opens before the batch is materialized, so its
        // self time holds what no stage bucket does; `gather` names the
        // largest part of it.
        let span = gola_obs::span!("batch", index = i);
        let mut timing = BatchTiming::default();
        let spec = &self.config.bootstrap;
        let (batch, weights, adopted) = stage(Stage::Gather, &mut timing, |timing, _| {
            match self.prefetch.take_if(|p| p.index == i) {
                // Adopting a prefetch is weight generation: fold time.
                Some(prefetch) => {
                    let (batch, weights) = timed(&mut timing.fold, || prefetch.join(spec));
                    (batch, weights, true)
                }
                None => {
                    let batch = self.partitioner.batch(i);
                    let weights = BatchWeights::new(&batch, spec);
                    (batch, weights, false)
                }
            }
        });
        // Batch i + 1 is gathered and weighed on the pool while this step
        // runs. A step that fills its own weights (batch 0, or a segment
        // sealed after the step before it started) submits only once it is
        // done (see `finish`), so its chunk-parallel fill keeps every
        // thread.
        if adopted {
            self.prefetch_next(i + 1);
        }
        span.field("rows", batch.len() as f64);
        timing.batch_rows = batch.len();
        Poll::Ready(Some(Step {
            i,
            m: self.partitioner.multiplicity_after(i),
            last: self.partitioner.is_final_batch(i),
            recompute,
            batch,
            weights,
            timing,
            violated: Vec::new(),
            reread: 0,
            start,
            _span: span,
        }))
    }

    /// Stages `join` → `classify` → `fold` (a block's ingest, see
    /// [`OnlineExecution::ingest_wave`]) and `publish`, wavefront by
    /// wavefront. Blocks in the same wavefront are mutually independent,
    /// so their ingests run concurrently; publication follows per wave (in
    /// block order) so later waves classify against fresh envelopes. A
    /// recomputing step rebuilds every block that reads another's output
    /// instead of ingesting the batch into it.
    fn waves(&mut self, step: &mut Step) -> Result<()> {
        for wave in self.meta.wavefronts() {
            let streaming: Vec<usize> = wave
                .into_iter()
                .filter(|&b| self.compiled[b].block.is_streaming)
                .collect();
            if streaming.is_empty() {
                continue;
            }
            let (rebuilt, fresh): (Vec<usize>, Vec<usize>) = (streaming.iter()).partition(|&&b| {
                step.recompute && self.compiled[b].block.has_uncertain_predicates()
            });
            {
                let _span = gola_obs::span!("ingest");
                if !fresh.is_empty() {
                    self.ingest_wave(&fresh, &step.batch, &mut step.weights, &mut step.timing)?;
                }
                if !rebuilt.is_empty() {
                    rebuilt.iter().for_each(|&b| self.runtimes[b].reset());
                    let timing = &mut step.timing;
                    step.reread += recover::replay_batches(self, &rebuilt, step.i, timing)?.0;
                }
            }
            self.publish_wave(&streaming, step)?;
        }
        Ok(())
    }

    /// Stage `publish`: refresh the published output of each of a wave's
    /// blocks, and note the envelopes the batch violated for `recover` (a
    /// recomputing step rebuilt every block that reads a moved value).
    fn publish_wave(&mut self, blocks: &[usize], step: &mut Step) -> Result<()> {
        stage(Stage::Publish, &mut step.timing, |_, _| {
            for &b in blocks {
                let keys = self.publish_block(b, step.m, step.last)?;
                if !keys.is_empty() && !step.recompute {
                    step.violated.push((b, keys));
                }
            }
            Ok(())
        })
    }

    /// Stage `recover`: replay the blocks that relied on a violated
    /// envelope.
    fn recover(&mut self, step: &mut Step) -> Result<()> {
        if step.violated.is_empty() {
            return Ok(());
        }
        let input = RecoverInput {
            violated: &step.violated,
            upto: step.i,
            m: step.m,
            last: step.last,
        };
        let recomputed = stage(Stage::Recover, &mut step.timing, |_, span| {
            recover::recover(self, input, span)
        })?;
        self.recomputations += recomputed;
        Ok(())
    }

    /// Stage `report`: the root block's answer.
    ///
    /// It also honors previously reported certainty: once the user has seen
    /// a row flagged `row_certain`, that row may not silently vanish or
    /// revert — the claim is a reliance exactly like a consumer's envelope,
    /// and breaking it (a classification range widened under new data) is
    /// a failure event. There is no state to replay — the claim went only
    /// to the user — so the recovery action is the corrected report itself,
    /// plus the counted recomputation that makes the correction auditable.
    fn report(&mut self, step: &mut Step) -> Result<BatchReport> {
        stage(Stage::Report, &mut step.timing, |_, _| {
            let uncertain_tuples = self.uncertain_tuples();
            let (recomputations, partitioner) =
                (self.recomputations, Arc::clone(&self.partitioner));
            let (env, rt) = self.env_mut(self.meta.root);
            let input = ReportInput {
                rt,
                partitioner: &partitioner,
                batch_index: step.i,
                m: step.m,
                last: step.last,
                uncertain_tuples,
                recomputations,
            };
            let out = report::build(&env, input)?;
            let mut report = out.report;
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
            if gola_obs::enabled() {
                self.session_metrics().fpc.set(out.fpc);
            }
            Ok(report)
        })
    }

    /// Count the step done, submit the next batch's prefetch if the step
    /// filled its own weights, and stamp the report with the step's times.
    fn finish(&mut self, step: Step, mut report: BatchReport) -> (BatchReport, usize) {
        self.batches_done += 1;
        self.prefetch_next(step.i + 1);
        let elapsed = step.start.elapsed();
        self.cumulative += elapsed;
        report.batch_time = elapsed;
        report.cumulative_time = self.cumulative;
        report.timing = step.timing;
        if gola_obs::enabled() {
            let metrics = self.session_metrics();
            metrics.batches.inc();
            metrics.uncertain.set(report.uncertain_tuples as f64);
            metrics.recomputations.set(report.recomputations as f64);
            let seen = self.runtimes.iter().filter_map(|rt| rt.seen.as_ref());
            metrics
                .seen_index
                .set(seen.map(SeenIndex::bytes).sum::<usize>() as f64);
            if let Some(ci) = report.ci() {
                metrics.ci_width.set(ci.width());
            }
        }
        (report, step.reread)
    }

    /// This session's metric handles, resolved on first use.
    fn session_metrics(&self) -> &SessionMetrics {
        self.session_metrics
            .get_or_init(|| SessionMetrics::resolve(self.config.session_label.as_deref()))
    }

    /// Ingest one batch into every block of a wavefront: join → classify →
    /// fold per block. The blocks are mutually independent, so each is one
    /// pool item. Between classify and fold the wave meets once, to
    /// generate the bootstrap weights its folds will read — each tuple's
    /// once per step, whichever blocks and waves need it (`weights` carries
    /// them from wave to wave); that time is fold time. Returns how many of
    /// the batch's tuples became candidates, summed over the wave.
    pub(crate) fn ingest_wave(
        &mut self,
        blocks: &[usize],
        batch: &MiniBatch,
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
            let result = join_classify(&this.env(b), batch, &mut rt, &mut t);
            (b, rt, t, result)
        });

        let ready = (classified.iter()).filter_map(|(_, _, _, result)| result.as_ref().ok());
        let fresh = ready.clone().map(|(cand, _)| cand.batch_rows.len()).sum();
        let needed = ready.flat_map(|(cand, classes)| fold::weights_needed(cand, classes));
        timed(&mut timing.fold, || {
            let spec = &this.config.bootstrap;
            weights.extend(&this.store, spec, &this.pool, batch, needed);
        });

        let weights = &*weights;
        let done = this.pool.map(classified, |(b, mut rt, mut t, result)| {
            let folded = result.and_then(|(cand, classes)| {
                stage(Stage::Fold, &mut t, |_, _| {
                    fold::fold(&this.env(b), &cand, &classes, weights, &mut rt)
                })
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

    /// Submit batch `next`'s gather and weights to the pool when none is in
    /// flight, the batch is visible, the pool has a worker, and some
    /// streaming block folds every row (see [`folds_every_row`]) — so every
    /// weight the prefetch fills is one the step would fill anyway.
    fn prefetch_next(&mut self, next: usize) {
        let wanted = self.pool.threads() > 1 && self.compiled.iter().any(folds_every_row);
        if wanted && self.prefetch.is_none() && next < self.partitioner.num_batches() {
            let spec = &self.config.bootstrap;
            let prefetch = Prefetch::submit(&self.pool, &self.partitioner, &self.store, spec, next);
            self.prefetch = Some(prefetch);
        }
    }

    /// Refresh block `b`'s published output. Returns the keys whose
    /// relied-upon value violated its committed envelope (failure detected
    /// when non-empty).
    pub(crate) fn publish_block(&mut self, b: usize, m: f64, last: bool) -> Result<Violated> {
        if self.compiled[b].block.role == BlockRole::Root {
            return Ok(Violated::default());
        }
        let old = std::mem::take(&mut self.published[b]);
        let (env, rt) = self.env_mut(b);
        let input = PublishInput {
            rt,
            old: &old,
            m,
            last,
        };
        let (new_pub, violated) = publish::publish(&env, input)?;
        self.published[b] = new_pub;
        Ok(violated)
    }
}

/// A block published once, exactly, before streaming starts: a subquery
/// over a table that is not streamed.
fn static_producer(cb: &CompiledBlock) -> bool {
    !cb.block.is_streaming && cb.block.role != BlockRole::Root
}

/// A streaming block with no dimension join, no certain filter and no
/// uncertain predicate: it folds every row of every batch, so each step
/// needs every row's bootstrap weights.
fn folds_every_row(cb: &CompiledBlock) -> bool {
    let b = &cb.block;
    b.is_streaming
        && b.dims.is_empty()
        && cb.certain_filters.is_empty()
        && cb.lin_filters.is_empty()
}

/// Stages `join` and `classify` of one block's ingest of one batch. The
/// join takes the block's uncertain set as its carried candidates, labels
/// the new ones from the block's label set, and records them in its seen
/// index if it keeps one.
fn join_classify(
    env: &BlockEnv<'_>,
    batch: &MiniBatch,
    rt: &mut BlockRuntime,
    timing: &mut BatchTiming,
) -> Result<(Candidates, Classes)> {
    let cand = stage(Stage::Join, timing, |_, _| {
        let carried = std::mem::take(&mut rt.uncertain);
        let mut cand = join::join(env, batch, carried, &mut rt.labels)?;
        if let Some(seen) = &mut rt.seen {
            seen.record(batch.index, &mut cand, env.cb.cmp_conjuncts());
        }
        Ok::<_, Error>(cand)
    })?;
    let classes = stage(Stage::Classify, timing, |_, _| {
        classify::classify(env, &cand)
    })?;
    Ok((cand, classes))
}

/// The stages of one step, in the order they run. Each is one function
/// over the step's state, run through `stage`: `join`, `classify` and
/// `fold` once per streaming block, and `publish` once per wavefront.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Gather,
    Join,
    Classify,
    Fold,
    Publish,
    Recover,
    Report,
}

impl Stage {
    /// Every stage, in step order.
    pub const ALL: [Stage; 7] = [
        Stage::Gather,
        Stage::Join,
        Stage::Classify,
        Stage::Fold,
        Stage::Publish,
        Stage::Recover,
        Stage::Report,
    ];

    /// The name of the stage's span.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Gather => "gather",
            Stage::Join => "join",
            Stage::Classify => "classify",
            Stage::Fold => "fold",
            Stage::Publish => "publish",
            Stage::Recover => "recover",
            Stage::Report => "report",
        }
    }

    /// The [`BatchTiming`] bucket the stage's time goes to. `gather` has
    /// none (an adopted prefetch is booked as fold time inside it), and the
    /// report is the root block's publication.
    fn bucket(self, timing: &mut BatchTiming) -> Option<&mut Duration> {
        match self {
            Stage::Gather => None,
            Stage::Join => Some(&mut timing.join),
            Stage::Classify => Some(&mut timing.classify),
            Stage::Fold => Some(&mut timing.fold),
            Stage::Publish | Stage::Report => Some(&mut timing.publish),
            Stage::Recover => Some(&mut timing.recover),
        }
    }
}

/// Run `f` as stage `stage`: under the stage's span, which `f` gets for
/// its fields, with its time added to the stage's bucket of `timing`,
/// which `f` gets too.
pub(crate) fn stage<T>(
    stage: Stage,
    timing: &mut BatchTiming,
    f: impl FnOnce(&mut BatchTiming, &SpanGuard) -> T,
) -> T {
    let start = Stopwatch::start();
    let span = gola_obs::span!(stage.name());
    let out = f(timing, &span);
    drop(span);
    if let Some(bucket) = stage.bucket(timing) {
        *bucket += start.elapsed();
    }
    out
}

/// Run `f`, adding its time to `bucket`.
fn timed<T>(bucket: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Stopwatch::start();
    let out = f();
    *bucket += start.elapsed();
    out
}

/// One step's state, handed from stage to stage.
struct Step {
    /// The batch's index.
    i: usize,
    /// Its multiplicity annotation, and whether it is the last batch.
    m: f64,
    last: bool,
    /// See [`OnlineExecution::step_recomputing`].
    recompute: bool,
    batch: MiniBatch,
    /// Its tuples' bootstrap weights, filled as the waves need them.
    weights: BatchWeights,
    timing: BatchTiming,
    /// Blocks whose committed envelopes the batch violated, with the keys.
    violated: Vec<(usize, Violated)>,
    /// Candidates a recomputing step's rebuilds re-read.
    reread: usize,
    start: Stopwatch,
    /// The step's `batch` span, open until the step ends.
    _span: SpanGuard,
}

impl Iterator for OnlineExecution {
    type Item = Result<BatchReport>;

    /// [`OnlineExecution::poll_next`], waiting on the calling thread while
    /// the query has caught up with an open stream.
    fn next(&mut self) -> Option<Self::Item> {
        block_on(|waker| self.poll_next(waker))
    }
}

/// Poll `f` until it is ready, parking the calling thread between polls;
/// the waker `f` registers unparks it. Each thread has one such waker, so
/// a step that never waits allocates nothing here.
#[expect(
    clippy::disallowed_methods,
    reason = "the waker wakes the thread that waits; no report reads it"
)]
fn block_on<T>(mut f: impl FnMut(&Waker) -> Poll<T>) -> T {
    struct Unpark(std::thread::Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    thread_local! {
        static WAKER: Waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    }
    WAKER.with(|waker| loop {
        if let Poll::Ready(out) = f(waker) {
            return out;
        }
        std::thread::park();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{KeyIds, Labels, UncertainSet};
    use gola_bootstrap::EpsilonPolicy;
    use gola_common::rng::SplitMix64;
    use gola_common::{cmp_values, row_u32, DataType, Row, Schema};
    use gola_storage::Table;

    /// Which non-finite and NULL values `catalog_with` plants in `q`.
    #[derive(Clone, Copy, PartialEq)]
    enum Hostile {
        None,
        Nan,
        /// NaN, ±Inf, −0.0 and NULL.
        All,
        /// NaN, ±Inf and ±1e308 in `x` instead: the aggregated column of
        /// the shapes below, not the compared one.
        Aggregated,
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
                let x = match (hostile, r % 97) {
                    (Hostile::Aggregated, 0) => f64::NAN,
                    (Hostile::Aggregated, 19) => f64::INFINITY,
                    (Hostile::Aggregated, 38) => f64::NEG_INFINITY,
                    (Hostile::Aggregated, 57) => 1e308,
                    (Hostile::Aggregated, 76) => -1e308,
                    _ => x,
                };
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

    fn executor(catalog: &Catalog, sql: &str, threads: usize) -> OnlineExecution {
        executor_with(
            catalog,
            sql,
            OnlineConfig::for_tests(8).with_threads(threads),
        )
    }

    fn executor_with(catalog: &Catalog, sql: &str, config: OnlineConfig) -> OnlineExecution {
        let session = crate::OnlineSession::new(catalog.clone(), config);
        session.execute_online(sql).unwrap()
    }

    /// The next report of a run that has one.
    fn step(exec: &mut OnlineExecution) -> BatchReport {
        exec.next().unwrap().unwrap()
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

    /// The join stage against a row-at-a-time nested-loop join of each
    /// batch. The first dimension drops some fact rows and matches others
    /// twice, so the second dimension's probe sees a chunk whose rows are
    /// not the batch's: every candidate's batch row must be composed
    /// through both probes, left-major with matches in dimension-row order.
    #[test]
    fn join_stage_composes_batch_rows_through_every_dimension() {
        let mut catalog = catalog();
        let dim = |cols: [&str; 2], rows: Vec<[i64; 2]>| {
            let schema = Schema::from_pairs(&[(cols[0], DataType::Int), (cols[1], DataType::Int)]);
            let rows = rows
                .into_iter()
                .map(|r| Row::new(r.map(Value::Int).to_vec()));
            Arc::new(Table::try_new(Arc::new(schema), rows.collect()).unwrap())
        };
        // d1: no row for k ≡ 0 (mod 7), two rows for k ≡ 0 (mod 5).
        let d1 = (0..60).filter(|k| k % 7 != 0);
        let d1 = d1.flat_map(|k| {
            [[k, k % 4], [k, 10 + k % 3]]
                .into_iter()
                .take(1 + usize::from(k % 5 == 0))
        });
        catalog
            .register("d1", dim(["k", "g"], d1.collect()))
            .unwrap();
        // d2: g = 2 and g = 11 match nothing, g = 0 matches twice.
        let d2 = vec![[0, 100], [1, 101], [3, 103], [10, 110], [12, 112], [0, 200]];
        catalog.register("d2", dim(["g", "w"], d2.clone())).unwrap();
        let sql = "SELECT b.w, COUNT(*), SUM(t.x) FROM t JOIN d1 a ON t.k = a.k \
                   JOIN d2 b ON a.g = b.g WHERE t.q > 5 GROUP BY b.w";
        let exec = executor(&catalog, sql, 1);
        let root = exec.meta.root;
        let env = exec.env(root);
        let d1_rows = catalog.get("d1").unwrap().rows();
        for i in 0..exec.partitioner.num_batches() {
            let batch = exec.partitioner.batch(i);
            let mut labels = Labels::default();
            let cand = join::join(&env, &batch, UncertainSet::default(), &mut labels).unwrap();
            let (mut rows, mut lineage) = (Vec::new(), Vec::new());
            for (r, fact) in batch.rows().into_iter().enumerate() {
                for a in d1_rows.iter().filter(|a| a.get(0) == fact.get(0)) {
                    for b in d2.iter().filter(|b| a.get(1) == &Value::Int(b[0])) {
                        let joined = fact.concat(a).concat(&Row::new(b.map(Value::Int).to_vec()));
                        if joined.get(2).as_f64().unwrap() > 5.0 {
                            rows.push(row_u32(r));
                            lineage.push(joined.project(&env.cb.lineage_cols));
                        }
                    }
                }
            }
            assert!(rows.len() > batch.len() / 2, "batch {i}: vacuous join");
            assert_eq!(cand.batch_rows, rows, "batch {i}");
            assert_eq!(cand.chunk.to_rows(), lineage, "batch {i}");
        }
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
        let config = OnlineConfig::for_tests(8).with_threads(threads);
        assert_fast_equals_generic_with(catalog, sql, config);
    }

    /// [`assert_fast_equals_generic`] under `config`; returns the fast
    /// run's recomputations and how many of its recoveries took a group
    /// scope.
    fn assert_fast_equals_generic_with(
        catalog: &Catalog,
        sql: &str,
        config: OnlineConfig,
    ) -> (usize, usize) {
        let mut fast = executor_with(catalog, sql, config.clone());
        let mut generic = executor_with(catalog, sql, config.clone());
        let mut probe = executor_with(catalog, sql, config);
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
            let i = fast.batches_done;
            let batch = fast.partitioner.batch(i);
            let m = fast.partitioner.multiplicity_after(i);
            let last = fast.partitioner.is_final_batch(i);
            for b in 0..probe.compiled.len() {
                // Same state, same candidates; only the compiled block
                // differs. Publishing re-merges the uncertain set, which
                // takes the runtime forward: both publish from it in turn.
                let mut rt = std::mem::take(&mut probe.runtimes[b]);
                let env = probe.env(b);
                let plain = BlockEnv {
                    cb: &generic.compiled[b],
                    ..env
                };
                let labels = &mut Labels::default();
                let cand = join::join(&env, &batch, Default::default(), labels).unwrap();
                let classes = classify::classify(&env, &cand).unwrap();
                assert_eq!(classes, classify::classify(&plain, &cand).unwrap());
                uncertain_seen += classes.uncertain.len();
                if env.cb.block.role != BlockRole::Root {
                    let old = &probe.published[b];
                    let mut publish = |env| {
                        let input = PublishInput {
                            rt: &mut rt,
                            old,
                            m,
                            last,
                        };
                        publish::publish(env, input).unwrap()
                    };
                    let (by_fast, v_fast) = publish(&env);
                    let (by_plain, v_plain) = publish(&plain);
                    assert_eq!(
                        entries(&by_fast),
                        entries(&by_plain),
                        "block {b}, batch {i}"
                    );
                    assert_eq!(v_fast, v_plain);
                }
                probe.runtimes[b] = rt;
            }
            step(&mut probe);
            let (a, b) = (step(&mut fast), step(&mut generic));
            assert_eq!(answer(&a), answer(&b), "batch {i}");
            for (p, q) in fast.published.iter().zip(&generic.published) {
                assert_eq!(entries(p), entries(q), "after batch {i}");
            }
        }
        assert!(
            uncertain_seen > 0,
            "nothing was ever uncertain: vacuous run"
        );
        (fast.recomputations, fast.scoped_recoveries)
    }

    const Q17_SHAPE: &str = "SELECT SUM(x) / 7.0 AS s FROM t l \
                             WHERE q < 0.5 * (SELECT AVG(q) FROM t i WHERE i.k = l.k)";
    const Q17_FILTER: &str = "q < 0.5 * (SELECT AVG(q) FROM t i WHERE i.k = l.k)";

    #[test]
    fn q17_shape_fast_scalar_cmp_equals_generic() {
        assert_fast_equals_generic(Q17_SHAPE, 1);
        assert_fast_equals_generic(Q17_SHAPE, 3);
    }

    /// Under tight envelopes the runs recover, and both shapes' recoveries
    /// take a key scope, so the uncertain tuples they keep carry their ids
    /// beside the ones decided again (the generic run, with no fast path,
    /// replays in full). The fast path must still equal the generic one
    /// everywhere.
    #[test]
    fn fast_scalar_cmp_equals_generic_under_recovery() {
        for (sql, scoped) in [(Q17_SHAPE, true), (Q20_SHAPE, true)] {
            for threads in [1, 2] {
                let config = OnlineConfig::for_tests(8)
                    .with_threads(threads)
                    .with_epsilon(EpsilonPolicy::StdDevScaled(0.5));
                let (recoveries, n_scoped) =
                    assert_fast_equals_generic_with(&catalog(), sql, config);
                assert!(recoveries > 0, "{sql} threads {threads}: no recovery");
                assert_eq!(n_scoped > 0, scoped, "{sql}: {n_scoped} scoped recoveries");
            }
        }
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
    /// does (`Value::total_cmp`), through every query shape, and the last
    /// report is the exact engine's answer bit for bit — NaN and ±∞ groups
    /// included, since both engines sum through `ExactSum`, which folds
    /// non-finite values as IEEE does.
    #[test]
    fn hostile_floats_fast_scalar_cmp_equals_generic() {
        // The hostile values reach both sides of a comparison: MAX keeps a
        // NaN or an Inf where AVG and SUM may not.
        let max = "SELECT SUM(x) AS s, COUNT(*) AS n FROM t l \
                   WHERE q >= (SELECT MAX(q) FROM t i WHERE i.k = l.k)";
        let (all, nan) = (catalog_with(Hostile::All), catalog_with(Hostile::Nan));
        for sql in [Q17_SHAPE, max, C2_SHAPE, Q20_SHAPE, TWO_CONJUNCTS] {
            assert_fast_equals_generic_over(&all, sql, 1);
            assert_fast_equals_generic_over(&all, sql, 2);
            assert_final_equals_exact(&nan, sql);
            assert_final_equals_exact(&all, sql);
        }
    }

    /// The last report is the exact engine's answer, bit for bit.
    fn assert_final_equals_exact(catalog: &Catalog, sql: &str) {
        let mut exec = executor(catalog, sql, 1);
        let mut last = None;
        while !exec.is_finished() {
            last = Some(step(&mut exec));
        }
        let online = last.expect("at least one batch").table.rows();
        let session = crate::OnlineSession::new(catalog.clone(), OnlineConfig::for_tests(8));
        let exact = session.execute_exact(sql).unwrap().rows();
        assert_eq!(online.len(), exact.len(), "{sql}: rows");
        for (o, e) in online.iter().zip(&exact) {
            for (o, e) in o.iter().zip(e.iter()) {
                let same = match (o, e) {
                    (Value::Float(o), Value::Float(e)) => o.to_bits() == e.to_bits(),
                    _ => o == e,
                };
                assert!(same, "{sql}: online {o:?}, exact {e:?}");
            }
        }
    }

    /// Every report of a run to the end, each followed by every block's
    /// published entries (reliance marks included), after `setup` has
    /// prepared the executor; and the executor as the run left it.
    fn run_to_end(
        sql: &str,
        config: OnlineConfig,
        setup: impl FnOnce(&mut OnlineExecution),
    ) -> (Vec<String>, OnlineExecution) {
        let mut exec = executor_with(&catalog(), sql, config);
        setup(&mut exec);
        let mut seen = Vec::new();
        while !exec.is_finished() {
            seen.push(answer(&step(&mut exec)));
            seen.extend(exec.published.iter().flat_map(entries));
        }
        (seen, exec)
    }

    /// [`run_to_end`] under tight envelopes, and how many of its
    /// recoveries took a group scope. `full_scope_only` is the oracle:
    /// every recovery replays every group.
    fn run_recovering(
        sql: &str,
        threads: usize,
        seed: u64,
        full_scope_only: bool,
    ) -> (Vec<String>, usize, [usize; 3]) {
        // Tight envelopes: every seed's run recovers several times.
        let config = OnlineConfig::for_tests(8)
            .with_threads(threads)
            .with_seed(seed)
            .with_epsilon(EpsilonPolicy::StdDevScaled(0.5));
        let (seen, exec) = run_to_end(sql, config, |exec| {
            exec.full_scope_only = full_scope_only;
        });
        assert!(exec.recomputations > 0, "{sql} seed {seed}: no recovery");
        (seen, exec.scoped_recoveries, exec.redone)
    }

    /// Pre-intern every key each streaming block's candidates will ever
    /// hold, in reverse sorted order: ids that number the keys unlike any
    /// run's first-seen order.
    fn reverse_labels(exec: &mut OnlineExecution) {
        let reversed = |ids: &KeyIds| {
            let mut keys: Vec<&[Value]> = (0..ids.len()).map(|x| ids.key(row_u32(x))).collect();
            keys.sort_by(|a, b| cmp_values(b, a));
            let mut out = KeyIds::default();
            for key in keys {
                out.intern(key);
            }
            out
        };
        for b in 0..exec.compiled.len() {
            if !exec.compiled[b].block.is_streaming {
                continue;
            }
            let mut all = Labels::default();
            for j in 0..exec.partitioner.num_batches() {
                let batch = exec.partitioner.batch(j);
                join::join(&exec.env(b), &batch, UncertainSet::default(), &mut all).unwrap();
            }
            exec.runtimes[b].labels = Labels {
                groups: reversed(&all.groups),
                keys: all.keys.iter().map(reversed).collect(),
            };
        }
    }

    /// Ids only bucket tuples, never order them: with every block's keys
    /// numbered in reverse sorted order, every report and every published
    /// entry equals a normal run's bit for bit — through scoped (Q17, Q20)
    /// recoveries too. Rows whose ORDER BY values tie keep
    /// the order the groups come in. A grouped semi-join and its negation
    /// merge their (membership key, group key) slots in key order.
    #[test]
    fn id_numbering_leaves_no_trace() {
        let ties =
            format!("SELECT k, COUNT(*) AS n FROM t l WHERE {Q20_FILTER} GROUP BY k ORDER BY n");
        let semi = |not: &str| {
            format!(
                "SELECT s, COUNT(*) AS n, AVG(x) AS a FROM t WHERE k {not} IN \
                 (SELECT k FROM t GROUP BY k HAVING SUM(q) > 620) GROUP BY s ORDER BY s"
            )
        };
        let (semi_in, semi_not_in) = (semi(""), semi("NOT"));
        for sql in [&semi_in, &semi_not_in] {
            let exec = executor(&catalog(), sql, 1);
            assert!(exec.compiled[exec.meta.root].semi_join.is_some(), "{sql}");
        }
        let shapes = [
            (Q17_SHAPE, 3.0),
            (C2_SHAPE, 3.0),
            (Q20_SHAPE, 3.0),
            (semi_in.as_str(), 3.0),
            (semi_not_in.as_str(), 3.0),
            (Q17_SHAPE, 0.5),
            (Q20_SHAPE, 0.5),
            (ties.as_str(), 0.5),
        ];
        for (sql, sd) in shapes {
            for threads in [1, 2] {
                let config = OnlineConfig::for_tests(8)
                    .with_threads(threads)
                    .with_epsilon(EpsilonPolicy::StdDevScaled(sd));
                let (normal, exec) = run_to_end(sql, config.clone(), |_| {});
                let (reversed, _) = run_to_end(sql, config, reverse_labels);
                assert_eq!(normal, reversed, "{sql} at {sd}σ, threads {threads}");
                if sd < 1.0 {
                    assert!(exec.recomputations > 0, "{sql}: no recovery");
                }
            }
        }
    }

    /// Scoped recovery is bit-identical to full replay — every report and
    /// every publication after every step — at threads 1/2/3 over three
    /// partition seeds; `scoped` says whether each run's recoveries take a
    /// key scope (some must) or none may. Returns the groups the scoped
    /// runs retracted from, refolded and replayed.
    fn assert_scoped_equals_full(sql: &str, scoped: bool) -> [usize; 3] {
        let mut redone = [0; 3];
        for seed in [3, 17, 2024] {
            for threads in [1, 2, 3] {
                let (oracle, _, _) = run_recovering(sql, threads, seed, true);
                let (seen, n, ways) = run_recovering(sql, threads, seed, false);
                assert_eq!(seen, oracle, "{sql} seed {seed} threads {threads}");
                assert_eq!(n > 0, scoped, "{sql} seed {seed}: {n} scoped recoveries");
                redone.iter_mut().zip(ways).for_each(|(a, b)| *a += b);
            }
        }
        redone
    }

    const Q20_FILTER: &str = "q > 0.1 * (SELECT SUM(q) FROM t i WHERE i.k = l.k AND i.j = l.j)";

    #[test]
    fn scoped_recovery_equals_full_replay() {
        // A violated `(k, j)` covers group `k` in part, or covers all its
        // folds.
        let [retracted, refolded, replayed] = assert_scoped_equals_full(Q20_SHAPE, true);
        assert!(retracted > 0 && refolded > 0 && replayed == 0);
        // One group, whose folds a recovery retracts.
        let [retracted, refolded, _] = assert_scoped_equals_full(Q17_SHAPE, true);
        assert!(retracted > 0 && refolded == 0);
        // Groups that a violated key covers in part (`j` is outside the
        // correlation key, so one `k`'s tuples fall in every group), with
        // every retractable lane.
        let partial = format!(
            "SELECT j, SUM(x) AS s, AVG(x) AS a, VAR_POP(x) AS v, STDDEV(x) AS sd, \
             COUNT(*) AS n FROM t l WHERE {Q17_FILTER} GROUP BY j ORDER BY j"
        );
        let [retracted, _, replayed] = assert_scoped_equals_full(&partial, true);
        assert!(retracted > 0 && replayed == 0);
        // Grouped by the other key column, and by a column outside the key.
        for group in ["j", "s"] {
            let sql = format!(
                "SELECT {group}, COUNT(*) AS n FROM t l WHERE {Q20_FILTER} \
                 GROUP BY {group} ORDER BY {group}"
            );
            let [retracted, _, _] = assert_scoped_equals_full(&sql, true);
            assert!(retracted > 0, "{sql}");
        }
        // MIN and MAX cannot retract: the scope widens to whole groups.
        let every_mergeable = format!(
            "SELECT k, SUM(x) AS s, AVG(x) AS a, VAR_POP(x) AS v, MIN(x) AS lo, \
             MAX(x) AS hi, COUNT(*) AS n FROM t l WHERE {Q20_FILTER} GROUP BY k ORDER BY k"
        );
        let [retracted, refolded, replayed] = assert_scoped_equals_full(&every_mergeable, true);
        assert!(retracted + refolded == 0 && replayed > 0);
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

    /// P² quantile states depend on fold order, a root without GROUP BY
    /// whose one group cannot forget a value would replay whole, and an
    /// uncorrelated reference reaches every tuple: all three replay every
    /// group.
    #[test]
    fn unscopable_recoveries_replay_every_group() {
        let median =
            format!("SELECT k, MEDIAN(x) AS m FROM t l WHERE {Q20_FILTER} GROUP BY k ORDER BY k");
        let max = format!("SELECT MAX(x) AS hi, COUNT(*) AS n FROM t l WHERE {Q17_FILTER}");
        for sql in [median.as_str(), max.as_str(), C2_SHAPE] {
            assert_scoped_equals_full(sql, false);
        }
    }

    const C3_SHAPE: &str = "SELECT k, AVG(x) AS a, COUNT(*) AS n FROM t l \
                            WHERE q < (SELECT AVG(q) FROM t i WHERE i.k = l.k) \
                            GROUP BY k ORDER BY k";

    /// Every streaming block's re-merge, one line per group: block, key,
    /// point support, settledness, and per lane its point, every trial,
    /// its lower bound and its observations, as bits.
    fn remerged(exec: &mut OnlineExecution) -> Vec<String> {
        let bits = |v: Value| match v {
            Value::Float(x) => format!("{:#x}", x.to_bits()),
            v => format!("{v:?}"),
        };
        let mut out = Vec::new();
        for b in 0..exec.compiled.len() {
            if !exec.compiled[b].block.is_streaming {
                continue;
            }
            let (env, rt) = exec.env_mut(b);
            for g in groups::effective_states(&env, rt).unwrap() {
                let lanes: Vec<String> = (0..g.states.num_aggs())
                    .map(|j| {
                        let trials: Vec<String> = g.states.trial_values(j, 1.0).map(bits).collect();
                        let bound = g.states.lower_bound(j).map(f64::to_bits);
                        let obs = g.states.observations(j).map(f64::to_bits);
                        format!(
                            "{} {trials:?} {bound:?} {obs:?}",
                            bits(g.states.value(j, 1.0))
                        )
                    })
                    .collect();
                out.push(format!(
                    "{b} {:?} {} {} {lanes:?}",
                    g.key, g.supported, g.settled
                ));
            }
        }
        out
    }

    /// How a run's groups were re-merged, summed over its blocks: from a
    /// kept contribution, from a rebuilt one, straight into a copy of the
    /// deterministic states.
    fn remerge_paths(exec: &OnlineExecution) -> [usize; 3] {
        let mut paths = [0; 3];
        for rt in &exec.runtimes {
            paths
                .iter_mut()
                .zip(rt.remerge.paths)
                .for_each(|(a, b)| *a += b);
        }
        paths
    }

    /// The delta re-merge against the reference — every group folded from
    /// scratch, straight into a copy of its deterministic states — in
    /// lockstep: after every batch, every report and every block's
    /// re-merged groups (every lane's finalize bits, point support,
    /// settledness) are equal. Returns the delta run's re-merge paths and
    /// its recoveries (scoped ones apart).
    fn assert_delta_equals_reference(
        catalog: &Catalog,
        sql: &str,
        config: OnlineConfig,
        full_scope_only: bool,
    ) -> ([usize; 3], usize, usize) {
        let mut delta = executor_with(catalog, sql, config.clone());
        let mut reference = executor_with(catalog, sql, config);
        delta.full_scope_only = full_scope_only;
        reference.full_scope_only = full_scope_only;
        reference
            .runtimes
            .iter_mut()
            .for_each(|rt| rt.remerge.straight_only = true);
        while !delta.is_finished() {
            let i = delta.batches_done;
            let (a, b) = (step(&mut delta), step(&mut reference));
            assert_eq!(answer(&a), answer(&b), "{sql}: batch {i}");
            assert_eq!(
                remerged(&mut delta),
                remerged(&mut reference),
                "{sql}: batch {i}"
            );
        }
        let oracle = remerge_paths(&reference);
        assert_eq!(
            oracle[KEPT] + oracle[REBUILT],
            0,
            "{sql}: the reference kept a contribution"
        );
        (
            remerge_paths(&delta),
            delta.recomputations,
            delta.scoped_recoveries,
        )
    }

    use crate::groups::{KEPT, REBUILT, STRAIGHT};

    /// The U re-merge takes each group forward from its kept contribution
    /// and hands out what a from-scratch fold hands out: on the Q17, Q20
    /// and C3 shapes at k = 20, through full Q17 recoveries, after which it
    /// rebuilds, and through scoped Q17 and Q20 ones, which keep it.
    #[test]
    fn delta_remerge_equals_the_reference_at_every_batch() {
        let catalog = catalog();
        for sql in [Q17_SHAPE, Q20_SHAPE, C3_SHAPE] {
            let config = OnlineConfig::for_tests(20);
            let (paths, _, _) = assert_delta_equals_reference(&catalog, sql, config, false);
            assert!(paths[KEPT] > 0 && paths[STRAIGHT] == 0, "{sql}: {paths:?}");
        }
        for (sql, scoped) in [(Q17_SHAPE, false), (Q17_SHAPE, true), (Q20_SHAPE, true)] {
            let config = OnlineConfig::for_tests(20).with_epsilon(EpsilonPolicy::StdDevScaled(0.5));
            let (paths, recoveries, n_scoped) =
                assert_delta_equals_reference(&catalog, sql, config, !scoped);
            assert!(recoveries > 0, "{sql}: no recovery");
            assert_eq!(n_scoped > 0, scoped, "{sql}: {n_scoped} scoped recoveries");
            assert!(paths[KEPT] > 0 && paths[REBUILT] > 0, "{sql}: {paths:?}");
        }
    }

    /// A MIN/MAX root cannot retract: every group folds straight. NaN, ±∞
    /// and ±1e308 in the aggregated column send the groups holding them
    /// straight too, and the rest keep their contributions; either way the
    /// bits are the reference's.
    #[test]
    fn delta_remerge_falls_back_where_it_cannot_retract() {
        let min_max = "SELECT k, MIN(x) AS lo, MAX(x) AS hi FROM t l \
                       WHERE q < (SELECT AVG(q) FROM t i WHERE i.k = l.k) GROUP BY k ORDER BY k";
        let config = OnlineConfig::for_tests(20);
        let (paths, _, _) = assert_delta_equals_reference(&catalog(), min_max, config, false);
        assert!(
            paths[KEPT] + paths[REBUILT] == 0 && paths[STRAIGHT] > 0,
            "{paths:?}"
        );
        let hostile = catalog_with(Hostile::Aggregated);
        for sql in [Q17_SHAPE, C3_SHAPE] {
            let config = OnlineConfig::for_tests(20);
            let (paths, _, _) = assert_delta_equals_reference(&hostile, sql, config, false);
            assert!(paths[STRAIGHT] > 0, "{sql}: {paths:?}");
            if sql == C3_SHAPE {
                assert!(paths[KEPT] > 0, "{sql}: {paths:?}");
            }
        }
    }

    /// An `Int` producer (MAX over an integer column) keeps integer
    /// arithmetic on the fast path: its trials publish as values, and
    /// `2 * MAX(k)` is an integer in every lane.
    #[test]
    fn int_scalar_fast_scalar_cmp_equals_generic() {
        let sql = "SELECT SUM(x) AS s, COUNT(*) AS n FROM t l \
                   WHERE k + j > 2 * (SELECT MAX(k) FROM t i WHERE i.j = l.j) - 62";
        assert_root_takes_scalar_cmp(&catalog(), sql, 1);
        assert_fast_equals_generic(sql, 1);
        assert_fast_equals_generic(sql, 2);
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

    /// A stream that closes while some of its visible batches are still
    /// unprocessed: the step that takes the last of them flags it final,
    /// and the execution ends after it, recomputing or not.
    #[test]
    fn the_last_batch_of_a_stream_closed_early_is_final() {
        let table = catalog().get("t").unwrap();
        let stream = gola_storage::StreamTable::new(Arc::clone(table.schema()));
        stream.append_rows(&table.rows()).unwrap();
        stream.seal().unwrap();
        let mut live = Catalog::new();
        live.register_stream("t", Arc::clone(&stream)).unwrap();
        let sql = "SELECT k, COUNT(*) AS n FROM t GROUP BY k";
        let mut exec = executor_with(&live, sql, OnlineConfig::for_tests(4).with_seed(1));
        let finals = |exec: &mut OnlineExecution, n| -> Vec<bool> {
            (0..n).map(|_| step(exec).is_final()).collect()
        };
        assert_eq!(finals(&mut exec, 2), [false, false]);
        stream.close().unwrap();
        assert_eq!(finals(&mut exec, 2), [false, true]);
        assert!(exec.is_complete());
        assert!(exec.next().is_none(), "no batch is left");
        assert!(exec.step_recomputing().is_none(), "no batch is left");
    }

    /// The scheduler reads a query's urgency from its contract driver: an
    /// uncontracted query stays normal, and an `ERROR` query that met its
    /// target is urgent.
    #[test]
    fn urgency_comes_from_the_contract_driver() {
        let catalog = catalog();
        let mut plain = executor(&catalog, "SELECT SUM(q) FROM t", 1);
        while plain.next().is_some() {
            assert_eq!(plain.urgency(), Urgency::Normal);
        }
        let sql = "SELECT SUM(q) FROM t ERROR 10% CONFIDENCE 95%";
        let mut exec = executor(&catalog, sql, 1);
        let last = exec.by_ref().map(Result::unwrap).last().unwrap();
        let stop = last.contract.as_ref().unwrap().stop;
        assert_eq!(stop, Some(crate::ContractStop::ErrorTargetMet));
        assert!(!last.is_final(), "the target is met early");
        assert_eq!(exec.urgency(), Urgency::Urgent);
    }
}
