//! Honoring `ERROR`/`WITHIN` query contracts (BlinkDB-style, PAPERS.md
//! §1203.5485) on top of the mini-batch executor.
//!
//! The [`ContractDriver`] is a field of the [`crate::OnlineExecution`]
//! it sizes and stops, read between its steps. For an **error-bounded** query it annotates every report with
//! the achieved relative error (worst CI half-width over |value| across
//! all estimated cells, at the contract's confidence) and stops at the
//! first batch where it meets the target — a decision computed purely from
//! the report's floats, so it is deterministic and thread-invariant. For a
//! **time-bounded** query it adapts the *effective* mini-batch size to the
//! deadline (PF-OLA-style report coalescing, PAPERS.md §1206.0051): it
//! tracks an EMA of per-batch wall time from the executor's existing
//! timings, folds several partitioner batches into one published report
//! when the remaining budget allows, and stops once one more batch would
//! cross the deadline. The *stopping batch index* of a deadline run is the
//! one explicitly nondeterministic output of this module — it depends on
//! observed throughput; everything inside each report remains the
//! deterministic function of (data, seed, batch index) it always was.
//!
//! Wall-clock reads go through [`Stopwatch`] only: `Instant::now` is a
//! `disallowed-methods` entry in `clippy.toml`.

use gola_common::timing::Stopwatch;
use gola_plan::QueryContract;

use crate::report::{BatchReport, ContractProgress, ContractStop};

/// Per-run state for one contract. Created with the execution when the
/// query (or the config) carries a contract.
#[derive(Debug)]
pub(crate) struct ContractDriver {
    contract: QueryContract,
    /// Started immediately before the first batch of a deadline run.
    clock: Option<Stopwatch>,
    /// EMA (α = 0.5) of observed per-batch wall seconds.
    ema_batch_secs: Option<f64>,
    stopped: bool,
}

impl ContractDriver {
    pub fn new(contract: QueryContract) -> ContractDriver {
        ContractDriver {
            contract,
            clock: None,
            ema_batch_secs: None,
            stopped: false,
        }
    }

    /// `true` once a stop decision has been made; the execution yields no
    /// further reports.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Start the deadline clock (idempotent; no-op for error contracts,
    /// which never read the wall clock).
    pub fn start_clock(&mut self) {
        if matches!(self.contract, QueryContract::Within { .. }) && self.clock.is_none() {
            self.clock = Some(Stopwatch::start());
        }
    }

    /// Feed one executed batch's wall time into the throughput model.
    pub fn note_batch(&mut self, secs: f64) {
        self.ema_batch_secs = Some(match self.ema_batch_secs {
            None => secs,
            Some(e) => 0.5 * e + 0.5 * secs,
        });
    }

    /// How many partitioner batches to fold into the next published report
    /// (PF-OLA report coalescing). Error-bounded runs always report every
    /// batch — each report is a stopping opportunity. Deadline runs size
    /// the round so roughly two more reports fit in the remaining budget.
    pub fn batches_this_round(&self, remaining: usize) -> usize {
        let QueryContract::Within { seconds } = self.contract else {
            return 1;
        };
        let (Some(clock), Some(ema)) = (&self.clock, self.ema_batch_secs) else {
            return 1; // first round: no throughput observation yet
        };
        let remaining = remaining.max(1);
        if ema <= 0.0 {
            // Batches are too fast to time: no need to coalesce.
            return 1;
        }
        let left = seconds - clock.elapsed().as_secs_f64();
        let mut c = 1usize;
        // Grow the round while twice its predicted cost still fits, so a
        // second report remains affordable after this one.
        while c < remaining && (c + 1) as f64 * ema * 2.0 <= left {
            c += 1;
        }
        c
    }

    /// Inspect the report that ends a round, annotate it with contract
    /// progress, and decide whether the run stops here.
    pub fn observe(&mut self, report: &mut BatchReport, finished: bool) {
        let stop = match self.contract {
            QueryContract::Error { target, confidence } => {
                let met = report
                    .achieved_rel_error(confidence)
                    .is_some_and(|a| a <= target);
                if finished {
                    Some(ContractStop::Exhausted)
                } else if met {
                    Some(ContractStop::ErrorTargetMet)
                } else {
                    None
                }
            }
            QueryContract::Within { seconds } => {
                let elapsed = self
                    .clock
                    .as_ref()
                    .map_or(0.0, |c| c.elapsed().as_secs_f64());
                let next = self.ema_batch_secs.unwrap_or(0.0);
                if finished {
                    Some(ContractStop::Exhausted)
                } else if elapsed + next >= seconds {
                    Some(ContractStop::DeadlineReached)
                } else {
                    None
                }
            }
        };
        let confidence = match self.contract {
            QueryContract::Error { confidence, .. } => confidence,
            QueryContract::Within { .. } => report.ci_level,
        };
        report.contract = Some(ContractProgress {
            contract: self.contract,
            achieved_rel_error: report.achieved_rel_error(confidence),
            stop,
        });
        if stop.is_some() {
            self.stopped = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BatchTiming, CellEstimate};
    use gola_bootstrap::Estimate;
    use gola_common::{row, DataType, Schema};
    use gola_storage::Table;
    use std::sync::Arc;
    use std::time::Duration;

    fn report(value: f64, replicas: Vec<f64>, finalish: bool) -> BatchReport {
        let schema = Arc::new(Schema::from_pairs(&[("v", DataType::Float)]));
        BatchReport {
            batch_index: if finalish { 7 } else { 2 },
            num_batches: 8,
            rows_seen: 100,
            total_rows: 800,
            multiplicity: 8.0,
            table: Table::new_unchecked(schema, vec![row![value]]),
            estimates: vec![CellEstimate {
                row: 0,
                col: 0,
                estimate: Estimate::new(value, replicas),
            }],
            row_certain: vec![false],
            ci_level: 0.95,
            uncertain_tuples: 0,
            recomputations: 0,
            batch_time: Duration::from_millis(5),
            cumulative_time: Duration::from_millis(15),
            timing: BatchTiming::default(),
            contract: None,
        }
    }

    #[test]
    fn error_contract_stops_on_tight_ci_only() {
        let c = QueryContract::Error {
            target: 0.05,
            confidence: 0.95,
        };
        // Loose CI: half-width ~50% of the value — keep running.
        let mut d = ContractDriver::new(c);
        let mut loose = report(10.0, vec![5.0, 7.0, 10.0, 13.0, 15.0], false);
        d.observe(&mut loose, false);
        assert!(!d.is_stopped());
        let p = loose.contract.as_ref().unwrap();
        assert!(p.stop.is_none());
        assert!(p.achieved_rel_error.unwrap() > 0.05);
        // Tight CI: half-width ~1% — stop.
        let mut tight = report(10.0, vec![9.9, 9.95, 10.0, 10.05, 10.1], false);
        d.observe(&mut tight, false);
        assert!(d.is_stopped());
        assert_eq!(
            tight.contract.unwrap().stop,
            Some(ContractStop::ErrorTargetMet)
        );
    }

    #[test]
    fn an_undefined_cell_error_keeps_the_contract_running() {
        let c = QueryContract::Error {
            target: 0.05,
            confidence: 0.95,
        };
        // A tight cell beside one whose SUM overflowed: `[∞, ∞]` has a NaN
        // half-width, so the report's error is undefined, not the tight
        // cell's 1%.
        let mut r = report(10.0, vec![9.9, 9.95, 10.0, 10.05, 10.1], false);
        r.estimates.push(CellEstimate {
            row: 0,
            col: 1,
            estimate: Estimate::new(f64::INFINITY, vec![f64::INFINITY; 5]),
        });
        assert_eq!(r.achieved_rel_error(0.95), None);
        let mut d = ContractDriver::new(c);
        d.observe(&mut r, false);
        assert!(!d.is_stopped());
        assert_eq!(r.contract.unwrap().stop, None);
    }

    #[test]
    fn exhaustion_beats_error_target() {
        let c = QueryContract::Error {
            target: 0.0001,
            confidence: 0.95,
        };
        let mut d = ContractDriver::new(c);
        let mut r = report(10.0, vec![5.0, 10.0, 15.0], true);
        d.observe(&mut r, true);
        assert!(d.is_stopped());
        assert_eq!(r.contract.unwrap().stop, Some(ContractStop::Exhausted));
    }

    #[test]
    fn deadline_coalescing_grows_with_budget() {
        let c = QueryContract::Within { seconds: 60.0 };
        let mut d = ContractDriver::new(c);
        assert_eq!(d.batches_this_round(100), 1, "no observations yet");
        d.start_clock();
        d.note_batch(0.1); // 100ms/batch, 60s budget → large rounds
        let round = d.batches_this_round(100);
        assert!(round > 10, "round {round}");
        assert_eq!(d.batches_this_round(4), 4, "capped by remaining");
        // A nearly-spent budget forces the round back to 1.
        let mut tight = ContractDriver::new(QueryContract::Within { seconds: 1e-9 });
        tight.start_clock();
        tight.note_batch(0.1);
        assert_eq!(tight.batches_this_round(100), 1);
    }

    #[test]
    fn deadline_stop_is_flagged() {
        let mut d = ContractDriver::new(QueryContract::Within { seconds: 1e-9 });
        d.start_clock();
        d.note_batch(0.5);
        let mut r = report(10.0, vec![9.0, 10.0, 11.0], false);
        d.observe(&mut r, false);
        assert!(d.is_stopped());
        assert_eq!(
            r.contract.unwrap().stop,
            Some(ContractStop::DeadlineReached)
        );
    }
}
