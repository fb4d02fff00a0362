//! Honoring `ERROR`/`WITHIN` query contracts (BlinkDB-style, PAPERS.md
//! §1203.5485) on top of the mini-batch executor.
//!
//! The [`ContractDriver`] is a field of the [`crate::OnlineExecution`]
//! it stops, and reads every step's report. For an **error-bounded** query
//! it annotates every report with the achieved relative error (worst CI
//! half-width over |value| across all estimated cells, at the contract's
//! confidence) and stops at the first batch where it meets the target — a
//! decision computed purely from the report's floats, so it is
//! deterministic and thread-invariant. For a **time-bounded** query it
//! tracks an EMA of per-batch wall time from the executor's existing
//! timings and stops once one more batch would cross the deadline; every
//! batch before that still yields its report. The *stopping batch index*
//! of a deadline run is the one explicitly nondeterministic output of this
//! module — it depends on observed throughput; everything inside each
//! report remains the deterministic function of (data, seed, batch index)
//! it always was.
//!
//! The driver also sets the [`Urgency`] of the query's next scheduler
//! quantum: an `ERROR` query turns urgent once its achieved error is within
//! [`URGENT_ERROR_FACTOR`] of the target, a `WITHIN` query once the
//! driver's clock — the one its stop reads — passes
//! [`URGENT_DEADLINE_FRACTION`] of the budget. Urgency can shift *when* a
//! query runs, never what any query answers.
//!
//! Wall-clock reads go through [`Stopwatch`] only: `Instant::now` is a
//! `disallowed-methods` entry in `clippy.toml`.

use gola_common::timing::Stopwatch;
use gola_plan::QueryContract;

use crate::report::{BatchReport, ContractProgress, ContractStop};
use crate::sched::Urgency;

/// An `ERROR` contract turns urgent when its achieved relative error is
/// within this factor of the target — the query is in its endgame, so
/// boosting it drains the contract (and frees its slot) sooner.
const URGENT_ERROR_FACTOR: f64 = 4.0;

/// A `WITHIN <n> SECONDS` contract turns urgent past this fraction of its
/// deadline budget.
const URGENT_DEADLINE_FRACTION: f64 = 0.5;

/// Per-run state for one contract. Created with the execution when the
/// query (or the config) carries a contract.
#[derive(Debug)]
pub(crate) struct ContractDriver {
    contract: QueryContract,
    /// Started immediately before the first batch of a deadline run.
    clock: Option<Stopwatch>,
    /// EMA (α = 0.5) of observed per-batch wall seconds.
    ema_batch_secs: Option<f64>,
    /// Scheduling pressure from the latest observed report.
    urgency: Urgency,
    stopped: bool,
}

impl ContractDriver {
    pub fn new(contract: QueryContract) -> ContractDriver {
        ContractDriver {
            contract,
            clock: None,
            ema_batch_secs: None,
            urgency: Urgency::Normal,
            stopped: false,
        }
    }

    /// `true` once a stop decision has been made; the execution yields no
    /// further reports.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// The urgency [`ContractDriver::observe`] set for the next quantum.
    pub fn urgency(&self) -> Urgency {
        self.urgency
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

    /// Inspect one step's report, annotate it with contract progress, set
    /// the urgency of the next quantum, and decide whether the run stops
    /// here.
    pub fn observe(&mut self, report: &mut BatchReport, finished: bool) {
        let confidence = match self.contract {
            QueryContract::Error { confidence, .. } => confidence,
            QueryContract::Within { .. } => report.ci_level,
        };
        let achieved = report.achieved_rel_error(confidence);
        let (stop, urgent) = match self.contract {
            QueryContract::Error { target, .. } => {
                let met = achieved.is_some_and(|a| a <= target);
                let near = achieved.is_some_and(|a| a <= target * URGENT_ERROR_FACTOR);
                (met.then_some(ContractStop::ErrorTargetMet), near)
            }
            QueryContract::Within { seconds } => {
                let elapsed = self
                    .clock
                    .as_ref()
                    .map_or(0.0, |c| c.elapsed().as_secs_f64());
                let next = self.ema_batch_secs.unwrap_or(0.0);
                let late = elapsed + next >= seconds;
                let urgent = elapsed >= seconds * URGENT_DEADLINE_FRACTION;
                (late.then_some(ContractStop::DeadlineReached), urgent)
            }
        };
        let stop = if finished {
            Some(ContractStop::Exhausted)
        } else {
            stop
        };
        self.urgency = if urgent {
            Urgency::Urgent
        } else {
            Urgency::Normal
        };
        report.contract = Some(ContractProgress {
            contract: self.contract,
            achieved_rel_error: achieved,
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
    fn error_contract_turns_urgent_near_target() {
        let c = QueryContract::Error {
            target: 0.005,
            confidence: 0.95,
        };
        let mut d = ContractDriver::new(c);
        assert_eq!(d.urgency(), Urgency::Normal, "nothing observed yet");
        // Undefined error (an overflowed cell), then ~50%: far from target.
        let mut undefined = report(10.0, vec![9.9, 9.95, 10.0, 10.05, 10.1], false);
        undefined.estimates.push(CellEstimate {
            row: 0,
            col: 1,
            estimate: Estimate::new(f64::INFINITY, vec![f64::INFINITY; 5]),
        });
        d.observe(&mut undefined, false);
        assert_eq!(d.urgency(), Urgency::Normal);
        d.observe(
            &mut report(10.0, vec![5.0, 7.0, 10.0, 13.0, 15.0], false),
            false,
        );
        assert_eq!(d.urgency(), Urgency::Normal);
        // ~1%: within 4× of the 0.5% target, which it does not yet meet.
        let mut near = report(10.0, vec![9.9, 9.95, 10.0, 10.05, 10.1], false);
        d.observe(&mut near, false);
        assert_eq!(d.urgency(), Urgency::Urgent);
        assert!(!d.is_stopped());
        assert_eq!(near.contract.unwrap().stop, None);
    }

    /// Urgency reads the driver's clock, the one the deadline stop reads:
    /// a spent budget is urgent at once, a budget of years never is.
    #[test]
    fn deadline_contract_turns_urgent_past_half_budget() {
        let mut spent = ContractDriver::new(QueryContract::Within { seconds: 1e-9 });
        spent.start_clock();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(spent.urgency(), Urgency::Normal, "nothing observed yet");
        spent.observe(&mut report(10.0, vec![9.0, 10.0, 11.0], false), false);
        assert_eq!(spent.urgency(), Urgency::Urgent);
        let mut long = ContractDriver::new(QueryContract::Within { seconds: 1e9 });
        long.start_clock();
        long.note_batch(0.5);
        long.observe(&mut report(10.0, vec![9.0, 10.0, 11.0], false), false);
        assert_eq!(long.urgency(), Urgency::Normal);
        assert!(!long.is_stopped());
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
