//! Contract-aware urgency: how a query's latest report sets the priority
//! of its next quantum.

use gola_plan::QueryContract;

use crate::report::BatchReport;
use crate::sched::Urgency;

/// An `ERROR` contract turns urgent when its achieved relative error is
/// within this factor of the target — the query is in its endgame, so
/// boosting it drains the contract (and frees its slot) sooner.
pub const URGENT_ERROR_FACTOR: f64 = 4.0;

/// A `WITHIN <n> SECONDS` contract turns urgent past this fraction of its
/// deadline budget.
pub const URGENT_DEADLINE_FRACTION: f64 = 0.5;

/// Contract pressure from the latest report.
///
/// `ERROR` urgency depends only on report-derived quantities (achieved
/// relative CI width vs. target), so it is deterministic across runs.
/// `WITHIN` urgency reads the report's cumulative wall-clock — inherently
/// nondeterministic, exactly like the deadline stop itself; it can shift
/// *when* a deadline query runs, never what any query answers.
pub(crate) fn urgency_from(report: &BatchReport) -> Urgency {
    let Some(progress) = &report.contract else {
        return Urgency::Normal;
    };
    match progress.contract {
        QueryContract::Error { target, .. } => {
            let near = progress
                .achieved_rel_error
                .is_some_and(|a| a <= target * URGENT_ERROR_FACTOR);
            if near {
                Urgency::Urgent
            } else {
                Urgency::Normal
            }
        }
        QueryContract::Within { seconds } => {
            if report.cumulative_time.as_secs_f64() >= seconds * URGENT_DEADLINE_FRACTION {
                Urgency::Urgent
            } else {
                Urgency::Normal
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ContractProgress;
    use gola_storage::Table;
    use std::sync::Arc;
    use std::time::Duration;

    fn report(progress: Option<ContractProgress>, secs: f64) -> BatchReport {
        BatchReport {
            batch_index: 0,
            num_batches: 1,
            rows_seen: 0,
            total_rows: 0,
            multiplicity: 1.0,
            table: Table::empty(Arc::new(gola_common::Schema::new(Vec::new()))),
            estimates: Vec::new(),
            row_certain: Vec::new(),
            ci_level: 0.95,
            uncertain_tuples: 0,
            recomputations: 0,
            batch_time: Duration::ZERO,
            cumulative_time: Duration::from_secs_f64(secs),
            timing: Default::default(),
            contract: progress,
        }
    }

    #[test]
    fn uncontracted_reports_are_normal() {
        assert_eq!(urgency_from(&report(None, 100.0)), Urgency::Normal);
    }

    #[test]
    fn error_contract_turns_urgent_near_target() {
        let progress = |achieved| {
            Some(ContractProgress {
                contract: QueryContract::Error {
                    target: 0.01,
                    confidence: 0.95,
                },
                achieved_rel_error: achieved,
                stop: None,
            })
        };
        assert_eq!(urgency_from(&report(progress(None), 0.0)), Urgency::Normal);
        assert_eq!(
            urgency_from(&report(progress(Some(0.2)), 0.0)),
            Urgency::Normal
        );
        assert_eq!(
            urgency_from(&report(progress(Some(0.03)), 0.0)),
            Urgency::Urgent
        );
    }

    #[test]
    fn deadline_contract_turns_urgent_past_half_budget() {
        let progress = Some(ContractProgress {
            contract: QueryContract::Within { seconds: 10.0 },
            achieved_rel_error: None,
            stop: None,
        });
        assert_eq!(
            urgency_from(&report(progress.clone(), 1.0)),
            Urgency::Normal
        );
        assert_eq!(urgency_from(&report(progress, 6.0)), Urgency::Urgent);
    }
}
