//! Online execution configuration.

use gola_bootstrap::{BootstrapSpec, EpsilonPolicy};
use gola_common::{Error, Result};
use gola_plan::QueryContract;

/// Tuning knobs of the online executor.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Number of mini-batches `k`. The paper sets this from how often the
    /// user wants updates (§2.1).
    pub num_batches: usize,
    /// Bootstrap replica count and weight seed. `trials = 0` disables error
    /// estimation (and variation ranges degenerate to points, so every
    /// uncertain predicate stays uncertain — only useful for overhead
    /// ablations).
    pub bootstrap: BootstrapSpec,
    /// Slack `ε` of the variation ranges that classify tuples (paper §3.2).
    /// The paper recommends `ε = stddev(bootstrap outputs)`; the default is
    /// three standard deviations. A committed envelope must cover the value's *entire
    /// remaining trajectory*, not just its current bootstrap spread: under
    /// mini-batch streaming a running aggregate legitimately drifts, and an
    /// envelope sized for one batch gets crossed eventually (one violation
    /// per few hundred group-batches adds up over thousands of groups).
    /// Reported confidence intervals do not read it.
    pub epsilon: EpsilonPolicy,
    /// Seed of the random mini-batch partitioner.
    pub partition_seed: u64,
    /// Confidence level for reported intervals.
    pub ci_level: f64,
    /// Threads of the session's own worker pool (1 = sequential). With
    /// more than one, a wave's blocks and the on-demand weight fill run on
    /// the pool, and when some streaming block folds every row the next
    /// batch is gathered and weighed on it while the step runs. Never
    /// reaches a report bit.
    pub threads: usize,
    /// Accuracy/deadline contract applied when the query itself carries
    /// none (a SQL-level `ERROR`/`WITHIN` clause wins over this).
    pub contract: Option<QueryContract>,
    /// Stratify mini-batches on this stream-table column instead of
    /// sampling uniformly. Estimates use per-stratum multiplicities and
    /// FPC when the query groups by this column (see DESIGN.md §3.10).
    pub stratify_column: Option<String>,
    /// Session dimension for the observability registry. When set, the
    /// executor's per-report metrics (`report.batches`, `report.ci_width`,
    /// ...) are registered with a `session="<label>"` label so concurrent
    /// sessions in one process never write through the same gauge cell.
    /// `None` (the default, and the single-session CLI path) keeps the
    /// historical unlabeled names.
    pub session_label: Option<String>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            num_batches: 100,
            bootstrap: BootstrapSpec::default(),
            epsilon: EpsilonPolicy::StdDevScaled(3.0),
            partition_seed: 0xF1_00_DB,
            ci_level: 0.95,
            threads: 1,
            contract: None,
            stratify_column: None,
            session_label: None,
        }
    }
}

impl OnlineConfig {
    /// A small configuration for tests: few batches, few trials.
    pub fn for_tests(num_batches: usize) -> Self {
        OnlineConfig {
            num_batches,
            bootstrap: BootstrapSpec::new(32, 7),
            ..OnlineConfig::default()
        }
    }

    pub fn with_batches(mut self, k: usize) -> Self {
        self.num_batches = k;
        self
    }

    pub fn with_trials(mut self, b: u32) -> Self {
        self.bootstrap.trials = b;
        self
    }

    pub fn with_epsilon(mut self, policy: EpsilonPolicy) -> Self {
        self.epsilon = policy;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.partition_seed = seed;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn with_contract(mut self, contract: QueryContract) -> Self {
        self.contract = Some(contract);
        self
    }

    pub fn with_stratify_column(mut self, column: impl Into<String>) -> Self {
        self.stratify_column = Some(column.into());
        self
    }

    pub fn with_session_label(mut self, label: impl Into<String>) -> Self {
        self.session_label = Some(label.into());
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_batches == 0 {
            return Err(Error::config("num_batches must be >= 1"));
        }
        if !(self.ci_level > 0.0 && self.ci_level < 1.0) {
            return Err(Error::config(format!(
                "ci_level {} outside (0, 1)",
                self.ci_level
            )));
        }
        if self.threads == 0 {
            return Err(Error::config("threads must be >= 1"));
        }
        // NaN must not slip past: a NaN or negative slack inverts every
        // envelope (`lo > hi`), silently.
        let (EpsilonPolicy::StdDevScaled(e) | EpsilonPolicy::Fixed(e)) = self.epsilon;
        if !e.is_finite() || e < 0.0 {
            return Err(Error::config(format!(
                "epsilon {:?} must be finite and >= 0",
                self.epsilon
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(OnlineConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = OnlineConfig::default()
            .with_batches(10)
            .with_trials(5)
            .with_seed(9)
            .with_threads(4)
            .with_epsilon(EpsilonPolicy::Fixed(0.5));
        assert_eq!(c.num_batches, 10);
        assert_eq!(c.bootstrap.trials, 5);
        assert_eq!(c.partition_seed, 9);
        assert_eq!(c.threads, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(OnlineConfig::default().with_batches(0).validate().is_err());
        let mut c = OnlineConfig {
            ci_level: 1.0,
            ..OnlineConfig::default()
        };
        assert!(c.validate().is_err());
        c.ci_level = 0.0;
        assert!(c.validate().is_err());
        c.ci_level = f64::NAN;
        assert!(c.validate().is_err());
        c.ci_level = 0.95;
        c.threads = 0;
        assert!(c.validate().is_err());
        let valid = OnlineConfig::default;
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            for policy in [EpsilonPolicy::StdDevScaled(bad), EpsilonPolicy::Fixed(bad)] {
                assert!(valid().with_epsilon(policy).validate().is_err());
            }
        }
        // The degenerate-but-sound end stays legal.
        assert!(valid()
            .with_epsilon(EpsilonPolicy::Fixed(0.0))
            .validate()
            .is_ok());
        // Every rejection is the typed config error.
        let err = valid()
            .with_epsilon(EpsilonPolicy::StdDevScaled(-3.0))
            .validate()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }
}
