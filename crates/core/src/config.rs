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
    /// Slack policy for variation ranges; the paper recommends
    /// `ε = stddev(bootstrap outputs)`.
    pub epsilon: EpsilonPolicy,
    /// Seed of the random mini-batch partitioner.
    pub partition_seed: u64,
    /// Confidence level for reported intervals.
    pub ci_level: f64,
    /// Stream this table; `None` picks the largest scanned table.
    pub stream_table: Option<String>,
    /// Worker threads for per-batch processing (1 = sequential).
    pub threads: usize,
    /// Small-sample guard: while a group's aggregate has fewer than this
    /// many observations, its bootstrap variation range is not trusted for
    /// deterministic classification (only monotone bounds apply). Bootstrap
    /// ranges over a handful of observations are spuriously tight and would
    /// cause failure/recompute churn on sparse groups.
    pub min_group_obs: f64,
    /// Committed envelopes must cover the value's *entire remaining
    /// trajectory*, not just its current bootstrap spread — under
    /// mini-batch streaming a running aggregate legitimately drifts, and an
    /// envelope sized for one batch gets crossed eventually (one violation
    /// per few hundred group-batches adds up over thousands of groups).
    /// Classification ranges therefore use `ε × envelope_inflation`.
    /// Reported confidence intervals are unaffected.
    pub envelope_inflation: f64,
    /// Stress knob: when set, the worker pool shuffles each run's job queue
    /// with this seed before dispatch, forcing adversarial completion
    /// orders. Reports must stay bit-identical — a failure under
    /// perturbation is a schedule-dependence bug. Test-only; leave `None`
    /// in production.
    pub schedule_perturbation: Option<u64>,
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
            epsilon: EpsilonPolicy::default(),
            partition_seed: 0xF1_00_DB,
            ci_level: 0.95,
            stream_table: None,
            threads: 1,
            min_group_obs: 5.0,
            envelope_inflation: 3.0,
            schedule_perturbation: None,
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

    pub fn with_stream_table(mut self, table: impl Into<String>) -> Self {
        self.stream_table = Some(table.into());
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

    pub fn with_perturbation(mut self, seed: u64) -> Self {
        self.schedule_perturbation = Some(seed);
        self
    }

    pub fn with_min_group_obs(mut self, obs: f64) -> Self {
        self.min_group_obs = obs;
        self
    }

    pub fn with_envelope_inflation(mut self, factor: f64) -> Self {
        self.envelope_inflation = factor;
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

    /// The epsilon policy used for *classification* envelopes: the
    /// configured policy scaled by [`OnlineConfig::envelope_inflation`].
    pub fn envelope_epsilon(&self) -> gola_bootstrap::EpsilonPolicy {
        use gola_bootstrap::EpsilonPolicy::*;
        match self.epsilon {
            StdDevScaled(s) => StdDevScaled(s * self.envelope_inflation),
            Fixed(e) => Fixed(e * self.envelope_inflation),
            Relative(r) => Relative(r * self.envelope_inflation),
        }
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
        // NaN must not slip past either check: a NaN guard trusts every
        // group, and a NaN or negative inflation inverts every envelope
        // (`lo > hi`), silently.
        if self.min_group_obs.is_nan() || self.min_group_obs < 0.0 {
            return Err(Error::config(format!(
                "min_group_obs {} must be >= 0",
                self.min_group_obs
            )));
        }
        if !self.envelope_inflation.is_finite() || self.envelope_inflation < 0.0 {
            return Err(Error::config(format!(
                "envelope_inflation {} must be finite and >= 0",
                self.envelope_inflation
            )));
        }
        if self.threads == 0 {
            return Err(Error::config("threads must be >= 1"));
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
            .with_stream_table("sessions")
            .with_seed(9)
            .with_threads(4)
            .with_epsilon(EpsilonPolicy::Fixed(0.5));
        assert_eq!(c.num_batches, 10);
        assert_eq!(c.bootstrap.trials, 5);
        assert_eq!(c.stream_table.as_deref(), Some("sessions"));
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
        for bad in [-1.0, f64::NAN] {
            assert!(valid().with_min_group_obs(bad).validate().is_err());
            assert!(valid().with_envelope_inflation(bad).validate().is_err());
        }
        assert!(valid()
            .with_envelope_inflation(f64::INFINITY)
            .validate()
            .is_err());
        // The degenerate-but-sound ends stay legal.
        assert!(valid().with_min_group_obs(0.0).validate().is_ok());
        assert!(valid().with_envelope_inflation(0.0).validate().is_ok());
        // Every rejection is the typed config error.
        let err = valid()
            .with_envelope_inflation(-3.0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }
}
