//! Conformance harness for the G-OLA online executor: generative
//! differential testing plus statistical calibration (DESIGN.md §3.7).
//!
//! The harness answers three questions no example-based test can:
//!
//! * **Is the online executor *correct*?** A seeded query generator
//!   ([`gen`]) draws thousands of queries over the workload schemas —
//!   nested and correlated subqueries, GROUP BY/HAVING, three-valued-logic
//!   predicates — and the differential oracle ([`oracle`]) demands the
//!   final-batch online answer bit-match the exact batch engine at
//!   `threads ∈ {1, N}`.
//! * **Is the refinement trajectory *sound*?** Per-batch invariants:
//!   same-seed reruns bit-identical, certain rows never retract (absent a
//!   counted recomputation), multiplicity and row counts well-shaped.
//! * **Are the error bars *honest*?** Empirical CI coverage over hundreds
//!   of seeded datasets must land in an exact binomial band ([`calib`]),
//!   and `ERROR p%` contracts must keep their promise ([`contract`]).
//!
//! Every leg runs under plain `cargo test` (`tests/smoke.rs`); a failure
//! prints the seed and SQL that replay it.

pub mod calib;
pub mod contract;
pub mod gen;
pub mod oracle;

pub use calib::{binomial_band, calibrate, default_classes, CalibClass, CalibConfig, CalibReport};
pub use contract::{
    check_contract, default_contract_classes, ContractClass, ContractConfig, ContractReport,
};
pub use gen::{Query, QueryGen, SchemaClass};
pub use oracle::{
    assert_reports_identical, reports_identical, run_case, tables_bit_equal, CaseStats, Failure,
    Fault, OracleConfig,
};
