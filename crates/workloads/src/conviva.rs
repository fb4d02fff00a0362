//! Conviva-like video session log generator and query suite.
//!
//! Columns mirror the paper's simplified `Sessions` log (§1) extended with
//! the dimensions its demo scenarios aggregate over (§6.1): content, ad,
//! geography, device, join failures. Buffer times are right-skewed with a
//! small population of "abnormal" sessions whose buffering is much longer —
//! the sub-population queries C1–C3 isolate.

use std::sync::Arc;

use gola_common::rng::SplitMix64;
use gola_common::{DataType, Row, Schema, Value};
use gola_storage::Table;

/// Seeded generator for the `sessions` fact table.
#[derive(Debug, Clone)]
pub struct ConvivaGenerator {
    pub seed: u64,
    pub num_ads: u64,
    pub num_contents: u64,
    pub num_geos: u64,
    /// Fraction of sessions with abnormally long buffering.
    pub abnormal_fraction: f64,
    /// When set, the *last* geography is rare (~1% of sessions) and the
    /// rest are uniform — the stratified-sampling rare-group scenario.
    /// `false` keeps the default generator bit-identical to before.
    pub geo_skew: bool,
}

impl Default for ConvivaGenerator {
    fn default() -> Self {
        ConvivaGenerator {
            seed: 0xC0_7F1A,
            num_ads: 24,
            num_contents: 200,
            num_geos: 12,
            abnormal_fraction: 0.08,
            geo_skew: false,
        }
    }
}

const GEOS: [&str; 12] = [
    "us-east",
    "us-west",
    "eu-west",
    "eu-north",
    "ap-south",
    "ap-east",
    "sa-east",
    "af-south",
    "oc-east",
    "me-central",
    "ca-central",
    "in-west",
];
const DEVICES: [&str; 5] = ["tv", "desktop", "mobile", "tablet", "console"];

impl ConvivaGenerator {
    /// Schema of the generated sessions table.
    pub fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[
            ("session_id", DataType::Int),
            ("user_id", DataType::Int),
            ("content_id", DataType::Int),
            ("ad_id", DataType::Int),
            ("geo", DataType::Str),
            ("device", DataType::Str),
            ("buffer_time", DataType::Float),
            ("play_time", DataType::Float),
            ("join_time", DataType::Float),
            ("join_failed", DataType::Int),
            ("ad_revenue", DataType::Float),
        ]))
    }

    /// A ready-to-use catalog with `n` rows of `sessions` registered.
    pub fn catalog(&self, n: usize) -> gola_storage::Catalog {
        let mut c = gola_storage::Catalog::new();
        c.register("sessions", Arc::new(self.generate(n)))
            .expect("fresh catalog");
        c
    }

    /// Generate `n` session rows.
    pub fn generate(&self, n: usize) -> Table {
        let mut rng = SplitMix64::new(self.seed);
        let geos = &GEOS[..(self.num_geos as usize).min(GEOS.len())];
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let user = rng.next_below(n as u64 / 3 + 1) as i64;
            let content = rng.next_below(self.num_contents) as i64;
            let ad = (rng.next_below(self.num_ads) + 1) as i64;
            let geo = if self.geo_skew && geos.len() > 1 {
                if rng.next_f64() < 0.01 {
                    geos[geos.len() - 1]
                } else {
                    geos[rng.next_below(geos.len() as u64 - 1) as usize]
                }
            } else {
                geos[rng.next_below(geos.len() as u64) as usize]
            };
            let device = DEVICES[rng.next_below(DEVICES.len() as u64) as usize];
            let abnormal = rng.next_f64() < self.abnormal_fraction;
            // Right-skewed buffering; abnormal sessions buffer far longer.
            let base_buffer = -(1.0 - rng.next_f64()).ln() * 8.0;
            let buffer = if abnormal {
                35.0 + base_buffer * 4.0
            } else {
                base_buffer
            };
            // Long buffering depresses play time (the SBI effect).
            let engagement = (600.0 * rng.next_f64() + 60.0) * (1.0 - (buffer / 200.0).min(0.7));
            let join_time = 0.5 + rng.next_f64() * 3.0 + if abnormal { 4.0 } else { 0.0 };
            let join_failed = (rng.next_f64() < if abnormal { 0.22 } else { 0.03 }) as i64;
            let play = if join_failed == 1 { 0.0 } else { engagement };
            let revenue = if join_failed == 1 {
                0.0
            } else {
                (play / 120.0).floor() * (0.8 + ad as f64 * 0.05)
            };
            rows.push(Row::new(vec![
                Value::Int(i as i64),
                Value::Int(user),
                Value::Int(content),
                Value::Int(ad),
                Value::str(geo),
                Value::str(device),
                Value::Float(buffer),
                Value::Float(play),
                Value::Float(join_time),
                Value::Int(join_failed),
                Value::Float(revenue),
            ]));
        }
        Table::new_unchecked(Self::schema(), rows)
    }
}

/// The paper's Example 1 — Slow Buffering Impact.
pub const SBI: &str = "SELECT AVG(play_time) FROM sessions \
     WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";

/// C1: histogram of `play_time` for sessions with longer-than-average
/// buffering (paper §5: "histograms of play_time ... of sessions with
/// abnormal behaviors").
pub const C1: &str = "SELECT floor(play_time / 120) AS play_bucket, COUNT(*) AS sessions \
     FROM sessions \
     WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions) \
     GROUP BY play_bucket ORDER BY play_bucket";

/// C2: join-failure rate per geography among sessions buffering more than
/// one standard deviation above the mean.
pub const C2: &str = "SELECT geo, AVG(join_failed) AS join_failure_rate, COUNT(*) AS sessions \
     FROM sessions \
     WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions) \
                         + (SELECT STDDEV(buffer_time) FROM sessions) \
     GROUP BY geo ORDER BY join_failure_rate DESC";

/// C3: per-ad engagement of sessions underperforming their own ad's
/// average play time (correlated inner aggregate).
pub const C3: &str = "SELECT ad_id, AVG(play_time) AS below_avg_play, COUNT(*) AS sessions \
     FROM sessions s \
     WHERE play_time < (SELECT AVG(play_time) FROM sessions t WHERE t.ad_id = s.ad_id) \
     GROUP BY ad_id ORDER BY ad_id";

/// All Conviva-suite queries as `(name, sql)`.
pub fn queries() -> Vec<(&'static str, &'static str)> {
    vec![("SBI", SBI), ("C1", C1), ("C2", C2), ("C3", C3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = ConvivaGenerator::default().generate(500);
        let b = ConvivaGenerator::default().generate(500);
        assert_eq!(a.rows(), b.rows());
        let c = ConvivaGenerator {
            seed: 1,
            ..Default::default()
        }
        .generate(500);
        assert_ne!(a.rows(), c.rows());
    }

    #[test]
    fn schema_and_shape() {
        let t = ConvivaGenerator::default().generate(2000);
        assert_eq!(t.num_rows(), 2000);
        assert_eq!(t.schema().len(), 11);
        // Buffer times are positive and right-skewed: mean > median.
        let buffers: Vec<f64> = t
            .column("buffer_time")
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert!(buffers.iter().all(|&b| b >= 0.0));
        let mean = gola_common::stats::mean(&buffers).unwrap();
        let median = gola_common::stats::percentile(&buffers, 0.5).unwrap();
        assert!(mean > median, "mean {mean} median {median}");
    }

    #[test]
    fn abnormal_sessions_fail_more() {
        let t = ConvivaGenerator::default().generate(20_000);
        let (mut ab_fail, mut ab_n, mut ok_fail, mut ok_n) = (0.0, 0.0, 0.0, 0.0);
        for r in t.rows() {
            let buffer = r.get(6).as_f64().unwrap();
            let failed = r.get(9).as_f64().unwrap();
            if buffer > 30.0 {
                ab_fail += failed;
                ab_n += 1.0;
            } else {
                ok_fail += failed;
                ok_n += 1.0;
            }
        }
        assert!(ab_n > 100.0);
        assert!(ab_fail / ab_n > 2.0 * (ok_fail / ok_n));
    }

    #[test]
    fn geo_skew_makes_last_geo_rare() {
        let skewed = ConvivaGenerator {
            geo_skew: true,
            ..Default::default()
        }
        .generate(20_000);
        let geos = skewed.column("geo").unwrap();
        let rare =
            geos.iter().filter(|v| **v == Value::str(GEOS[11])).count() as f64 / geos.len() as f64;
        assert!(
            rare > 0.002 && rare < 0.03,
            "rare geo fraction {rare} should be ~1%"
        );
        // Default path is bit-unchanged by the new knob.
        let a = ConvivaGenerator::default().generate(500);
        let b = ConvivaGenerator {
            geo_skew: false,
            ..Default::default()
        }
        .generate(500);
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn all_queries_compile_and_run_exactly() {
        let cat = ConvivaGenerator::default().catalog(1500);
        for (name, sql) in queries() {
            let graph = gola_sql::compile(sql, &cat)
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
            let out = gola_engine::BatchEngine::new(&cat)
                .execute(&graph)
                .unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
            assert!(out.num_rows() > 0, "{name} returned no rows");
        }
    }

    #[test]
    fn sbi_selects_a_minority_with_lower_play_time() {
        let cat = ConvivaGenerator::default().catalog(5000);
        let overall = gola_engine::BatchEngine::new(&cat)
            .execute(&gola_sql::compile("SELECT AVG(play_time) FROM sessions", &cat).unwrap())
            .unwrap();
        let slow = gola_engine::BatchEngine::new(&cat)
            .execute(&gola_sql::compile(SBI, &cat).unwrap())
            .unwrap();
        let overall = overall.rows()[0].get(0).as_f64().unwrap();
        let slow = slow.rows()[0].get(0).as_f64().unwrap();
        assert!(
            slow < overall,
            "slow-buffering sessions should play less: {slow} vs {overall}"
        );
    }
}
