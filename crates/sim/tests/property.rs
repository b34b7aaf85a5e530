//! Property-based tests for the simulator's configuration and metric types.

use proptest::prelude::*;
use rrp_model::CommunityConfig;
use rrp_sim::{PopularityTrace, QpcAccumulator, SimConfig};

proptest! {
    /// Config validation accepts exactly the unit interval for the surf
    /// fraction and the teleportation probability.
    #[test]
    fn sim_config_validation_matches_ranges(x in -1.0f64..2.0, c in -1.0f64..2.0) {
        let mut config = SimConfig::paper_default(0).with_surf_fraction(x);
        config.teleportation = c;
        let should_be_valid = (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&c);
        prop_assert_eq!(config.validate().is_ok(), should_be_valid);
    }

    /// The QPC accumulator always reports a ratio bounded by the largest
    /// per-day average quality it has seen, and never goes negative.
    #[test]
    fn qpc_accumulator_is_a_weighted_average(
        days in proptest::collection::vec((0.0f64..100.0, 0.01f64..1.0, 0.0f64..1.0), 1..50)
    ) {
        let mut acc = QpcAccumulator::default();
        let mut max_daily_quality: f64 = 0.0;
        for &(visits, quality, zero_fraction) in &days {
            acc.record_day(visits * quality, visits, zero_fraction);
            max_daily_quality = max_daily_quality.max(quality);
        }
        let qpc = acc.absolute_qpc();
        prop_assert!(qpc >= 0.0);
        prop_assert!(qpc <= max_daily_quality + 1e-9);
        prop_assert_eq!(acc.days, days.len() as u64);
        let zero = acc.mean_zero_awareness_fraction();
        prop_assert!((0.0..=1.0).contains(&zero));
    }

    /// `first_day_above` returns the first index whose popularity meets the
    /// threshold, and `None` exactly when no day does.
    #[test]
    fn trace_first_day_above_is_consistent(
        popularity in proptest::collection::vec(0.0f64..0.4, 0..200),
        threshold in 0.0f64..0.4,
    ) {
        let trace = PopularityTrace {
            daily_visits: vec![0.0; popularity.len()],
            popularity: popularity.clone(),
        };
        match trace.first_day_above(threshold) {
            Some(day) => {
                prop_assert!(popularity[day] >= threshold);
                for &p in &popularity[..day] {
                    prop_assert!(p < threshold);
                }
            }
            None => {
                prop_assert!(popularity.iter().all(|&p| p < threshold));
            }
        }
    }

    /// Recommended warm-up and measurement windows scale linearly with the
    /// expected page lifetime.
    #[test]
    fn recommended_windows_scale_with_lifetime(lifetime_days in 1.0f64..5_000.0) {
        let config = SimConfig::for_community(
            CommunityConfig::builder()
                .expected_lifetime_days(lifetime_days)
                .build()
                .unwrap(),
            0,
        );
        prop_assert_eq!(config.recommended_warmup_days(), (2.0 * lifetime_days).ceil() as u64);
        prop_assert_eq!(config.recommended_measure_days(), (2.0 * lifetime_days).ceil() as u64);
    }
}
