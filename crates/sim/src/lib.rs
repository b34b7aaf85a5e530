//! # rrp-sim — discrete-time Web-community simulator
//!
//! The simulator the paper uses to validate its analytical model
//! (Section 6.2) and to produce every robustness result in Sections 7–8:
//! it maintains an evolving ranked list of pages, distributes user visits
//! according to the `rank^(-3/2)` attention law (Equation 4), tracks
//! awareness and popularity of individual pages, and creates/retires pages
//! under the Poisson lifetime model.
//!
//! * [`SimConfig`] — community, mixed-browsing fraction, seed;
//! * [`Simulation`] — the engine (one
//!   [`PolicyKind`](rrp_ranking::PolicyKind) per run, statically
//!   dispatched);
//! * [`SimMetrics`] — absolute/normalised quality-per-click;
//! * [`TbpResult`] / [`PopularityTrace`] — per-page probes (Figures 2, 4);
//! * [`PagePopulation`] — the evolving page slots, each patched into the
//!   day loop's [`CorpusCache`](rrp_ranking::CorpusCache) as it changes:
//!   the incrementally repaired stats, popularity order and promotion pool
//!   that keep the day loop free of per-day sorting, pool scanning and
//!   allocation (every serving shard keeps the same cache).
//!
//! ```
//! use rrp_sim::{SimConfig, Simulation};
//! use rrp_ranking::{PopularityRanking, RandomizedRankPromotion};
//! use rrp_model::CommunityConfig;
//!
//! let community = CommunityConfig::builder()
//!     .pages(100).users(50).monitored_users(10)
//!     .total_visits_per_day(50.0).expected_lifetime_days(60.0)
//!     .build().unwrap();
//!
//! // Baseline: strict popularity ranking.
//! let mut baseline = Simulation::new(
//!     SimConfig::for_community(community, 7),
//!     PopularityRanking,
//! ).unwrap();
//! let metrics = baseline.run_windows(120, 120);
//! assert!(metrics.normalized_qpc > 0.0);
//!
//! // The paper's recommended recipe.
//! let mut promoted = Simulation::new(
//!     SimConfig::for_community(community, 7),
//!     RandomizedRankPromotion::recommended(1),
//! ).unwrap();
//! let promoted_metrics = promoted.run_windows(120, 120);
//! assert!(promoted_metrics.days_measured == 120);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod community;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod probe;

pub use community::{PagePopulation, PageSlot};
pub use config::SimConfig;
pub use engine::Simulation;
pub use metrics::{PopularityTrace, QpcAccumulator, SimMetrics, TbpResult};
pub use probe::TBP_POPULARITY_THRESHOLD;
