//! The day-by-day Web-community simulator.
//!
//! Mirrors the simulator described in Section 6.2 of the paper: it
//! "maintains an evolving ranked list of pages (the ranking method used is
//! configurable), and distributes user visits to pages according to
//! Equation 4 … keeps track of awareness and popularity values of individual
//! pages as they evolve over time, and creates and retires pages as dictated
//! by our model."
//!
//! Each simulated day:
//!
//! 1. the configured [`RankingPolicy`](rrp_ranking::RankingPolicy)
//!    produces the day's result list from the pages' current
//!    popularity/awareness;
//! 2. the day's *user* visits are spread over the list according to the
//!    `rank^(-3/2)` attention law (plus the random-surfing component of
//!    Section 8 when `surf_fraction > 0`), and the quality of every visited
//!    page is accumulated into the QPC metric;
//! 3. the day's *monitored-user* visits are sampled individually and update
//!    page awareness (a visit from a previously unaware monitored user
//!    raises the page's awareness by `1/m`);
//! 4. pages retire according to the Poisson lifetime model and are replaced
//!    by fresh zero-awareness pages of equal quality.

use crate::community::PagePopulation;
use crate::config::SimConfig;
use crate::metrics::{QpcAccumulator, SimMetrics};
use rand::Rng;
use rrp_attention::RankBias;
use rrp_model::{new_rng, Day, ModelResult, Quality, Rng64, SimClock};
use rrp_ranking::{CorpusCache, PolicyKind, RankBuffers};

/// The simulator.
pub struct Simulation {
    config: SimConfig,
    population: PagePopulation,
    /// The ranking policy, statically dispatched — no vtable call in the
    /// day loop.
    policy: PolicyKind,
    rng: Rng64,
    clock: SimClock,
    /// Rank-bias law for the full user population (budget `v_u`).
    total_bias: RankBias,
    /// Rank-bias law for monitored users (budget `v`).
    monitored_bias: RankBias,
    /// Cumulative view-probability table over rank positions, used to sample
    /// individual monitored search visits.
    rank_cdf: Vec<f64>,
    qpc: QpcAccumulator,
    ideal_qpc: f64,
    measuring: bool,
    /// Slots exempt from retirement (active TBP probes).
    protected_slots: Vec<usize>,
    /// The per-slot snapshot (see [`PagePopulation::page_stats`]), its
    /// popularity order and promotion pool. Every population change — a
    /// monitored visit that raised awareness, a retirement, a probe reset —
    /// patches its slot here at once, and each ranking repairs just those
    /// slots.
    cache: CorpusCache,
    /// Scratch arena for the allocation-free ranking path.
    buffers: RankBuffers,
    /// Today's result list (slot indices, rank 1 first), reused daily.
    ranking: Vec<usize>,
    /// Popularity CDF for random-surfing visits, reused daily.
    popularity_cdf: Vec<f64>,
}

impl Simulation {
    /// Create a simulation with explicit per-slot qualities.
    ///
    /// `policy` accepts any concrete ranking policy from `rrp_ranking` (or
    /// a [`PolicyKind`] directly) — e.g.
    /// `Simulation::new(config, PopularityRanking)`.
    pub fn with_qualities(
        config: SimConfig,
        qualities: &[Quality],
        policy: impl Into<PolicyKind>,
    ) -> ModelResult<Self> {
        config.validate()?;
        let population = PagePopulation::with_qualities(&config.community, qualities);
        let n = config.community.pages();
        let total_bias = RankBias::altavista(n, config.community.total_visits_per_day());
        let monitored_bias = RankBias::altavista(n, config.community.monitored_visits_per_day());
        let rank_cdf = cumulative(&monitored_bias.probabilities_by_rank());
        let ideal_qpc = ideal_qpc(&total_bias, qualities);
        let mut sim = Simulation {
            rng: new_rng(config.seed),
            config,
            population,
            policy: policy.into(),
            clock: SimClock::new(),
            total_bias,
            monitored_bias,
            rank_cdf,
            qpc: QpcAccumulator::default(),
            ideal_qpc,
            measuring: false,
            protected_slots: Vec::new(),
            cache: CorpusCache::new(),
            buffers: RankBuffers::with_capacity(n),
            ranking: Vec::with_capacity(n),
            popularity_cdf: Vec::new(),
        };
        let population = &sim.population;
        sim.cache
            .rebuild((0..n).map(|slot| population.page_stats(slot)));
        Ok(sim)
    }

    /// Create a simulation whose page qualities follow the paper's default
    /// power-law distribution (deterministic quantile assignment).
    pub fn new(config: SimConfig, policy: impl Into<PolicyKind>) -> ModelResult<Self> {
        let qualities = rrp_model::assign_qualities(
            &rrp_model::PowerLawQuality::paper_default(),
            config.community.pages(),
        );
        Simulation::with_qualities(config, &qualities, policy)
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The current simulated day.
    pub fn today(&self) -> Day {
        self.clock.now()
    }

    /// The page population (read access, for inspection in tests and
    /// experiment drivers).
    pub fn population(&self) -> &PagePopulation {
        &self.population
    }

    /// The name of the ranking policy in use.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// QPC of the hypothetical quality-ordered ranking for this community
    /// (pure-search attention model).
    pub fn ideal_qpc(&self) -> f64 {
        self.ideal_qpc
    }

    /// Begin accumulating QPC. Call after the warm-up period.
    pub fn start_measurement(&mut self) {
        self.measuring = true;
        self.qpc = QpcAccumulator::default();
    }

    /// Stop accumulating QPC (measurement can be restarted later).
    pub fn stop_measurement(&mut self) {
        self.measuring = false;
    }

    /// Run the simulation for `days` days.
    pub fn run(&mut self, days: u64) {
        for _ in 0..days {
            self.run_day();
        }
    }

    /// Run the recommended warm-up (no measurement), then measure for the
    /// recommended window, returning the metrics. This is the one-call path
    /// used by most experiments.
    pub fn run_standard(&mut self) -> SimMetrics {
        self.run(self.config.recommended_warmup_days());
        self.start_measurement();
        self.run(self.config.recommended_measure_days());
        self.metrics()
    }

    /// Warm up for `warmup` days, measure for `measure` days, return
    /// metrics.
    pub fn run_windows(&mut self, warmup: u64, measure: u64) -> SimMetrics {
        self.run(warmup);
        self.start_measurement();
        self.run(measure);
        self.metrics()
    }

    /// The result list of the last simulated day (slot indices, rank 1
    /// first); empty before the first day.
    pub fn ranking(&self) -> &[usize] {
        &self.ranking
    }

    /// The metrics accumulated since the last [`Simulation::start_measurement`].
    pub fn metrics(&self) -> SimMetrics {
        let absolute = self.qpc.absolute_qpc();
        SimMetrics {
            days_measured: self.qpc.days,
            absolute_qpc: absolute,
            ideal_qpc: self.ideal_qpc,
            normalized_qpc: if self.ideal_qpc > 0.0 {
                absolute / self.ideal_qpc
            } else {
                0.0
            },
            mean_zero_awareness_fraction: self.qpc.mean_zero_awareness_fraction(),
        }
    }

    /// Repair the cache and rank today's result list into
    /// `self.ranking`. Consumes exactly the RNG draws the policy's `rank`
    /// would, so runs are bit-identical to the historical per-day
    /// full-sort path.
    fn rank_today(&mut self) {
        self.cache.repair();
        debug_assert!((0..self.population.len())
            .all(|s| self.cache.stats()[s] == self.population.page_stats(s)));
        self.policy.rank_into(
            self.cache.view(),
            None,
            &mut self.rng,
            &mut self.buffers,
            &mut self.ranking,
        );
        // Validation is debug-only (compiled out in release) and draws on
        // the reusable scratch mask, so no day step ever allocates for
        // sanity checking.
        debug_assert!(self
            .buffers
            .check_permutation(&self.ranking, self.population.len()));
    }

    /// Simulate one day.
    pub fn run_day(&mut self) {
        let today = self.clock.now();
        let n = self.population.len();

        // 1. Rank today's result list (incremental-index fast path).
        self.rank_today();

        // Popularity mass, needed by the random-surfing component.
        let surf = self.config.surf_fraction;
        let teleport = self.config.teleportation;
        let popularity_sum: f64 = if surf > 0.0 {
            self.cache.stats().iter().map(|s| s.popularity).sum()
        } else {
            0.0
        };

        // 2. Accumulate QPC over the full user population's visits.
        if self.measuring {
            let mut weighted = 0.0;
            let mut visits_total = 0.0;
            // Search-driven visits follow the rank-bias law.
            let search_share = 1.0 - surf;
            if search_share > 0.0 {
                for (idx, &slot) in self.ranking.iter().enumerate() {
                    let visits = search_share * self.total_bias.visits_at_rank(idx + 1);
                    let quality = self.population.slot(slot).quality;
                    weighted += visits * quality;
                    visits_total += visits;
                }
            }
            // Random-surfing visits follow PageRank-style traffic:
            // (1 − c) proportional to popularity + c uniform.
            if surf > 0.0 {
                let vu = self.config.community.total_visits_per_day();
                for (slot, s) in self.population.slots().iter().enumerate() {
                    let link_share = if popularity_sum > 0.0 {
                        self.cache.stats()[slot].popularity / popularity_sum
                    } else {
                        1.0 / n as f64
                    };
                    let visits = surf * vu * ((1.0 - teleport) * link_share + teleport / n as f64);
                    weighted += visits * s.quality;
                    visits_total += visits;
                }
            }
            let (zero, _) = self.population.awareness_summary();
            self.qpc
                .record_day(weighted, visits_total, zero as f64 / n as f64);
        }

        // 3. Monitored-user visits update awareness.
        let monitored_visits = self
            .config
            .community
            .monitored_visits_per_day()
            .round()
            .max(0.0) as u64;
        // Popularity CDF for surf visits, rebuilt in place only when needed.
        let have_cdf = surf > 0.0 && popularity_sum > 0.0;
        if have_cdf {
            let mut acc = 0.0;
            self.popularity_cdf.clear();
            self.popularity_cdf
                .extend(self.cache.stats().iter().map(|s| {
                    acc += s.popularity / popularity_sum;
                    acc
                }));
        }
        for _ in 0..monitored_visits {
            let slot = if self.rng.gen::<f64>() < surf {
                // Random surfing: teleport or follow popularity. (The
                // teleport coin is always drawn first so the RNG stream is
                // independent of whether the CDF exists.)
                let teleported = self.rng.gen::<f64>() < teleport;
                if have_cdf && !teleported {
                    let u: f64 = self.rng.gen();
                    ranking_independent_search(&self.popularity_cdf, u)
                } else {
                    self.rng.gen_range(0..n)
                }
            } else {
                // Search: sample a rank position, then look up the page.
                let u: f64 = self.rng.gen();
                let rank_idx = ranking_independent_search(&self.rank_cdf, u);
                self.ranking[rank_idx.min(n - 1)]
            };
            if self.population.record_monitored_visit(slot, &mut self.rng) {
                self.cache.patch(slot, self.population.page_stats(slot));
            }
        }

        // 4. Retire and replace pages (replacements reset popularity,
        // awareness and age, so they are patched into the cache).
        let protected = std::mem::take(&mut self.protected_slots);
        self.population
            .retire_daily_recording(today, &protected, &mut self.rng, &mut self.cache);
        self.protected_slots = protected;

        self.clock.tick();
    }

    /// Protect a slot from retirement (used by TBP probes).
    pub(crate) fn protect_slot(&mut self, slot: usize) {
        if !self.protected_slots.contains(&slot) {
            self.protected_slots.push(slot);
        }
    }

    /// Remove retirement protection from a slot.
    pub(crate) fn unprotect_slot(&mut self, slot: usize) {
        self.protected_slots.retain(|&s| s != slot);
    }

    /// Replace the page in `slot` with a fresh zero-awareness page (probe
    /// management), patching it into the cache.
    pub(crate) fn reset_slot_for_probe(&mut self, slot: usize) {
        let today = self.clock.now();
        self.population.replace_page(slot, today);
        self.cache.patch(slot, self.population.page_stats(slot));
    }

    /// The monitored-user rank-bias law (used by probes to report expected
    /// per-rank visit rates).
    pub(crate) fn monitored_bias(&self) -> &RankBias {
        &self.monitored_bias
    }

    /// Compute the current rank of `slot` under the policy in use, by
    /// re-ranking today's snapshot. Used by probes/traces.
    pub(crate) fn current_rank_of(&mut self, slot: usize) -> usize {
        self.rank_today();
        self.ranking
            .iter()
            .position(|&s| s == slot)
            .expect("slot is always ranked")
            + 1
    }
}

/// QPC of the quality-ordered ideal ranking: rank pages by descending
/// quality and weight by the attention each rank receives.
fn ideal_qpc(bias: &RankBias, qualities: &[Quality]) -> f64 {
    let mut sorted: Vec<f64> = qualities.iter().map(|q| q.value()).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("quality is never NaN"));
    let total = bias.total_visits();
    if total <= 0.0 {
        return 0.0;
    }
    sorted
        .iter()
        .enumerate()
        .map(|(idx, q)| bias.visits_at_rank(idx + 1) * q)
        .sum::<f64>()
        / total
}

/// Binary search over a cumulative distribution table: returns the first
/// index whose cumulative value is ≥ `u`.
fn ranking_independent_search(cdf: &[f64], u: f64) -> usize {
    match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len().saturating_sub(1)),
    }
}

/// Build a cumulative table from probabilities, pinning the final entry to 1.
fn cumulative(probabilities: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut out: Vec<f64> = probabilities
        .iter()
        .map(|p| {
            acc += p;
            acc
        })
        .collect();
    if let Some(last) = out.last_mut() {
        *last = 1.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::CommunityConfig;
    use rrp_ranking::{PopularityRanking, PromotionConfig, QualityOracleRanking};

    fn tiny_config(seed: u64) -> SimConfig {
        SimConfig::for_community(
            CommunityConfig::builder()
                .pages(200)
                .users(100)
                .monitored_users(20)
                .total_visits_per_day(100.0)
                .expected_lifetime_days(120.0)
                .build()
                .unwrap(),
            seed,
        )
    }

    #[test]
    fn simulation_construction_and_accessors() {
        let sim = Simulation::new(tiny_config(1), PopularityRanking).unwrap();
        assert_eq!(sim.population().len(), 200);
        assert_eq!(sim.today(), Day::ZERO);
        assert_eq!(sim.policy_name(), "no randomization");
        assert!(sim.ideal_qpc() > 0.0 && sim.ideal_qpc() <= 0.4);
        assert_eq!(sim.config().seed, 1);
    }

    #[test]
    fn clock_advances_and_pages_retire() {
        let mut sim = Simulation::new(tiny_config(2), PopularityRanking).unwrap();
        sim.run(100);
        assert_eq!(sim.today(), Day::new(100));
        assert!(
            sim.population().retired_count() > 50,
            "with a 120-day lifetime and 200 pages, ≈ 166 retirements expected in 100 days, got {}",
            sim.population().retired_count()
        );
    }

    #[test]
    fn awareness_grows_over_time() {
        let mut sim = Simulation::new(tiny_config(3), PopularityRanking).unwrap();
        let (zero_before, mean_before) = sim.population().awareness_summary();
        assert_eq!(zero_before, 200);
        assert_eq!(mean_before, 0.0);
        sim.run(200);
        let (zero_after, mean_after) = sim.population().awareness_summary();
        assert!(zero_after < 200, "some pages must get discovered");
        assert!(mean_after > 0.0);
    }

    #[test]
    fn metrics_require_measurement_window() {
        let mut sim = Simulation::new(tiny_config(4), PopularityRanking).unwrap();
        sim.run(50);
        let metrics = sim.metrics();
        assert_eq!(metrics.days_measured, 0);
        assert_eq!(metrics.absolute_qpc, 0.0);
        sim.start_measurement();
        sim.run(50);
        let metrics = sim.metrics();
        assert_eq!(metrics.days_measured, 50);
        assert!(metrics.absolute_qpc > 0.0);
        assert!(metrics.normalized_qpc > 0.0 && metrics.normalized_qpc <= 1.0 + 1e-9);
        assert!(metrics.mean_zero_awareness_fraction >= 0.0);
        sim.stop_measurement();
        sim.run(10);
        assert_eq!(
            sim.metrics().days_measured,
            50,
            "no accumulation after stop"
        );
    }

    #[test]
    fn quality_oracle_achieves_nearly_ideal_qpc() {
        let mut sim = Simulation::new(tiny_config(5), QualityOracleRanking).unwrap();
        let metrics = sim.run_windows(100, 200);
        assert!(
            metrics.normalized_qpc > 0.95,
            "oracle ranking should be ≈ ideal, got {}",
            metrics.normalized_qpc
        );
    }

    #[test]
    fn same_seed_reproduces_the_run_exactly() {
        let run = |seed| {
            let mut sim = Simulation::new(tiny_config(seed), PopularityRanking).unwrap();
            sim.run_windows(100, 100)
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn selective_promotion_discovers_more_pages_than_baseline() {
        let run = |policy: PolicyKind| {
            let mut sim = Simulation::new(tiny_config(11), policy).unwrap();
            sim.run_windows(300, 300)
        };
        let base = run(PolicyKind::Popularity);
        let promoted = run(PolicyKind::promotion(PromotionConfig::recommended(1)));
        assert!(
            promoted.mean_zero_awareness_fraction < base.mean_zero_awareness_fraction,
            "promotion must reduce never-seen pages: {} vs {}",
            promoted.mean_zero_awareness_fraction,
            base.mean_zero_awareness_fraction
        );
    }

    #[test]
    fn mixed_surfing_distributes_some_visits_by_popularity() {
        let config = tiny_config(12).with_surf_fraction(0.5);
        let mut sim = Simulation::new(config, PopularityRanking).unwrap();
        let metrics = sim.run_windows(100, 100);
        assert!(metrics.absolute_qpc > 0.0);
        // Pure surfing variant also runs.
        let config = tiny_config(13).with_surf_fraction(1.0);
        let mut sim = Simulation::new(config, PopularityRanking).unwrap();
        let metrics = sim.run_windows(100, 100);
        assert!(metrics.absolute_qpc > 0.0);
    }

    #[test]
    fn run_standard_uses_recommended_windows() {
        let config = SimConfig::for_community(
            CommunityConfig::builder()
                .pages(50)
                .users(20)
                .monitored_users(5)
                .total_visits_per_day(20.0)
                .expected_lifetime_days(10.0)
                .build()
                .unwrap(),
            9,
        );
        let mut sim = Simulation::new(config, PopularityRanking).unwrap();
        let metrics = sim.run_standard();
        assert_eq!(metrics.days_measured, 20);
        assert_eq!(sim.today(), Day::new(40));
    }

    #[test]
    fn ideal_qpc_helper_matches_hand_computation() {
        let bias = RankBias::altavista(3, 10.0);
        let qualities = vec![
            Quality::new(0.1).unwrap(),
            Quality::new(0.4).unwrap(),
            Quality::new(0.2).unwrap(),
        ];
        let ideal = ideal_qpc(&bias, &qualities);
        let expected = (bias.visits_at_rank(1) * 0.4
            + bias.visits_at_rank(2) * 0.2
            + bias.visits_at_rank(3) * 0.1)
            / 10.0;
        assert!((ideal - expected).abs() < 1e-12);
    }

    #[test]
    fn cumulative_table_and_search() {
        let cdf = cumulative(&[0.2, 0.3, 0.5]);
        assert!((cdf[0] - 0.2).abs() < 1e-12);
        assert!((cdf[1] - 0.5).abs() < 1e-12);
        assert_eq!(cdf[2], 1.0);
        assert_eq!(ranking_independent_search(&cdf, 0.1), 0);
        assert_eq!(ranking_independent_search(&cdf, 0.4), 1);
        assert_eq!(ranking_independent_search(&cdf, 0.99), 2);
        assert_eq!(ranking_independent_search(&cdf, 1.0), 2);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = tiny_config(1).with_surf_fraction(2.0);
        assert!(Simulation::new(config, PopularityRanking).is_err());
    }
}
