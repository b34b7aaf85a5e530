//! The randomized rank-promotion policy (Section 4 of the paper).
//!
//! [`RandomizedRankPromotion`] combines the pieces defined elsewhere in this
//! crate:
//!
//! 1. select the promotion pool `P_p` according to the configured
//!    [`PromotionRule`] (uniform with probability `r`, or all
//!    zero-awareness pages);
//! 2. shuffle the pool into a random order `L_p`;
//! 3. rank the remaining pages deterministically by descending popularity
//!    into `L_d`;
//! 4. merge the two lists with the coin-flip procedure of
//!    [`merge_promoted`](crate::merge::merge_promoted), protecting the top
//!    `k − 1` deterministic results.

use crate::buffers::RankBuffers;
use crate::lazyshuffle::{merge_promoted_top_k_lazy_into, EngineVersion, LazyShuffle};
use crate::merge::{merge_promoted_into, merge_promoted_top_k_into};
use crate::policy::RankingPolicy;
use crate::promotion::{PromotionConfig, PromotionRule};
use crate::source::{fill_rest, RankSource};
use crate::stats::{popularity_order, PageStats};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// The paper's randomized rank-promotion ranking policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedRankPromotion {
    config: PromotionConfig,
    version: EngineVersion,
}

impl RandomizedRankPromotion {
    /// Build the policy from a validated configuration (engine v1, the
    /// golden-pinned default stream).
    pub fn new(config: PromotionConfig) -> Self {
        RandomizedRankPromotion {
            config,
            version: EngineVersion::V1,
        }
    }

    /// The paper's recommended recipe: selective promotion, `r = 0.1`,
    /// starting at rank `start_rank` (1 or 2).
    pub fn recommended(start_rank: usize) -> Self {
        RandomizedRankPromotion::new(PromotionConfig::recommended(start_rank))
    }

    /// Opt into an explicit [`EngineVersion`]. Under
    /// [`V2`](EngineVersion::V2) the Selective top-k paths evaluate the
    /// pool shuffle lazily (at most `k` swap draws per query, zero
    /// `O(pool)` work) and therefore draw a different — distributionally
    /// equivalent — RNG stream than v1. Full reranks and the Uniform rule
    /// are bit-identical across versions.
    pub fn with_version(mut self, version: EngineVersion) -> Self {
        self.version = version;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> PromotionConfig {
        self.config
    }

    /// The engine version in use.
    pub fn version(&self) -> EngineVersion {
        self.version
    }

    /// Split the input into (promotion pool, deterministic remainder),
    /// returning indices into `pages`. Test-only convenience over
    /// [`split_pool_into`](Self::split_pool_into).
    #[cfg(test)]
    fn split_pool(&self, pages: &[PageStats], rng: &mut dyn RngCore) -> (Vec<usize>, Vec<usize>) {
        let mut pool = Vec::new();
        let mut rest = Vec::new();
        self.split_pool_into(pages, rng, &mut pool, &mut rest);
        (pool, rest)
    }

    /// [`split_pool`](Self::split_pool) writing into caller-supplied vectors
    /// (cleared first). The Uniform rule draws one coin per page, in input
    /// order; the Selective rule draws nothing.
    fn split_pool_into<R: RngCore + ?Sized>(
        &self,
        pages: &[PageStats],
        rng: &mut R,
        pool: &mut Vec<usize>,
        rest: &mut Vec<usize>,
    ) {
        pool.clear();
        rest.clear();
        match self.config.rule {
            PromotionRule::Selective => {
                for (i, p) in pages.iter().enumerate() {
                    if p.is_unexplored() {
                        pool.push(i);
                    } else {
                        rest.push(i);
                    }
                }
            }
            PromotionRule::Uniform => {
                for (i, _) in pages.iter().enumerate() {
                    if rng.gen::<f64>() < self.config.degree {
                        pool.push(i);
                    } else {
                        rest.push(i);
                    }
                }
            }
        }
    }

    /// Whether [`rank_into`](Self::rank_into) copies the whole promotion
    /// pool off its source for this `limit`: the Selective rule does,
    /// except for a v2 top-`k`, which reads at most `k` members by
    /// position. A serving tier lists its pool once per version for such
    /// ranks instead of walking the membership bits per query.
    pub fn copies_pool(&self, limit: Option<usize>) -> bool {
        self.config.rule == PromotionRule::Selective
            && !(self.version == EngineVersion::V2 && limit.is_some())
    }

    /// Rank `source` into `out` (slots, best rank first): all of them for
    /// `limit = None`, else the first `min(k, n)` ranks of `limit =
    /// Some(k)`, with the coin-flip merge stopped at rank `k`.
    ///
    /// Version × rule × limit picks the draw. Under
    /// [`EngineVersion::V2`] a Selective top-`k` rank draws the lazy
    /// [`LazyShuffle`] stream: no pool copy or shuffle, at most `k` swap
    /// draws (counted in `buffers`). Every other combination draws the v1
    /// stream — the pool copied and shuffled in full, then the merge —
    /// whose top-`k` answer is the full answer's prefix bit for bit and
    /// equals the reference [`RankingPolicy::rank_into`] on the same RNG
    /// state. The Selective rule reads the pool off `source`; the Uniform
    /// rule draws one coin per slot over `0..n` in slot order, exactly the
    /// reference's draws, and ignores the source's pool.
    ///
    /// Generic over the RNG so concrete callers (the simulator day loop,
    /// the serving tier) get a statically dispatched generator.
    ///
    /// # Panics
    /// Panics for the Uniform rule on a
    /// [`retrieved`](RankSource::retrieved) source: its per-page coins
    /// need every slot, which no candidate set short of the complete order
    /// carries.
    pub fn rank_into<R: RngCore + ?Sized>(
        &self,
        source: RankSource<'_>,
        limit: Option<usize>,
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        let PromotionConfig {
            rule,
            start_rank,
            degree,
        } = self.config;
        match (rule, limit) {
            (PromotionRule::Selective, Some(k)) if !self.copies_pool(limit) => {
                debug_assert!(source.pool_matches_pages());
                let draws = {
                    let RankBuffers { rest, overlay, .. } = &mut *buffers;
                    source.fill_rest(k, rest);
                    let mut lazy = LazyShuffle::new(source.pool, overlay);
                    merge_promoted_top_k_lazy_into(
                        rest, &mut lazy, start_rank, degree, k, rng, out,
                    );
                    lazy.draws()
                };
                buffers.count_pool_draws(draws);
                return;
            }
            (PromotionRule::Selective, _) => {
                debug_assert!(source.pool_matches_pages());
                let RankBuffers { pool, rest, .. } = &mut *buffers;
                pool.clear();
                source.pool.extend_members(pool);
                source.fill_rest(limit.unwrap_or(usize::MAX), rest);
            }
            (PromotionRule::Uniform, _) => {
                assert!(
                    !source.is_retrieved(),
                    "the Uniform rule draws per-page coins and cannot rank from shard candidates"
                );
                let n = source.order.len();
                buffers.reset_mask(n);
                let RankBuffers {
                    pool, rest, mask, ..
                } = &mut *buffers;
                pool.clear();
                for (slot, promoted) in mask.iter_mut().enumerate() {
                    if rng.gen::<f64>() < degree {
                        *promoted = true;
                        pool.push(slot);
                    }
                }
                fill_rest(source.order, |s| mask[s], limit.unwrap_or(usize::MAX), rest);
            }
        }
        let RankBuffers { pool, rest, .. } = buffers;
        pool.shuffle(rng);
        match limit {
            None => merge_promoted_into(rest, pool, start_rank, degree, rng, out),
            Some(k) => merge_promoted_top_k_into(rest, pool, start_rank, degree, k, rng, out),
        }
    }
}

impl RankingPolicy for RandomizedRankPromotion {
    /// The reference path over raw, unsorted `pages`: split the pool, sort
    /// the rest, merge. Consumes the same RNG draws as a v1
    /// [`rank_into`](RandomizedRankPromotion::rank_into) over any source
    /// built from the same pages.
    fn rank_into(
        &self,
        pages: &[PageStats],
        rng: &mut dyn RngCore,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        // `pool` and `rest` hold indices into `pages` here.
        let RankBuffers { pool, rest, .. } = buffers;
        self.split_pool_into(pages, rng, pool, rest);

        // L_p: the promotion pool in random order.
        pool.shuffle(rng);

        // L_d: remaining pages in descending popularity order
        // (`popularity_order` is total, so the unstable sort is
        // deterministic and allocation-free).
        rest.sort_unstable_by(|&a, &b| popularity_order(&pages[a], &pages[b]));

        // Map indices into `pages` to slot indices, in place.
        for index in pool.iter_mut() {
            *index = pages[*index].slot;
        }
        for index in rest.iter_mut() {
            *index = pages[*index].slot;
        }

        merge_promoted_into(
            rest,
            pool,
            self.config.start_rank,
            self.config.degree,
            rng,
            out,
        );
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::Chunked;
    use crate::policy::is_permutation;
    use crate::poolindex::PoolIndex;
    use rrp_model::{new_rng, PageId};

    /// 10 pages: slots 0..5 are established (popularity descending with
    /// slot), slots 5..10 have zero awareness.
    fn pages() -> Vec<PageStats> {
        (0..10)
            .map(|slot| {
                let (pop, aw) = if slot < 5 {
                    (0.5 - slot as f64 * 0.1, 0.8)
                } else {
                    (0.0, 0.0)
                };
                PageStats::new(slot, PageId::new(slot as u64), pop, aw).with_age(10)
            })
            .collect()
    }

    #[test]
    fn output_is_always_a_permutation() {
        let policy = RandomizedRankPromotion::recommended(2);
        for seed in 0..100 {
            let mut rng = new_rng(seed);
            let order = policy.rank(&pages(), &mut rng);
            assert!(is_permutation(&order, 10));
        }
    }

    #[test]
    fn selective_pool_is_exactly_zero_awareness_pages() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap(),
        );
        let ps = pages();
        let mut rng = new_rng(7);
        let (pool, rest) = policy.split_pool(&ps, &mut rng);
        let pool_slots: Vec<usize> = pool.iter().map(|&i| ps[i].slot).collect();
        assert_eq!(pool_slots, vec![5, 6, 7, 8, 9]);
        assert_eq!(rest.len(), 5);
    }

    #[test]
    fn uniform_pool_size_tracks_degree() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
        );
        let ps: Vec<PageStats> = (0..10_000)
            .map(|s| PageStats::new(s, PageId::new(s as u64), 0.1, 0.5))
            .collect();
        let mut rng = new_rng(11);
        let (pool, rest) = policy.split_pool(&ps, &mut rng);
        let fraction = pool.len() as f64 / ps.len() as f64;
        assert!((fraction - 0.3).abs() < 0.03, "pool fraction {fraction}");
        assert_eq!(pool.len() + rest.len(), ps.len());
    }

    #[test]
    fn k2_protects_the_top_result() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 2, 0.9).unwrap(),
        );
        for seed in 0..50 {
            let mut rng = new_rng(seed);
            let order = policy.rank(&pages(), &mut rng);
            assert_eq!(
                order[0], 0,
                "slot 0 has the highest popularity and k=2 protects it"
            );
        }
    }

    #[test]
    fn k1_can_displace_the_top_result() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.9).unwrap(),
        );
        let mut displaced = false;
        for seed in 0..50 {
            let mut rng = new_rng(seed);
            let order = policy.rank(&pages(), &mut rng);
            if order[0] != 0 {
                displaced = true;
                break;
            }
        }
        assert!(
            displaced,
            "with k=1 and r=0.9 the top slot should sometimes be displaced"
        );
    }

    #[test]
    fn zero_degree_selective_still_appends_pool_at_bottom() {
        // With r = 0 no coin flip ever picks the pool, so unexplored pages
        // end up after all established pages — equivalent to deterministic
        // ranking with zero-popularity pages last.
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.0).unwrap(),
        );
        let mut rng = new_rng(5);
        let order = policy.rank(&pages(), &mut rng);
        assert_eq!(&order[..5], &[0, 1, 2, 3, 4]);
        let mut tail: Vec<usize> = order[5..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn established_pages_keep_relative_order() {
        let policy = RandomizedRankPromotion::recommended(1);
        for seed in 0..20 {
            let mut rng = new_rng(seed);
            let order = policy.rank(&pages(), &mut rng);
            let positions: Vec<usize> = (0..5)
                .map(|slot| order.iter().position(|&s| s == slot).unwrap())
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "established pages must stay in popularity order"
            );
        }
    }

    #[test]
    fn unexplored_pages_reach_top_ten_with_full_randomization() {
        // With r=1 and k=1 all zero-awareness pages are placed before the
        // established pages.
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 1.0).unwrap(),
        );
        let mut rng = new_rng(2);
        let order = policy.rank(&pages(), &mut rng);
        let mut head: Vec<usize> = order[..5].to_vec();
        head.sort_unstable();
        assert_eq!(head, vec![5, 6, 7, 8, 9]);
    }

    /// The popularity order of `ps` (slot indices, best rank first).
    fn sorted(ps: &[PageStats]) -> Vec<usize> {
        let mut sorted: Vec<usize> = (0..ps.len()).collect();
        sorted.sort_unstable_by(|&a, &b| popularity_order(&ps[a], &ps[b]));
        sorted
    }

    /// Partition `ps` into `shards` shard-local corpora with dense local
    /// slots, as a sharded cache tier holds them: per shard, the local
    /// stats and the local → global slot map.
    fn partition(ps: &[PageStats], shards: usize) -> Vec<(Vec<PageStats>, Chunked<usize>)> {
        let mut parts: Vec<(Vec<PageStats>, Chunked<usize>)> = vec![Default::default(); shards];
        for p in ps {
            let (locals, globals) = &mut parts[(p.slot * 5 + 1) % shards];
            let mut local = *p;
            local.slot = locals.len();
            locals.push(local);
            globals.push(p.slot);
        }
        parts
    }

    #[test]
    fn top_k_presorted_equals_the_full_rerank_prefix() {
        let ps = pages();
        let sorted = sorted(&ps);
        let pool = PoolIndex::build(&ps);
        let stats: Chunked<PageStats> = ps.iter().copied().collect();
        let source = RankSource::pooled(&stats, &sorted, &pool);
        let mut buffers = RankBuffers::new();
        let mut full = Vec::new();
        let mut topk = Vec::new();
        for rule in [PromotionRule::Selective, PromotionRule::Uniform] {
            for start_rank in [1usize, 2, 4] {
                let policy = RandomizedRankPromotion::new(
                    PromotionConfig::new(rule, start_rank, 0.3).unwrap(),
                );
                for seed in 0..20 {
                    policy.rank_into(source, None, &mut new_rng(seed), &mut buffers, &mut full);
                    for k in [0usize, 1, 3, 5, 10, 50] {
                        policy.rank_into(
                            source,
                            Some(k),
                            &mut new_rng(seed),
                            &mut buffers,
                            &mut topk,
                        );
                        assert_eq!(
                            topk,
                            full[..k.min(full.len())],
                            "{rule:?}, k={k}, start_rank={start_rank}, seed={seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_paths_match_the_scanning_paths_for_both_rules() {
        let ps = pages();
        let sorted = sorted(&ps);
        let pool = PoolIndex::build(&ps);
        let stats: Chunked<PageStats> = ps.iter().copied().collect();
        let source = RankSource::pooled(&stats, &sorted, &pool);
        let mut buffers = RankBuffers::new();
        let mut pooled = Vec::new();
        for rule in [PromotionRule::Selective, PromotionRule::Uniform] {
            for start_rank in [1usize, 2, 4] {
                let policy = RandomizedRankPromotion::new(
                    PromotionConfig::new(rule, start_rank, 0.4).unwrap(),
                );
                for seed in 0..20 {
                    let scan = policy.rank(&ps, &mut new_rng(seed));
                    policy.rank_into(source, None, &mut new_rng(seed), &mut buffers, &mut pooled);
                    assert_eq!(pooled, scan, "{rule:?}, k={start_rank}, seed={seed}");
                }
            }
        }
    }

    #[test]
    fn candidate_path_matches_the_pooled_path_across_shard_counts() {
        use crate::candidates::{merge_shard_candidates_into, MergedCandidates, ShardCandidates};
        use crate::popindex::PopularityIndex;

        let ps = pages();
        let sorted = sorted(&ps);
        let pool = PoolIndex::build(&ps);
        let stats: Chunked<PageStats> = ps.iter().copied().collect();
        let source = RankSource::pooled(&stats, &sorted, &pool);
        let mut buffers = RankBuffers::new();
        let (mut pooled, mut from_candidates) = (Vec::new(), Vec::new());
        let mut merged = MergedCandidates::new();

        for shards in [1usize, 2, 3] {
            let parts = partition(&ps, shards);
            for start_rank in [1usize, 2, 4] {
                let policy = RandomizedRankPromotion::new(
                    PromotionConfig::new(PromotionRule::Selective, start_rank, 0.4).unwrap(),
                );
                for k in [0usize, 1, 3, 5, 10, 50] {
                    // `k` rest candidates per shard suffice for a top-`k`.
                    let candidates: Vec<ShardCandidates> = parts
                        .iter()
                        .map(|(locals, globals)| {
                            let order = PopularityIndex::build(locals);
                            let shard_pool = PoolIndex::build(locals);
                            let mut c = ShardCandidates::new();
                            let stats = locals.iter().copied().collect();
                            c.collect(&stats, &order, &shard_pool, k, globals);
                            c
                        })
                        .collect();
                    merge_shard_candidates_into(&candidates, k, &mut merged);
                    let rest: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
                    assert_eq!(merged.pool(), pool.members());
                    let retrieved = RankSource::retrieved(&pool, &rest);
                    for seed in 0..10 {
                        policy.rank_into(
                            source,
                            Some(k),
                            &mut new_rng(seed),
                            &mut buffers,
                            &mut pooled,
                        );
                        policy.rank_into(
                            retrieved,
                            Some(k),
                            &mut new_rng(seed),
                            &mut buffers,
                            &mut from_candidates,
                        );
                        assert_eq!(
                            from_candidates, pooled,
                            "{shards} shards, start_rank {start_rank}, k {k}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn merged_paths_match_the_scanning_paths_for_both_rules() {
        use crate::candidates::merge_shard_orders_into;

        let ps = pages();
        let sorted = sorted(&ps);
        let pool = PoolIndex::build(&ps);
        let mut buffers = RankBuffers::new();
        let mut merged_out = Vec::new();

        for shards in [1usize, 2, 3] {
            // Shard the corpus and reassemble the complete global order
            // through the k-way merge, as the serving tier does.
            let parts = partition(&ps, shards);
            let shard_orders: Vec<Vec<usize>> = parts
                .iter()
                .map(|(locals, _)| self::sorted(locals))
                .collect();
            let (mut heads, mut order) = (Vec::new(), Vec::new());
            merge_shard_orders_into(
                shards,
                |s| shard_orders[s].len(),
                |s, i| {
                    let (locals, globals) = &parts[s];
                    let local = shard_orders[s][i];
                    let mut stat = locals[local];
                    stat.slot = globals[local];
                    stat
                },
                &mut heads,
                &mut order,
            );
            assert_eq!(order, sorted, "{shards} shards: merged order is global");
            let source = RankSource::merged(&pool, &order);

            for rule in [PromotionRule::Selective, PromotionRule::Uniform] {
                for start_rank in [1usize, 2, 4] {
                    let policy = RandomizedRankPromotion::new(
                        PromotionConfig::new(rule, start_rank, 0.4).unwrap(),
                    );
                    for seed in 0..10 {
                        let scan = policy.rank(&ps, &mut new_rng(seed));
                        for k in [None, Some(0), Some(1), Some(3), Some(5), Some(10), Some(50)] {
                            policy.rank_into(
                                source,
                                k,
                                &mut new_rng(seed),
                                &mut buffers,
                                &mut merged_out,
                            );
                            assert_eq!(
                                merged_out,
                                scan[..k.unwrap_or(scan.len()).min(scan.len())],
                                "merged {rule:?}, {shards} shards, {k:?}, seed {seed}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "per-page coins")]
    fn candidate_path_rejects_the_uniform_rule() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
        );
        policy.rank_into(
            RankSource::retrieved(&PoolIndex::default(), &[]),
            Some(3),
            &mut new_rng(0),
            &mut RankBuffers::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    fn pooled_selective_path_never_resets_the_mask() {
        let ps = pages();
        let sorted = sorted(&ps);
        let pool = PoolIndex::build(&ps);
        let stats: Chunked<PageStats> = ps.iter().copied().collect();
        let source = RankSource::pooled(&stats, &sorted, &pool);
        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();

        let selective = RandomizedRankPromotion::recommended(2);
        selective.rank_into(source, Some(5), &mut new_rng(3), &mut buffers, &mut out);
        selective.rank_into(source, None, &mut new_rng(3), &mut buffers, &mut out);
        assert_eq!(buffers.take_mask_resets(), 0, "selective pooled: no reset");

        let uniform = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
        );
        uniform.rank_into(source, Some(5), &mut new_rng(3), &mut buffers, &mut out);
        assert_eq!(
            buffers.take_mask_resets(),
            1,
            "the Uniform rule must keep drawing its per-page coins"
        );
    }

    #[test]
    fn v2_routes_agree_and_draw_at_most_k_swaps() {
        let ps = pages();
        let sorted = sorted(&ps);
        let pool = PoolIndex::build(&ps);
        let stats: Chunked<PageStats> = ps.iter().copied().collect();
        let mut buffers = RankBuffers::new();
        let (mut pooled, mut other) = (Vec::new(), Vec::new());
        for start_rank in [1usize, 2, 4] {
            let policy = RandomizedRankPromotion::new(
                PromotionConfig::new(PromotionRule::Selective, start_rank, 0.4).unwrap(),
            )
            .with_version(EngineVersion::V2);
            assert_eq!(policy.version(), EngineVersion::V2);
            for k in [0usize, 1, 3, 5, 10, 50] {
                let rest_slots: Vec<usize> = sorted
                    .iter()
                    .copied()
                    .filter(|&s| !pool.contains(s))
                    .take(k)
                    .collect();
                for seed in 0..20 {
                    policy.rank_into(
                        RankSource::pooled(&stats, &sorted, &pool),
                        Some(k),
                        &mut new_rng(seed),
                        &mut buffers,
                        &mut pooled,
                    );
                    let draws = buffers.take_pool_draws();
                    assert!(draws <= k as u64, "k={k}, seed={seed}: {draws} draws");
                    for source in [
                        RankSource::merged(&pool, &sorted),
                        RankSource::retrieved(&pool, &rest_slots),
                    ] {
                        policy.rank_into(
                            source,
                            Some(k),
                            &mut new_rng(seed),
                            &mut buffers,
                            &mut other,
                        );
                        assert_eq!(other, pooled, "k={k}, seed={seed}");
                        assert_eq!(buffers.take_pool_draws(), draws, "draw count");
                    }
                    // The prefix is made of distinct slots and protects
                    // the deterministic top start_rank − 1.
                    let mut dedup = pooled.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    assert_eq!(dedup.len(), pooled.len(), "no slot emitted twice");
                    let protected = (start_rank - 1).min(k).min(rest_slots.len());
                    assert_eq!(
                        &pooled[..protected],
                        &rest_slots[..protected],
                        "protected prefix, k={k}, seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn v2_leaves_the_uniform_rule_and_full_reranks_bit_identical() {
        let ps = pages();
        let sorted = sorted(&ps);
        let pool = PoolIndex::build(&ps);
        let stats: Chunked<PageStats> = ps.iter().copied().collect();
        let source = RankSource::pooled(&stats, &sorted, &pool);
        let mut buffers = RankBuffers::new();
        let (mut v1_out, mut v2_out) = (Vec::new(), Vec::new());
        for rule in [PromotionRule::Selective, PromotionRule::Uniform] {
            let v1 = RandomizedRankPromotion::new(PromotionConfig::new(rule, 2, 0.4).unwrap());
            let v2 = v1.with_version(EngineVersion::V2);
            for seed in 0..20 {
                // Full reranks never take the lazy route under either
                // rule; Uniform top-k is v1-identical too (per-page coins
                // dominate, so there is no lazy stream for it).
                let limits: &[Option<usize>] = match rule {
                    PromotionRule::Selective => &[None],
                    PromotionRule::Uniform => &[None, Some(5)],
                };
                for &limit in limits {
                    v1.rank_into(source, limit, &mut new_rng(seed), &mut buffers, &mut v1_out);
                    v2.rank_into(source, limit, &mut new_rng(seed), &mut buffers, &mut v2_out);
                    assert_eq!(v2_out, v1_out, "{rule:?}, {limit:?}, seed={seed}");
                    assert_eq!(buffers.take_pool_draws(), 0, "no lazy draws");
                }
            }
        }
    }

    #[test]
    fn name_reports_configuration() {
        let policy = RandomizedRankPromotion::recommended(2);
        let name = policy.name();
        assert!(name.contains("selective"));
        assert!(name.contains("k=2"));
        assert_eq!(policy.config().degree, 0.1);
    }

    #[test]
    fn empty_input_is_fine() {
        let policy = RandomizedRankPromotion::recommended(1);
        let mut rng = new_rng(0);
        assert!(policy.rank(&[], &mut rng).is_empty());
    }
}
