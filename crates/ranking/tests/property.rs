//! Property-based tests of the ranking policies.
//!
//! The central invariant: every policy emits a permutation of the input
//! slots — no page is ever dropped or duplicated — and the protected prefix
//! of the randomized policy always equals the deterministic prefix.

use proptest::prelude::*;
use rrp_model::{new_rng, PageId};
use rrp_ranking::{
    is_permutation, merge_promoted, merge_shard_candidates_into, popularity_order, EngineVersion,
    FullyRandomRanking, MergedCandidates, PageStats, PolicyKind, PoolIndex, PopularityIndex,
    PopularityRanking, PromotionConfig, PromotionRule, QualityOracleRanking,
    RandomizedRankPromotion, RankBuffers, RankSource, RankingPolicy, ShardCandidates,
};

/// Partition `pages` into `shards` shard-local corpora (dense local slots)
/// under an arbitrary but slot-order-preserving routing, collect each
/// shard's top-`limit` candidates off its own indexes, and merge them.
fn shard_candidates(
    pages: &[PageStats],
    shards: usize,
    route_salt: usize,
    limit: usize,
) -> MergedCandidates {
    let mut locals: Vec<Vec<PageStats>> = vec![Vec::new(); shards];
    let mut globals: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for p in pages {
        let shard = (p.slot * 31 + route_salt) % shards;
        let mut local = *p;
        local.slot = locals[shard].len();
        locals[shard].push(local);
        globals[shard].push(p.slot);
    }
    let candidates: Vec<ShardCandidates> = (0..shards)
        .map(|s| {
            let order = PopularityIndex::build(&locals[s]);
            let pool = PoolIndex::build(&locals[s]);
            let mut c = ShardCandidates::new();
            c.collect(&locals[s], order.order(), &pool, limit, &globals[s]);
            c
        })
        .collect();
    let mut merged = MergedCandidates::new();
    merge_shard_candidates_into(&candidates, limit, &mut merged);
    merged
}

/// Strategy producing an arbitrary page population of size 1..=120.
fn arb_pages() -> impl Strategy<Value = Vec<PageStats>> {
    prop::collection::vec((0.0f64..=1.0, prop::bool::ANY, 0u64..1000), 1..120).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(slot, (quality, explored, age))| {
                let awareness = if explored { 0.5 } else { 0.0 };
                PageStats::new(
                    slot,
                    PageId::new(slot as u64),
                    quality * awareness,
                    awareness,
                )
                .with_age(age)
                .with_quality(quality)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn every_policy_emits_a_permutation(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        degree in 0.0f64..=1.0,
        k in 1usize..30,
    ) {
        let n = pages.len();
        let mut rng = new_rng(seed);

        let det = PopularityRanking.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&det, n));

        let oracle = QualityOracleRanking.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&oracle, n));

        let random = FullyRandomRanking.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&random, n));

        let promo = RandomizedRankPromotion::new(
            PromotionConfig::new(rule, k, degree).unwrap(),
        );
        let promoted = promo.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&promoted, n));
    }

    #[test]
    fn deterministic_ranking_is_sorted_by_popularity(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = new_rng(seed);
        let order = PopularityRanking.rank(&pages, &mut rng);
        let by_slot: std::collections::HashMap<usize, &PageStats> =
            pages.iter().map(|p| (p.slot, p)).collect();
        for w in order.windows(2) {
            prop_assert!(
                by_slot[&w[0]].popularity >= by_slot[&w[1]].popularity,
                "popularity must be nonincreasing down the result list"
            );
        }
    }

    #[test]
    fn selective_promotion_protects_top_k_minus_1(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        degree in 0.0f64..=1.0,
        k in 1usize..20,
    ) {
        let mut rng_det = new_rng(seed);
        let det = PopularityRanking.rank(&pages, &mut rng_det);

        let promo = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, k, degree).unwrap(),
        );
        let mut rng = new_rng(seed.wrapping_add(1));
        let promoted = promo.rank(&pages, &mut rng);

        // The selective pool contains only zero-awareness (zero-popularity)
        // pages, so the deterministic prefix of explored pages is identical.
        let explored_count = pages.iter().filter(|p| !p.is_unexplored()).count();
        let protected = (k - 1).min(explored_count);
        prop_assert_eq!(&det[..protected], &promoted[..protected]);
    }

    #[test]
    fn merge_is_a_permutation_of_its_inputs(
        d_len in 0usize..200,
        p_len in 0usize..200,
        k in 1usize..40,
        degree in 0.0f64..=1.0,
        seed in proptest::num::u64::ANY,
    ) {
        let ld: Vec<usize> = (0..d_len).collect();
        let lp: Vec<usize> = (d_len..d_len + p_len).collect();
        let mut rng = new_rng(seed);
        let merged = merge_promoted(&ld, &lp, k, degree, &mut rng);
        prop_assert!(is_permutation(&merged, d_len + p_len));
    }

    #[test]
    fn merge_preserves_relative_order_of_each_list(
        d_len in 1usize..100,
        p_len in 1usize..100,
        degree in 0.0f64..=1.0,
        seed in proptest::num::u64::ANY,
    ) {
        let ld: Vec<usize> = (0..d_len).collect();
        let lp: Vec<usize> = (d_len..d_len + p_len).collect();
        let mut rng = new_rng(seed);
        let merged = merge_promoted(&ld, &lp, 1, degree, &mut rng);
        let pos = |x: usize| merged.iter().position(|&y| y == x).unwrap();
        for w in ld.windows(2) {
            prop_assert!(pos(w[0]) < pos(w[1]));
        }
        for w in lp.windows(2) {
            prop_assert!(pos(w[0]) < pos(w[1]));
        }
    }

    #[test]
    fn oracle_never_ranks_lower_quality_above_higher(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = new_rng(seed);
        let order = QualityOracleRanking.rank(&pages, &mut rng);
        let by_slot: std::collections::HashMap<usize, &PageStats> =
            pages.iter().map(|p| (p.slot, p)).collect();
        for w in order.windows(2) {
            prop_assert!(by_slot[&w[0]].quality >= by_slot[&w[1]].quality);
        }
    }

    #[test]
    fn same_seed_same_ranking(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
    ) {
        let policy = RandomizedRankPromotion::recommended(2);
        let mut a = new_rng(seed);
        let mut b = new_rng(seed);
        prop_assert_eq!(policy.rank(&pages, &mut a), policy.rank(&pages, &mut b));
    }

    /// For *any* valid promotion configuration — both rules, any starting
    /// rank, any degree — the policy emits a permutation of the input
    /// slots: no page is ever dropped or duplicated.
    #[test]
    fn arbitrary_config_always_emits_a_permutation(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        k in 1usize..200,
        degree in 0.0f64..=1.0,
    ) {
        let config = PromotionConfig::new(rule, k, degree).unwrap();
        let policy = RandomizedRankPromotion::new(config);
        let mut rng = new_rng(seed);
        let order = policy.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&order, pages.len()));
    }

    /// For every policy and any valid promotion configuration, the
    /// allocation-free `rank_into` (through a reused scratch arena) produces
    /// byte-identical output to the legacy allocating `rank` from the same
    /// RNG state — the hot path is a pure refactor, not a behaviour change.
    #[test]
    fn rank_into_matches_legacy_rank_for_all_policies(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        k in 1usize..50,
        degree in 0.0f64..=1.0,
    ) {
        let config = PromotionConfig::new(rule, k, degree).unwrap();
        let policies: Vec<Box<dyn RankingPolicy>> = vec![
            Box::new(PopularityRanking),
            Box::new(QualityOracleRanking),
            Box::new(FullyRandomRanking),
            Box::new(RandomizedRankPromotion::new(config)),
            Box::new(PolicyKind::promotion(config)),
        ];
        // One arena reused across every policy and call: stale contents
        // from a previous call must never leak into the next result.
        let mut buffers = RankBuffers::new();
        let mut out = vec![99_usize; 3];
        for policy in &policies {
            let legacy = policy.rank(&pages, &mut new_rng(seed));
            policy.rank_into(&pages, &mut new_rng(seed), &mut buffers, &mut out);
            prop_assert_eq!(&out, &legacy, "policy {}", policy.name());
        }
    }

    /// The persistent pool index under arbitrary dirty sequences — visits
    /// flipping awareness on, retirements flipping it back off, inserts
    /// growing the population past its initial capacity, redundant dirty
    /// marks on unchanged slots — with repairs interleaved at arbitrary
    /// points: the incrementally repaired membership always equals a
    /// from-scratch rebuild of the current stats (the mirror of the
    /// `PopularityIndex` ≡ sort property in `rrp-sim`).
    #[test]
    fn pool_index_repair_equals_rebuild_under_arbitrary_dirty_sequences(
        initial in 1usize..40,
        events in prop::collection::vec((0usize..4, 0usize..80), 0..120),
        repair_every in 1usize..8,
    ) {
        let page = |slot: usize, explored: bool| {
            let awareness = if explored { 0.5 } else { 0.0 };
            PageStats::new(slot, PageId::new(slot as u64), awareness, awareness)
        };
        let mut stats: Vec<PageStats> =
            (0..initial).map(|slot| page(slot, slot % 2 == 0)).collect();
        let mut index = PoolIndex::build(&stats);
        let mut dirty: Vec<usize> = Vec::new();

        for (step, &(kind, raw_slot)) in events.iter().enumerate() {
            let slot = raw_slot % stats.len();
            match kind {
                // A first visit: the page leaves the pool.
                0 => {
                    stats[slot].awareness = 0.5;
                    dirty.push(slot);
                }
                // A retirement: a fresh zero-awareness page re-enters.
                1 => {
                    stats[slot].awareness = 0.0;
                    stats[slot].popularity = 0.0;
                    dirty.push(slot);
                }
                // An insert: the population grows (beyond the initial
                // capacity once enough events accumulate).
                2 => {
                    let new_slot = stats.len();
                    stats.push(page(new_slot, raw_slot % 3 == 0));
                    dirty.push(new_slot);
                }
                // A redundant dirty mark: the slot did not change.
                _ => dirty.push(slot),
            }
            if step % repair_every == 0 {
                index.repair(&stats, &dirty);
                dirty.clear();
                prop_assert!(index.is_consistent(&stats));
            }
        }
        index.repair(&stats, &dirty);

        let rebuilt = PoolIndex::build(&stats);
        prop_assert_eq!(index.members(), rebuilt.members());
        prop_assert!(index.is_consistent(&stats));
        prop_assert_eq!(index.len(), rebuilt.len());
    }

    /// Callers holding only `pages` and a popularity order build the pool
    /// with `PoolIndex::build` and rank a pooled source. For arbitrary
    /// pages, both rules, both engine versions and `limit ∈ {None, 0, 1,
    /// start_rank, n, n + 5}`, every answer off the v1 stream equals the
    /// prefix of the reference `RankingPolicy::rank_into` on the same
    /// seed. Only a v2 Selective top-k draws its own (lazy) stream. The
    /// other adaptors equal this one by `pooled_paths_match_scanning_paths`.
    #[test]
    fn rank_presorted_matches_rank(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        version in prop_oneof![Just(EngineVersion::V1), Just(EngineVersion::V2)],
        start_rank in 1usize..50,
        degree in 0.0f64..=1.0,
        limit_case in 0usize..6,
    ) {
        let n = pages.len();
        let limit = [None, Some(0), Some(1), Some(start_rank), Some(n), Some(n + 5)][limit_case];
        let config = PromotionConfig::new(rule, start_rank, degree).unwrap();
        let policy = RandomizedRankPromotion::new(config).with_version(version);
        prop_assume!(!(version == EngineVersion::V2 && rule == PromotionRule::Selective && limit.is_some()));
        let mut sorted: Vec<usize> = (0..n).collect();
        sorted.sort_unstable_by(|&a, &b| popularity_order(&pages[a], &pages[b]));
        let pool = PoolIndex::build(&pages);

        let mut pooled = Vec::new();
        policy.rank_into(
            RankSource::pooled(&pages, &sorted, &pool),
            limit,
            &mut new_rng(seed),
            &mut RankBuffers::new(),
            &mut pooled,
        );
        let reference = policy.rank(&pages, &mut new_rng(seed));
        let len = limit.unwrap_or(n).min(n);
        prop_assert_eq!(&pooled, &reference[..len].to_vec(), "v1 ≡ reference prefix");
    }

    /// Every [`RankSource`] adaptor ranks identically. For arbitrary pages,
    /// both rules, both engine versions and `limit ∈ {None, 0, 1,
    /// start_rank, n, n + 5}`: the pooled, merged and (Selective only)
    /// shard-retrieved sources give the same answer — the retrieved one
    /// built from `k` candidates per shard, which pins that `k` suffice —
    /// and the `PolicyKind` dispatch equals the policy. That the pooled
    /// answer is the reference one is `rank_presorted_matches_rank`.
    #[test]
    fn pooled_paths_match_scanning_paths(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        version in prop_oneof![Just(EngineVersion::V1), Just(EngineVersion::V2)],
        start_rank in 1usize..50,
        degree in 0.0f64..=1.0,
        limit_case in 0usize..6,
        shards in 1usize..9,
        route_salt in 0usize..1000,
    ) {
        let n = pages.len();
        let limit = [None, Some(0), Some(1), Some(start_rank), Some(n), Some(n + 5)][limit_case];
        let config = PromotionConfig::new(rule, start_rank, degree).unwrap();
        let policy = RandomizedRankPromotion::new(config).with_version(version);
        let mut sorted: Vec<usize> = (0..n).collect();
        sorted.sort_unstable_by(|&a, &b| popularity_order(&pages[a], &pages[b]));
        let pool = PoolIndex::build(&pages);
        let mask: Vec<bool> = (0..n).map(|s| pool.contains(s)).collect();

        let mut buffers = RankBuffers::new();
        let (mut pooled, mut other) = (Vec::new(), Vec::new());
        policy.rank_into(
            RankSource::pooled(&pages, &sorted, &pool),
            limit,
            &mut new_rng(seed),
            &mut buffers,
            &mut pooled,
        );
        policy.rank_into(
            RankSource::merged(pool.members(), &mask, &sorted),
            limit,
            &mut new_rng(seed),
            &mut buffers,
            &mut other,
        );
        prop_assert_eq!(&other, &pooled, "merged ≡ pooled");

        // And through the enum dispatch used by the simulator.
        PolicyKind::Promotion(policy).rank_into(
            RankSource::pooled(&pages, &sorted, &pool),
            limit,
            &mut new_rng(seed),
            &mut buffers,
            &mut other,
        );
        prop_assert_eq!(&other, &pooled, "PolicyKind ≡ RandomizedRankPromotion");

        if rule == PromotionRule::Selective {
            let merged = shard_candidates(&pages, shards, route_salt, limit.unwrap_or(n));
            let rest: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
            policy.rank_into(
                RankSource::retrieved(merged.pool(), &rest),
                limit,
                &mut new_rng(seed),
                &mut buffers,
                &mut other,
            );
            prop_assert_eq!(&other, &pooled, "retrieved ≡ pooled");
        }
    }

    /// Shard-candidate retrieval is invisible: partitioning an arbitrary
    /// population into an arbitrary number of shards, collecting each
    /// shard's top-`k` candidates off shard-local indexes and running the
    /// deterministic k-way merge reproduces (a) the corpus-wide pool in
    /// its exact pre-shuffle order and (b) the corpus-wide non-pool order
    /// prefix. A single mis-merged, stale, or re-ordered candidate would
    /// silently shift the RNG stream, so equality is exact; the ranking
    /// half is pinned by `pooled_paths_match_scanning_paths`.
    #[test]
    fn shard_candidate_merge_matches_the_corpus_wide_derivation(
        pages in arb_pages(),
        shards in 1usize..9,
        k in 0usize..140,
        route_salt in 0usize..1000,
    ) {
        let mut sorted: Vec<usize> = (0..pages.len()).collect();
        sorted.sort_unstable_by(|&a, &b| popularity_order(&pages[a], &pages[b]));
        let pool = PoolIndex::build(&pages);
        let merged = shard_candidates(&pages, shards, route_salt, k);

        prop_assert_eq!(&merged.pool().to_vec(), &pool.members().to_vec());
        let merged_rest: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
        let expected_rest: Vec<usize> = sorted
            .iter()
            .copied()
            .filter(|&s| !pool.contains(s))
            .take(k)
            .collect();
        prop_assert_eq!(&merged_rest, &expected_rest);
    }

    /// For *any* valid promotion configuration, ranks better than `k` are
    /// never perturbed: the first `k − 1` positions of the randomized
    /// result equal the deterministic popularity ranking of the pages that
    /// stayed outside the promotion pool. (Pool membership itself depends
    /// on the rule — zero-awareness pages for Selective, an `r`-biased coin
    /// per page for Uniform — so the protected prefix is computed against
    /// the policy's own non-pool ordering, reproduced from the same seed.)
    #[test]
    fn arbitrary_config_never_perturbs_ranks_below_k(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        k in 1usize..50,
        degree in 0.0f64..=1.0,
    ) {
        let config = PromotionConfig::new(rule, k, degree).unwrap();
        let policy = RandomizedRankPromotion::new(config);
        let order = policy.rank(&pages, &mut new_rng(seed));

        // Reproduce the policy's own pool split from the same seed: the
        // Uniform rule consumes one coin flip per page, in input order,
        // before anything else; the Selective rule consumes none.
        let mut pool_rng = new_rng(seed);
        let in_pool: Vec<bool> = match rule {
            PromotionRule::Selective => pages.iter().map(|p| p.is_unexplored()).collect(),
            PromotionRule::Uniform => pages
                .iter()
                .map(|_| rand::Rng::gen::<f64>(&mut pool_rng) < degree)
                .collect(),
        };
        let mut non_pool: Vec<&PageStats> = pages
            .iter()
            .filter(|p| !in_pool[p.slot])
            .collect();
        non_pool.sort_by(|a, b| rrp_ranking::popularity_order(a, b));
        let protected = (k - 1).min(non_pool.len());
        let expected: Vec<usize> = non_pool[..protected].iter().map(|p| p.slot).collect();
        prop_assert_eq!(
            &order[..protected],
            expected.as_slice(),
            "ranks 1..k must hold the deterministic non-pool prefix (rule {:?}, k {}, r {})",
            rule,
            k,
            degree
        );
    }
}
