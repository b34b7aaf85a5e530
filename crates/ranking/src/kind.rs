//! [`PolicyKind`] — a closed, copyable enum over every ranking policy in
//! this crate.
//!
//! The simulator's day loop used to dispatch ranking through a
//! `Box<dyn RankingPolicy>`; that is flexible but puts a vtable call (and a
//! heap allocation per simulation) on the hottest path in the workspace.
//! All policies the workspace actually runs are the four defined here, so a
//! plain enum gives static dispatch, `Copy` semantics (policies are a few
//! words of configuration), and exhaustive matching — while still
//! implementing [`RankingPolicy`] for callers that want the trait.

use crate::buffers::RankBuffers;
use crate::deterministic::{FullyRandomRanking, PopularityRanking, QualityOracleRanking};
use crate::policy::RankingPolicy;
use crate::promotion::{PromotionConfig, PromotionRule};
use crate::randomized::RandomizedRankPromotion;
use crate::source::RankSource;
use crate::stats::PageStats;
use rand::RngCore;

/// A closed enum over the crate's ranking policies (static dispatch).
///
/// Construct it directly, via `From` on any concrete policy, or with
/// [`PolicyKind::promotion`]. All methods forward to the corresponding
/// policy and consume identical RNG draws, so swapping a boxed policy for a
/// `PolicyKind` never changes simulation results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Strict descending-popularity ranking ([`PopularityRanking`]).
    Popularity,
    /// The hypothetical quality-ordered ideal ([`QualityOracleRanking`]).
    QualityOracle,
    /// A uniformly random permutation per query ([`FullyRandomRanking`]).
    FullyRandom,
    /// The paper's randomized rank promotion ([`RandomizedRankPromotion`]).
    Promotion(RandomizedRankPromotion),
}

impl PolicyKind {
    /// Randomized rank promotion with the given configuration.
    pub fn promotion(config: PromotionConfig) -> Self {
        PolicyKind::Promotion(RandomizedRankPromotion::new(config))
    }

    /// The paper's recommended recipe: selective promotion, `r = 0.1`,
    /// starting at `start_rank` (1 or 2).
    pub fn recommended(start_rank: usize) -> Self {
        PolicyKind::Promotion(RandomizedRankPromotion::recommended(start_rank))
    }

    /// Rank `source` into `out` — all `n` ranks for `limit = None`, else
    /// the first `min(k, n)` of `limit = Some(k)` — with a `match` instead
    /// of a vtable. Promotion forwards to
    /// [`RandomizedRankPromotion::rank_into`]; plain popularity ranking
    /// copies the source's complete order; the quality oracle and the
    /// fully-random shuffle rank the source's per-slot stats in full and
    /// truncate (their prefix depends on the whole permutation). Except
    /// under a v2 Selective top-k, every answer equals the prefix of the
    /// reference [`RankingPolicy::rank_into`] from the same RNG state.
    ///
    /// # Panics
    /// Panics where the source lacks what the kind reads: a
    /// [`retrieved`](RankSource::retrieved) source serves only selective
    /// promotion, and a [`merged`](RankSource::merged) one carries no
    /// per-slot stats for the quality oracle or the fully-random shuffle.
    pub fn rank_into<R: RngCore + ?Sized>(
        &self,
        source: RankSource<'_>,
        limit: Option<usize>,
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        match self {
            PolicyKind::Promotion(policy) => policy.rank_into(source, limit, rng, buffers, out),
            _ if source.is_retrieved() => panic!(
                "{} does not rank from shard candidates; serve it from the corpus-wide state",
                self.name()
            ),
            PolicyKind::Popularity => {
                out.clear();
                out.extend(source.order.iter().take(limit.unwrap_or(usize::MAX)));
            }
            PolicyKind::QualityOracle | PolicyKind::FullyRandom => {
                let pages = match source.pages {
                    Some(pages) => {
                        buffers.pages.clear();
                        buffers.pages.extend(pages.iter());
                        &buffers.pages
                    }
                    None => panic!(
                        "{} does not rank from merged shard state; it reads per-page state \
                         the popularity-ordered merge does not carry",
                        self.name()
                    ),
                };
                if *self == PolicyKind::QualityOracle {
                    QualityOracleRanking.rank_order_into(pages, out);
                } else {
                    FullyRandomRanking.shuffle_into(pages, rng, out);
                }
                if let Some(k) = limit {
                    out.truncate(k);
                }
            }
        }
    }

    /// Allocating convenience wrapper over the reference
    /// [`RankingPolicy::rank_into`] (the trait's provided method).
    pub fn rank(&self, pages: &[PageStats], rng: &mut dyn RngCore) -> Vec<usize> {
        RankingPolicy::rank(self, pages, rng)
    }

    /// Whether ranking actually reads the source's pool: only the
    /// selective promotion rule does. Every other kind either ignores the
    /// pool entirely or (the Uniform rule) must re-draw its per-page
    /// coins, so only a pool-reading policy can rank from a
    /// [`RankSource::retrieved`] view. A [`CorpusCache`](crate::CorpusCache)
    /// maintains its pool either way.
    pub fn reads_pool_index(&self) -> bool {
        matches!(
            self,
            PolicyKind::Promotion(policy) if policy.config().rule == PromotionRule::Selective
        )
    }

    /// The policy's report name (see [`RankingPolicy::name`]).
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Popularity => PopularityRanking.name(),
            PolicyKind::QualityOracle => QualityOracleRanking.name(),
            PolicyKind::FullyRandom => FullyRandomRanking.name(),
            PolicyKind::Promotion(policy) => RankingPolicy::name(policy),
        }
    }
}

impl RankingPolicy for PolicyKind {
    fn rank_into(
        &self,
        pages: &[PageStats],
        rng: &mut dyn RngCore,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        match self {
            PolicyKind::Popularity => PopularityRanking.rank_order_into(pages, out),
            PolicyKind::QualityOracle => QualityOracleRanking.rank_order_into(pages, out),
            PolicyKind::FullyRandom => FullyRandomRanking.shuffle_into(pages, rng, out),
            PolicyKind::Promotion(policy) => {
                RankingPolicy::rank_into(policy, pages, rng, buffers, out)
            }
        }
    }

    fn name(&self) -> String {
        PolicyKind::name(self)
    }
}

impl From<PopularityRanking> for PolicyKind {
    fn from(_: PopularityRanking) -> Self {
        PolicyKind::Popularity
    }
}

impl From<QualityOracleRanking> for PolicyKind {
    fn from(_: QualityOracleRanking) -> Self {
        PolicyKind::QualityOracle
    }
}

impl From<FullyRandomRanking> for PolicyKind {
    fn from(_: FullyRandomRanking) -> Self {
        PolicyKind::FullyRandom
    }
}

impl From<RandomizedRankPromotion> for PolicyKind {
    fn from(policy: RandomizedRankPromotion) -> Self {
        PolicyKind::Promotion(policy)
    }
}

impl From<PromotionConfig> for PolicyKind {
    fn from(config: PromotionConfig) -> Self {
        PolicyKind::promotion(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::is_permutation;
    use crate::promotion::PromotionRule;
    use crate::stats::popularity_order;
    use rrp_model::{new_rng, PageId};

    fn pages() -> Vec<PageStats> {
        (0..30)
            .map(|slot| {
                let (pop, aw) = if slot % 3 == 0 {
                    (0.0, 0.0)
                } else {
                    (1.0 - slot as f64 * 0.02, 0.5)
                };
                PageStats::new(slot, PageId::new(slot as u64), pop, aw)
                    .with_age((slot % 7) as u64)
                    .with_quality(1.0 - slot as f64 * 0.01)
            })
            .collect()
    }

    fn all_kinds() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Popularity,
            PolicyKind::QualityOracle,
            PolicyKind::FullyRandom,
            PolicyKind::recommended(2),
            PolicyKind::promotion(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
        ]
    }

    #[test]
    fn enum_dispatch_matches_concrete_policies() {
        let ps = pages();
        let concrete: Vec<Box<dyn RankingPolicy>> = vec![
            Box::new(PopularityRanking),
            Box::new(QualityOracleRanking),
            Box::new(FullyRandomRanking),
            Box::new(RandomizedRankPromotion::recommended(2)),
            Box::new(RandomizedRankPromotion::new(
                PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
            )),
        ];
        for (kind, boxed) in all_kinds().iter().zip(&concrete) {
            for seed in 0..10 {
                let mut rng_a = new_rng(seed);
                let mut rng_b = new_rng(seed);
                assert_eq!(
                    kind.rank(&ps, &mut rng_a),
                    boxed.rank(&ps, &mut rng_b),
                    "{}",
                    kind.name()
                );
            }
            assert_eq!(kind.name(), boxed.name());
        }
    }

    /// The source adaptors [`PolicyKind::rank_into`] reads.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Column {
        Pooled,
        Merged,
        Retrieved,
    }

    /// The one table: the sources each kind (in `all_kinds` order) ranks
    /// from. The cells a kind cannot read panic (pinned by the two
    /// `*_rejects_*` tests below).
    const TABLE: [&[Column]; 5] = [
        &[Column::Pooled, Column::Merged],
        &[Column::Pooled],
        &[Column::Pooled],
        &[Column::Pooled, Column::Merged, Column::Retrieved],
        &[Column::Pooled, Column::Merged],
    ];

    const FULL: &[Option<usize>] = &[None];
    const TOP_K: &[Option<usize>] = &[Some(0), Some(1), Some(2), Some(5), Some(30), Some(64)];
    const ALL_LIMITS: &[Option<usize>] =
        &[None, Some(0), Some(1), Some(2), Some(5), Some(30), Some(64)];

    /// Every kind whose `TABLE` row holds `column` answers the prefix of
    /// its reference `rank` bit for bit at every limit in `limits`, off a
    /// source whose pool the caller built from only `pages` and an order.
    fn assert_column_matches_reference(column: Column, limits: &[Option<usize>]) {
        let ps = pages();
        let mut sorted: Vec<usize> = (0..ps.len()).collect();
        sorted.sort_unstable_by(|&a, &b| popularity_order(&ps[a], &ps[b]));
        let pool = crate::PoolIndex::build(&ps);
        let stats: crate::Chunked<PageStats> = ps.iter().copied().collect();
        let rest: Vec<usize> = sorted
            .iter()
            .copied()
            .filter(|&s| !pool.contains(s))
            .collect();
        let source = match column {
            Column::Pooled => RankSource::pooled(&stats, &sorted, &pool),
            Column::Merged => RankSource::merged(&pool, &sorted),
            Column::Retrieved => RankSource::retrieved(&pool, &rest),
        };
        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();
        for (kind, row) in all_kinds().into_iter().zip(TABLE) {
            if !row.contains(&column) {
                continue;
            }
            for seed in 0..5 {
                let full = kind.rank(&ps, &mut new_rng(seed));
                for &limit in limits {
                    kind.rank_into(source, limit, &mut new_rng(seed), &mut buffers, &mut out);
                    let len = limit.unwrap_or(full.len()).min(full.len());
                    assert_eq!(
                        out,
                        full[..len],
                        "{} {column:?}, {limit:?}, seed={seed}",
                        kind.name()
                    );
                    if limit.is_none() {
                        assert!(is_permutation(&out, ps.len()), "{}", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn presorted_path_matches_plain_path_for_every_kind() {
        assert_column_matches_reference(Column::Pooled, FULL);
    }

    #[test]
    fn top_k_matches_the_full_rerank_prefix_for_every_kind() {
        for column in [Column::Pooled, Column::Merged, Column::Retrieved] {
            assert_column_matches_reference(column, TOP_K);
        }
    }

    #[test]
    fn pooled_dispatch_matches_the_full_rerank_prefix_for_every_kind() {
        assert_eq!(
            TABLE
                .iter()
                .filter(|row| row.contains(&Column::Pooled))
                .count(),
            5
        );
        assert_column_matches_reference(Column::Pooled, ALL_LIMITS);
    }

    #[test]
    fn merged_dispatch_matches_the_full_rerank_where_supported() {
        assert_column_matches_reference(Column::Merged, ALL_LIMITS);
    }

    /// The retrieved column, fed by real shard retrieval: each shard
    /// collects its top-`k` candidates off its own indexes and the
    /// deterministic merge reassembles the global pool and rest prefix.
    #[test]
    fn candidate_dispatch_matches_the_full_rerank_prefix_where_supported() {
        use crate::candidates::{merge_shard_candidates_into, MergedCandidates, ShardCandidates};
        use crate::popindex::PopularityIndex;
        use crate::PoolIndex;

        assert_column_matches_reference(Column::Retrieved, ALL_LIMITS);
        let ps = pages();
        let global_pool = PoolIndex::build(&ps);
        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();
        let mut merged = MergedCandidates::new();
        let mut rest = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut locals: Vec<Vec<PageStats>> = vec![Vec::new(); shards];
            let mut globals: Vec<crate::Chunked<usize>> = vec![Default::default(); shards];
            for p in &ps {
                let shard = (p.slot * 11 + 2) % shards;
                let mut local = *p;
                local.slot = locals[shard].len();
                locals[shard].push(local);
                globals[shard].push(p.slot);
            }
            for (kind, row) in all_kinds().into_iter().zip(TABLE) {
                if !row.contains(&Column::Retrieved) {
                    continue;
                }
                for k in [0usize, 1, 2, 5, 10, 30, 64] {
                    let candidates: Vec<ShardCandidates> = (0..shards)
                        .map(|s| {
                            let order = PopularityIndex::build(&locals[s]);
                            let pool = PoolIndex::build(&locals[s]);
                            let mut c = ShardCandidates::new();
                            let stats = locals[s].iter().copied().collect();
                            c.collect(&stats, &order, &pool, k, &globals[s]);
                            c
                        })
                        .collect();
                    merge_shard_candidates_into(&candidates, k, &mut merged);
                    rest.clear();
                    rest.extend(merged.rest().iter().map(|p| p.slot));
                    assert_eq!(merged.pool(), global_pool.members());
                    for seed in 0..5 {
                        let full = kind.rank(&ps, &mut new_rng(seed));
                        kind.rank_into(
                            RankSource::retrieved(&global_pool, &rest),
                            Some(k),
                            &mut new_rng(seed),
                            &mut buffers,
                            &mut out,
                        );
                        assert_eq!(
                            out,
                            full[..k.min(full.len())],
                            "{} with {shards} shards, k={k}, seed={seed}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not rank from merged shard state")]
    fn merged_dispatch_rejects_per_page_state_kinds() {
        PolicyKind::QualityOracle.rank_into(
            RankSource::merged(&crate::PoolIndex::default(), &[]),
            None,
            &mut new_rng(0),
            &mut RankBuffers::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "does not rank from shard candidates")]
    fn candidate_dispatch_rejects_whole_corpus_kinds() {
        PolicyKind::FullyRandom.rank_into(
            RankSource::retrieved(&crate::PoolIndex::default(), &[]),
            Some(3),
            &mut new_rng(0),
            &mut RankBuffers::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    fn only_selective_promotion_reads_the_pool_index() {
        assert!(!PolicyKind::Popularity.reads_pool_index());
        assert!(!PolicyKind::QualityOracle.reads_pool_index());
        assert!(!PolicyKind::FullyRandom.reads_pool_index());
        assert!(PolicyKind::recommended(2).reads_pool_index());
        assert!(!PolicyKind::promotion(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()
        )
        .reads_pool_index());
    }

    #[test]
    fn from_impls_map_to_the_right_variant() {
        assert_eq!(PolicyKind::from(PopularityRanking), PolicyKind::Popularity);
        assert_eq!(
            PolicyKind::from(QualityOracleRanking),
            PolicyKind::QualityOracle
        );
        assert_eq!(
            PolicyKind::from(FullyRandomRanking),
            PolicyKind::FullyRandom
        );
        let config = PromotionConfig::recommended(2);
        assert_eq!(
            PolicyKind::from(RandomizedRankPromotion::new(config)),
            PolicyKind::promotion(config)
        );
        assert_eq!(PolicyKind::from(config), PolicyKind::recommended(2));
    }

    #[test]
    fn kind_is_copy_and_small() {
        let kind = PolicyKind::recommended(1);
        let copy = kind;
        assert_eq!(kind, copy);
        assert!(std::mem::size_of::<PolicyKind>() <= 40);
    }
}
