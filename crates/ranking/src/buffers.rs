//! Reusable scratch buffers for the allocation-free ranking hot path.
//!
//! Every [`RankingPolicy::rank_into`](crate::RankingPolicy::rank_into) call
//! needs a handful of intermediate lists (the promotion pool, the
//! deterministic remainder, membership masks). Allocating them per call is
//! what made the legacy [`rank`](crate::RankingPolicy::rank) path cost ~5
//! heap round-trips per query; a [`RankBuffers`] owned by the caller and
//! handed to every call amortises them to zero once the buffers have grown
//! to the working-set size.
//!
//! The arena is deliberately *not* shared between threads: each worker in a
//! batch-serving or sweep context owns one (`RankBuffers` is cheap to
//! construct empty).

/// Scratch arena reused across ranking calls.
///
/// Obtain one with [`RankBuffers::new`] (or `Default`), keep it alive for as
/// many calls as you like, and pass it to
/// [`RankingPolicy::rank_into`](crate::RankingPolicy::rank_into). Contents
/// are meaningless between calls; only the capacity persists.
#[derive(Debug, Default)]
pub struct RankBuffers {
    /// Promotion-pool entries (indices into the input, later slot indices).
    pub(crate) pool: Vec<usize>,
    /// Deterministic-remainder entries (indices, later slot indices).
    pub(crate) rest: Vec<usize>,
    /// Per-slot pool-membership mask (the Uniform rule's per-slot coins).
    pub(crate) mask: Vec<bool>,
    /// Per-slot seen mask for permutation validation.
    pub(crate) seen: Vec<bool>,
    /// A flat copy of chunked per-slot statistics, for the policies that
    /// sort or shuffle the whole corpus.
    pub(crate) pages: Vec<crate::PageStats>,
    /// Sparse `(index, value)` overlay for the v2 lazy pool shuffle
    /// ([`LazyShuffle`](crate::LazyShuffle)): at most `k` entries per
    /// top-`k` query, reused across queries for its capacity.
    pub(crate) overlay: Vec<(usize, usize)>,
    /// How many times the per-slot mask was reset (each reset is an `O(n)`
    /// clear paired with a full-corpus pool scan). The Selective rule
    /// never resets, so serving tiers read this counter to *pin* that their
    /// clean-batch path stayed scan-free — see
    /// [`take_mask_resets`](Self::take_mask_resets).
    mask_resets: u64,
    /// Lazy-shuffle swap indices drawn by v2 top-k paths (at most `k` per
    /// query). Serving tiers aggregate this to pin the O(k) contract — see
    /// [`take_pool_draws`](Self::take_pool_draws).
    pool_draws: u64,
}

impl RankBuffers {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        RankBuffers::default()
    }

    /// An arena pre-grown for inputs of `n` pages, so even the first call
    /// does not allocate.
    pub fn with_capacity(n: usize) -> Self {
        RankBuffers {
            pool: Vec::with_capacity(n),
            rest: Vec::with_capacity(n),
            mask: Vec::with_capacity(n),
            seen: Vec::with_capacity(n),
            pages: Vec::new(),
            overlay: Vec::new(),
            mask_resets: 0,
            pool_draws: 0,
        }
    }

    /// Drain the count of per-slot mask resets since the last call (each
    /// one marks an `O(n)` full-corpus pool derivation). The Selective
    /// rule performs none; the Uniform rule's mandatory per-page coin scan
    /// performs one per query — serving probes aggregate this to pin their
    /// scan-free contract.
    pub fn take_mask_resets(&mut self) -> u64 {
        std::mem::take(&mut self.mask_resets)
    }

    /// Drain the count of lazy-shuffle swap draws since the last call.
    /// Only the v2 Selective top-k paths draw any; each query contributes
    /// at most `k`, so serving probes aggregate this to pin the O(k)
    /// per-query contract (`pool_draws ≤ k × queries`).
    pub fn take_pool_draws(&mut self) -> u64 {
        std::mem::take(&mut self.pool_draws)
    }

    /// Record `draws` lazy-shuffle swap draws (called by the v2 paths).
    pub(crate) fn count_pool_draws(&mut self, draws: u64) {
        self.pool_draws += draws;
    }

    /// Verify that `ordering` is a permutation of `0..n` using the arena's
    /// scratch mask instead of a fresh allocation — the validation
    /// counterpart of the allocation-free ranking path.
    pub fn check_permutation(&mut self, ordering: &[usize], n: usize) -> bool {
        crate::policy::is_permutation_with_scratch(ordering, n, &mut self.seen)
    }

    /// Reset the per-slot boolean mask to `n` entries of `false`.
    pub(crate) fn reset_mask(&mut self, n: usize) {
        self.mask_resets += 1;
        self.mask.clear();
        self.mask.resize(n, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_start_empty_and_grow() {
        let mut bufs = RankBuffers::new();
        assert!(bufs.pool.is_empty());
        bufs.reset_mask(5);
        assert_eq!(bufs.mask.len(), 5);
        assert!(bufs.mask.iter().all(|&b| !b));
        bufs.mask[3] = true;
        bufs.reset_mask(3);
        assert_eq!(bufs.mask, vec![false; 3]);
    }

    #[test]
    fn mask_reset_counter_counts_and_drains() {
        let mut bufs = RankBuffers::new();
        assert_eq!(bufs.take_mask_resets(), 0);
        bufs.reset_mask(4);
        bufs.reset_mask(4);
        assert_eq!(bufs.take_mask_resets(), 2);
        assert_eq!(bufs.take_mask_resets(), 0, "taking drains the counter");
    }

    #[test]
    fn with_capacity_preallocates() {
        let bufs = RankBuffers::with_capacity(64);
        assert!(bufs.pool.capacity() >= 64);
        assert!(bufs.rest.capacity() >= 64);
    }

    #[test]
    fn check_permutation_reuses_scratch() {
        let mut bufs = RankBuffers::new();
        assert!(bufs.check_permutation(&[2, 0, 1], 3));
        assert!(!bufs.check_permutation(&[0, 0, 1], 3));
        assert!(bufs.check_permutation(&[], 0));
        // Scratch survives between checks without reallocation growth.
        assert!(bufs.check_permutation(&[1, 0], 2));
    }
}
