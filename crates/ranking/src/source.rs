//! [`RankSource`] — the one borrowed view every ranking entry point reads.
//!
//! The paper's ranking (Section 4) needs three inputs: the promotion pool
//! `P_p` in its pre-shuffle order, a popularity-ordered stream from which
//! the deterministic list `L_d` is drawn, and — only for the policies that
//! do not rank by popularity — the per-slot statistics. Where those inputs
//! come from differs by caller, and each caller builds its view through one
//! adaptor constructor:
//!
//! * [`pooled`](RankSource::pooled) — a corpus-wide stats snapshot, its
//!   maintained popularity order and a [`PoolIndex`] (the simulator's day
//!   loop, a [`CorpusCache`](../../rrp_core/struct.CorpusCache.html));
//! * [`merged`](RankSource::merged) — the complete global popularity
//!   order reassembled from shard-local orders plus the maintained global
//!   pool and its membership mask (a sharded serving tier's full-order
//!   path), with no corpus-wide stats in sight;
//! * [`retrieved`](RankSource::retrieved) — the global pool plus a
//!   *pool-free* prefix of the popularity order, retrieved per query from
//!   shard candidates (the `O(k)` top-k serving path).
//!
//! Membership is a plain `&[bool]` mask indexed by slot, so the
//! deterministic-remainder filter stays one monomorphic loop for every
//! adaptor; a retrieved stream carries no mask because it holds no pool
//! member to filter out.

use crate::poolindex::PoolIndex;
use crate::stats::{popularity_order, PageStats};

/// A borrowed query-time view of the ranking inputs (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct RankSource<'a> {
    /// Promotion-pool members in ascending slot order (pre-shuffle).
    pub(crate) pool: &'a [usize],
    /// Per-slot pool membership over `order`; `None` when `order` is
    /// already pool-free (a retrieved prefix).
    pub(crate) in_pool: Option<&'a [bool]>,
    /// Slots in [`popularity_order`], best rank first: the complete order,
    /// or a pool-free prefix of it when `in_pool` is `None`.
    pub(crate) order: &'a [usize],
    /// The per-slot statistics (`pages[i].slot == i`), where the caller
    /// holds a corpus-wide snapshot.
    pub(crate) pages: Option<&'a [PageStats]>,
}

impl<'a> RankSource<'a> {
    /// A corpus-wide view: the stats snapshot, its popularity order, and
    /// the maintained pool. Requires dense slots (`pages[i].slot == i`) and
    /// `order` sorted by [`popularity_order`] (checked by debug
    /// assertions). The pool is read only by the Selective rule, so owners
    /// whose policy never reads it may pass an unmaintained (empty) index.
    pub fn pooled(pages: &'a [PageStats], order: &'a [usize], pool: &'a PoolIndex) -> Self {
        debug_assert!(pages.iter().enumerate().all(|(i, p)| p.slot == i));
        debug_assert_eq!(order.len(), pages.len());
        debug_assert!(order
            .windows(2)
            .all(|w| popularity_order(&pages[w[0]], &pages[w[1]]).is_lt()));
        RankSource {
            pool: pool.members(),
            in_pool: Some(pool.mask()),
            order,
            pages: Some(pages),
        }
    }

    /// A merged-shard view: the complete global popularity `order`, the
    /// global `pool` in ascending slot order, and its membership mask
    /// `in_pool` (`in_pool[s]` ⇔ `s ∈ pool`). No per-slot statistics, so
    /// policies that read them cannot rank from it.
    pub fn merged(pool: &'a [usize], in_pool: &'a [bool], order: &'a [usize]) -> Self {
        debug_assert!(pool.windows(2).all(|w| w[0] < w[1]));
        RankSource {
            pool,
            in_pool: Some(in_pool),
            order,
            pages: None,
        }
    }

    /// A retrieved view: the global `pool` in ascending slot order and
    /// `rest`, the first entries of the popularity order *outside* the
    /// pool (best rank first). A top-`k` rank reads at most `k` of them,
    /// so `min(k, available)` suffice. Only selective promotion can rank
    /// from it: every other policy needs the whole corpus.
    pub fn retrieved(pool: &'a [usize], rest: &'a [usize]) -> Self {
        debug_assert!(pool.windows(2).all(|w| w[0] < w[1]));
        RankSource {
            pool,
            in_pool: None,
            order: rest,
            pages: None,
        }
    }

    /// Whether `order` is a retrieved, pool-free prefix rather than the
    /// complete popularity order.
    #[inline]
    pub(crate) fn is_retrieved(&self) -> bool {
        self.in_pool.is_none()
    }

    /// The first `limit` slots of the order outside the pool, into `rest`
    /// (cleared first). No RNG draws.
    pub(crate) fn fill_rest(&self, limit: usize, rest: &mut Vec<usize>) {
        fill_rest(self.order, self.in_pool, limit, rest);
    }

    /// Whether the maintained pool and mask equal a fresh
    /// [`is_unexplored`](PageStats::is_unexplored) scan of the stats (true
    /// when the view carries none) — the debug guard of the Selective rule.
    pub(crate) fn pool_matches_pages(&self) -> bool {
        let (Some(pages), Some(mask)) = (self.pages, self.in_pool) else {
            return true;
        };
        mask.len() == pages.len()
            && self.pool.windows(2).all(|w| w[0] < w[1])
            && pages.iter().all(|p| mask[p.slot] == p.is_unexplored())
            && self.pool.iter().all(|&s| mask[s])
            && self.pool.len() == pages.iter().filter(|p| p.is_unexplored()).count()
    }
}

/// Fill `rest` (cleared first) with the first `limit` entries of `order`
/// outside the pool: filtered through `in_pool`, or copied straight off a
/// stream that is already pool-free (`None`).
pub(crate) fn fill_rest(
    order: &[usize],
    in_pool: Option<&[bool]>,
    limit: usize,
    rest: &mut Vec<usize>,
) {
    rest.clear();
    match in_pool {
        Some(mask) => rest.extend(order.iter().copied().filter(|&s| !mask[s]).take(limit)),
        None => rest.extend_from_slice(&order[..limit.min(order.len())]),
    }
}
