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
//!   maintained popularity order and a [`PoolIndex`], as a
//!   [`CorpusCache`](crate::CorpusCache) holds them (the simulator's day
//!   loop, each serving shard);
//! * [`merged`](RankSource::merged) — the complete global popularity
//!   order reassembled from shard-local orders plus the maintained global
//!   pool index (a sharded serving tier's full-order path), with no
//!   corpus-wide stats in sight;
//! * [`retrieved`](RankSource::retrieved) — the global pool plus a
//!   *pool-free* prefix of the popularity order, retrieved per query from
//!   shard candidates (the `O(k)` top-k serving path).
//!
//! The stats and the pool are always the maintained, chunked structures a
//! cache shares with its published versions ([`Chunked`], [`PoolIndex`]);
//! only the order comes in two shapes ([`OrderView`]): a cache's blocked
//! [`PopularityIndex`], or a flat slot list — the merged complete order and
//! the retrieved rest prefix are assembled per version or per query.
//! Membership is read off the [`PoolIndex`]; a retrieved stream carries
//! none because it holds no pool member to filter out.

use crate::chunked::Chunked;
use crate::poolindex::PoolIndex;
use crate::popindex::PopularityIndex;
use crate::stats::{popularity_order, PageStats};

/// A borrowed popularity order: a flat slot list or a maintained
/// [`PopularityIndex`], streamed block by block.
#[derive(Clone, Copy, Debug)]
pub enum OrderView<'a> {
    /// Slots in order, contiguous.
    Flat(&'a [usize]),
    /// A blocked, maintained order.
    Index(&'a PopularityIndex),
}

impl<'a> OrderView<'a> {
    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            OrderView::Flat(slots) => slots.len(),
            OrderView::Index(index) => index.len(),
        }
    }

    /// Whether the order is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The order as consecutive slices, best rank first.
    pub fn slices(self) -> impl Iterator<Item = &'a [usize]> {
        let (flat, blocks) = match self {
            OrderView::Flat(slots) => (Some(slots), None),
            OrderView::Index(index) => (None, Some(index.blocks())),
        };
        flat.into_iter().chain(blocks.into_iter().flatten())
    }

    /// The slots in order.
    pub fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.slices().flat_map(|slice| slice.iter().copied())
    }
}

impl<'a> From<&'a [usize]> for OrderView<'a> {
    fn from(slots: &'a [usize]) -> Self {
        OrderView::Flat(slots)
    }
}

impl<'a> From<&'a Vec<usize>> for OrderView<'a> {
    fn from(slots: &'a Vec<usize>) -> Self {
        OrderView::Flat(slots)
    }
}

impl<'a> From<&'a PopularityIndex> for OrderView<'a> {
    fn from(index: &'a PopularityIndex) -> Self {
        OrderView::Index(index)
    }
}

/// A borrowed query-time view of the ranking inputs (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct RankSource<'a> {
    /// The promotion pool: its members in ascending slot order are the
    /// pre-shuffle order.
    pub(crate) pool: &'a PoolIndex,
    /// Whether `order` is the complete popularity order, pool members
    /// included; `false` when it is already pool-free (a retrieved
    /// prefix).
    complete: bool,
    /// Slots in [`popularity_order`], best rank first: the complete order,
    /// or a pool-free prefix of it when `complete` is false.
    pub(crate) order: OrderView<'a>,
    /// The per-slot statistics (`pages[i].slot == i`), where the caller
    /// holds a corpus-wide snapshot.
    pub(crate) pages: Option<&'a Chunked<PageStats>>,
}

impl<'a> RankSource<'a> {
    /// A corpus-wide view: the stats snapshot, its popularity order, and
    /// the maintained pool, as a [`CorpusCache`](crate::CorpusCache) holds
    /// them. Requires dense slots (`pages[i].slot == i`) and `order`
    /// sorted by [`popularity_order`] (checked by debug assertions). The
    /// pool is read only by the Selective rule.
    pub fn pooled(
        pages: &'a Chunked<PageStats>,
        order: impl Into<OrderView<'a>>,
        pool: &'a PoolIndex,
    ) -> Self {
        let order = order.into();
        debug_assert!(pages.iter().enumerate().all(|(i, p)| p.slot == i));
        debug_assert_eq!(order.len(), pages.len());
        debug_assert!({
            let slots: Vec<usize> = order.iter().collect();
            slots
                .windows(2)
                .all(|w| popularity_order(&pages[w[0]], &pages[w[1]]).is_lt())
        });
        RankSource {
            pool,
            complete: true,
            order,
            pages: Some(pages),
        }
    }

    /// A merged-shard view: the complete global popularity `order` and the
    /// global `pool` index (membership and ascending members). No per-slot
    /// statistics, so policies that read them cannot rank from it.
    pub fn merged(pool: &'a PoolIndex, order: &'a [usize]) -> Self {
        RankSource {
            pool,
            complete: true,
            order: OrderView::Flat(order),
            pages: None,
        }
    }

    /// A retrieved view: the global `pool` in ascending slot order and
    /// `rest`, the first entries of the popularity order *outside* the
    /// pool (best rank first). A top-`k` rank reads at most `k` of them,
    /// so `min(k, available)` suffice. Only selective promotion can rank
    /// from it: every other policy needs the whole corpus.
    pub fn retrieved(pool: &'a PoolIndex, rest: &'a [usize]) -> Self {
        RankSource {
            pool,
            complete: false,
            order: OrderView::Flat(rest),
            pages: None,
        }
    }

    /// Whether `order` is a retrieved, pool-free prefix rather than the
    /// complete popularity order.
    #[inline]
    pub(crate) fn is_retrieved(&self) -> bool {
        !self.complete
    }

    /// The first `limit` slots of the order outside the pool, into `rest`
    /// (cleared first). No RNG draws.
    pub(crate) fn fill_rest(&self, limit: usize, rest: &mut Vec<usize>) {
        if self.complete {
            fill_rest(self.order, |s| self.pool.contains(s), limit, rest);
        } else {
            fill_rest(self.order, |_| false, limit, rest);
        }
    }

    /// Whether the maintained pool equals a fresh
    /// [`is_unexplored`](PageStats::is_unexplored) scan of the stats (true
    /// when the view carries none) — the debug guard of the Selective rule.
    pub(crate) fn pool_matches_pages(&self) -> bool {
        self.pages
            .is_none_or(|pages| self.pool.is_consistent(pages))
    }
}

/// Fill `rest` (cleared first) with the first `limit` entries of `order`
/// for which `excluded` is false.
pub(crate) fn fill_rest(
    order: OrderView<'_>,
    excluded: impl Fn(usize) -> bool,
    limit: usize,
    rest: &mut Vec<usize>,
) {
    rest.clear();
    if limit == 0 {
        return;
    }
    for slice in order.slices() {
        for &slot in slice {
            if !excluded(slot) {
                rest.push(slot);
                if rest.len() == limit {
                    return;
                }
            }
        }
    }
}
