//! The incremental ranking cache over one corpus of pages.
//!
//! Every steady-state consumer of a pooled [`RankSource`] — the simulator's
//! day loop and each serving shard — keeps the same three derived
//! structures alive across rankings: the per-slot [`PageStats`] snapshot,
//! the [`PopularityIndex`] over it, and the [`PoolIndex`] recording
//! selective-promotion membership. [`CorpusCache`] owns all three plus the
//! one dirty list that keeps them honest: a mutation patches one stats slot
//! and marks it dirty; [`repair`](CorpusCache::repair) then brings *both*
//! indexes current from the same dirty slots (membership flips exactly
//! where popularity keys move, because both are functions of the mutated
//! slot's stats). Nothing is ever re-derived wholesale on a ranking path —
//! the "repair, don't rebuild" discipline of incremental view maintenance.
//!
//! The dirty list is deduplicated on entry through a per-slot mask, and
//! that mask is the only deduplication anywhere: both index repairs read
//! the duplicate-free list and the mask as they are, and the repair resets
//! exactly the entries it set, so a repair costs nothing proportional to
//! the corpus size beyond the indexes' own passes.

use crate::chunked::Chunked;
use crate::poolindex::PoolIndex;
use crate::popindex::PopularityIndex;
use crate::source::RankSource;
use crate::stats::PageStats;

/// The persistent ranking caches over one corpus: statistics snapshot,
/// popularity order, and promotion-pool membership, repaired together from
/// one dirty list.
///
/// All three are chunked copy-on-write structures, so cloning them (see
/// [`stats`](Self::stats), [`order`](Self::order), [`pool`](Self::pool))
/// shares every chunk, and a later patch copies only the chunks it
/// touches.
#[derive(Debug, Clone, Default)]
pub struct CorpusCache {
    /// `PageStats` for each slot (`stats[i].slot == i`), patched in place
    /// on mutation.
    stats: Chunked<PageStats>,
    /// Popularity order over the slots, repaired block by block.
    popularity: PopularityIndex,
    /// Selective-promotion pool membership, repaired from the same dirty
    /// slots.
    pool: PoolIndex,
    /// Slots whose stats changed (or appeared) since the last repair —
    /// deduplicated on entry via `dirty_mask`, so the list is bounded by
    /// the corpus size no matter how long repairs are deferred.
    dirty: Vec<usize>,
    /// The stats each dirty slot that is already in the order had when it
    /// went dirty: the key the order still files it under.
    moved: Vec<PageStats>,
    /// Per-slot "already in `dirty`" mask; all-false right after a repair.
    dirty_mask: Vec<bool>,
}

impl CorpusCache {
    /// An empty cache; slots join through [`push`](Self::push) (or a bulk
    /// [`rebuild`](Self::rebuild)).
    pub fn new() -> Self {
        CorpusCache::default()
    }

    /// Number of cached slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the cache holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// The per-slot statistics snapshot.
    #[inline]
    pub fn stats(&self) -> &Chunked<PageStats> {
        &self.stats
    }

    /// The popularity order (best rank first). Only current after
    /// [`repair`](Self::repair); ranking paths call that first.
    #[inline]
    pub fn order(&self) -> &PopularityIndex {
        &self.popularity
    }

    /// The promotion-pool membership index. Only current after
    /// [`repair`](Self::repair).
    #[inline]
    pub fn pool(&self) -> &PoolIndex {
        &self.pool
    }

    /// The query-time [`RankSource::pooled`] view over the cache's three
    /// maintained structures. Only current after [`repair`](Self::repair).
    #[inline]
    pub fn view(&self) -> RankSource<'_> {
        RankSource::pooled(&self.stats, &self.popularity, &self.pool)
    }

    /// Number of dirty slots awaiting the next repair (deduplicated on
    /// entry, so bounded by the corpus size however long repair is
    /// deferred).
    #[inline]
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Chunks copied on write — stats leaves and pool words by patches,
    /// order blocks by repairs — since the last call.
    pub fn take_copies(&mut self) -> u64 {
        self.stats.take_copies() + self.popularity.take_copies() + self.pool.take_copies()
    }

    /// Append `stat` as the next slot (`O(1)`); it joins both indexes at
    /// the next [`repair`](Self::repair) via the dirty list. Requires
    /// `stat.slot == self.len()`.
    pub fn push(&mut self, stat: PageStats) {
        let slot = self.stats.len();
        debug_assert_eq!(stat.slot, slot, "slots are dense");
        self.stats.push(stat);
        self.dirty.push(slot);
        self.dirty_mask.push(true);
    }

    /// Replace the cached stats of one existing slot after a mutation and
    /// mark it dirty (`O(1)`; a slot already pending repair is not
    /// re-listed, so deferring repairs never grows the dirty list past
    /// the corpus size).
    pub fn patch(&mut self, slot: usize, stat: PageStats) {
        debug_assert_eq!(stat.slot, slot, "slots are dense");
        let old = std::mem::replace(self.stats.get_mut(slot), stat);
        if !self.dirty_mask[slot] {
            self.dirty_mask[slot] = true;
            self.dirty.push(slot);
            self.moved.push(old);
        }
    }

    /// Discard the incremental state and re-derive everything from `stats`
    /// (dense slots, in slot order): re-sort the popularity order and
    /// re-scan pool membership. The bulk-load and recovery escape hatch —
    /// no ranking or mutation path needs it.
    pub fn rebuild(&mut self, stats: impl IntoIterator<Item = PageStats>) {
        self.stats.clear();
        self.stats.extend(stats);
        self.popularity.rebuild(&self.stats);
        self.pool.rebuild(self.stats.iter());
        self.dirty.clear();
        self.moved.clear();
        self.dirty_mask.clear();
        self.dirty_mask.resize(self.stats.len(), false);
    }

    /// Bring both indexes current by repairing the dirty slots (no-op when
    /// nothing changed), returning the number of distinct dirty slots
    /// handed to the repair. Every ranking path calls this first.
    ///
    /// Both indexes end up exactly where a from-scratch derivation would
    /// put them; debug builds check each against the fresh derivation, so
    /// a producer that mutates stats without marking the slot dirty trips
    /// here.
    pub fn repair(&mut self) -> u64 {
        let handed = self.dirty.len() as u64;
        if handed > 0 {
            let stats = &self.stats;
            self.pool.repair(stats, &self.dirty);
            self.popularity.repair(stats, &mut self.dirty, &self.moved);
            debug_assert!(self.pool.is_consistent(stats));
            debug_assert!(self.popularity.is_consistent(stats));
            // `O(d)`: exactly the entries set since the last repair.
            for &slot in &self.dirty {
                self.dirty_mask[slot] = false;
            }
            self.dirty.clear();
            self.moved.clear();
        }
        handed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::popularity_order;
    use rrp_model::PageId;

    /// Every fourth slot unexplored, the rest established with distinct
    /// popularity and a few repeated ages.
    fn stat(slot: usize) -> PageStats {
        if slot.is_multiple_of(4) {
            PageStats::new(slot, PageId::new(slot as u64), 0.0, 0.0)
        } else {
            let popularity = 1.0 - slot as f64 * 0.02;
            PageStats::new(slot, PageId::new(slot as u64), popularity, 1.0)
                .with_age(slot as u64 % 7)
        }
    }

    fn stats(n: usize) -> Vec<PageStats> {
        (0..n).map(stat).collect()
    }

    fn assert_matches_rebuild(cache: &CorpusCache, stats: &[PageStats]) {
        let mut fresh = CorpusCache::new();
        fresh.rebuild(stats.iter().copied());
        assert_eq!(cache.stats(), fresh.stats());
        assert_eq!(cache.order(), fresh.order());
        assert_eq!(cache.pool().members(), fresh.pool().members());
        assert!(cache.pool().is_consistent(cache.stats()));
    }

    fn pushed(stats: &[PageStats]) -> CorpusCache {
        let mut cache = CorpusCache::new();
        for &s in stats {
            cache.push(s);
        }
        cache
    }

    #[test]
    fn pushed_corpus_matches_a_bulk_rebuild_after_repair() {
        let ps = stats(40);
        let mut cache = pushed(&ps);
        assert_eq!(cache.dirty_len(), ps.len());
        assert_eq!(cache.repair(), ps.len() as u64);
        assert_eq!(cache.dirty_len(), 0);
        assert_matches_rebuild(&cache, &ps);
        assert_eq!(cache.len(), ps.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn patches_flow_into_both_indexes() {
        let mut ps = stats(40);
        let mut cache = pushed(&ps);
        cache.repair();

        // A visit removes slot 0 from the pool; a popularity update moves
        // slot 7 in the order; an insert appends slot 40.
        ps[0].awareness = 1.0;
        cache.patch(0, ps[0]);
        ps[7].popularity = 2.0;
        cache.patch(7, ps[7]);
        ps.push(stat(40));
        cache.push(ps[40]);

        assert_eq!(cache.repair(), 3);
        assert_matches_rebuild(&cache, &ps);
        assert!(!cache.pool().contains(0));
        assert!(cache.pool().contains(40));
        assert!(
            cache.order().to_vec().windows(2).all(|w| popularity_order(
                &cache.stats()[w[0]],
                &cache.stats()[w[1]]
            )
            .is_lt()),
            "order stays sorted"
        );
    }

    #[test]
    fn deferred_repairs_keep_the_dirty_list_bounded() {
        // An owner may defer repair for a long stretch of mutations; the
        // dirty list must therefore deduplicate on entry: re-patching the
        // same slots ten thousand times may not grow it.
        let ps = stats(40);
        let mut cache = pushed(&ps);
        cache.repair();
        for _ in 0..10_000 {
            cache.patch(0, ps[0]);
            cache.patch(7, ps[7]);
        }
        assert_eq!(cache.dirty_len(), 2, "the backlog is bounded by n");
        assert_eq!(cache.repair(), 2);
        assert_matches_rebuild(&cache, &ps);
        // The mask restores with the repair: slots can go dirty again.
        cache.patch(0, ps[0]);
        assert_eq!(cache.dirty_len(), 1);
    }

    #[test]
    fn repair_on_a_clean_cache_is_a_no_op() {
        let ps = stats(40);
        let mut cache = pushed(&ps);
        cache.repair();
        assert_eq!(cache.repair(), 0);
        assert_matches_rebuild(&cache, &ps);
    }

    /// The drift-hazard tripwire: mutating awareness *without* marking the
    /// slot dirty leaves the pool stale, and the next repair's debug
    /// assertion catches it instead of serving a drifted pool.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is_consistent")]
    fn unmarked_awareness_drift_trips_the_repair_assertion() {
        let ps = stats(12);
        let mut cache = pushed(&ps);
        cache.repair();
        cache.stats.get_mut(0).awareness = 1.0; // never marked dirty
        cache.patch(3, ps[3]);
        cache.repair();
    }
}
