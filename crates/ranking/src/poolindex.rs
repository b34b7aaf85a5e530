//! A persistent promotion-pool membership index over the page slots.
//!
//! The selective promotion rule's pool `L_p` is the set of unexplored
//! slots (`awareness == 0`, see
//! [`PageStats::is_unexplored`](crate::PageStats::is_unexplored)), listed
//! in ascending slot order before the per-query shuffle. The ranking path
//! used to *re-derive* that set on every query with an `O(n)`
//! scan over all pages plus an `O(n)` membership-mask reset — even though
//! membership flips only where a mutation touched awareness (a first
//! recorded visit, a retirement, an insert). [`PoolIndex`] applies the same
//! "repair, don't rebuild" discipline as
//! [`PopularityIndex`](crate::PopularityIndex): the membership list and its
//! per-slot mask persist across queries and are patched from the mutation
//! path's dirty list, so a query ranking a
//! [`RankSource::pooled`](crate::RankSource::pooled) view touches no
//! per-corpus state at all.
//!
//! Why repair is sound: pool membership is a pure per-slot predicate of the
//! current stats (`is_unexplored`), so a clean slot's membership cannot
//! change without the slot being mutated — and every awareness mutation
//! marks its slot dirty (that is the mutation path's contract, the same one
//! the popularity order relies on). Membership order is ascending slot
//! index, which never changes, so removing the dirty slots and merging back
//! the ones that test unexplored reproduces the from-scratch scan exactly.
//! The subtle part is that this *must* be exact: the pool is shuffled into
//! the merged prefix, so even a reordering of members (let alone a stale
//! member) changes which page lands at which rank — the RNG stream itself
//! is observable through the pool.

use crate::stats::PageStats;
use serde::{Deserialize, Serialize};

/// Unexplored slots in ascending slot order, repaired incrementally.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PoolIndex {
    /// Pool members (unexplored slots), ascending. Invariant outside
    /// `repair`: equals the slots where `is_unexplored` holds for the most
    /// recent `stats` passed in.
    members: Vec<usize>,
    /// Per-slot membership mask (`mask[s]` ⇔ `s ∈ members`), maintained —
    /// never reset — so the deterministic-remainder filter reads it
    /// without an `O(n)` clear per query.
    mask: Vec<bool>,
    /// Scratch: dirty slots that test unexplored, sorted ascending.
    #[serde(skip)]
    incoming: Vec<usize>,
    /// Scratch: merge target swapped with `members` during a repair.
    #[serde(skip)]
    merged: Vec<usize>,
}

impl PoolIndex {
    /// Build the index with a from-scratch scan of `stats`.
    ///
    /// Requires dense slot indexing (`stats[i].slot == i`), like
    /// [`RankSource::pooled`](crate::RankSource::pooled).
    pub fn build(stats: &[PageStats]) -> Self {
        let mut index = PoolIndex::default();
        index.rebuild(stats);
        index
    }

    /// Re-derive membership from scratch, discarding the incremental state.
    pub fn rebuild(&mut self, stats: &[PageStats]) {
        debug_assert!(stats.iter().enumerate().all(|(i, p)| p.slot == i));
        self.members.clear();
        self.mask.clear();
        self.mask.resize(stats.len(), false);
        for p in stats.iter() {
            if p.is_unexplored() {
                self.mask[p.slot] = true;
                self.members.push(p.slot);
            }
        }
    }

    /// The pool members in ascending slot order — exactly the order the
    /// per-query scan would have produced before the shuffle.
    #[inline]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The per-slot membership mask (`mask[s]` ⇔ `s` is a member) — the
    /// filter a [`RankSource::pooled`](crate::RankSource::pooled) view reads.
    #[inline]
    pub(crate) fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Whether `slot` is currently in the pool. `O(1)` off the maintained
    /// mask.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.mask[slot]
    }

    /// Number of pool members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of indexed slots (the population size at the last repair).
    #[inline]
    pub fn indexed_slots(&self) -> usize {
        self.mask.len()
    }

    /// Restore membership after the slots in `dirty` changed their stats,
    /// testing against the *current* `stats`. `dirty` lists each changed
    /// slot once, in any order, and `is_dirty` is its per-slot membership
    /// mask over all of `stats` — the owning
    /// [`CorpusCache`](crate::CorpusCache)'s entry-time dedup. The
    /// population may have grown since the last repair
    /// (`stats.len() > indexed_slots()`), in which case every new slot must
    /// be dirty. Allocation-free once the scratch buffers have grown to
    /// `n`.
    ///
    /// Cost: `O(pool + d log d)` for `d` dirty slots — one pass over the
    /// current members and a sort-and-merge of the dirty survivors — versus
    /// the `O(n)` scan of a rebuild.
    ///
    /// Debug builds verify the repaired membership against a fresh
    /// [`is_unexplored`](crate::PageStats::is_unexplored) scan afterwards,
    /// so any producer that mutates awareness without marking the slot
    /// dirty trips an assertion at the next repair instead of silently
    /// drifting the pool.
    pub(crate) fn repair(&mut self, stats: &[PageStats], dirty: &[usize], is_dirty: &[bool]) {
        debug_assert!(
            stats.len() >= self.mask.len(),
            "the population never shrinks"
        );
        debug_assert_eq!(is_dirty.len(), stats.len());
        debug_assert!(
            (self.mask.len()..stats.len()).all(|slot| is_dirty[slot]),
            "every slot inserted since the last repair must be dirty"
        );

        // Grow the membership mask for inserted slots, then re-test every
        // dirty slot: the mask takes the fresh answer, and the slots that
        // test unexplored are merged back into the member list below.
        self.mask.resize(stats.len(), false);
        self.incoming.clear();
        for &slot in dirty {
            let member = stats[slot].is_unexplored();
            self.mask[slot] = member;
            if member {
                self.incoming.push(slot);
            }
        }

        // Pull dirty slots out of the member list, keeping the clean
        // remainder (already ascending), then merge the dirty survivors
        // back in slot order.
        self.members.retain(|&slot| !is_dirty[slot]);
        self.incoming.sort_unstable();
        self.merged.clear();
        self.merged
            .reserve(self.members.len() + self.incoming.len());
        let mut next_incoming = 0;
        for &clean in self.members.iter() {
            while next_incoming < self.incoming.len() && self.incoming[next_incoming] < clean {
                self.merged.push(self.incoming[next_incoming]);
                next_incoming += 1;
            }
            self.merged.push(clean);
        }
        self.merged
            .extend_from_slice(&self.incoming[next_incoming..]);
        std::mem::swap(&mut self.members, &mut self.merged);
        debug_assert!(self.is_consistent(stats));
    }

    /// Whether the maintained membership equals a fresh
    /// [`is_unexplored`](crate::PageStats::is_unexplored) scan of `stats`
    /// (used by tests and the post-repair debug assertion that guards
    /// against awareness-drift bugs in producers).
    pub fn is_consistent(&self, stats: &[PageStats]) -> bool {
        self.mask.len() == stats.len()
            && self.members.windows(2).all(|w| w[0] < w[1])
            && self.members.iter().all(|&s| s < stats.len())
            && stats
                .iter()
                .enumerate()
                .all(|(slot, p)| self.mask[slot] == p.is_unexplored())
            && self.members.len() == stats.iter().filter(|p| p.is_unexplored()).count()
            && self.members.iter().all(|&s| self.mask[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::PageId;

    /// Repair `index` after the distinct slots in `dirty` changed.
    fn repair(index: &mut PoolIndex, ps: &[PageStats], dirty: &[usize]) {
        let mut is_dirty = vec![false; ps.len()];
        for &slot in dirty {
            is_dirty[slot] = true;
        }
        index.repair(ps, dirty, &is_dirty);
    }

    /// Pages where `explored[i]` decides awareness (explored ⇒ 0.5).
    fn stats(explored: &[bool]) -> Vec<PageStats> {
        explored
            .iter()
            .enumerate()
            .map(|(slot, &e)| {
                let awareness = if e { 0.5 } else { 0.0 };
                PageStats::new(slot, PageId::new(slot as u64), awareness * 0.8, awareness)
            })
            .collect()
    }

    #[test]
    fn build_matches_fresh_scan() {
        let ps = stats(&[true, false, true, false, false]);
        let index = PoolIndex::build(&ps);
        assert_eq!(index.members(), &[1, 3, 4]);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
        assert_eq!(index.indexed_slots(), 5);
        assert!(index.contains(1));
        assert!(!index.contains(0));
    }

    #[test]
    fn repair_removes_a_visited_slot() {
        let mut ps = stats(&[true, false, false, true]);
        let mut index = PoolIndex::build(&ps);
        ps[2].awareness = 0.25; // first visit: leaves the pool
        repair(&mut index, &ps, &[2]);
        assert_eq!(index.members(), &[1]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn repair_readmits_a_retired_slot() {
        let mut ps = stats(&[true, true, true]);
        let mut index = PoolIndex::build(&ps);
        assert!(index.is_empty());
        ps[1].awareness = 0.0; // retirement: fresh zero-awareness page
        ps[1].popularity = 0.0;
        repair(&mut index, &ps, &[1]);
        assert_eq!(index.members(), &[1]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn repair_with_no_dirty_slots_is_a_no_op() {
        let ps = stats(&[false, true, false]);
        let mut index = PoolIndex::build(&ps);
        repair(&mut index, &ps, &[]);
        assert_eq!(index.members(), &[0, 2]);
    }

    #[test]
    fn repair_places_newly_inserted_slots() {
        let mut ps = stats(&[false, true]);
        let mut index = PoolIndex::build(&ps);
        ps.extend(stats(&[true, false]).into_iter().map(|mut p| {
            p.slot += 2;
            p.page = PageId::new(p.slot as u64);
            p
        }));
        repair(&mut index, &ps, &[2, 3]);
        assert_eq!(index.members(), &[0, 3]);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.indexed_slots(), 4);
    }

    #[test]
    fn repair_grows_an_empty_index_from_all_dirty_slots() {
        let ps = stats(&[false, true, false, false]);
        let mut index = PoolIndex::default();
        repair(&mut index, &ps, &[0, 1, 2, 3]);
        assert_eq!(index.members(), &[0, 2, 3]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn repair_interleaves_incoming_and_standing_members() {
        // Standing members 1, 5, 9; slots 0, 4, 6 flip into the pool — the
        // merge must interleave them in ascending slot order, because the
        // pre-shuffle pool order is observable in the RNG stream.
        let mut ps = stats(&[
            true, false, true, true, true, false, true, true, true, false,
        ]);
        let mut index = PoolIndex::build(&ps);
        assert_eq!(index.members(), &[1, 5, 9]);
        for slot in [0usize, 4, 6] {
            ps[slot].awareness = 0.0;
            ps[slot].popularity = 0.0;
        }
        repair(&mut index, &ps, &[6, 0, 4]);
        assert_eq!(index.members(), &[0, 1, 4, 5, 6, 9]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn rebuild_resets_after_bulk_changes() {
        let mut ps = stats(&[false, true, false]);
        let mut index = PoolIndex::build(&ps);
        for p in ps.iter_mut() {
            p.awareness = if p.awareness == 0.0 { 0.5 } else { 0.0 };
        }
        index.rebuild(&ps);
        assert_eq!(index.members(), &[1]);
        assert!(index.is_consistent(&ps));
    }

    /// The drift-hazard tripwire: mutating awareness *without* marking the
    /// slot dirty leaves the index inconsistent, and the next repair's
    /// debug assertion catches it instead of serving a stale pool.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is_consistent")]
    fn unmarked_awareness_drift_trips_the_repair_assertion() {
        let mut ps = stats(&[false, true]);
        let mut index = PoolIndex::build(&ps);
        ps[0].awareness = 0.5; // mutated, but never marked dirty
        repair(&mut index, &ps, &[]);
    }
}
