//! A persistent promotion-pool membership index over the page slots.
//!
//! The selective promotion rule's pool `L_p` is the set of unexplored
//! slots (`awareness == 0`, see
//! [`PageStats::is_unexplored`](crate::PageStats::is_unexplored)), listed
//! in ascending slot order before the per-query shuffle. Membership flips
//! only where a mutation touched awareness (a first recorded visit, a
//! retirement, an insert), so [`PoolIndex`] applies the same "repair,
//! don't rebuild" discipline as
//! [`PopularityIndex`](crate::PopularityIndex): it is patched from the
//! mutation path's dirty list, and a query ranking a
//! [`RankSource::pooled`](crate::RankSource::pooled) view touches no
//! per-corpus state at all.
//!
//! Membership is one bit per slot in a [`Chunked`] copy-on-write array, so
//! a published version shares every word its writer has not flipped since.
//! A rank directory — the member count of every group of 512 slots, and
//! their prefix sums — turns the bitset into the ascending member list
//! without materialising it:
//!
//! * [`select`](PoolIndex::select) finds the `i`-th member in
//!   `O(log(n / 512))` — all the v2 lazy shuffle needs for its at most `k`
//!   positional reads per query;
//! * [`listed`](PoolIndex::listed) materialises the ascending member list
//!   at most once per instance — the v1 eager shuffle copies the whole
//!   pool per query anyway.
//!
//! Why repair is sound: pool membership is a pure per-slot predicate of the
//! current stats (`is_unexplored`), so a clean slot's membership cannot
//! change without the slot being mutated — and every awareness mutation
//! marks its slot dirty (that is the mutation path's contract, the same one
//! the popularity order relies on). Setting each dirty slot's bit to its
//! fresh answer therefore reproduces the from-scratch scan exactly, and the
//! ascending order is that of the slots themselves. The subtle part is
//! that this *must* be exact: the pool is shuffled into the merged prefix,
//! so even a reordering of members (let alone a stale member) changes
//! which page lands at which rank — the RNG stream itself is observable
//! through the pool.

use crate::chunked::Chunked;
use crate::stats::PageStats;
use std::sync::OnceLock;

/// Words per rank-directory group (512 slots).
const GROUP_WORDS: usize = 8;

/// Unexplored slots as a copy-on-write bitset with a rank directory,
/// repaired incrementally.
#[derive(Debug, Clone, Default)]
pub struct PoolIndex {
    /// Membership bits, 64 slots per word.
    words: Chunked<u64>,
    /// Number of indexed slots (the population at the last repair).
    slots: usize,
    /// Members per group of [`GROUP_WORDS`] words, maintained on every flip.
    counts: Vec<u32>,
    /// Members before each group; current after [`refresh`](Self::refresh).
    prefix: Vec<u32>,
    /// Number of members.
    len: usize,
    /// The ascending member list, built at most once per instance (and so
    /// once per published version) by the first reader of the whole pool.
    listed: OnceLock<Vec<usize>>,
}

impl PoolIndex {
    /// Build the index with a from-scratch scan of `stats`.
    ///
    /// Requires dense slot indexing (`stats[i].slot == i`), like
    /// [`RankSource::pooled`](crate::RankSource::pooled).
    pub fn build(stats: &[PageStats]) -> Self {
        let mut index = PoolIndex::default();
        index.rebuild(stats.iter().copied());
        index
    }

    /// Re-derive membership from scratch (dense slots, in slot order),
    /// discarding the incremental state.
    pub fn rebuild(&mut self, stats: impl IntoIterator<Item = PageStats>) {
        *self = PoolIndex::default();
        for (slot, p) in stats.into_iter().enumerate() {
            debug_assert_eq!(p.slot, slot, "slots are dense");
            self.set(slot, p.is_unexplored());
        }
        self.refresh();
    }

    /// The pool members in ascending slot order — exactly the order the
    /// per-query scan would have produced before the shuffle.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, word)| SetBits { word, base: w * 64 })
    }

    /// The pool members, ascending, collected into a `Vec`.
    pub fn members(&self) -> Vec<usize> {
        let mut members = Vec::new();
        self.extend_members(&mut members);
        members
    }

    /// Append the pool members, ascending, to `out`: the list if it is
    /// already materialised, else a walk of the membership words.
    pub fn extend_members(&self, out: &mut Vec<usize>) {
        if let Some(listed) = self.listed.get() {
            out.extend_from_slice(listed);
            return;
        }
        out.reserve(self.len);
        let mut base = 0;
        for leaf in self.words.leaves() {
            for &word in leaf {
                let mut word = word;
                while word != 0 {
                    out.push(base + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
                base += 64;
            }
        }
    }

    /// The pool members, ascending, as a slice: materialised on first call
    /// and kept until the next flip. The v1 eager shuffle copies the whole
    /// pool per query, so a published version lists it once for all of
    /// them.
    pub fn listed(&self) -> &[usize] {
        self.listed.get_or_init(|| self.members())
    }

    /// The `i`-th pool member in ascending slot order (`i < len()`), in
    /// `O(log(n / 512))` off the rank directory. Only current after a
    /// repair (or [`refresh`](Self::refresh)).
    pub fn select(&self, i: usize) -> usize {
        debug_assert!(i < self.len, "select({i}) past {} members", self.len);
        let group = self.prefix.partition_point(|&p| p as usize <= i) - 1;
        let mut rank = i - self.prefix[group] as usize;
        let start = group * GROUP_WORDS;
        for w in start..(start + GROUP_WORDS).min(self.words.len()) {
            let word = self.words[w];
            let ones = word.count_ones() as usize;
            if rank < ones {
                return w * 64 + select_in_word(word, rank);
            }
            rank -= ones;
        }
        unreachable!("the rank directory counts every member")
    }

    /// Whether `slot` is currently in the pool (`O(1)`; `false` past the
    /// indexed population).
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        slot < self.slots && (self.words[slot / 64] >> (slot % 64)) & 1 == 1
    }

    /// Number of pool members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of indexed slots (the population size at the last repair).
    #[inline]
    pub fn indexed_slots(&self) -> usize {
        self.slots
    }

    /// Set the membership of `slot`, growing the indexed population to
    /// cover it (`O(1)`; copies one word chunk if a clone shares it). The
    /// rank directory's prefix sums go stale until the next
    /// [`refresh`](Self::refresh).
    pub fn set(&mut self, slot: usize, member: bool) {
        if slot >= self.slots {
            self.grow(slot + 1);
        }
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        if (self.words[w] & bit != 0) == member {
            return;
        }
        *self.words.get_mut(w) ^= bit;
        self.listed.take();
        let count = &mut self.counts[w / GROUP_WORDS];
        if member {
            *count += 1;
            self.len += 1;
        } else {
            *count -= 1;
            self.len -= 1;
        }
    }

    /// Extend the indexed population to `slots` (new slots are not
    /// members).
    fn grow(&mut self, slots: usize) {
        self.slots = self.slots.max(slots);
        let words = self.slots.div_ceil(64);
        while self.words.len() < words {
            self.words.push(0);
        }
        self.counts.resize(words.div_ceil(GROUP_WORDS), 0);
    }

    /// Recompute the rank directory's prefix sums (`O(n / 512)`), making
    /// [`select`](Self::select) current after direct [`set`](Self::set)s.
    pub fn refresh(&mut self) {
        self.prefix.clear();
        let mut total = 0u32;
        for &count in &self.counts {
            self.prefix.push(total);
            total += count;
        }
        debug_assert_eq!(total as usize, self.len);
    }

    /// Word chunks copied on write since the last call.
    pub fn take_copies(&mut self) -> u64 {
        self.words.take_copies()
    }

    /// Restore membership after the slots in `dirty` changed their stats,
    /// testing against the *current* `stats`. `dirty` lists each changed
    /// slot once, in any order. The population may have grown since the
    /// last repair, in which case every new slot must be dirty.
    ///
    /// Cost: `O(d + n / 512)` for `d` dirty slots — one bit flip per dirty
    /// slot plus the prefix sums of the rank directory — versus the `O(n)`
    /// scan of a rebuild.
    ///
    /// Debug builds verify the repaired membership against a fresh
    /// [`is_unexplored`](crate::PageStats::is_unexplored) scan afterwards,
    /// so any producer that mutates awareness without marking the slot
    /// dirty trips an assertion at the next repair instead of silently
    /// drifting the pool.
    pub(crate) fn repair(&mut self, stats: &Chunked<PageStats>, dirty: &[usize]) {
        debug_assert!(stats.len() >= self.slots, "the population never shrinks");
        for &slot in dirty {
            self.set(slot, stats[slot].is_unexplored());
        }
        self.grow(stats.len());
        self.refresh();
    }

    /// Whether the maintained membership equals a fresh
    /// [`is_unexplored`](crate::PageStats::is_unexplored) scan of `stats`,
    /// rank directory included (used by tests and the post-repair debug
    /// assertion that guards against awareness-drift bugs in producers).
    pub fn is_consistent(&self, stats: &Chunked<PageStats>) -> bool {
        let mut total = 0u32;
        let directory_holds = self.counts.iter().enumerate().all(|(group, &count)| {
            let start = group * GROUP_WORDS;
            let ones: u32 = (start..(start + GROUP_WORDS).min(self.words.len()))
                .map(|w| self.words[w].count_ones())
                .sum();
            let holds = ones == count && self.prefix.get(group) == Some(&total);
            total += count;
            holds
        });
        self.slots == stats.len()
            && self.words.len() == stats.len().div_ceil(64)
            && directory_holds
            && total as usize == self.len
            && stats
                .iter()
                .enumerate()
                .all(|(slot, p)| self.contains(slot) == p.is_unexplored())
    }
}

/// The position of the `rank`-th set bit of `word` (which has more than
/// `rank` set bits): skip whole bytes by their counts, then clear the
/// lower set bits of the byte that holds it.
#[inline]
fn select_in_word(mut word: u64, mut rank: usize) -> usize {
    let mut base = 0;
    loop {
        let ones = (word & 0xFF).count_ones() as usize;
        if rank < ones {
            break;
        }
        rank -= ones;
        word >>= 8;
        base += 8;
    }
    for _ in 0..rank {
        word &= word - 1;
    }
    base + word.trailing_zeros() as usize
}

/// The set bits of one membership word, as slots.
struct SetBits {
    word: u64,
    base: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::PageId;

    /// Repair `index` after the distinct slots in `dirty` changed.
    fn repair(index: &mut PoolIndex, ps: &[PageStats], dirty: &[usize]) {
        let ps: Chunked<PageStats> = ps.iter().copied().collect();
        index.repair(&ps, dirty);
        assert!(index.is_consistent(&ps), "is_consistent");
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
        assert!(index.is_consistent(&ps.iter().copied().collect()));
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
        assert_eq!(index.indexed_slots(), 5);
        assert!(index.contains(1));
        assert!(!index.contains(0));
        assert!(!index.contains(5), "past the population");
        assert_eq!(
            (0..3).map(|i| index.select(i)).collect::<Vec<_>>(),
            [1, 3, 4]
        );
    }

    #[test]
    fn repair_removes_a_visited_slot() {
        let mut ps = stats(&[true, false, false, true]);
        let mut index = PoolIndex::build(&ps);
        ps[2].awareness = 0.25; // first visit: leaves the pool
        repair(&mut index, &ps, &[2]);
        assert_eq!(index.members(), &[1]);
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
        assert_eq!(index.indexed_slots(), 4);
    }

    #[test]
    fn repair_grows_an_empty_index_from_all_dirty_slots() {
        let ps = stats(&[false, true, false, false]);
        let mut index = PoolIndex::default();
        repair(&mut index, &ps, &[0, 1, 2, 3]);
        assert_eq!(index.members(), &[0, 2, 3]);
    }

    #[test]
    fn repair_interleaves_incoming_and_standing_members() {
        // Standing members 1, 5, 9; slots 0, 4, 6 flip into the pool — the
        // members must come out in ascending slot order, because the
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
        assert_eq!(index.select(3), 5);
    }

    #[test]
    fn rebuild_resets_after_bulk_changes() {
        let mut ps = stats(&[false, true, false]);
        let mut index = PoolIndex::build(&ps);
        for p in ps.iter_mut() {
            p.awareness = if p.awareness == 0.0 { 0.5 } else { 0.0 };
        }
        index.rebuild(ps.iter().copied());
        assert_eq!(index.members(), &[1]);
        assert!(index.is_consistent(&ps.iter().copied().collect()));
    }

    #[test]
    fn select_spans_sparse_and_dense_groups_and_word_chunks() {
        // 70 000 slots cover three word chunks and 137 directory groups;
        // membership is dense in one stretch and sparse elsewhere.
        let explored: Vec<bool> = (0..70_000)
            .map(|s| !(s % 977 == 0 || (40_000..41_000).contains(&s)))
            .collect();
        let ps = stats(&explored);
        let index = PoolIndex::build(&ps);
        let members: Vec<usize> = (0..ps.len()).filter(|&s| !explored[s]).collect();
        assert_eq!(index.members(), members);
        for (i, &slot) in members.iter().enumerate() {
            assert_eq!(index.select(i), slot, "member {i}");
        }
        // A clone shares the bits; a flip on the writer copies one chunk.
        let mut writer = index.clone();
        writer.set(100, true);
        writer.refresh();
        assert_eq!(writer.take_copies(), 1);
        assert_eq!(writer.select(1), 100);
        assert!(!index.contains(100));
        assert_eq!(index.select(1), 977);
    }

    /// The drift-hazard tripwire: mutating awareness *without* marking the
    /// slot dirty leaves the index inconsistent, and the repair's
    /// consistency check catches it instead of serving a stale pool.
    #[test]
    #[should_panic(expected = "is_consistent")]
    fn unmarked_awareness_drift_trips_the_repair_assertion() {
        let mut ps = stats(&[false, true]);
        let mut index = PoolIndex::build(&ps);
        ps[0].awareness = 0.5; // mutated, but never marked dirty
        repair(&mut index, &ps, &[]);
    }
}
