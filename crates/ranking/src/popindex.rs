//! An incrementally maintained popularity order over the page slots.
//!
//! Both steady-state consumers of a popularity-ordered ranking — the
//! simulator's day loop and the batch serving tier — used to re-sort all
//! `n` pages by popularity on every step, `O(n log n)` work even though a
//! step changes the popularity key of only the handful of slots that
//! received a visit, changed their score, or were inserted.
//! [`PopularityIndex`] keeps the previous order and *repairs* it: dirty
//! slots are pulled out and reinserted at the position a binary search
//! against [`popularity_order`] dictates.
//!
//! Why repair is sound: the comparator is a **total** order (popularity
//! descending, then age descending, then slot ascending), so there is
//! exactly one sorted permutation — any procedure that restores sortedness
//! reproduces the from-scratch sort bit for bit. A clean slot's key cannot
//! move: the owning [`CorpusCache`](crate::CorpusCache) holds the stats the
//! order is sorted by, and only a patch — which marks the slot dirty — ever
//! rewrites them.
//!
//! # Blocks
//!
//! The order is stored as sorted **blocks** of about [`BLOCK`] slots, each
//! behind an `Arc` and each carrying a *separator*: a copy of a key no
//! smaller than any entry of the block and smaller than every entry of the
//! next. Blocks are grouped about [`SEGMENT`] to a segment, again behind an
//! `Arc`, with the segment's largest separator on top. A repair therefore
//! touches only what moved:
//!
//! 1. each dirty slot's *old* key (recorded by the cache when the slot went
//!    dirty) finds the block it leaves by two binary searches over the
//!    separators, and its *new* key finds the block it joins the same way;
//! 2. every touched block runs the retain-and-merge pass of a flat repair —
//!    drop the dirty entries, binary-search each incoming slot's position,
//!    splice — into a fresh block, split when it outgrows `2 · BLOCK` and
//!    folded into its right neighbour when it shrinks below `BLOCK / 4`.
//!
//! That costs `O(d · (log n + BLOCK))` for `d` dirty slots. When every
//! block is touched — the simulator's bulk days — it is the single linear
//! pass of a flat repair; an empty index (an initial load) is filled by
//! cutting the sorted dirty slots into blocks. Untouched blocks and segments
//! stay shared with every clone, so a published version and its writer
//! share one copy of the order.

use crate::chunked::Chunked;
use crate::stats::{popularity_order, PageStats};
use std::fmt;
use std::sync::Arc;

/// Target slots per block.
pub const BLOCK: usize = 128;

/// Target blocks per segment.
pub const SEGMENT: usize = 8;

/// A run of blocks in order, with one separator per block.
#[derive(Debug, Clone, Default)]
struct Segment {
    blocks: Vec<Arc<[usize]>>,
    separators: Vec<PageStats>,
}

/// Slots sorted by [`popularity_order`], stored as shared sorted blocks and
/// repaired incrementally (see the module docs).
#[derive(Clone, Default)]
pub struct PopularityIndex {
    segments: Vec<Arc<Segment>>,
    /// Per segment: the separator of its last block.
    maxima: Vec<PageStats>,
    len: usize,
    /// Existing blocks rewritten since the last
    /// [`take_copies`](Self::take_copies).
    copies: u64,
    /// Scratch for one block's retain-and-merge pass: the block's clean
    /// entries and the merged result (both empty between repairs).
    scratch: Vec<usize>,
    merged: Vec<usize>,
}

/// Sort the dirty `slots` by their keys in `stats`, comparing gathered
/// copies so the sort reads contiguous keys rather than chunked stats.
fn sort_by_key(stats: &Chunked<PageStats>, slots: &mut [usize]) {
    let mut keys: Vec<PageStats> = slots.iter().map(|&s| stats[s]).collect();
    keys.sort_unstable_by(popularity_order);
    for (slot, key) in slots.iter_mut().zip(&keys) {
        *slot = key.slot;
    }
}

/// `a` ranks strictly before `b`.
#[inline]
fn before(a: &PageStats, b: &PageStats) -> bool {
    popularity_order(a, b).is_lt()
}

impl PopularityIndex {
    /// Build the index with a from-scratch sort of `stats`.
    ///
    /// Requires dense slot indexing (`stats[i].slot == i`), like
    /// [`RankSource::pooled`](crate::RankSource::pooled).
    pub fn build(stats: &[PageStats]) -> Self {
        let mut index = PopularityIndex::default();
        index.rebuild(&stats.iter().copied().collect());
        index
    }

    /// Re-sort from scratch, discarding the incremental state.
    pub fn rebuild(&mut self, stats: &Chunked<PageStats>) {
        let mut order: Vec<usize> = (0..stats.len()).collect();
        order.sort_unstable_by(|&a, &b| popularity_order(&stats[a], &stats[b]));
        *self = PopularityIndex::default();
        self.load(stats, &order);
    }

    /// Number of indexed slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The order as consecutive sorted blocks, best rank first.
    pub fn blocks(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.segments
            .iter()
            .flat_map(|segment| segment.blocks.iter().map(|block| &block[..]))
    }

    /// The slots in popularity order (best rank first).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks().flat_map(|block| block.iter().copied())
    }

    /// The order collected into a `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Existing blocks rewritten by repairs since the last call.
    pub fn take_copies(&mut self) -> u64 {
        std::mem::take(&mut self.copies)
    }

    /// Fill an empty index from slots already in popularity order.
    fn load(&mut self, stats: &Chunked<PageStats>, order: &[usize]) {
        debug_assert!(self.segments.is_empty());
        let blocks: Vec<&[usize]> = order.chunks(BLOCK).collect();
        for run in blocks.chunks(SEGMENT) {
            let segment = Segment {
                blocks: run.iter().map(|&block| Arc::from(block)).collect(),
                separators: run
                    .iter()
                    .map(|block| stats.get(*block.last().expect("chunks are non-empty")))
                    .collect(),
            };
            self.maxima
                .push(*segment.separators.last().expect("runs are non-empty"));
            self.segments.push(Arc::new(segment));
        }
        self.len = order.len();
    }

    /// The block that holds — or should receive — `key`: the first block
    /// whose separator is not below it, or the very last block for a key
    /// past every separator.
    fn locate(&self, key: &PageStats) -> (usize, usize) {
        let segment = self.maxima.partition_point(|m| before(m, key));
        if segment == self.segments.len() {
            let last = self.segments.len() - 1;
            return (last, self.segments[last].blocks.len() - 1);
        }
        let block = self.segments[segment]
            .separators
            .partition_point(|m| before(m, key));
        (segment, block)
    }

    /// Restore sortedness after the slots in `dirty` changed their keys,
    /// comparing against the *current* `stats` (`len` entries). `dirty`
    /// lists each changed slot once, in any order (it is left sorted by the
    /// new keys), and `moved` holds the keys the dirty slots that were
    /// already indexed had at the last repair — where the order still
    /// files them. The owning [`CorpusCache`](crate::CorpusCache) records
    /// both as slots go dirty. Slots past the indexed population must be
    /// dirty.
    ///
    /// Cost: `O(d · (log n + BLOCK))` (see the module docs).
    pub(crate) fn repair(
        &mut self,
        stats: &Chunked<PageStats>,
        dirty: &mut [usize],
        moved: &[PageStats],
    ) {
        debug_assert_eq!(self.len + dirty.len() - moved.len(), stats.len());
        sort_by_key(stats, dirty);
        if self.segments.is_empty() {
            debug_assert!(moved.is_empty());
            self.load(stats, dirty);
            return;
        }

        // Which blocks move: those the old keys leave, each with the slots
        // leaving it (ascending), and those the new keys join. Targets of
        // the sorted dirty slots ascend.
        let targets: Vec<(usize, usize)> = dirty.iter().map(|&s| self.locate(&stats[s])).collect();
        let mut leaving: Vec<(usize, usize, usize)> = moved
            .iter()
            .map(|old| {
                let (segment, block) = self.locate(old);
                (segment, block, old.slot)
            })
            .collect();
        leaving.sort_unstable();
        let leaving_slots: Vec<usize> = leaving.iter().map(|&(_, _, slot)| slot).collect();
        let mut touched: Vec<(usize, usize)> = leaving
            .iter()
            .map(|&(segment, block, _)| (segment, block))
            .chain(targets.iter().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();

        // Rewrite right to left, so splits and removals never shift a
        // block or segment that is still to be processed.
        let last_segment = self.segments.len() - 1;
        let (mut pending, mut gone, mut next) = (dirty.len(), leaving.len(), touched.len());
        while next > 0 {
            let segment_index = touched[next - 1].0;
            let segment = Arc::make_mut(&mut self.segments[segment_index]);
            while next > 0 && touched[next - 1].0 == segment_index {
                next -= 1;
                let at = touched[next];
                let (joins, leaves) = (pending, gone);
                while pending > 0 && targets[pending - 1] == at {
                    pending -= 1;
                }
                while gone > 0 && (leaving[gone - 1].0, leaving[gone - 1].1) == at {
                    gone -= 1;
                }
                let is_last = at.0 == last_segment && at.1 + 1 == segment.blocks.len();
                self.copies += rewrite(
                    segment,
                    at.1,
                    is_last,
                    stats,
                    &leaving_slots[gone..leaves],
                    &dirty[pending..joins],
                    &mut self.scratch,
                    &mut self.merged,
                );
            }
            self.settle(segment_index);
        }
        debug_assert_eq!(pending, 0, "every dirty slot found its block");
        self.len += dirty.len() - moved.len();
    }

    /// Restore the segment-level invariants after segment `index` changed:
    /// drop it if empty, refresh its maximum, split it past `2 · SEGMENT`
    /// blocks and fold it into its right neighbour below `SEGMENT / 4`.
    fn settle(&mut self, index: usize) {
        if self.segments[index].blocks.is_empty() {
            self.segments.remove(index);
            self.maxima.remove(index);
            return;
        }
        if self.segments[index].blocks.len() < SEGMENT / 4 && index + 1 < self.segments.len() {
            let right = self.segments.remove(index + 1);
            self.maxima.remove(index + 1);
            let right = Arc::unwrap_or_clone(right);
            let segment = Arc::make_mut(&mut self.segments[index]);
            segment.blocks.extend(right.blocks);
            segment.separators.extend(right.separators);
        }
        let segment = &self.segments[index];
        self.maxima[index] = *segment.separators.last().expect("segment is non-empty");
        if segment.blocks.len() > 2 * SEGMENT {
            let segment = Arc::unwrap_or_clone(self.segments.remove(index));
            self.maxima.remove(index);
            let pieces = segment.blocks.len().div_ceil(SEGMENT);
            let size = segment.blocks.len().div_ceil(pieces);
            for (offset, (blocks, separators)) in segment
                .blocks
                .chunks(size)
                .zip(segment.separators.chunks(size))
                .enumerate()
            {
                self.maxima
                    .insert(index + offset, *separators.last().expect("non-empty"));
                self.segments.insert(
                    index + offset,
                    Arc::new(Segment {
                        blocks: blocks.to_vec(),
                        separators: separators.to_vec(),
                    }),
                );
            }
        }
    }

    /// Whether the maintained order equals the from-scratch sort of
    /// `stats` and every block sits between its separators (used by tests
    /// and debug assertions).
    pub fn is_consistent(&self, stats: &Chunked<PageStats>) -> bool {
        let order = self.to_vec();
        let mut previous: Option<PageStats> = None;
        let separators_hold = self
            .segments
            .iter()
            .zip(&self.maxima)
            .all(|(segment, max)| {
                !segment.blocks.is_empty()
                    && popularity_order(segment.separators.last().unwrap(), max).is_eq()
                    && segment
                        .blocks
                        .iter()
                        .zip(&segment.separators)
                        .all(|(block, sep)| {
                            let (Some(&first), Some(&last)) = (block.first(), block.last()) else {
                                return false;
                            };
                            let holds = !before(sep, &stats.get(last))
                                && previous.is_none_or(|p| before(&p, &stats.get(first)));
                            previous = Some(*sep);
                            holds
                        })
            });
        order.len() == stats.len()
            && self.len == order.len()
            && separators_hold
            && order.windows(2).all(|w| before(&stats[w[0]], &stats[w[1]]))
            && crate::is_permutation(&order, stats.len())
    }
}

/// Rewrite block `index` of `segment`: drop the `leaving` slots (sorted)
/// and merge `incoming` (sorted by key) in by binary search, then split,
/// fold or remove the result as its length requires. The globally last
/// block takes its last entry's key as separator, which covers keys
/// inserted past every old separator. Returns the number of existing
/// blocks rewritten.
#[allow(clippy::too_many_arguments)]
fn rewrite(
    segment: &mut Segment,
    index: usize,
    is_last: bool,
    stats: &Chunked<PageStats>,
    leaving: &[usize],
    incoming: &[usize],
    retained: &mut Vec<usize>,
    merged: &mut Vec<usize>,
) -> u64 {
    let mut copies = 1;
    let mut separator = segment.separators[index];
    let block = &segment.blocks[index];
    let clean: &[usize] = if leaving.is_empty() {
        block
    } else {
        retained.clear();
        if leaving.len() <= 8 {
            retained.extend(block.iter().filter(|s| !leaving.contains(s)));
        } else {
            retained.extend(block.iter().filter(|s| leaving.binary_search(s).is_err()));
        }
        retained
    };
    // Each incoming slot's position among the clean entries; clean and
    // dirty slots never compare equal (slots differ), so it is unique.
    merged.clear();
    let mut from = 0;
    for &slot in incoming {
        let key = &stats[slot];
        let at = from + clean[from..].partition_point(|&c| before(&stats[c], key));
        merged.extend_from_slice(&clean[from..at]);
        merged.push(slot);
        from = at;
    }
    merged.extend_from_slice(&clean[from..]);
    if !merged.is_empty() && merged.len() < BLOCK / 4 && index + 1 < segment.blocks.len() {
        // Fold into the right neighbour: every entry here ranks before it.
        merged.extend_from_slice(&segment.blocks[index + 1]);
        separator = segment.separators[index + 1];
        segment.blocks.remove(index + 1);
        segment.separators.remove(index + 1);
        copies += 1;
    }
    if is_last {
        if let Some(&last) = merged.last() {
            separator = stats.get(last);
        }
    }
    if merged.is_empty() {
        segment.blocks.remove(index);
        segment.separators.remove(index);
    } else if merged.len() <= 2 * BLOCK {
        // The common case: the block is replaced by one fresh block.
        segment.blocks[index] = Arc::from(&merged[..]);
        segment.separators[index] = separator;
    } else {
        let pieces = merged.len().div_ceil(BLOCK);
        let size = merged.len().div_ceil(pieces);
        let last_piece = merged.len().div_ceil(size) - 1;
        segment
            .blocks
            .splice(index..=index, merged.chunks(size).map(Arc::from));
        segment.separators.splice(
            index..=index,
            merged.chunks(size).enumerate().map(|(i, piece)| {
                if i == last_piece {
                    separator
                } else {
                    stats.get(*piece.last().expect("non-empty"))
                }
            }),
        );
    }
    merged.clear();
    retained.clear();
    copies
}

impl PartialEq for PopularityIndex {
    /// Two indexes are equal when they hold the same order, however it is
    /// split into blocks.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for PopularityIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::PageId;

    /// Repair `index` after the distinct slots in `dirty` changed from the
    /// keys in `before`.
    fn repair(
        index: &mut PopularityIndex,
        before: &[PageStats],
        ps: &[PageStats],
        dirty: &[usize],
    ) {
        let moved: Vec<PageStats> = dirty
            .iter()
            .filter(|&&s| s < before.len())
            .map(|&s| before[s])
            .collect();
        let ps: Chunked<PageStats> = ps.iter().copied().collect();
        index.repair(&ps, &mut dirty.to_vec(), &moved);
        assert!(index.is_consistent(&ps), "is_consistent");
    }

    fn stats(keys: &[(f64, u64)]) -> Vec<PageStats> {
        keys.iter()
            .enumerate()
            .map(|(slot, &(pop, age))| {
                PageStats::new(slot, PageId::new(slot as u64), pop, pop.min(1.0)).with_age(age)
            })
            .collect()
    }

    #[test]
    fn build_matches_from_scratch_sort() {
        let ps = stats(&[(0.1, 3), (0.9, 1), (0.5, 2), (0.5, 9), (0.0, 0)]);
        let index = PopularityIndex::build(&ps);
        assert_eq!(index.to_vec(), &[1, 3, 2, 0, 4]);
        assert!(index.is_consistent(&ps.iter().copied().collect()));
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
    }

    #[test]
    fn repair_moves_a_promoted_slot_to_its_new_place() {
        let mut ps = stats(&[(0.9, 0), (0.7, 0), (0.5, 0), (0.3, 0), (0.1, 0)]);
        let mut index = PopularityIndex::build(&ps);
        let old = ps.clone();
        ps[4].popularity = 0.8; // slot 4 jumps to second place
        repair(&mut index, &old, &ps, &[4]);
        assert_eq!(index.to_vec(), &[0, 4, 1, 2, 3]);
    }

    #[test]
    fn repair_with_no_dirty_slots_is_a_no_op() {
        let ps = stats(&[(0.2, 1), (0.8, 1)]);
        let mut index = PopularityIndex::build(&ps);
        let before = index.to_vec();
        repair(&mut index, &ps, &ps, &[]);
        assert_eq!(index.to_vec(), before);
        assert_eq!(index.take_copies(), 0, "nothing is rewritten");
    }

    #[test]
    fn uniform_aging_keeps_a_clean_index_consistent() {
        // All pages age by one day: no slot is dirty, and the stored order
        // must still match the comparator over the aged stats.
        let mut ps = stats(&[(0.5, 10), (0.5, 4), (0.2, 7), (0.9, 0)]);
        let mut index = PopularityIndex::build(&ps);
        for p in ps.iter_mut() {
            p.age_days += 1;
        }
        assert!(index.is_consistent(&ps.iter().copied().collect()));
        repair(&mut index, &ps, &ps, &[]);
    }

    #[test]
    fn rebuild_resets_after_bulk_changes() {
        let mut ps = stats(&[(0.1, 0), (0.2, 0), (0.3, 0)]);
        let mut index = PopularityIndex::build(&ps);
        ps.iter_mut()
            .for_each(|p| p.popularity = 1.0 - p.popularity);
        index.rebuild(&ps.iter().copied().collect());
        assert!(index.is_consistent(&ps.iter().copied().collect()));
        assert_eq!(index.to_vec(), &[0, 1, 2]);
    }

    #[test]
    fn repair_places_newly_inserted_slots() {
        // The population grows from 3 to 6 slots; the new slots arrive as
        // dirty and land exactly where a from-scratch sort would put them.
        let mut ps = stats(&[(0.6, 2), (0.2, 2), (0.4, 2)]);
        let mut index = PopularityIndex::build(&ps);
        let old = ps.clone();
        ps.extend(
            stats(&[(0.5, 0), (0.0, 0), (0.9, 0)])
                .into_iter()
                .map(|mut p| {
                    p.slot += 3;
                    p.page = PageId::new(p.slot as u64);
                    p
                }),
        );
        repair(&mut index, &old, &ps, &[3, 4, 5]);
        assert_eq!(index.to_vec(), &[5, 0, 3, 2, 1, 4]);
    }

    #[test]
    fn repair_grows_an_empty_index_from_all_dirty_slots() {
        // A serving corpus built entirely through inserts: the first repair
        // sees every slot dirty against an empty order.
        let ps = stats(&[(0.3, 1), (0.7, 1), (0.1, 1), (0.7, 4)]);
        let mut index = PopularityIndex::default();
        repair(&mut index, &[], &ps, &[0, 1, 2, 3]);
        assert_eq!(index.to_vec(), &[3, 1, 0, 2]);
    }

    #[test]
    fn repair_mixes_inserts_and_key_changes() {
        let mut ps = stats(&[(0.9, 3), (0.5, 3), (0.1, 3)]);
        let mut index = PopularityIndex::build(&ps);
        let old = ps.clone();
        ps[1].popularity = 0.95; // existing slot overtakes the leader
        let mut extra = stats(&[(0.8, 0)]);
        extra[0].slot = 3;
        extra[0].page = PageId::new(3);
        ps.extend(extra);
        repair(&mut index, &old, &ps, &[1, 3]);
        assert_eq!(index.to_vec(), &[1, 0, 3, 2]);
    }

    #[test]
    fn repairs_across_many_blocks_split_fold_and_share_clean_blocks() {
        // 20 000 slots span several segments. Each round moves a spread of
        // slots, drains one region into another (folding blocks) and piles
        // inserts onto the tail (splitting blocks); a clone taken before
        // each repair keeps its own order.
        let n0 = 20_000usize;
        let mut ps: Vec<PageStats> = (0..n0)
            .map(|s| {
                PageStats::new(
                    s,
                    PageId::new(s as u64),
                    ((s * 7919) % n0) as f64 / n0 as f64,
                    0.5,
                )
            })
            .collect();
        let mut index = PopularityIndex::build(&ps);
        for round in 0..6usize {
            let published = index.clone();
            let frozen = index.to_vec();
            let old = ps.clone();
            let mut dirty: Vec<usize> =
                (0..40).map(|i| (i * 503 + round * 17) % ps.len()).collect();
            dirty.extend((0..600).map(|i| (round * 1_000 + i) % ps.len()));
            dirty.sort_unstable();
            dirty.dedup();
            for &s in &dirty {
                ps[s].popularity = if s % 2 == 0 {
                    0.999
                } else {
                    0.0001 * (s % 7) as f64
                };
            }
            for _ in 0..700 {
                let slot = ps.len();
                ps.push(PageStats::new(slot, PageId::new(slot as u64), 0.0, 0.0));
                dirty.push(slot);
            }
            repair(&mut index, &old, &ps, &dirty);
            assert_eq!(
                published.to_vec(),
                frozen,
                "round {round}: the clone is untouched"
            );
            let copies = index.take_copies();
            assert!(
                copies > 0 && copies < index.blocks().count() as u64,
                "round {round}: {copies}"
            );
            assert!(index.blocks().all(|b| b.len() <= 2 * BLOCK));
        }
    }
}
