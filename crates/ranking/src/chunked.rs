//! Copy-on-write chunked storage for per-slot arrays that a writer keeps
//! mutating while published read-only versions share them.
//!
//! A serving tier publishes immutable versions of its per-slot arrays
//! (statistics, pool membership, page ids, placement) to concurrent
//! readers while one writer keeps patching slots. Sharing a flat `Vec`
//! forces a choice between copying all `n` entries per publication and
//! keeping a second generation to recycle. [`Chunked`] avoids both: the
//! array is split into fixed-size leaves of about 4 KiB, grouped
//! [`FANOUT`] to a node, every level behind an `Arc`. Cloning copies only
//! the node table (`O(n / (leaf · FANOUT))` pointer clones) and the
//! partly filled tail, and a write to a slot still shared with a clone
//! copies exactly the one leaf (and node) on its path — `Arc::make_mut`
//! per chunk, not per array. Clean chunks stay shared between the writer
//! and every version that saw them.
//!
//! Leaf copies are counted ([`take_copies`](Chunked::take_copies)), so an
//! owner can pin that a mutation or a publication copies a number of
//! chunks independent of `n`.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Target size of one leaf in bytes; the entry count is the largest power
/// of two that fits.
const LEAF_BYTES: usize = 4096;

/// Leaves per node.
pub const FANOUT: usize = 16;

/// A node: up to [`FANOUT`] shared, full leaves.
type Node<T> = Vec<Arc<[T]>>;

/// A fixed-chunk, copy-on-write array (see the module docs).
///
/// The entries past the last full leaf live in a private `tail` vector, so
/// appends touch no reference count; a clone copies the tail (less than
/// one leaf) and shares everything else.
pub struct Chunked<T> {
    nodes: Vec<Arc<Node<T>>>,
    /// Entries held in full leaves (a multiple of the leaf length).
    full: usize,
    tail: Vec<T>,
    /// Leaves copied on write since the last [`take_copies`](Self::take_copies).
    copies: u64,
}

impl<T: Copy> Chunked<T> {
    /// Entries per leaf: the largest power of two that fits 4 KiB of `T`.
    pub const LEAF: usize = {
        let fit = LEAF_BYTES
            / if std::mem::size_of::<T>() == 0 {
                1
            } else {
                std::mem::size_of::<T>()
            };
        let mut len = 1;
        while len * 2 <= fit {
            len *= 2;
        }
        len
    };

    /// An empty array.
    pub fn new() -> Self {
        Chunked {
            nodes: Vec::new(),
            full: 0,
            tail: Vec::new(),
            copies: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.full + self.tail.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at `index` (panics past the end).
    #[inline]
    pub fn get(&self, index: usize) -> T {
        self[index]
    }

    /// A mutable reference to the entry at `index`, copying its leaf (and
    /// node) first if a clone still shares them.
    pub fn get_mut(&mut self, index: usize) -> &mut T {
        if index >= self.full {
            return &mut self.tail[index - self.full];
        }
        let leaf = index / Self::LEAF;
        let node = Arc::make_mut(&mut self.nodes[leaf / FANOUT]);
        let chunk = &mut node[leaf % FANOUT];
        if Arc::get_mut(chunk).is_none() {
            *chunk = Arc::from(&chunk[..]);
            self.copies += 1;
        }
        let chunk = Arc::get_mut(chunk).expect("a freshly copied leaf is unique");
        &mut chunk[index % Self::LEAF]
    }

    /// Overwrite the entry at `index` (see [`get_mut`](Self::get_mut)).
    #[inline]
    pub fn set(&mut self, index: usize, value: T) {
        *self.get_mut(index) = value;
    }

    /// Append `value` (`O(1)`; a filled tail becomes a shared leaf).
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == Self::LEAF {
            let leaf: Arc<[T]> = Arc::from(&self.tail[..]);
            self.tail.clear();
            if (self.full / Self::LEAF).is_multiple_of(FANOUT) {
                self.nodes.push(Arc::new(Vec::with_capacity(FANOUT)));
            }
            let node = self.nodes.last_mut().expect("a node exists");
            Arc::make_mut(node).push(leaf);
            self.full += Self::LEAF;
        }
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.full = 0;
        self.tail.clear();
    }

    /// The entries as consecutive slices: one per leaf, then the tail.
    pub fn leaves(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.nodes
            .iter()
            .flat_map(|node| node.iter().map(|leaf| &leaf[..]))
            .chain((!self.tail.is_empty()).then_some(&self.tail[..]))
    }

    /// The entries in order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.leaves().flat_map(|leaf| leaf.iter().copied())
    }

    /// The entries copied into a `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// Leaves copied on write since the last call (counting restarts).
    pub fn take_copies(&mut self) -> u64 {
        std::mem::take(&mut self.copies)
    }
}

impl<T: Copy> Index<usize> for Chunked<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        if index >= self.full {
            return &self.tail[index - self.full];
        }
        let leaf = index / Self::LEAF;
        &self.nodes[leaf / FANOUT][leaf % FANOUT][index % Self::LEAF]
    }
}

impl<T: Copy> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Chunked::new();
        out.extend(iter);
        out
    }
}

impl<T: Copy> Extend<T> for Chunked<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T: Copy> Default for Chunked<T> {
    fn default() -> Self {
        Chunked::new()
    }
}

/// Cloning shares every leaf and node and copies the tail; the copy
/// counter starts at zero.
impl<T: Clone> Clone for Chunked<T> {
    fn clone(&self) -> Self {
        Chunked {
            nodes: self.nodes.clone(),
            full: self.full,
            tail: self.tail.clone(),
            copies: 0,
        }
    }
}

impl<T: Copy + PartialEq> PartialEq for Chunked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Chunked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Chunked<u64> {
        (0..n as u64).collect()
    }

    #[test]
    fn leaves_hold_about_four_kib() {
        assert_eq!(Chunked::<u64>::LEAF, 512);
        assert_eq!(Chunked::<(u32, u32)>::LEAF, 512);
        assert_eq!(Chunked::<[u8; 48]>::LEAF, 64);
    }

    #[test]
    fn push_get_and_iterate_across_leaf_and_node_boundaries() {
        let n = Chunked::<u64>::LEAF * FANOUT * 2 + 7;
        let array = filled(n);
        assert_eq!(array.len(), n);
        assert!(array.iter().eq(0..n as u64));
        let node = Chunked::<u64>::LEAF * FANOUT;
        for i in [0, 511, 512, node - 1, node, n - 1] {
            assert_eq!(array[i], i as u64);
            assert_eq!(array.get(i), i as u64);
        }
        assert_eq!(array.leaves().map(<[u64]>::len).sum::<usize>(), n);
    }

    #[test]
    fn writes_to_a_shared_array_copy_one_leaf_and_leave_the_clone_intact() {
        let mut writer = filled(5_000);
        let published = writer.clone();
        writer.set(10, 99);
        writer.set(11, 98); // same leaf: no second copy
        writer.set(4_000, 97);
        assert_eq!(writer.take_copies(), 2);
        assert_eq!(writer.take_copies(), 0, "the counter restarts");
        assert_eq!(published[10], 10, "the clone keeps its chunk");
        assert_eq!(writer[10], 99);
        assert_eq!(writer[4_000], 97);
        // A unique array writes in place.
        drop(published);
        writer.set(12, 1);
        assert_eq!(writer.take_copies(), 0);
    }

    #[test]
    fn push_onto_a_shared_array_copies_nothing() {
        let mut writer = filled(700);
        let published = writer.clone();
        writer.push(700);
        writer.set(600, 600); // in the private tail
        assert_eq!(writer.take_copies(), 0);
        assert_eq!(published.len(), 700);
        assert!(writer.iter().eq(0..701));
        assert_ne!(writer, published);
        writer.clear();
        assert!(writer.is_empty());
    }
}
