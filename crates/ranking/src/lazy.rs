//! A share-safe, initialise-once merged order — the read-only counterpart
//! of the `&mut` lazy-merge arenas.
//!
//! The serving tier publishes immutable ranking versions that many reader
//! threads rank against concurrently. The complete merged popularity order
//! stays *lazy* on that path — top-k traffic must never pay the `O(n)`
//! k-way merge — but laziness under shared readers needs initialise-once
//! semantics instead of a `&mut` flag: [`SharedLazyOrder`] wraps the merged
//! order in a [`OnceLock`] so the first full-order consumer of a version
//! runs the merge exactly once (concurrent callers block and then read the
//! same slice), and every later read is a plain pointer load.

use std::sync::OnceLock;

/// An initialise-once merged slot order shared across reader threads.
#[derive(Debug, Default)]
pub struct SharedLazyOrder {
    /// The merged order, set exactly once by the first consumer.
    order: OnceLock<Vec<usize>>,
}

impl SharedLazyOrder {
    /// An unmerged order.
    pub fn new() -> Self {
        SharedLazyOrder::default()
    }

    /// The merged order if some consumer already forced it, without
    /// forcing it.
    pub fn get(&self) -> Option<&[usize]> {
        self.order.get().map(Vec::as_slice)
    }

    /// The merged order, forcing the merge on first call: `merge` receives
    /// an empty buffer and must leave the complete order in it. Returns
    /// the order and whether *this* call ran the merge — exactly one
    /// caller per instance observes `true`, which is what an
    /// `order_merges` probe counts.
    pub fn get_or_merge(&self, merge: impl FnOnce(&mut Vec<usize>)) -> (&[usize], bool) {
        let mut ran = false;
        let order = self.order.get_or_init(|| {
            ran = true;
            let mut buffer = Vec::new();
            merge(&mut buffer);
            buffer
        });
        (order.as_slice(), ran)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_exactly_once_and_serves_every_reader() {
        let lazy = SharedLazyOrder::new();
        assert_eq!(lazy.get(), None);
        let (first, ran) = lazy.get_or_merge(|buf| buf.extend([2usize, 0, 1]));
        assert!(ran, "the first consumer runs the merge");
        assert_eq!(first, &[2, 0, 1]);
        let (second, ran) = lazy.get_or_merge(|_| panic!("must not re-merge"));
        assert!(!ran);
        assert_eq!(second, &[2, 0, 1]);
        assert_eq!(lazy.get(), Some(&[2usize, 0, 1][..]));
    }

    #[test]
    fn concurrent_consumers_observe_one_merge() {
        let lazy = SharedLazyOrder::new();
        let merges = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (order, ran) = lazy.get_or_merge(|buf| {
                        merges.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        buf.extend(0..100usize);
                    });
                    assert_eq!(order.len(), 100);
                    ran
                });
            }
        });
        assert_eq!(merges.into_inner(), 1, "exactly one thread merges");
    }
}
