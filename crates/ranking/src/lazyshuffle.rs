//! Engine v2: the O(k)-draw lazy pool shuffle.
//!
//! The v1 top-k paths copy the whole promotion pool and shuffle it before
//! the coin-flip merge reads its first element — `O(pool)` work per query
//! even when the merge consumes only a handful of promoted slots. The
//! lazy alternative implemented here evaluates a *forward* Fisher–Yates
//! shuffle one front position at a time: each time the merge consumes a
//! pool entry, exactly one swap index is drawn and the displaced value is
//! parked in a tiny scratch overlay. A top-`k` query therefore performs at
//! most `k` draws and touches at most `k` overlay entries — zero `O(pool)`
//! work.
//!
//! The lazy evaluation draws a *different RNG stream* than v1 (v1 draws
//! the complete backward Fisher–Yates before any merge coin; v2
//! interleaves one swap draw per consumed pool entry with the coins), so
//! the swap ships behind an explicit [`EngineVersion`]: v1 stays the
//! default with its goldens untouched, and v2 carries its own recorded
//! goldens plus a distributional-equivalence suite. This mirrors how OCC
//! systems version observable schedules — a new protocol version is
//! validated for equivalence, never silently swapped in.

use crate::poolindex::PoolIndex;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Which observable RNG stream the promotion engine draws.
///
/// * [`V1`](EngineVersion::V1) — the original stream: the whole pool is
///   copied and shuffled (backward Fisher–Yates) before the coin-flip
///   merge starts. Every recorded v1 golden and every serialized engine
///   without an explicit version means this.
/// * [`V2`](EngineVersion::V2) — the lazy stream: on the Selective top-k
///   paths the pool permutation is evaluated front-first via
///   [`LazyShuffle`], drawing one swap index per *consumed* pool entry,
///   interleaved with the merge coins. At most `k` draws per query; full
///   reranks and the Uniform rule are bit-identical to v1.
///
/// The two versions produce different (but distributionally equivalent)
/// top-k prefixes; callers opt into v2 explicitly and keep v1 goldens
/// valid forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EngineVersion {
    /// The original eager-shuffle stream (the default).
    #[default]
    V1,
    /// The lazy O(k)-draw stream for Selective top-k serving.
    V2,
}

/// A forward Fisher–Yates permutation of `members`, evaluated lazily from
/// the front.
///
/// Eagerly, the permutation this produces is
///
/// ```text
/// for i in 0..n-1 { swap(a[i], a[gen_range(i..n)]) }
/// ```
///
/// [`next_front`](Self::next_front) emits `a[0], a[1], …` of that
/// permutation while drawing only the swap indices for the positions
/// actually consumed: consuming front position `i` draws exactly one
/// `gen_range(i..n)` (none when `i` is the last position) and records the
/// displaced value in a `(index, value)` overlay no larger than the number
/// of consumptions so far. Consuming the full permutation reproduces
/// [`forward_shuffle`] on the same RNG bit for bit — the invariant the
/// property suite pins.
#[derive(Debug)]
pub struct LazyShuffle<'a> {
    /// The pool, read by position in its pre-shuffle (ascending slot)
    /// order. Never mutated; displaced values live in the overlay.
    members: &'a PoolIndex,
    /// Sparse `(index, value)` patches over `members`, scanned linearly —
    /// it holds at most one entry per consumed position, so for a top-`k`
    /// query it never exceeds `k` entries.
    overlay: &'a mut Vec<(usize, usize)>,
    /// The next front position to emit.
    front: usize,
    /// Swap indices drawn so far (the serving tier's `pool_draws` probe).
    draws: u64,
}

impl<'a> LazyShuffle<'a> {
    /// Start a lazy shuffle over `members`, parking displaced values in
    /// `overlay` (cleared first; the caller owns it so its capacity is
    /// reused across queries).
    pub fn new(members: &'a PoolIndex, overlay: &'a mut Vec<(usize, usize)>) -> Self {
        overlay.clear();
        LazyShuffle {
            members,
            overlay,
            front: 0,
            draws: 0,
        }
    }

    /// Total pool size (consumed and unconsumed).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool was empty to begin with.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// How many front positions have not been emitted yet — the merge's
    /// "pool not exhausted" predicate.
    pub fn remaining(&self) -> usize {
        self.members.len() - self.front
    }

    /// Swap indices drawn so far: at most one per emitted position, and
    /// none for the final position of the permutation.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Emit the next front position of the permutation, or `None` once
    /// every member has been emitted. Draws exactly one swap index unless
    /// this is the last position (which is fully determined).
    pub fn next_front<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Option<usize> {
        let n = self.members.len();
        let i = self.front;
        if i >= n {
            return None;
        }
        self.front += 1;
        // Positions before `i` are never read again, so the overlay entry
        // for `i` (if any) can be removed as it is consumed.
        let value_i = self.take(i);
        if i + 1 == n {
            // The last position is whatever is left — the eager loop stops
            // at n-1 and draws nothing for it.
            return Some(value_i);
        }
        self.draws += 1;
        let j = rng.gen_range(i..n);
        if j == i {
            return Some(value_i);
        }
        Some(self.replace(j, value_i))
    }

    /// Current value at `index` through the overlay, removing the overlay
    /// entry (the position is about to be consumed).
    fn take(&mut self, index: usize) -> usize {
        match self.overlay.iter().position(|&(i, _)| i == index) {
            Some(at) => self.overlay.swap_remove(at).1,
            None => self.members.select(index),
        }
    }

    /// Write `value` at `index`, returning the value previously there
    /// (through the overlay).
    fn replace(&mut self, index: usize, value: usize) -> usize {
        match self.overlay.iter_mut().find(|(i, _)| *i == index) {
            Some(entry) => std::mem::replace(&mut entry.1, value),
            None => {
                self.overlay.push((index, value));
                self.members.select(index)
            }
        }
    }
}

/// The eager reference for [`LazyShuffle`]: a *forward* Fisher–Yates
/// shuffle of `values` in place (`n − 1` draws of `gen_range(i..n)`).
///
/// This is deliberately not the vendored `SliceRandom::shuffle` (which
/// walks backward): the forward walk is what can be evaluated lazily from
/// the front. Consuming a full [`LazyShuffle`] yields exactly this
/// permutation from the same RNG state — the equivalence the isolation
/// property test pins.
pub fn forward_shuffle<R: RngCore + ?Sized>(values: &mut [usize], rng: &mut R) {
    let n = values.len();
    for i in 0..n.saturating_sub(1) {
        let j = rng.gen_range(i..n);
        values.swap(i, j);
    }
}

/// The v2 twin of
/// [`merge_promoted_top_k_into`](crate::merge_promoted_top_k_into):
/// identical protected-prefix and coin semantics, but the promoted list is
/// a [`LazyShuffle`] consumed front-first instead of a pre-shuffled slice.
///
/// Each merge position draws its coin under exactly the same conditions
/// as v1 (both lists non-empty); when the coin picks the pool, the lazy
/// shuffle draws that entry's swap index *then and there*. Total RNG
/// consumption is therefore at most `k` coins plus at most
/// `min(k, pool − 1)` swap draws — `O(k)`, with zero `O(pool)` work.
#[allow(clippy::too_many_arguments)]
pub fn merge_promoted_top_k_lazy_into<R: RngCore + ?Sized>(
    deterministic: &[usize],
    promoted: &mut LazyShuffle<'_>,
    start_rank: usize,
    degree: f64,
    k: usize,
    rng: &mut R,
    result: &mut Vec<usize>,
) {
    debug_assert!(start_rank >= 1, "start rank is 1-based");
    debug_assert!((0.0..=1.0).contains(&degree), "degree must be in [0, 1]");

    result.clear();
    result.reserve(k.min(deterministic.len() + promoted.remaining()));

    let protected = (start_rank - 1).min(deterministic.len()).min(k);
    let mut d_iter = deterministic.iter().copied();

    // Step 1: protected prefix straight from L_d, order preserved.
    result.extend(d_iter.by_ref().take(protected));

    // Step 2: coin-flip merge, stopping once `k` ranks are emitted. The
    // pool side is materialised only when a coin (or d-exhaustion) selects
    // it.
    let mut d_next = d_iter.next();
    while result.len() < k {
        match (d_next, promoted.remaining() > 0) {
            (Some(d), true) => {
                if rng.gen::<f64>() < degree {
                    result.push(promoted.next_front(rng).expect("pool is non-empty"));
                } else {
                    result.push(d);
                    d_next = d_iter.next();
                }
            }
            (Some(d), false) => {
                result.push(d);
                d_next = d_iter.next();
            }
            (None, true) => {
                result.push(promoted.next_front(rng).expect("pool is non-empty"));
            }
            (None, false) => break,
        }
    }
    debug_assert!(result.len() <= k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::new_rng;

    /// A pool index whose members are exactly `members`.
    fn pool(members: &[usize]) -> PoolIndex {
        let mut index = PoolIndex::default();
        for &slot in members {
            index.set(slot, true);
        }
        index.refresh();
        index
    }

    #[test]
    fn full_consumption_reproduces_the_eager_forward_shuffle() {
        for n in [0usize, 1, 2, 3, 7, 30, 100] {
            let members: Vec<usize> = (100..100 + n).collect();
            let index = pool(&members);
            for seed in 0..50 {
                let mut eager = members.clone();
                forward_shuffle(&mut eager, &mut new_rng(seed));

                let mut overlay = Vec::new();
                let mut lazy = LazyShuffle::new(&index, &mut overlay);
                let mut rng = new_rng(seed);
                let mut emitted = Vec::new();
                while let Some(v) = lazy.next_front(&mut rng) {
                    emitted.push(v);
                }
                assert_eq!(emitted, eager, "n={n}, seed={seed}");
            }
        }
    }

    #[test]
    fn prefix_consumption_draws_once_per_position_except_the_last() {
        let members = pool(&(0..40).collect::<Vec<_>>());
        for consumed in [0usize, 1, 5, 39, 40] {
            let mut overlay = Vec::new();
            let mut lazy = LazyShuffle::new(&members, &mut overlay);
            let mut rng = new_rng(9);
            for _ in 0..consumed {
                lazy.next_front(&mut rng).unwrap();
            }
            let expected = consumed.min(members.len() - 1) as u64;
            assert_eq!(lazy.draws(), expected, "consumed={consumed}");
            assert_eq!(lazy.remaining(), members.len() - consumed);
        }
    }

    #[test]
    fn overlay_never_exceeds_the_number_of_consumptions() {
        let members = pool(&(0..1000).collect::<Vec<_>>());
        let mut overlay = Vec::new();
        let mut lazy = LazyShuffle::new(&members, &mut overlay);
        let mut rng = new_rng(3);
        for consumed in 1..=20 {
            lazy.next_front(&mut rng).unwrap();
            assert!(
                lazy.overlay.len() <= consumed,
                "overlay {} after {consumed} consumptions",
                lazy.overlay.len()
            );
        }
    }

    #[test]
    fn exhausted_shuffle_returns_none_and_stops_drawing() {
        let members = pool(&[7, 8]);
        let mut overlay = Vec::new();
        let mut lazy = LazyShuffle::new(&members, &mut overlay);
        let mut rng = new_rng(0);
        assert!(lazy.next_front(&mut rng).is_some());
        assert!(lazy.next_front(&mut rng).is_some());
        let draws = lazy.draws();
        assert!(lazy.next_front(&mut rng).is_none());
        assert_eq!(lazy.draws(), draws, "None must not draw");
        assert_eq!(lazy.remaining(), 0);
        assert!(!lazy.is_empty());
        assert_eq!(lazy.len(), 2);
    }

    #[test]
    fn empty_pool_is_immediately_exhausted() {
        let mut overlay = vec![(3, 4)]; // stale scratch must be cleared
        let empty = PoolIndex::default();
        let mut lazy = LazyShuffle::new(&empty, &mut overlay);
        assert!(lazy.is_empty());
        assert_eq!(lazy.remaining(), 0);
        assert!(lazy.next_front(&mut new_rng(0)).is_none());
        assert_eq!(lazy.draws(), 0);
    }

    #[test]
    fn lazy_merge_emits_min_k_total_entries() {
        let deterministic = [1usize, 2, 3];
        let members = pool(&[10, 11]);
        let mut overlay = Vec::new();
        let mut out = Vec::new();
        for k in [0usize, 1, 3, 5, 10] {
            let mut lazy = LazyShuffle::new(&members, &mut overlay);
            merge_promoted_top_k_lazy_into(
                &deterministic,
                &mut lazy,
                2,
                0.5,
                k,
                &mut new_rng(4),
                &mut out,
            );
            assert_eq!(out.len(), k.min(5), "k={k}");
        }
    }

    #[test]
    fn lazy_merge_protects_the_deterministic_prefix() {
        let deterministic: Vec<usize> = (0..10).collect();
        let members = pool(&(10..20).collect::<Vec<_>>());
        let mut overlay = Vec::new();
        let mut out = Vec::new();
        for seed in 0..30 {
            let mut lazy = LazyShuffle::new(&members, &mut overlay);
            merge_promoted_top_k_lazy_into(
                &deterministic,
                &mut lazy,
                4,
                0.9,
                8,
                &mut new_rng(seed),
                &mut out,
            );
            assert_eq!(&out[..3], &[0, 1, 2], "top start_rank-1 is protected");
        }
    }

    #[test]
    fn lazy_merge_with_zero_degree_is_the_deterministic_list() {
        let deterministic: Vec<usize> = (0..6).collect();
        let members = pool(&(6..12).collect::<Vec<_>>());
        let mut overlay = Vec::new();
        let mut out = Vec::new();
        let mut lazy = LazyShuffle::new(&members, &mut overlay);
        merge_promoted_top_k_lazy_into(
            &deterministic,
            &mut lazy,
            1,
            0.0,
            6,
            &mut new_rng(1),
            &mut out,
        );
        assert_eq!(out, deterministic);
        assert_eq!(lazy.draws(), 0, "no pool entry consumed, no swap drawn");
    }

    #[test]
    fn lazy_merge_draws_at_most_k_swaps() {
        let deterministic: Vec<usize> = (0..50).collect();
        let members = pool(&(50..10_050).collect::<Vec<_>>()); // a big pool
        let mut overlay = Vec::new();
        let mut out = Vec::new();
        for seed in 0..20 {
            for k in [1usize, 5, 12] {
                let mut lazy = LazyShuffle::new(&members, &mut overlay);
                merge_promoted_top_k_lazy_into(
                    &deterministic,
                    &mut lazy,
                    2,
                    0.5,
                    k,
                    &mut new_rng(seed),
                    &mut out,
                );
                assert!(
                    lazy.draws() <= k as u64,
                    "seed={seed}, k={k}: {} draws",
                    lazy.draws()
                );
                assert!(overlay.len() <= k, "overlay stays within k entries");
            }
        }
    }

    #[test]
    fn engine_version_defaults_to_v1() {
        assert_eq!(EngineVersion::default(), EngineVersion::V1);
    }
}
