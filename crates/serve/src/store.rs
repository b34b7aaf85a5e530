//! A document store partitioned across shards.
//!
//! Documents are routed to shards by a stable hash of their id, as a real
//! deployment would partition a corpus across index servers. Every insert
//! also receives a *global sequence number*; the canonical snapshot order
//! (and therefore every ranking decision) is defined by that sequence, not
//! by the shard layout — so re-sharding the same corpus from 1 to N shards
//! never changes a single query result.
//!
//! The sequence number doubles as the document's stable mutation handle:
//! [`record_visit`](ShardedStore::record_visit) and
//! [`update_popularity`](ShardedStore::update_popularity) address documents
//! by it, and because sequences are dense (`0..len`, no removal path) it is
//! also the document's slot in the canonical snapshot — which is what lets
//! the serving tier map store mutations straight onto dirty snapshot slots.

use crate::error::ServeError;
use rrp_core::Document;

/// A sharded document store with a canonical, shard-count-independent
/// snapshot order.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    /// Per-shard `(sequence, document)` pairs; each shard is ascending in
    /// sequence because inserts are globally ordered.
    shards: Vec<Vec<(u64, Document)>>,
    /// Dense `sequence → (shard, index)` placement map, appended on every
    /// insert. Sequences are dense (`0..len`, no removal path), so its
    /// length is also the total document count, and every mutation handle
    /// resolves in `O(1)` — the old per-mutation binary search over every
    /// shard was `O(shards · log n)`. `u32` halves the map's footprint;
    /// it caps shards and per-shard lengths at `u32::MAX`, far beyond the
    /// in-memory corpus this store can hold anyway.
    placement: Vec<(u32, u32)>,
}

impl ShardedStore {
    /// An empty store with `shard_count` partitions (at least 1).
    pub fn new(shard_count: usize) -> Self {
        ShardedStore {
            shards: vec![Vec::new(); shard_count.max(1)],
            placement: Vec::new(),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of stored documents. `O(1)`: sequences are dense with
    /// no removal path, so the placement map's length *is* the count (a
    /// per-shard sum would be `O(shards)` on a per-batch call).
    #[inline]
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.shards.iter().map(Vec::len).sum::<usize>(),
            self.placement.len()
        );
        self.placement.len()
    }

    /// Whether the store holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// Number of documents on one shard. A shard index past the
    /// partition count is a typed [`ServeError::ShardOutOfRange`] —
    /// monitoring endpoints feed this from deployment config, which must
    /// not be able to abort the process.
    pub fn shard_len(&self, shard: usize) -> Result<usize, ServeError> {
        self.shards
            .get(shard)
            .map(Vec::len)
            .ok_or(ServeError::ShardOutOfRange {
                shard,
                shards: self.shards.len(),
            })
    }

    /// The shard a document with `id` routes to. Exposed so the serving
    /// tier can mirror the store's placement in its per-shard ranking
    /// caches — the two layouts must agree document by document for
    /// shard-local candidate retrieval to cover the corpus exactly.
    #[inline]
    pub fn shard_of_id(&self, id: u64) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Insert one document, returning its global sequence number — the
    /// stable handle for later [`record_visit`](Self::record_visit) /
    /// [`update_popularity`](Self::update_popularity) calls, and the
    /// document's slot in the canonical snapshot.
    pub fn insert(&mut self, document: Document) -> u64 {
        let seq = self.placement.len() as u64;
        let shard = shard_of(document.id, self.shards.len());
        self.placement
            .push((shard as u32, self.shards[shard].len() as u32));
        self.shards[shard].push((seq, document));
        seq
    }

    /// Insert every document of an iterator, in order.
    pub fn extend(&mut self, documents: impl IntoIterator<Item = Document>) {
        for document in documents {
            self.insert(document);
        }
    }

    /// The document with global sequence number `seq`, if it exists —
    /// `O(1)` through the placement map.
    pub fn get(&self, seq: u64) -> Option<&Document> {
        self.locate(seq)
            .map(|(shard, index)| &self.shards[shard][index].1)
    }

    /// Record a user visit to the document with sequence number `seq`:
    /// clears its unexplored flag (a first recorded exposure removes it
    /// from the selective promotion pool). Returns the updated document,
    /// or `None` if no such sequence exists.
    pub fn record_visit(&mut self, seq: u64) -> Option<Document> {
        let (shard, index) = self.locate(seq)?;
        let document = &mut self.shards[shard][index].1;
        document.is_unexplored = false;
        Some(*document)
    }

    /// Replace the popularity score of the document with sequence number
    /// `seq` (clamped to be non-negative). Returns the updated document,
    /// or `None` if no such sequence exists.
    pub fn update_popularity(&mut self, seq: u64, popularity: f64) -> Option<Document> {
        let (shard, index) = self.locate(seq)?;
        let document = &mut self.shards[shard][index].1;
        document.popularity = popularity.max(0.0);
        Some(*document)
    }

    /// The canonical snapshot slot of sequence number `seq`, if it exists.
    /// Sequences are dense (`0..len`), so the slot *is* the sequence — but
    /// the `u64 → usize` conversion and the bounds check live here, once,
    /// instead of being re-derived (or skipped) at every mutation call
    /// site that needs to hand a store mutation to the serving tier.
    #[inline]
    pub fn slot_of(&self, seq: u64) -> Option<usize> {
        let slot = usize::try_from(seq).ok()?;
        (slot < self.placement.len()).then_some(slot)
    }

    /// Find `(shard, index)` of the entry with sequence `seq` — one
    /// placement-map read, `O(1)` for every mutation instead of a binary
    /// search over every shard.
    fn locate(&self, seq: u64) -> Option<(usize, usize)> {
        let &(shard, index) = self.placement.get(self.slot_of(seq)?)?;
        debug_assert_eq!(self.shards[shard as usize][index as usize].0, seq);
        Some((shard as usize, index as usize))
    }

    /// Write the canonical snapshot — all documents in global insertion
    /// order, independent of the shard layout — into `out` (cleared first).
    ///
    /// Sequence numbers are dense (`0..len`, assigned by `insert` with no
    /// removal path), so each shard's documents scatter directly to their
    /// final position: one `O(n)` pass, independent of the shard count.
    pub fn snapshot_into(&self, out: &mut Vec<Document>) {
        out.clear();
        out.resize(self.len(), Document::unexplored(0));
        // The `unexplored(0)` pre-fill is storage, never content: every
        // slot must be overwritten by exactly one shard entry, or the
        // snapshot would silently serve placeholder documents.
        #[cfg(debug_assertions)]
        let mut written = vec![false; out.len()];
        for shard in &self.shards {
            for &(seq, document) in shard {
                #[cfg(debug_assertions)]
                {
                    assert!(!written[seq as usize], "sequence {seq} written twice");
                    written[seq as usize] = true;
                }
                out[seq as usize] = document;
            }
        }
        #[cfg(debug_assertions)]
        assert!(
            written.iter().all(|&w| w),
            "every snapshot slot must be written exactly once"
        );
    }

    /// The canonical snapshot as a fresh vector.
    pub fn snapshot(&self) -> Vec<Document> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }
}

/// Stable shard routing: SplitMix64-style mix of the document id, reduced
/// onto `0..shards` with a Lemire multiply-shift (`(hash · shards) >> 64`)
/// instead of an integer division — the reduction sits on every insert and
/// lookup, and `%` costs 20–40 cycles where the multiply-high costs ~3.
/// Deterministic across runs and platforms. (The routing changed from the
/// old `%` reduction in the same change that made it cheaper; shard layout
/// is invisible in query results, so routing is free to evolve.)
fn shard_of(id: u64, shards: usize) -> usize {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((u128::from(z) * shards as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(n: u64) -> Vec<Document> {
        (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Document::unexplored(i)
                } else {
                    Document::established(i, 1.0 / (i + 1) as f64).with_age(i)
                }
            })
            .collect()
    }

    #[test]
    fn snapshot_is_insertion_order_for_any_shard_count() {
        let reference = docs(100);
        for shards in [1, 2, 3, 8, 13] {
            let mut store = ShardedStore::new(shards);
            store.extend(reference.iter().copied());
            assert_eq!(store.shard_count(), shards);
            assert_eq!(store.len(), 100);
            assert_eq!(store.snapshot(), reference, "{shards} shards");
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.shard_count(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn routing_spreads_documents_across_shards() {
        let mut store = ShardedStore::new(8);
        store.extend(docs(1_000));
        for shard in 0..8 {
            let len = store.shard_len(shard).unwrap();
            assert!(
                (60..190).contains(&len),
                "shard {shard} holds {len} of 1000 documents"
            );
        }
    }

    #[test]
    fn lemire_reduction_stays_in_range_at_extremes() {
        for shards in [1usize, 2, 7, 8, 64, 1023] {
            for id in [0u64, 1, 7, u64::MAX, u64::MAX - 1, 0x8000_0000_0000_0000] {
                assert!(shard_of(id, shards) < shards, "id {id}, {shards} shards");
            }
        }
    }

    #[test]
    fn shard_of_id_reports_where_inserts_land() {
        let mut store = ShardedStore::new(5);
        for doc in docs(200) {
            let shard = store.shard_of_id(doc.id);
            let before = store.shard_len(shard).unwrap();
            store.insert(doc);
            assert_eq!(store.shard_len(shard).unwrap(), before + 1, "id {}", doc.id);
        }
    }

    #[test]
    fn duplicate_ids_stay_distinct_entries() {
        let mut store = ShardedStore::new(4);
        store.insert(Document::established(7, 0.9));
        store.insert(Document::established(7, 0.1));
        store.insert(Document::unexplored(7));
        assert_eq!(store.len(), 3);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].popularity, 0.9);
        assert_eq!(snap[1].popularity, 0.1);
        assert!(snap[2].is_unexplored);
    }

    #[test]
    fn sequence_numbers_address_documents_across_shards() {
        let reference = docs(50);
        let mut store = ShardedStore::new(5);
        let seqs: Vec<u64> = reference.iter().map(|&d| store.insert(d)).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<u64>>(), "sequences are dense");
        for (seq, expected) in seqs.iter().zip(&reference) {
            assert_eq!(store.get(*seq), Some(expected));
        }
        assert_eq!(store.get(50), None);
    }

    #[test]
    fn mutations_update_the_addressed_document_only() {
        let mut store = ShardedStore::new(3);
        store.extend(docs(21));
        let before = store.snapshot();

        let visited = store.record_visit(7).expect("seq 7 exists");
        assert!(!visited.is_unexplored, "visit clears the unexplored flag");
        let bumped = store.update_popularity(3, 0.75).expect("seq 3 exists");
        assert_eq!(bumped.popularity, 0.75);
        let clamped = store.update_popularity(4, -1.0).expect("seq 4 exists");
        assert_eq!(clamped.popularity, 0.0, "scores clamp to non-negative");

        let after = store.snapshot();
        for (seq, (b, a)) in before.iter().zip(&after).enumerate() {
            match seq {
                7 => assert!(!a.is_unexplored),
                3 => assert_eq!(a.popularity, 0.75),
                4 => assert_eq!(a.popularity, 0.0),
                _ => assert_eq!(b, a, "seq {seq} must be untouched"),
            }
        }
        assert!(store.record_visit(999).is_none());
        assert!(store.update_popularity(999, 0.5).is_none());
    }

    #[test]
    fn mutations_agree_across_shard_counts() {
        // Regression for the placement map: `locate` must resolve every
        // sequence to the same document at any shard count, so a mutation
        // schedule leaves 1-, 2- and 8-shard stores with identical
        // canonical snapshots.
        let reference = docs(120);
        let snapshots: Vec<Vec<Document>> = [1usize, 2, 8]
            .into_iter()
            .map(|shards| {
                let mut store = ShardedStore::new(shards);
                store.extend(reference.iter().copied());
                for seq in (0..120).step_by(7) {
                    assert!(store.record_visit(seq).is_some(), "{shards} shards");
                }
                for seq in (0..120).step_by(5) {
                    let bumped = store.update_popularity(seq, 0.5 + seq as f64 / 240.0);
                    assert!(bumped.is_some(), "{shards} shards");
                }
                assert!(store.record_visit(120).is_none());
                assert!(store.update_popularity(u64::MAX, 1.0).is_none());
                for seq in 0..120 {
                    assert!(store.get(seq).is_some(), "seq {seq}, {shards} shards");
                }
                store.snapshot()
            })
            .collect();
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
    }

    #[test]
    fn slot_of_checks_the_boundary_exactly() {
        let mut store = ShardedStore::new(3);
        store.extend(docs(20));
        assert_eq!(store.slot_of(0), Some(0));
        assert_eq!(store.slot_of(19), Some(19));
        assert_eq!(store.slot_of(20), None, "one past the end is rejected");
        assert_eq!(store.slot_of(u64::MAX), None, "no overflow on conversion");
        // The slot is the sequence: mutations and lookups agree with it.
        for seq in 0..20u64 {
            assert_eq!(store.slot_of(seq), Some(seq as usize));
            assert!(store.get(seq).is_some());
        }
        assert_eq!(ShardedStore::new(1).slot_of(0), None, "empty store");
    }

    #[test]
    fn snapshot_into_reuses_storage() {
        let mut store = ShardedStore::new(2);
        store.extend(docs(50));
        let mut out = Vec::new();
        store.snapshot_into(&mut out);
        let capacity = out.capacity();
        store.snapshot_into(&mut out);
        assert_eq!(out.capacity(), capacity);
        assert_eq!(out.len(), 50);
    }
}
