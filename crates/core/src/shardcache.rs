//! Per-shard ranking caches and the immutable versions published from them
//! — the storage side of shard-local top-k candidate retrieval under
//! concurrent readers.
//!
//! [`ShardedCorpusCache`] keeps one [`CorpusCache`] — the same incremental
//! cache the simulator's day loop keeps over its whole population — **per
//! shard**, each over that shard's documents under dense *shard-local*
//! slots, with a shard-local dirty list repaired independently. A top-`k`
//! query then never touches corpus-wide ranking state: each shard
//! contributes a [`ShardCandidates`] rest prefix (its first `c` non-pool
//! popularity-order entries, slots relabeled to the documents' global
//! slots),
//! [`merge_shard_candidates_into`](rrp_ranking::merge_shard_candidates_into)
//! reassembles exactly the global order prefix the promotion merge
//! consumes, and the **global pool** — which moves only when a mutation
//! flips a slot's membership, never with the query — is a membership
//! bitset over global slots ([`PoolIndex`]), flipped eagerly on every push
//! and patch. A v2 top-`k` query reads at most `k` of its members by
//! positional select; v1 and full-order paths walk it in ascending order.
//!
//! # One generation, shared by chunks
//!
//! Every per-slot structure is stored in fixed-size `Arc` chunks: the
//! shard caches' stats ([`Chunked`]), popularity orders (sorted blocks,
//! [`PopularityIndex`]) and pool bitsets, and this cache's placement,
//! page ids, global pool and local→global maps.
//! [`publish`](ShardedCorpusCache::publish) repairs the dirty slots and
//! clones every structure into an immutable, epoch-stamped
//! [`PublishedVersion`]. A clone copies only pointer tables — one entry
//! per 64 chunks, or per segment of order blocks — so the version and the
//! writer share one copy of every chunk. Readers rank against a version
//! without any lock. A later mutation copies only the chunk it writes
//! (`Arc::make_mut` per chunk, not per shard), and a repair rewrites only
//! the order blocks its dirty slots leave or join.
//!
//! Publication therefore costs `O(d · (log n + block))` for `d` dirty
//! slots, plus `O(n / 512)` to refresh the global pool's rank directory
//! and the pointer tables. Resident memory is one generation plus the
//! chunks copied since the oldest live version was cut: a reader that
//! holds an old version keeps exactly that version's chunks alive, and
//! nothing has to be recycled or replayed when it lets go.
//!
//! Full reranks (and the Uniform rule's per-page coin scan) are served
//! from the version's **complete** merged global popularity order
//! ([`merge_shard_orders_into`](rrp_ranking::merge_shard_orders_into)),
//! maintained lazily per version in a [`SharedLazyOrder`]: the first
//! full-order consumer of a version merges once, and top-k-only traffic
//! never pays the `O(n)` merge.
//!
//! The local↔global mapping rides on two invariants the owner must keep
//! (both debug-asserted):
//!
//! * global slots are dense across the whole cache (`0..len`, each pushed
//!   exactly once) — they are the store's global sequence numbers; and
//! * within a shard, global slots ascend with local slots (inserts are
//!   globally ordered), which is what makes a shard-local popularity
//!   order agree with the global order's slot tie-break after relabeling.

use crate::document::Document;
use crate::engine::RankPromotionEngine;
use rrp_model::PageId;
use rrp_ranking::{
    Chunked, CorpusCache, PageStats, PoolIndex, PopularityIndex, RankSource, ShardCandidates,
    SharedLazyOrder,
};
use std::sync::Arc;

/// One shard of the writer generation: its cache under dense local slots
/// plus the local→global slot map.
#[derive(Debug, Clone, Default)]
struct ShardCache {
    cache: CorpusCache,
    /// Local slot → global slot, strictly increasing.
    globals: Chunked<usize>,
}

/// One shard of a [`PublishedVersion`]: the repaired cache's stats, order
/// and pool plus the local→global map, sharing every chunk with the writer
/// generation that cut the version (and with neighbouring versions while
/// the chunk stays clean).
#[derive(Debug, Default)]
struct PublishedShard {
    stats: Chunked<PageStats>,
    order: PopularityIndex,
    pool: PoolIndex,
    globals: Chunked<usize>,
}

/// An immutable, epoch-stamped snapshot of the whole serving tier: per-
/// shard repaired caches, the global placement/page arrays, the global
/// pool, and a lazily merged complete global order. Cut by
/// [`ShardedCorpusCache::publish`]; safe to read from any number of
/// threads without a lock. The `epoch` records which mutation epoch the
/// snapshot serves — readers validate it at merge time against the live
/// epoch counter to detect (and bound) staleness.
#[derive(Debug)]
pub struct PublishedVersion {
    epoch: u64,
    shards: Vec<PublishedShard>,
    /// Global slot → (shard, local slot).
    placement: Chunked<(u32, u32)>,
    /// Global slot → [`PageId`] — resolves ranked slots to ids by direct
    /// indexing on the per-slot hot loop.
    pages: Chunked<PageId>,
    /// The global pool: membership by global slot, ascending members by
    /// select or iteration.
    pool: PoolIndex,
    /// The complete merged global popularity order, merged at most once
    /// per version by its first full-order consumer.
    merged_order: SharedLazyOrder,
}

impl PublishedVersion {
    /// The empty version at epoch 0 — what a service publishes before any
    /// mutation exists. An empty corpus never republishes: inserts are the
    /// only path to a non-empty one, and they bump the epoch.
    pub fn empty(shard_count: usize) -> Self {
        PublishedVersion {
            epoch: 0,
            shards: (0..shard_count.max(1))
                .map(|_| PublishedShard::default())
                .collect(),
            placement: Chunked::new(),
            pages: Chunked::new(),
            pool: PoolIndex::default(),
            merged_order: SharedLazyOrder::new(),
        }
    }

    /// The mutation epoch this version serves.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of documents in the snapshot.
    #[inline]
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// Whether the snapshot holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// The global pool: every shard's pool members under global slots —
    /// identical in content and order to a corpus-wide [`PoolIndex`].
    #[inline]
    pub fn pool(&self) -> &PoolIndex {
        &self.pool
    }

    /// The [`PageId`] of the document at `global_slot` — one direct index
    /// on the per-slot hot loop of every serving path.
    #[inline]
    pub fn page_of(&self, global_slot: usize) -> PageId {
        self.pages[global_slot]
    }

    /// The snapshot's [`PageStats`] of the document at `global_slot`,
    /// relabeled to its global slot (`O(1)`).
    #[inline]
    pub fn stat_of(&self, global_slot: usize) -> PageStats {
        let (shard, local) = self.placement[global_slot];
        let mut stat = self.shards[shard as usize].stats[local as usize];
        stat.slot = global_slot;
        stat
    }

    /// Whether `global_slot` is a member of the promotion pool — one
    /// direct bit test.
    #[inline]
    pub fn in_pool(&self, global_slot: usize) -> bool {
        self.pool.contains(global_slot)
    }

    /// The [`RankSource::merged`] view of this version: the global pool and
    /// the complete merged order (forced if no consumer merged it yet —
    /// see [`ensure_merged_order`](Self::ensure_merged_order)).
    pub fn merged_source(&self) -> RankSource<'_> {
        RankSource::merged(&self.pool, self.merged_order())
    }

    /// The complete merged global popularity order (global slots) —
    /// identical in content and order to a corpus-wide
    /// [`PopularityIndex`]. Forces the merge if no consumer ran it yet;
    /// use [`ensure_merged_order`](Self::ensure_merged_order) to observe
    /// whether this call paid.
    #[inline]
    pub fn merged_order(&self) -> &[usize] {
        self.ensure_merged_order().0
    }

    /// The complete merged global popularity order, plus whether *this*
    /// call ran the `O(n)` k-way merge — exactly one consumer per version
    /// observes `true` (the owner's `order_merges` probe counts these), so
    /// clean stretches between mutations re-merge nothing and top-k-only
    /// traffic never merges at all.
    pub fn ensure_merged_order(&self) -> (&[usize], bool) {
        let (order, ran) = self.merged_order.get_or_merge(|buffer| {
            let orders: Vec<Vec<usize>> = self.shards.iter().map(|s| s.order.to_vec()).collect();
            let mut heads = Vec::new();
            rrp_ranking::merge_shard_orders_into(
                self.shards.len(),
                |s| orders[s].len(),
                |s, i| {
                    let shard = &self.shards[s];
                    let local = orders[s][i];
                    let mut stat = shard.stats[local];
                    stat.slot = shard.globals[local];
                    stat
                },
                &mut heads,
                buffer,
            );
        });
        if ran {
            debug_assert_eq!(order.len(), self.len());
            debug_assert!(
                order.windows(2).all(|w| {
                    rrp_ranking::popularity_order(&self.stat_of(w[0]), &self.stat_of(w[1])).is_lt()
                }),
                "merged order must be the global popularity order"
            );
        }
        (order, ran)
    }

    /// Collect every shard's per-query top-`k` rest candidates into `out`
    /// (resized to the shard count; inner storage reused): the first
    /// `limit` non-pool entries of each shard's popularity order, slots
    /// rewritten to global slots — `O(limit)` per shard past any pool
    /// members sitting above the cut. The pool half comes from
    /// [`pool`](Self::pool).
    pub fn collect_rest_candidates(&self, limit: usize, out: &mut Vec<ShardCandidates>) {
        out.resize_with(self.shards.len(), ShardCandidates::new);
        for (shard, candidates) in self.shards.iter().zip(out.iter_mut()) {
            candidates.collect_rest(
                &shard.stats,
                &shard.order,
                &shard.pool,
                limit,
                &shard.globals,
            );
        }
    }
}

/// Per-shard [`CorpusCache`]s repaired from shard-local dirty lists, with
/// `O(1)` global-slot addressing for mutations, an eagerly maintained
/// global pool, and epoch-stamped immutable publication for concurrent
/// readers (see the module docs for the chunk-shared layout).
#[derive(Debug)]
pub struct ShardedCorpusCache {
    shards: Vec<ShardCache>,
    /// Global slot → (shard, local slot).
    placement: Chunked<(u32, u32)>,
    /// Global slot → [`PageId`], maintained eagerly (append on push,
    /// rewrite on patch) so the merged-order serving paths resolve ranked
    /// slots to ids by direct indexing instead of a placement double
    /// indirection per slot.
    pages: Chunked<PageId>,
    /// Global slot → pool membership, flipped eagerly alongside the shard
    /// stats (after a repair it equals every shard pool's membership).
    pool: PoolIndex,
    /// Chunks copied on write since the last
    /// [`take_copies`](Self::take_copies), gathered from the structures
    /// each push, patch and repair touched.
    copies: u64,
}

impl ShardedCorpusCache {
    /// An empty cache over `shard_count` shards (at least 1).
    pub fn new(shard_count: usize) -> Self {
        ShardedCorpusCache {
            shards: vec![ShardCache::default(); shard_count.max(1)],
            placement: Chunked::new(),
            pages: Chunked::new(),
            pool: PoolIndex::default(),
            copies: 0,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of cached documents.
    #[inline]
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// Whether the cache holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// Dirty entries awaiting repair, summed over the shard-local lists.
    pub fn dirty_len(&self) -> usize {
        self.shards.iter().map(|s| s.cache.dirty_len()).sum()
    }

    /// Chunks copied on write since the last call, over every structure
    /// of the writer generation: stats leaves, page ids and pool words by
    /// mutations, order blocks and shard pool words by repairs.
    pub fn take_copies(&mut self) -> u64 {
        std::mem::take(&mut self.copies)
    }

    /// Append the document occupying the next global slot to `shard`
    /// (`O(1)` amortised). Global slots are assigned densely in push order
    /// — they are the store's global sequence numbers — so within a shard
    /// they ascend with local slots.
    pub fn push(&mut self, shard: usize, document: &Document) {
        debug_assert!(shard < self.shards.len());
        let global_slot = self.placement.len();
        let entry = &mut self.shards[shard];
        let local = entry.globals.len();
        self.placement.push((shard as u32, local as u32));
        self.pages.push(PageId::new(document.id));
        self.pool.set(global_slot, document.is_unexplored);
        entry.globals.push(global_slot);
        entry
            .cache
            .push(RankPromotionEngine::document_stat(local, document));
        self.copies += entry.cache.take_copies()
            + entry.globals.take_copies()
            + self.placement.take_copies()
            + self.pages.take_copies()
            + self.pool.take_copies();
    }

    /// Patch the cached stats of the document at `global_slot` after a
    /// mutation, marking exactly its shard-local slot dirty (`O(1)`; a
    /// write to a chunk still shared with a published version copies that
    /// chunk once).
    pub fn patch(&mut self, global_slot: usize, document: &Document) {
        let (shard, local) = self.placement[global_slot];
        let (shard, local) = (shard as usize, local as usize);
        let cache = &mut self.shards[shard].cache;
        cache.patch(local, RankPromotionEngine::document_stat(local, document));
        let page = PageId::new(document.id);
        if self.pages[global_slot] != page {
            self.pages.set(global_slot, page);
        }
        self.pool.set(global_slot, document.is_unexplored);
        self.copies += cache.take_copies() + self.pages.take_copies() + self.pool.take_copies();
    }

    /// Repair every shard cache that has dirty slots and refresh the
    /// global pool's rank directory, returning the total number of dirty
    /// entries handed to the repairs (distinct slots per shard). Shards
    /// with a clean dirty list skip their index repairs.
    pub fn repair(&mut self) -> u64 {
        let mut handed = 0;
        for shard in self.shards.iter_mut().filter(|s| s.cache.dirty_len() > 0) {
            handed += shard.cache.repair();
            self.copies += shard.cache.take_copies();
        }
        self.pool.refresh();
        debug_assert!(
            {
                let mut from_shards: Vec<usize> = self
                    .shards
                    .iter()
                    .flat_map(|s| s.cache.pool().iter().map(|local| s.globals[local]))
                    .collect();
                from_shards.sort_unstable();
                from_shards == self.pool.members()
            },
            "the eager global pool must equal the union of the shard pools"
        );
        handed
    }

    /// Cut an immutable [`PublishedVersion`] of the current state, stamped
    /// with `epoch`: repair the writer generation, then clone every
    /// structure into the version, sharing all chunks. Returns the version
    /// and the number of dirty slots the repair handled — the distinct
    /// slots mutated since the last repair, which is what the owner's
    /// repair probes record.
    ///
    /// Publication happens at most once per mutation epoch by
    /// construction: the owner only calls this when its published
    /// version's epoch trails the live epoch counter.
    pub fn publish(&mut self, epoch: u64) -> (Arc<PublishedVersion>, u64) {
        let handed = self.repair();
        let version = PublishedVersion {
            epoch,
            shards: self
                .shards
                .iter()
                .map(|s| PublishedShard {
                    stats: s.cache.stats().clone(),
                    order: s.cache.order().clone(),
                    pool: s.cache.pool().clone(),
                    globals: s.globals.clone(),
                })
                .collect(),
            placement: self.placement.clone(),
            pages: self.pages.clone(),
            pool: self.pool.clone(),
            merged_order: SharedLazyOrder::new(),
        };
        (Arc::new(version), handed)
    }

    /// Discard everything and start over with the same shard count — the
    /// first half of a rebuild; the owner then replays every document
    /// through [`push`](Self::push) in global order and calls
    /// [`repair`](Self::repair).
    pub fn clear(&mut self) {
        *self = ShardedCorpusCache::new(self.shards.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_ranking::{merge_shard_candidates_into, MergedCandidates, PoolIndex, PopularityIndex};

    fn documents(n: u64) -> Vec<Document> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Document::unexplored(i)
                } else {
                    Document::established(i, 1.0 - (i % 11) as f64 * 0.05).with_age(i % 6)
                }
            })
            .collect()
    }

    /// Route like a store would: any deterministic id hash works, the
    /// invariants only need per-shard ascending global slots.
    fn shard_of(id: u64, shards: usize) -> usize {
        (id as usize * 7 + 1) % shards
    }

    fn filled(docs: &[Document], shards: usize) -> ShardedCorpusCache {
        let mut cache = ShardedCorpusCache::new(shards);
        for doc in docs {
            cache.push(shard_of(doc.id, shards), doc);
        }
        cache
    }

    /// The corpus-wide reference: global stats, order, and pool.
    fn global_reference(docs: &[Document]) -> (PopularityIndex, PoolIndex) {
        let mut stats = Vec::new();
        crate::engine::RankPromotionEngine::document_stats(docs, &mut stats);
        (PopularityIndex::build(&stats), PoolIndex::build(&stats))
    }

    fn expected_rest(order: &PopularityIndex, pool: &PoolIndex, limit: usize) -> Vec<usize> {
        order
            .iter()
            .filter(|&s| !pool.contains(s))
            .take(limit)
            .collect()
    }

    /// The merged rest prefix of `version`'s top-`limit` candidates.
    fn merged_rest(version: &PublishedVersion, limit: usize) -> Vec<usize> {
        let mut candidates = Vec::new();
        version.collect_rest_candidates(limit, &mut candidates);
        let mut merged = MergedCandidates::new();
        merge_shard_candidates_into(&candidates, limit, &mut merged);
        assert!(merged.pool().is_empty(), "rest candidates carry no pool");
        merged.rest().iter().map(|p| p.slot).collect()
    }

    #[test]
    fn merged_candidates_equal_the_corpus_wide_derivation() {
        let docs = documents(60);
        let (order, pool) = global_reference(&docs);
        for shards in [1usize, 2, 3, 8] {
            let mut cache = filled(&docs, shards);
            assert_eq!(cache.len(), 60);
            assert_eq!(cache.shard_count(), shards);
            let (version, _) = cache.publish(1);

            // The maintained merged pool is the corpus-wide pool, and the
            // merged rest candidates are the corpus-wide non-pool prefix.
            assert_eq!(version.pool().members(), pool.members(), "{shards} shards");
            assert_eq!(
                merged_rest(&version, 7),
                expected_rest(&order, &pool, 7),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn patches_flow_through_the_shard_local_dirty_lists() {
        let mut docs = documents(40);
        let mut cache = filled(&docs, 4);
        cache.repair();
        assert_eq!(cache.dirty_len(), 0);

        docs[0].is_unexplored = false; // slot 0 leaves the pool
        cache.patch(0, &docs[0]);
        docs[7].popularity = 3.0; // slot 7 moves to the top of the order
        cache.patch(7, &docs[7]);
        docs.push(Document::unexplored(99)); // slot 40 joins the pool
        cache.push(shard_of(99, 4), docs.last().unwrap());
        assert_eq!(cache.dirty_len(), 3);
        assert_eq!(cache.repair(), 3);

        let (order, pool) = global_reference(&docs);
        let (version, _) = cache.publish(1);
        assert_eq!(version.pool().members(), pool.members());
        assert!(!version.in_pool(0));
        assert!(version.in_pool(40));
        let rest_slots = merged_rest(&version, 5);
        assert_eq!(rest_slots[0], 7, "the boosted slot leads the order");
        assert_eq!(rest_slots, expected_rest(&order, &pool, 5));
    }

    #[test]
    fn published_order_equals_the_corpus_wide_popularity_order() {
        let mut docs = documents(60);
        let (order, _) = global_reference(&docs);
        for shards in [1usize, 2, 3, 8] {
            let mut cache = filled(&docs, shards);
            let (version, charged) = cache.publish(1);
            assert_eq!(charged, 60, "the warm-up publication repairs every slot");
            let (merged, ran) = version.ensure_merged_order();
            assert!(ran, "the first full-order consumer merges");
            assert_eq!(merged, order.to_vec(), "{shards} shards");
            let (_, ran) = version.ensure_merged_order();
            assert!(!ran, "a published order must not re-merge");
        }

        // Mutations publish into a fresh version; its order re-merges to
        // the fresh corpus-wide derivation, and only the first full-order
        // consumer of that version pays.
        let mut cache = filled(&docs, 4);
        let (v1, _) = cache.publish(1);
        v1.ensure_merged_order();
        docs[5].popularity = 4.0;
        cache.patch(5, &docs[5]);
        docs.push(Document::unexplored(77));
        cache.push(shard_of(77, 4), docs.last().unwrap());
        let (v2, charged) = cache.publish(2);
        assert_eq!(charged, 2, "exactly the mutated slots are charged");
        drop(v1);
        let (merged, ran) = v2.ensure_merged_order();
        assert!(ran, "a fresh version merges once");
        let (order, _) = global_reference(&docs);
        assert_eq!(merged, order.to_vec());
        assert_eq!(merged[0], 5, "the boosted slot leads");
        assert!(!v2.ensure_merged_order().1);
    }

    /// Everything a version answers with, as plain vectors: the merged
    /// order, the pool, and every slot's page and stats.
    fn answers(
        version: &PublishedVersion,
    ) -> (Vec<usize>, Vec<usize>, Vec<PageId>, Vec<PageStats>) {
        (
            version.merged_order().to_vec(),
            version.pool().members(),
            (0..version.len()).map(|s| version.page_of(s)).collect(),
            (0..version.len()).map(|s| version.stat_of(s)).collect(),
        )
    }

    /// The same answers from a from-scratch derivation over `docs`.
    fn fresh_answers(docs: &[Document]) -> (Vec<usize>, Vec<usize>, Vec<PageId>, Vec<PageStats>) {
        let (order, pool) = global_reference(docs);
        let mut stats = Vec::new();
        crate::engine::RankPromotionEngine::document_stats(docs, &mut stats);
        (
            order.to_vec(),
            pool.members(),
            docs.iter().map(|d| PageId::new(d.id)).collect(),
            stats,
        )
    }

    #[test]
    fn recycled_publications_stay_bit_identical_to_fresh_derivations() {
        // The steady-state loop: publish → mutate → publish, with the
        // previous version dropped each round, and every published
        // version compared against a from-scratch corpus-wide derivation.
        // Nothing is recycled or replayed: a dropped version frees only
        // the chunks no later version shares, and the writer's chunks
        // must never lag or lead the documents.
        let mut docs = documents(50);
        let mut cache = filled(&docs, 3);
        let (mut live, _) = cache.publish(1);
        let mut next_id = 1_000u64;
        for round in 0..12u64 {
            // A visit, a popularity move, and (every third round) an
            // insert — routed exactly like the service would.
            let visit = (round as usize * 7) % docs.len();
            docs[visit].is_unexplored = false;
            cache.patch(visit, &docs[visit]);
            let moved = (round as usize * 11 + 3) % docs.len();
            docs[moved].popularity = 0.1 + (round as f64) * 0.25;
            cache.patch(moved, &docs[moved]);
            if round % 3 == 0 {
                let doc = Document::unexplored(next_id);
                next_id += 1;
                docs.push(doc);
                cache.push(shard_of(doc.id, 3), &doc);
            }
            let (version, _) = cache.publish(round + 2);
            drop(std::mem::replace(&mut live, version.clone()));
            let (order, pool) = global_reference(&docs);
            assert_eq!(version.pool().members(), pool.members(), "round {round}");
            assert_eq!(version.merged_order(), order.to_vec(), "round {round}");
            assert_eq!(version.len(), docs.len());
            for (slot, doc) in docs.iter().enumerate() {
                assert_eq!(version.page_of(slot), PageId::new(doc.id));
                assert_eq!(version.in_pool(slot), doc.is_unexplored);
            }
        }
    }

    #[test]
    fn straggling_readers_only_defer_recycling() {
        // A reader that never lets go of an old version must not corrupt
        // anything: the writer copies the chunks it writes instead of
        // writing into ones the parked version shares, and the parked
        // version only keeps its own chunks alive.
        let mut docs = documents(30);
        let mut cache = filled(&docs, 2);
        let (v1, _) = cache.publish(1);
        let straggler = v1.clone(); // a reader parks on the version
        docs[4].popularity = 9.0;
        cache.patch(4, &docs[4]);
        let (v2, _) = cache.publish(2);
        drop(v1);
        docs[9].is_unexplored = false;
        cache.patch(9, &docs[9]); // copy-on-write path
        let (v3, _) = cache.publish(3);
        drop(v2);
        let (order, pool) = global_reference(&docs);
        assert_eq!(v3.merged_order(), order.to_vec());
        assert_eq!(v3.pool().members(), pool.members());
        // The parked version still serves its own epoch's state.
        assert_eq!(straggler.epoch(), 1);
        assert!(straggler.in_pool(9), "old versions are immutable");
        assert_ne!(straggler.stat_of(4).popularity, 9.0);
    }

    #[test]
    fn held_versions_answer_like_a_fresh_derivation_at_their_epoch() {
        // A reader holds one version across 24 further mutate/publish
        // cycles — visits, popularity moves and inserts spread over every
        // chunk and order block — while every new version is checked
        // against a fresh derivation. The held version must keep
        // answering exactly as a fresh derivation at its own epoch did:
        // the writer copies chunks, it never writes into a shared one.
        let mut docs = documents(3_000);
        let mut cache = filled(&docs, 3);
        let (held, _) = cache.publish(1);
        let held_docs = docs.clone();
        assert_eq!(answers(&held), fresh_answers(&held_docs));
        let mut next_id = 10_000u64;
        for round in 0..24u64 {
            for i in 0..40usize {
                let slot = (round as usize * 997 + i * 131) % docs.len();
                if i % 2 == 0 {
                    docs[slot].is_unexplored = false;
                } else {
                    docs[slot].popularity = ((slot * 7 + round as usize) % 13) as f64 * 0.07;
                }
                cache.patch(slot, &docs[slot]);
            }
            for _ in 0..(round % 4) * 50 {
                let doc = Document::unexplored(next_id);
                next_id += 1;
                docs.push(doc);
                cache.push(shard_of(doc.id, 3), &doc);
            }
            let (version, _) = cache.publish(round + 2);
            assert_eq!(answers(&version), fresh_answers(&docs), "round {round}");
        }
        assert_eq!(held.epoch(), 1);
        assert_eq!(
            answers(&held),
            fresh_answers(&held_docs),
            "the held version"
        );
    }

    #[test]
    fn clean_shards_are_shared_across_versions_not_copied() {
        // Mutating one slot copies the chunks on that slot's path and the
        // order blocks it leaves and joins — a handful, independent of
        // the corpus and shard sizes — and every other chunk stays shared
        // with the previous version, which keeps answering as before.
        for n in [2_000u64, 40_000] {
            let docs = documents(n);
            let mut cache = filled(&docs, 4);
            let (v1, _) = cache.publish(1);
            let before = answers(&v1);
            assert_eq!(cache.take_copies(), 0, "a first publication copies nothing");
            let mut doc = docs[0];
            doc.popularity = 5.0;
            doc.is_unexplored = false;
            cache.patch(0, &doc);
            let (_v2, _) = cache.publish(2);
            let copies = cache.take_copies();
            assert!((3..=6).contains(&copies), "n = {n}: {copies} chunks copied");
            assert_eq!(answers(&v1), before, "n = {n}: the old version is intact");
        }
    }

    #[test]
    fn stat_of_and_in_pool_resolve_through_the_placement_map() {
        let docs = documents(30);
        let mut cache = filled(&docs, 3);
        let (version, _) = cache.publish(1);
        let mut stats = Vec::new();
        crate::engine::RankPromotionEngine::document_stats(&docs, &mut stats);
        for (slot, stat) in stats.iter().enumerate() {
            assert_eq!(version.stat_of(slot), *stat);
            assert_eq!(version.in_pool(slot), docs[slot].is_unexplored);
        }
        assert_eq!(version.shard_count(), 3);
        assert!(!version.is_empty());
    }

    #[test]
    fn page_of_resolves_ids_through_the_owning_shard() {
        let docs = documents(25);
        let mut cache = filled(&docs, 3);
        let (version, _) = cache.publish(1);
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(version.page_of(slot), PageId::new(doc.id));
        }
    }

    #[test]
    fn eager_membership_mask_tracks_mutations() {
        let mut docs = documents(30);
        let mut cache = filled(&docs, 3);
        cache.repair();
        // Push/patch keep the direct-index mask equal to a fresh scan.
        docs[0].is_unexplored = false; // slot 0 (unexplored) leaves
        cache.patch(0, &docs[0]);
        docs[1].is_unexplored = true; // slot 1 (established) joins
        docs[1].popularity = 0.0;
        cache.patch(1, &docs[1]);
        docs.push(Document::unexplored(80)); // slot 30 joins
        cache.push(shard_of(80, 3), docs.last().unwrap());
        // The repair debug-asserts mask ≡ re-merged global pool.
        let (version, _) = cache.publish(1);
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(version.in_pool(slot), doc.is_unexplored, "slot {slot}");
            assert_eq!(version.page_of(slot), PageId::new(doc.id), "slot {slot}");
        }
    }

    #[test]
    fn clear_keeps_shape_and_pool_setting_for_a_replay() {
        let docs = documents(20);
        let mut cache = filled(&docs, 3);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.shard_count(), 3);
        assert_eq!(cache.dirty_len(), 0);
        for doc in &docs {
            cache.push(shard_of(doc.id, 3), doc);
        }
        assert_eq!(cache.repair(), docs.len() as u64);
        assert_eq!(cache.len(), docs.len());
        // The replay maintains the pool again, like any other push stream.
        let (version, _) = cache.publish(1);
        let (order, pool) = global_reference(&docs);
        assert_eq!(version.pool().members(), pool.members());
        assert_eq!(version.merged_order(), order.to_vec());
    }
}
