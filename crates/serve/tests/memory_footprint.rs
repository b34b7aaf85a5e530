//! The serving tier's memory contract: one generation of the serving state
//! stays resident, plus the chunks mutations copied since the published
//! version was cut — not a second, recycled generation.
//!
//! A counting global allocator measures the live heap of a v2 service over
//! n = 20 000 documents and 8 shards, through rounds of 32 uniform
//! visit/popularity mutations each followed by one 64-query top-10 batch.
//! This file holds a single test, so no other test allocates while it
//! measures.

use rrp_core::{Document, EngineVersion, QueryContext, RankPromotionEngine};
use rrp_serve::ShardedPromotionService;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// SplitMix64: the mutation schedule's stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

#[test]
fn steady_state_holds_one_generation_plus_the_copied_chunks() {
    const N: u64 = 20_000;
    let mut stream = Stream(11);
    let corpus: Vec<Document> = (0..N)
        .map(|i| {
            if i % 10 == 0 {
                Document::unexplored(i)
            } else {
                Document::established(i, (stream.next() % 1_000) as f64 / 1_000.0).with_age(i % 365)
            }
        })
        .collect();
    let queries: Vec<QueryContext> = (0..64u64).map(|q| QueryContext::new(q, q * 31)).collect();
    let mut results: Vec<Vec<u64>> = Vec::new();

    let baseline = live();
    let engine = RankPromotionEngine::recommended().with_version(EngineVersion::V2);
    let service = ShardedPromotionService::new(engine, 8).with_workers(1);
    service.extend(corpus.iter().copied());
    service.rerank_batch_top_k_into(&queries, 10, &mut results);
    let published = live() - baseline;

    let mut at = Vec::new();
    for round in 1..=50 {
        for m in 0..32 {
            let seq = stream.below(N);
            if m % 2 == 0 {
                service.record_visit(seq);
            } else {
                service.update_popularity(seq, (stream.next() % 1_000) as f64 / 1_000.0);
            }
        }
        service.rerank_batch_top_k_into(&queries, 10, &mut results);
        if round == 10 || round == 50 {
            at.push(live() - baseline);
        }
    }
    let (round10, round50) = (at[0] as f64, at[1] as f64);
    let first = published as f64;
    assert!(
        round10 <= 1.15 * first && round50 <= 1.15 * first,
        "live heap after the first publication {first} B, after 10 rounds {round10} B, \
         after 50 rounds {round50} B: more than one generation stays resident"
    );
    assert!(
        (round50 - round10).abs() <= 0.01 * round10,
        "live heap drifts between round 10 ({round10} B) and round 50 ({round50} B)"
    );
    assert_eq!(service.serve_stats().version_publications, 51);
}
