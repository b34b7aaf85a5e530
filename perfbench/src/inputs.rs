//! Seeded input generation. Everything a workload feeds the program is
//! drawn here, from the workload seed, before any timing starts.

use rrp_core::{Document, QueryContext};
use rrp_model::{PowerLawQuality, QualityDistribution};

/// SplitMix64: a small, fast, seedable stream for input generation.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// A stream for one purpose (`salt`) under the run's seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Stream(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`, mapped through a
/// seeded permutation so the hot items are spread across the corpus (and
/// therefore across shards).
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<u64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, stream: &mut Stream) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf {
            cdf,
            items: permutation(n, stream),
        }
    }

    pub fn sample(&self, stream: &mut Stream) -> u64 {
        let u = stream.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.items[rank]
    }
}

/// A Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, stream: &mut Stream) -> Vec<u64> {
    let mut items: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = stream.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}

/// The corpus: ids `0..n` in insertion order, power-law popularity (the
/// paper's quality distribution), a tenth of the pages unexplored, ages
/// spread over a year for tie-breaking.
pub fn corpus(n: usize, stream: &mut Stream) -> Vec<Document> {
    let dist = PowerLawQuality::paper_default();
    (0..n as u64)
        .map(|id| {
            if stream.below(10) == 0 {
                Document::unexplored(id)
            } else {
                Document::established(id, dist.quantile(stream.unit()).value())
                    .with_age(stream.below(365))
            }
        })
        .collect()
}

/// `count` query contexts (query hash, session hash).
pub fn contexts(count: usize, stream: &mut Stream) -> Vec<QueryContext> {
    (0..count)
        .map(|_| QueryContext::new(stream.next_u64(), stream.next_u64()))
        .collect()
}

/// One mutation call, addressed by store sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    Visit(u64),
    Popularity(u64, f64),
    Insert,
}

/// A replacement popularity score in the corpus's range.
pub fn popularity_score(stream: &mut Stream) -> f64 {
    PowerLawQuality::paper_default()
        .quantile(stream.unit())
        .value()
}
