//! `topk_churn_v2` and `read_mostly_v1`: one in-memory
//! `ShardedPromotionService` taking mutation bursts between top-k batches.

use crate::inputs::{self, Mutation, Stream, Zipf};
use crate::measure::Samples;
use crate::{Run, Scale, PROBE_ROUND, ROUND};
use rrp_core::{Document, EngineVersion, QueryContext, RankPromotionEngine};
use rrp_serve::{ServeStats, ShardedPromotionService};
use std::time::{Duration, Instant};

/// The fixed input properties of a serving workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub n: usize,
    pub shards: usize,
    pub version: EngineVersion,
    pub k: usize,
    pub batch: usize,
    pub mutations_per_round: usize,
    /// Zipf exponent of the mutation targets; `None` spreads them uniformly.
    pub zipf: Option<f64>,
    pub topk_batches_per_round: usize,
    /// Queries in the round's full-rerank batch (0: no full batch).
    pub full_batch: usize,
    /// Distinct rounds generated up front; the loop cycles through them.
    pub rounds: usize,
    /// Output checks after every this many rounds.
    pub check_every: u64,
    /// In a traced run, rounds with `r % probe_every == 1` (traced ones:
    /// `probe_every` is even) are probe rounds.
    pub probe_every: u64,
    /// Probe rounds with `r % full_probe_every == 1` also isolate the
    /// full-rerank path.
    pub full_probe_every: u64,
    /// Corpus sizes of the publication scaling probe (traced run only).
    pub scaling: &'static [(usize, &'static str)],
}

const SCALING: &[(usize, &str)] = &[
    (10_000, "service.publish_us.n10k"),
    (100_000, "service.publish_us.n100k"),
    (1_000_000, "service.publish_us.n1m"),
];
const SCALING_TINY: &[(usize, &str)] = &[
    (500, "service.publish_us.n10k"),
    (1_000, "service.publish_us.n100k"),
    (2_000, "service.publish_us.n1m"),
];
/// Dirty slots per publication in the scaling probe.
const SCALING_DIRTY: u64 = 32;

impl Shape {
    pub fn topk_churn_v2(scale: Scale) -> Self {
        let tiny = scale == Scale::Tiny;
        Shape {
            n: if tiny { 2_000 } else { 100_000 },
            shards: 8,
            version: EngineVersion::V2,
            k: 10,
            batch: 64,
            mutations_per_round: 32,
            zipf: None,
            topk_batches_per_round: 1,
            full_batch: 0,
            rounds: if tiny { 16 } else { 512 },
            check_every: if tiny { 4 } else { 500 },
            probe_every: 4,
            full_probe_every: 16,
            scaling: if tiny { SCALING_TINY } else { SCALING },
        }
    }

    pub fn read_mostly_v1(scale: Scale) -> Self {
        let tiny = scale == Scale::Tiny;
        Shape {
            n: if tiny { 2_000 } else { 100_000 },
            shards: 8,
            version: EngineVersion::V1,
            k: 10,
            batch: 64,
            mutations_per_round: 8,
            zipf: Some(1.0),
            topk_batches_per_round: 16,
            full_batch: 4,
            rounds: if tiny { 4 } else { 64 },
            check_every: if tiny { 2 } else { 10 },
            probe_every: 4,
            full_probe_every: 4,
            scaling: &[],
        }
    }
}

struct Round {
    mutations: Vec<Mutation>,
    topk: Vec<Vec<QueryContext>>,
    full: Vec<QueryContext>,
}

fn generate(shape: &Shape, seed: u64) -> (Vec<Document>, Vec<Round>) {
    let corpus = inputs::corpus(shape.n, &mut Stream::new(seed, 1));
    let zipf = shape
        .zipf
        .map(|s| Zipf::new(shape.n, s, &mut Stream::new(seed, 2)));
    let mut stream = Stream::new(seed, 3);
    let rounds = (0..shape.rounds)
        .map(|_| Round {
            mutations: (0..shape.mutations_per_round)
                .map(|m| {
                    let seq = match &zipf {
                        Some(zipf) => zipf.sample(&mut stream),
                        None => stream.below(shape.n as u64),
                    };
                    if m % 2 == 0 {
                        Mutation::Visit(seq)
                    } else {
                        Mutation::Popularity(seq, inputs::popularity_score(&mut stream))
                    }
                })
                .collect(),
            topk: (0..shape.topk_batches_per_round)
                .map(|_| inputs::contexts(shape.batch, &mut stream))
                .collect(),
            full: inputs::contexts(shape.full_batch, &mut stream),
        })
        .collect();
    (corpus, rounds)
}

fn apply(service: &ShardedPromotionService, mutation: Mutation) -> bool {
    match mutation {
        Mutation::Visit(seq) => service.try_record_visit(seq).is_ok(),
        Mutation::Popularity(seq, score) => service.try_update_popularity(seq, score).is_ok(),
        Mutation::Insert => unreachable!("serving workloads do not insert"),
    }
}

/// `ServeStats` deltas summed over the traced ordinary rounds.
#[derive(Debug, Default)]
pub struct StatsDelta {
    rounds: u64,
    publications: u64,
    dirty_slots: u64,
    shard_repairs: u64,
    pool_draws: u64,
    queries: u64,
    retrievals: u64,
    order_merges: u64,
    epoch_conflicts: u64,
}

impl StatsDelta {
    pub fn add(&mut self, before: &ServeStats, after: &ServeStats) {
        self.rounds += 1;
        self.publications += after.version_publications - before.version_publications;
        self.dirty_slots += after.dirty_slots_repaired - before.dirty_slots_repaired;
        self.shard_repairs += after.shard_repairs - before.shard_repairs;
        self.pool_draws += after.pool_draws - before.pool_draws;
        self.queries += after.queries - before.queries;
        self.retrievals += after.shard_retrievals - before.shard_retrievals;
        self.order_merges += after.order_merges - before.order_merges;
        self.epoch_conflicts += after.epoch_conflicts - before.epoch_conflicts;
    }

    pub fn report(&self, run: &mut Run) {
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let r = &mut run.report;
        r.set(
            "service.dirty_slots_per_publication",
            per(self.dirty_slots, self.publications),
        );
        r.set(
            "service.shard_repairs_per_publication",
            per(self.shard_repairs, self.publications),
        );
        r.set(
            "service.pool_draws_per_query",
            per(self.pool_draws, self.queries),
        );
        r.set(
            "service.shard_retrievals_per_query",
            per(self.retrievals, self.queries),
        );
        r.set("service.order_merges", per(self.order_merges, self.rounds));
        r.set("service.epoch_conflicts", self.epoch_conflicts as f64);
    }
}

/// Time one call in microseconds.
fn timed_us(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Layer samples of the traced rounds, probe rounds included.
#[derive(Default)]
struct Probes {
    mutate_us: Samples,
    publish_us: Samples,
    query_topk_us: Samples,
    query_full_us: Samples,
    order_merge_us: Samples,
    fanout_us: Samples,
}

pub fn run(run: &mut Run, shape: Shape) {
    let seed = run.config.seed;
    let (corpus, rounds) = generate(&shape, seed);
    let engine = RankPromotionEngine::recommended().with_version(shape.version);
    let k = shape.k;
    let mut results: Vec<Vec<u64>> = Vec::new();
    let mut full_results: Vec<Vec<u64>> = Vec::new();
    let mut one: Vec<u64> = Vec::new();

    let service = run.set_up(|| {
        let service = ShardedPromotionService::new(engine, shape.shards);
        service.extend(corpus.iter().copied());
        let loaded = Instant::now();
        // Warm: the first publication (and, for full reranks, the first
        // complete-order merge) happen here, not in the first timed round.
        service.rerank_batch_top_k_into(&rounds[0].topk[0], k, &mut results);
        if shape.full_batch > 0 {
            service.rerank_batch_into(&rounds[0].full, &mut full_results);
        }
        (service, loaded)
    });
    drop(corpus);

    let p = &mut run.report;
    p.provenance("n", shape.n);
    p.provenance("shards", shape.shards);
    p.provenance("workers", service.workers());
    p.provenance(
        "engine",
        format!("{:?} {:?}", shape.version, engine.config().rule),
    );

    let mut batch_ms = Samples::default();
    let mut full_ms = Samples::default();
    let mut mutation_us = Samples::default();
    let mut topk_queries = 0u64;
    let mut untraced_busy = Duration::ZERO;
    let mut probes = Probes::default();
    let mut delta = StatsDelta::default();

    let cpu = run.cpu_mark();
    let mut round = 0u64;
    let budget = run.budget();
    let mut spent = Duration::ZERO;
    while spent < budget {
        let r = round;
        round += 1;
        let traced = run.begin_round(r);
        let inputs = &rounds[(r % rounds.len() as u64) as usize];
        let probe = traced && r % shape.probe_every == 1;
        let before = service.serve_stats();
        let start = Instant::now();
        let root = run.tracer.begin(if probe { PROBE_ROUND } else { ROUND }, r);

        for &mutation in &inputs.mutations {
            let t0 = Instant::now();
            let span = run.tracer.begin("service.mutate", r);
            let ok = apply(&service, mutation);
            run.tracer.end(span);
            let d = t0.elapsed();
            run.report.op(ok);
            if traced {
                probes.mutate_us.push_duration_us(d);
            } else {
                mutation_us.push_duration_us(d);
            }
        }

        if probe {
            // Publication: the first query after the burst minus an
            // immediate clean re-ask of the same query.
            let ctx = inputs.topk[0][0];
            let first = timed_us(|| service.rerank_top_k_into(ctx, k, &mut one));
            let clean = timed_us(|| service.rerank_top_k_into(ctx, k, &mut one));
            probes.publish_us.push(first - clean);
            probes.query_topk_us.push(clean);
            run.report.ops_ok(2);
            if r % shape.full_probe_every == 1 {
                // The first full query after a publication pays the
                // lazy complete-order merge; the second is clean.
                let ctx = inputs.full.first().copied().unwrap_or(ctx);
                let first = timed_us(|| service.rerank_one_into(ctx, &mut one));
                let clean = timed_us(|| service.rerank_one_into(ctx, &mut one));
                probes.order_merge_us.push(first - clean);
                probes.query_full_us.push(clean);
                run.report.ops_ok(2);
            }
        }

        for ctxs in &inputs.topk {
            let t0 = Instant::now();
            let span = run.tracer.begin("service.batch_top_k", r);
            service.rerank_batch_top_k_into(ctxs, k, &mut results);
            run.tracer.end(span);
            if !traced {
                batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            run.report.ops_ok(ctxs.len() as u64);
        }
        if shape.full_batch > 0 {
            let t0 = Instant::now();
            let span = run.tracer.begin("service.batch_full", r);
            service.rerank_batch_into(&inputs.full, &mut full_results);
            run.tracer.end(span);
            if !traced {
                full_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            run.report.ops_ok(inputs.full.len() as u64);
        }

        if probe {
            // Fan-out: a batch on a clean version minus the same
            // queries answered one by one on the caller's thread.
            let ctxs = inputs.topk.last().expect("at least one top-k batch");
            let batch = timed_us(|| service.rerank_batch_top_k_into(ctxs, k, &mut results));
            let mut sequential = 0.0;
            for &ctx in ctxs {
                let q = timed_us(|| service.rerank_top_k_into(ctx, k, &mut one));
                probes.query_topk_us.push(q);
                sequential += q;
            }
            probes.fanout_us.push(batch - sequential);
            run.report.ops_ok(2 * ctxs.len() as u64);
        }

        run.tracer.end(root);
        let elapsed = start.elapsed();
        spent += elapsed;
        if !traced {
            untraced_busy += elapsed;
            topk_queries += (shape.topk_batches_per_round * shape.batch) as u64;
        }
        if !probe {
            run.round_done(elapsed);
            if traced {
                delta.add(&before, &service.serve_stats());
            }
        }
        if r.is_multiple_of(shape.check_every) {
            run.checking(|run| check(run, &service, engine, inputs, &results, &full_results, k));
        }
    }
    if !run.config.trace {
        run.set_cpu_per_op(cpu, topk_queries);
    }
    let last = &rounds[((round - 1) % rounds.len() as u64) as usize];
    check(run, &service, engine, last, &results, &full_results, k);

    let p = &mut run.report;
    if run.config.trace {
        p.set("service.mutate_us.p50", probes.mutate_us.median());
        p.set("service.mutate_us.p99", probes.mutate_us.percentile(99.0));
        p.set("service.publish_us.p50", probes.publish_us.median());
        p.set("service.publish_us.p99", probes.publish_us.percentile(99.0));
        p.set("service.query_topk_us.p50", probes.query_topk_us.median());
        p.set(
            "service.query_topk_us.p99",
            probes.query_topk_us.percentile(99.0),
        );
        p.set("service.query_full_us.p50", probes.query_full_us.median());
        p.set("service.order_merge_us", probes.order_merge_us.median());
        p.set("service.fanout_us", probes.fanout_us.median());
        delta.report(run);
        drop(service);
        scaling_probe(run, &shape, engine);
    } else {
        let queries_per_s = topk_queries as f64 / untraced_busy.as_secs_f64();
        p.set("batch_p50_ms", batch_ms.median());
        p.set("batch_p99_ms", batch_ms.percentile(99.0));
        p.set("batch_samples", batch_ms.count() as f64);
        p.set("queries_per_s", queries_per_s);
        if shape.full_batch > 0 {
            p.set("full_batch_p50_ms", full_ms.median());
        }
        p.set("mutation_p50_us", mutation_us.median());
        p.set("mutation_p99_us", mutation_us.percentile(99.0));
        p.set("op_p50_ms", batch_ms.median());
        p.set("op_p99_ms", batch_ms.percentile(99.0));
        p.set("op_samples", batch_ms.count() as f64);
    }
}

/// Sampled answers of the round must equal the single-engine reference
/// over the store's canonical snapshot.
fn check(
    run: &mut Run,
    service: &ShardedPromotionService,
    engine: RankPromotionEngine,
    inputs: &Round,
    results: &[Vec<u64>],
    full_results: &[Vec<u64>],
    k: usize,
) {
    let snapshot = service.store().snapshot();
    let ctxs = inputs.topk.last().expect("at least one top-k batch");
    for q in [0, ctxs.len() - 1] {
        let reference = engine.rerank_top_k(&snapshot, ctxs[q], k);
        run.report
            .check("serve_vs_reference", results[q] == reference);
    }
    if let Some(&ctx) = inputs.full.first() {
        let reference = engine.rerank(&snapshot, ctx);
        run.report
            .check("full_vs_reference", full_results[0] == reference);
    }
}

/// `service.publish_us.n*`: publication cost at a fixed number of dirty
/// slots across corpus sizes — flat across n is the `O(dirty)` target.
fn scaling_probe(run: &mut Run, shape: &Shape, engine: RankPromotionEngine) {
    let k = shape.k;
    let mut one = Vec::new();
    for &(n, name) in shape.scaling {
        let mut stream = Stream::new(run.config.seed, 10 + n as u64);
        let service = ShardedPromotionService::new(engine, shape.shards);
        service.extend(inputs::corpus(n, &mut stream));
        let ctx = inputs::contexts(1, &mut stream)[0];
        service.rerank_top_k_into(ctx, k, &mut one);
        let reps = if n >= 1_000_000 { 16 } else { 64 };
        let mut publish = Samples::default();
        for _ in 0..reps {
            for m in 0..SCALING_DIRTY {
                let seq = stream.below(n as u64);
                let ok = if m % 2 == 0 {
                    service.try_record_visit(seq).is_ok()
                } else {
                    let score = inputs::popularity_score(&mut stream);
                    service.try_update_popularity(seq, score).is_ok()
                };
                run.report.op(ok);
            }
            let first = timed_us(|| service.rerank_top_k_into(ctx, k, &mut one));
            let clean = timed_us(|| service.rerank_top_k_into(ctx, k, &mut one));
            publish.push(first - clean);
            run.report.ops_ok(2);
        }
        run.report.set(name, publish.median());
    }
}
