//! `durable_ingest`: a `DurableService` leader streaming mutations through
//! its write-ahead log, one `ReplicaService` tailing it from the same
//! thread, and a recovery at the end.

use crate::inputs::{self, Mutation, Stream, Zipf};
use crate::measure::{self, Samples};
use crate::serving::StatsDelta;
use crate::{Run, Scale, ROUND};
use rrp_core::{Document, EngineVersion, QueryContext, RankPromotionEngine};
use rrp_serve::{DurableService, ReplicaService};
use rrp_wal::{
    create_log_file, FileSink, WalEvent, WalPoll, WalTailReader, WalWriter, WAL_HEADER_LEN,
};
use std::time::{Duration, Instant};

/// The fixed input properties of `durable_ingest`.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Pages loaded (and snapshotted) during set-up.
    pub n: usize,
    pub shards: usize,
    pub k: usize,
    pub batch: usize,
    /// Mutations between `sync_for_followers` calls (the group commit).
    pub group: usize,
    /// One replica top-k batch every this many syncs.
    pub read_every_syncs: u64,
    /// Mutations between the leader's automatic snapshots.
    pub snapshot_every: u64,
    /// Share of mutations that insert a new unexplored page.
    pub insert_share: f64,
    /// Zipf exponent of visit and popularity targets.
    pub zipf: f64,
    /// Mutations generated up front; the stream cycles through them.
    pub stream_len: usize,
    /// Output checks after every this many syncs.
    pub check_every_syncs: u64,
    /// Events replayed through a bare WAL writer in the traced run.
    pub wal_probe_events: usize,
    /// Mutations applied after the timed loop, replayed by recovery.
    pub recovery_tail: usize,
    pub recovery_repeats: usize,
}

impl Shape {
    pub fn new(scale: Scale) -> Self {
        let tiny = scale == Scale::Tiny;
        Shape {
            n: if tiny { 1_000 } else { 50_000 },
            shards: 8,
            k: 10,
            batch: 64,
            group: 64,
            read_every_syncs: 16,
            snapshot_every: if tiny { 256 } else { 16_384 },
            insert_share: 0.25,
            zipf: 1.0,
            stream_len: if tiny { 1_024 } else { 1 << 16 },
            check_every_syncs: if tiny { 4 } else { 256 },
            wal_probe_events: if tiny { 1_024 } else { 1 << 16 },
            recovery_tail: if tiny { 128 } else { 8_192 },
            recovery_repeats: if tiny { 1 } else { 3 },
        }
    }
}

/// Layer samples of the traced rounds.
#[derive(Default)]
struct Layers {
    mutate_us: Samples,
    sync_us: Samples,
    snapshot_ms: Samples,
    catch_up_us: Samples,
    behind_by: Samples,
    applied_events: u64,
    catch_up_total_us: f64,
}

pub fn run(run: &mut Run) {
    let shape = Shape::new(run.config.scale);
    let seed = run.config.seed;
    let corpus = inputs::corpus(shape.n, &mut Stream::new(seed, 1));
    let zipf = Zipf::new(shape.n, shape.zipf, &mut Stream::new(seed, 2));
    let mut stream = Stream::new(seed, 3);
    let mutations: Vec<Mutation> = (0..shape.stream_len)
        .map(|_| {
            if stream.unit() < shape.insert_share {
                Mutation::Insert
            } else if stream.below(2) == 0 {
                Mutation::Visit(zipf.sample(&mut stream))
            } else {
                let seq = zipf.sample(&mut stream);
                Mutation::Popularity(seq, inputs::popularity_score(&mut stream))
            }
        })
        .collect();
    let batches: Vec<Vec<QueryContext>> = (0..16)
        .map(|_| inputs::contexts(shape.batch, &mut stream))
        .collect();

    let engine = RankPromotionEngine::recommended().with_version(EngineVersion::V2);
    let dir = run.config.work_dir.join("durable");
    let k = shape.k;
    let mut results: Vec<Vec<u64>> = Vec::new();
    let mut bootstrap_s = Samples::default();

    let (mut leader, mut replica) = run.set_up(|| {
        let _ = std::fs::remove_dir_all(&dir);
        let (leader, _) =
            DurableService::open(&dir, engine, shape.shards).expect("open the durable directory");
        let mut leader = leader.with_snapshot_every(u64::MAX);
        leader
            .extend(corpus.iter().copied())
            .expect("load the corpus through the log");
        leader.snapshot_now().expect("snapshot the loaded corpus");
        let leader = leader.with_snapshot_every(shape.snapshot_every);
        let loaded = Instant::now();
        let mut replica =
            ReplicaService::open(&dir, engine, shape.shards).expect("bootstrap the replica");
        bootstrap_s.push(loaded.elapsed().as_secs_f64());
        replica.catch_up().expect("replica catch-up");
        replica.rerank_batch_top_k_into(&batches[0], k, &mut results);
        ((leader, replica), loaded)
    });
    drop(corpus);

    let p = &mut run.report;
    p.provenance("n", shape.n);
    p.provenance("shards", shape.shards);
    p.provenance("workers", leader.service().workers());
    p.provenance(
        "engine",
        format!("{:?} {:?}", engine.version(), engine.config().rule),
    );
    p.provenance("durable_fs", measure::filesystem_of(&dir));
    p.provenance("sync_every_mutations", shape.group);
    p.provenance("snapshot_every_mutations", shape.snapshot_every);

    let mut mutation_us = Samples::default();
    let mut ack_ms = Samples::default();
    let mut lag_ms = Samples::default();
    let mut batch_ms = Samples::default();
    let mut untraced_mutations = 0u64;
    let mut untraced_busy = Duration::ZERO;
    let mut layers = Layers::default();
    let mut delta = StatsDelta::default();

    let mut called = vec![Instant::now(); shape.group];
    let mut acked = vec![Instant::now(); shape.group];
    let mut cursor = 0usize;
    let mut next_id = shape.n as u64;
    let cpu = run.cpu_mark();
    let mut round = 0u64;
    let budget = run.budget();
    let mut spent = Duration::ZERO;
    let mut snapshots = leader.serve_stats().snapshots_written;
    // Measure whole snapshot cycles: past the budget, run on to the
    // next automatic snapshot, so every run pays the same share of
    // snapshot encoding per mutation.
    while spent < budget || leader.serve_stats().snapshots_written == snapshots {
        if spent < budget {
            snapshots = leader.serve_stats().snapshots_written;
        }
        let r = round;
        round += 1;
        let traced = run.begin_round(r);
        let start = Instant::now();
        let root = run.tracer.begin(ROUND, r);
        for i in 0..shape.group {
            let mutation = mutations[cursor % mutations.len()];
            cursor += 1;
            let snapshots_before = traced.then(|| leader.serve_stats().snapshots_written);
            called[i] = Instant::now();
            let span = run.tracer.begin(call_name(mutation), r);
            let ok = apply(&mut leader, mutation, &mut next_id);
            run.tracer.end(span);
            acked[i] = Instant::now();
            run.report.op(ok);
            let took = acked[i] - called[i];
            if traced {
                layers.mutate_us.push_duration_us(took);
                if snapshots_before != Some(leader.serve_stats().snapshots_written) {
                    layers.snapshot_ms.push(took.as_secs_f64() * 1e3);
                }
            } else {
                mutation_us.push_duration_us(took);
            }
        }

        let span = run.tracer.begin("durable.sync", r);
        let sync_start = Instant::now();
        let mark = leader.sync_for_followers();
        let synced = Instant::now();
        run.tracer.end(span);
        run.report.op(mark.is_ok());

        let replica_before = replica.serve_stats();
        let applied_before = replica.stats().last_applied_seq.map_or(0, |s| s + 1);
        let span = run.tracer.begin("replica.catch_up", r);
        let applied = replica.catch_up();
        let caught = Instant::now();
        run.tracer.end(span);
        run.report.op(applied.is_ok());

        let read = r % shape.read_every_syncs == shape.read_every_syncs - 1;
        if read {
            let ctxs = &batches[(r / shape.read_every_syncs) as usize % batches.len()];
            let t0 = Instant::now();
            let span = run.tracer.begin("replica.batch_top_k", r);
            replica.rerank_batch_top_k_into(ctxs, k, &mut results);
            run.tracer.end(span);
            if !traced {
                batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            run.report.ops_ok(ctxs.len() as u64);
        }
        run.tracer.end(root);
        let elapsed = start.elapsed();
        spent += elapsed;
        if !read {
            // Read rounds fall on traced rounds only, so they stay out of
            // the overhead comparison.
            run.round_done(elapsed);
        }

        if traced {
            layers.sync_us.push_duration_us(synced - sync_start);
            let catch_up = caught - synced;
            layers.catch_up_us.push_duration_us(catch_up);
            layers.catch_up_total_us += catch_up.as_secs_f64() * 1e6;
            layers.applied_events += applied.as_ref().map_or(0, |&n| n);
            if let Ok(mark) = mark {
                layers
                    .behind_by
                    .push(mark.saturating_sub(applied_before) as f64);
            }
            if read {
                delta.add(&replica_before, &replica.serve_stats());
            }
        } else {
            untraced_busy += elapsed;
            untraced_mutations += shape.group as u64;
            for i in 0..shape.group {
                ack_ms.push((synced - called[i]).as_secs_f64() * 1e3);
                lag_ms.push((caught - acked[i]).as_secs_f64() * 1e3);
            }
        }
        if r.is_multiple_of(shape.check_every_syncs) {
            run.checking(|run| check_replica(run, &leader, &replica, engine, &batches[1], k));
        }
    }
    if !run.config.trace {
        run.set_cpu_per_op(cpu, untraced_mutations);
    }
    check_replica(run, &leader, &replica, engine, &batches[1], k);

    // Recovery: a fixed tail past the last snapshot, then drop the leader,
    // reopen the directory (snapshot load plus tail replay), answer again.
    for i in 0..shape.recovery_tail {
        let ok = apply(
            &mut leader,
            mutations[(cursor + i) % mutations.len()],
            &mut next_id,
        );
        run.report.op(ok);
    }
    run.report.op(leader.sync_for_followers().is_ok());
    let probe_ctxs = &batches[2][..8.min(batches[2].len())];
    let before: Vec<Vec<u64>> = probe_ctxs
        .iter()
        .map(|&ctx| leader.rerank_top_k(ctx, k))
        .collect();
    let before_full = leader.rerank_one(probe_ctxs[0]);
    drop(replica);
    drop(leader);
    let mut recovery_s = Samples::default();
    let mut recovered = None;
    for _ in 0..shape.recovery_repeats {
        drop(recovered.take());
        let start = Instant::now();
        let reopened = DurableService::open(&dir, engine, shape.shards);
        recovery_s.push(start.elapsed().as_secs_f64());
        run.report.op(reopened.is_ok());
        recovered = reopened.ok();
    }
    let recovery = recovery_s.median();
    match &recovered {
        Some((reopened, report)) => {
            for (ctx, answer) in probe_ctxs.iter().zip(&before) {
                let again = reopened.rerank_top_k(*ctx, k);
                run.report.check("recovery_same_answers", &again == answer);
            }
            let again = reopened.rerank_one(probe_ctxs[0]);
            run.report
                .check("recovery_same_answers", again == before_full);
            let p = &mut run.report;
            p.set(
                "durable.recovery_events_replayed",
                report.events_replayed as f64,
            );
            p.set("durable.recovery_events_lost", report.events_lost as f64);
            p.set(
                "durable.recovery_bytes_dropped",
                report.bytes_dropped as f64,
            );
            p.set(
                "durable.recovery_snapshot_loaded",
                f64::from(u8::from(report.snapshot_loaded)),
            );
            p.set(
                "durable.recovery_events_per_s",
                report.events_replayed as f64 / recovery,
            );
        }
        None => run.report.check("recovery_same_answers", false),
    }
    drop(recovered);

    let p = &mut run.report;
    p.set("replica.bootstrap_s", bootstrap_s.median());
    if run.config.trace {
        p.set("durable.mutate_us.p50", layers.mutate_us.median());
        p.set("durable.mutate_us.p99", layers.mutate_us.percentile(99.0));
        p.set("durable.sync_us.p50", layers.sync_us.median());
        p.set("durable.sync_us.p99", layers.sync_us.percentile(99.0));
        p.set("durable.snapshot_ms", layers.snapshot_ms.median());
        p.set("replica.catch_up_us.p50", layers.catch_up_us.median());
        p.set(
            "replica.catch_up_us.p99",
            layers.catch_up_us.percentile(99.0),
        );
        p.set(
            "replica.apply_us_per_event",
            layers.catch_up_total_us / layers.applied_events.max(1) as f64,
        );
        p.set("replica.behind_by_events", layers.behind_by.mean());
        delta.report(run);
        let events = shape.wal_probe_events.min(cursor);
        wal_probe(run, &mutations, events, shape.group, shape.n as u64);
    } else {
        let mutations_per_s = untraced_mutations as f64 / untraced_busy.as_secs_f64();
        p.set("mutation_p50_us", mutation_us.median());
        p.set("mutation_p99_us", mutation_us.percentile(99.0));
        p.set("mutations_per_s", mutations_per_s);
        p.set("durable_ack_p50_ms", ack_ms.median());
        p.set("durable_ack_p99_ms", ack_ms.percentile(99.0));
        p.set("replica_lag_p99_ms", lag_ms.percentile(99.0));
        p.set("batch_p50_ms", batch_ms.median());
        p.set("batch_p99_ms", batch_ms.percentile(99.0));
        p.set("batch_samples", batch_ms.count() as f64);
        p.set("recovery_s", recovery);
        // `op` is the acknowledged mutation call. The durable
        // acknowledgement (`durable_ack_*`) waits on the device's flush, whose
        // latency here follows other tenants' I/O more than this program.
        p.set("op_p50_ms", mutation_us.median() / 1e3);
        p.set("op_p99_ms", mutation_us.percentile(99.0) / 1e3);
        p.set("op_samples", mutation_us.count() as f64);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Apply one stream entry to the leader; an insert takes the next fresh id.
fn apply(leader: &mut DurableService, mutation: Mutation, next_id: &mut u64) -> bool {
    match mutation {
        Mutation::Insert => {
            *next_id += 1;
            leader.insert(Document::unexplored(*next_id - 1)).is_ok()
        }
        Mutation::Visit(seq) => leader.record_visit(seq).is_ok(),
        Mutation::Popularity(seq, score) => leader.update_popularity(seq, score).is_ok(),
    }
}

/// The span name of the `DurableService` call a stream entry makes.
fn call_name(mutation: Mutation) -> &'static str {
    match mutation {
        Mutation::Insert => "durable.insert",
        Mutation::Visit(_) => "durable.record_visit",
        Mutation::Popularity(..) => "durable.update_popularity",
    }
}

/// At a sync mark the caught-up replica must answer exactly as the leader,
/// and the leader exactly as the single-engine reference.
fn check_replica(
    run: &mut Run,
    leader: &DurableService,
    replica: &ReplicaService,
    engine: RankPromotionEngine,
    ctxs: &[QueryContext],
    k: usize,
) {
    for &ctx in [ctxs[0], ctxs[ctxs.len() - 1]].iter() {
        let from_leader = leader.rerank_top_k(ctx, k);
        run.report.check(
            "replica_vs_leader",
            replica.rerank_top_k(ctx, k) == from_leader,
        );
    }
    let snapshot = leader.store().snapshot();
    let reference = engine.rerank_top_k(&snapshot, ctxs[0], k);
    run.report.check(
        "serve_vs_reference",
        leader.rerank_top_k(ctxs[0], k) == reference,
    );
}

/// `wal.*`: the generated event stream replayed through a bare writer on a
/// file sink (synced every `group` events), then read back by a tail reader.
fn wal_probe(run: &mut Run, mutations: &[Mutation], events: usize, group: usize, first_id: u64) {
    let path = run.config.work_dir.join("wal-probe.log");
    let result = (|| -> Result<(), rrp_wal::WalError> {
        let file = create_log_file(&path)?;
        let mut writer = WalWriter::new(Box::new(FileSink::new(file)), 0);
        let (mut append_us, mut sync_us) = (Samples::default(), Samples::default());
        let mut next_id = first_id;
        for i in 0..events {
            let event = match mutations[i % mutations.len()] {
                Mutation::Insert => {
                    next_id += 1;
                    WalEvent::Insert(Document::unexplored(next_id - 1))
                }
                Mutation::Visit(seq) => WalEvent::Visit { seq },
                Mutation::Popularity(seq, popularity) => {
                    WalEvent::SetPopularity { seq, popularity }
                }
            };
            let start = Instant::now();
            writer.append(&event)?;
            append_us.push_duration_us(start.elapsed());
            if (i + 1) % group == 0 {
                let start = Instant::now();
                writer.sync()?;
                sync_us.push_duration_us(start.elapsed());
            }
        }
        drop(writer);
        let bytes = std::fs::metadata(&path)?.len() - WAL_HEADER_LEN;
        let mut tail = WalTailReader::open(&path)?;
        let start = Instant::now();
        let mut read = 0u64;
        while let WalPoll::Event { .. } = tail.poll_next_event()? {
            read += 1;
        }
        let poll = start.elapsed();
        let p = &mut run.report;
        p.set("wal.append_us.p50", append_us.median());
        p.set("wal.append_us.p99", append_us.percentile(99.0));
        p.set("wal.sync_us.p50", sync_us.median());
        p.set("wal.sync_us.p99", sync_us.percentile(99.0));
        p.set("wal.bytes_per_event", bytes as f64 / events.max(1) as f64);
        p.set(
            "wal.poll_us_per_event",
            poll.as_secs_f64() * 1e6 / read.max(1) as f64,
        );
        p.check("wal_probe_read_back", read == events as u64);
        Ok(())
    })();
    if result.is_err() {
        run.report.check("wal_probe_read_back", false);
    }
    let _ = std::fs::remove_file(&path);
}
