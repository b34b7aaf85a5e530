//! Metric names, units, and the lines a run prints.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics: what a caller or operator of the workload sees,
/// reported by every workload (untraced runs). `op` is the workload's own
/// unit of caller-visible work — see `README.md`. Tail latency and
/// wall-clock throughput are on the `detail` line instead: on a shared
/// two-processor host they move with neighbours' load by more than any
/// regression bound the benchmark could hold them to.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mb", "MB"),
];

/// The workload-specific end-to-end figures, each printed on the `detail`
/// line of the workloads that measure it.
pub const DETAIL: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("op_samples", "count"),
    ("cpu_us_per_op", "us"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("batch_samples", "count"),
    ("queries_per_s", "1/s"),
    ("full_batch_p50_ms", "ms"),
    ("mutation_p50_us", "us"),
    ("mutation_p99_us", "us"),
    ("mutations_per_s", "1/s"),
    ("durable_ack_p50_ms", "ms"),
    ("durable_ack_p99_ms", "ms"),
    ("replica_lag_p99_ms", "ms"),
    ("recovery_s", "s"),
    ("sim_days_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics (traced runs). Every workload prints every name; a
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.mutate_us.p50", "us"),
    ("service.mutate_us.p99", "us"),
    ("service.publish_us.p50", "us"),
    ("service.publish_us.p99", "us"),
    ("service.publish_us.n10k", "us"),
    ("service.publish_us.n100k", "us"),
    ("service.publish_us.n1m", "us"),
    ("service.query_topk_us.p50", "us"),
    ("service.query_topk_us.p99", "us"),
    ("service.query_full_us.p50", "us"),
    ("service.order_merge_us", "us"),
    ("service.fanout_us", "us"),
    ("service.dirty_slots_per_publication", "1/publication"),
    ("service.shard_repairs_per_publication", "1/publication"),
    ("service.pool_draws_per_query", "1/query"),
    ("service.shard_retrievals_per_query", "1/query"),
    ("service.order_merges", "1/round"),
    ("service.epoch_conflicts", "count"),
    ("durable.mutate_us.p50", "us"),
    ("durable.mutate_us.p99", "us"),
    ("durable.sync_us.p50", "us"),
    ("durable.sync_us.p99", "us"),
    ("durable.snapshot_ms", "ms"),
    ("durable.recovery_events_per_s", "1/s"),
    ("durable.recovery_events_replayed", "count"),
    ("durable.recovery_events_lost", "count"),
    ("durable.recovery_bytes_dropped", "B"),
    ("durable.recovery_snapshot_loaded", "count"),
    ("wal.append_us.p50", "us"),
    ("wal.append_us.p99", "us"),
    ("wal.sync_us.p50", "us"),
    ("wal.sync_us.p99", "us"),
    ("wal.bytes_per_event", "B/event"),
    ("wal.poll_us_per_event", "us/event"),
    ("replica.catch_up_us.p50", "us"),
    ("replica.catch_up_us.p99", "us"),
    ("replica.apply_us_per_event", "us/event"),
    ("replica.behind_by_events", "events"),
    ("replica.bootstrap_s", "s"),
    ("sim.day_us.p50", "us"),
    ("sim.day_us.p99", "us"),
    ("sim.retired_per_day", "1/day"),
    ("setup.load_s", "s"),
    ("setup.warm_s", "s"),
    ("trace.self_us_per_round.bench", "us/round"),
    ("trace.self_us_per_round.service", "us/round"),
    ("trace.self_us_per_round.durable", "us/round"),
    ("trace.self_us_per_round.replica", "us/round"),
    ("trace.self_us_per_round.sim", "us/round"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Pass/fail tallies of one kind of output check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckTally {
    pub ran: u64,
    pub failed: u64,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: BTreeMap<&'static str, CheckTally>,
    /// Statistical claims evaluated on the run's outputs, reported beside
    /// the checks but not counted as failed operations (see `README.md`).
    pub findings: BTreeMap<&'static str, CheckTally>,
    /// Measured values by metric name (end-to-end, detail and per-layer
    /// names share this map).
    pub values: BTreeMap<&'static str, f64>,
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    /// Count one operation of the workload.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record one output check; a mismatch is a failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        let tally = self.checks.entry(name).or_default();
        tally.ran += 1;
        if !ok {
            tally.failed += 1;
        }
        self.op(ok);
    }

    /// Record whether a statistical claim held on this run.
    pub fn finding(&mut self, name: &'static str, holds: bool) {
        let tally = self.findings.entry(name).or_default();
        tally.ran += 1;
        if !holds {
            tally.failed += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn provenance(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.values().all(|t| t.failed == 0)
    }

    /// The metric object over `table`: every name, measured or 0.
    pub fn metrics_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                number(value)
            )
            .expect("write to String");
        }
        out.push('}');
        out
    }

    /// The `detail` line: the workload-specific figures this run measured.
    pub fn detail_json(&self) -> String {
        let measured: Vec<(&str, &str)> = DETAIL
            .iter()
            .copied()
            .filter(|(name, _)| self.values.contains_key(name))
            .collect();
        self.metrics_json(&measured)
    }

    pub fn checks_json(&self) -> String {
        tallies_json(&self.checks)
    }

    pub fn findings_json(&self) -> String {
        tallies_json(&self.findings)
    }

    pub fn provenance_json(&self) -> String {
        let body: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!(r#""{k}": "{}""#, v.replace('"', "'")))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(table)
        )
    }
}

fn tallies_json(tallies: &BTreeMap<&'static str, CheckTally>) -> String {
    let body: Vec<String> = tallies
        .iter()
        .map(|(name, t)| format!(r#""{name}": {{"ran": {}, "failed": {}}}"#, t.ran, t.failed))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
