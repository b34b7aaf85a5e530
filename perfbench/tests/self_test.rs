//! The benchmark's own small-size self-test: every workload at tiny n, untraced
//! and traced. Every metric `BENCHMARK.json` names must be emitted with its
//! unit, every end-to-end metric must be measured (never 0), and every output
//! check of the workload must have run and passed.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, Scale, Workload};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric under `key` in BENCHMARK.json.
fn declared(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_seq)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| match m.get(f) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("metric field {f}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn as_owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn the_metric_tables_match_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(declared(&bench, "end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), as_owned(PER_LAYER));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("a workload list")
        .iter()
        .map(|w| match w.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("workload name: {other:?}"),
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

fn expected_checks(workload: Workload, traced: bool) -> Vec<&'static str> {
    match workload {
        Workload::TopkChurnV2 => vec!["serve_vs_reference"],
        Workload::ReadMostlyV1 => vec!["full_vs_reference", "serve_vs_reference"],
        Workload::DurableIngest if traced => vec![
            "recovery_same_answers",
            "replica_vs_leader",
            "serve_vs_reference",
            "wal_probe_read_back",
        ],
        Workload::DurableIngest => vec![
            "recovery_same_answers",
            "replica_vs_leader",
            "serve_vs_reference",
        ],
        Workload::SimPaperDefault => vec!["sim_qpc_repeats"],
    }
}

#[test]
fn every_workload_emits_every_metric_and_runs_every_check() {
    let work_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-self-test");
    for workload in Workload::ALL {
        for traced in [false, true] {
            let report = run(Config {
                workload,
                seed: 7,
                seconds: 0.4,
                trace: traced,
                scale: Scale::Tiny,
                work_dir: work_dir.clone(),
            });
            let what = format!("{} (traced: {traced})", workload.name());

            assert!(report.correct(), "{what}: {}", report.checks_json());
            assert_eq!(report.failed, 0, "{what}");
            assert!(report.attempted > 0, "{what}");
            let checks: Vec<&str> = report.checks.keys().copied().collect();
            assert_eq!(checks, expected_checks(workload, traced), "{what}");
            assert!(report.checks.values().all(|t| t.ran > 0), "{what}");
            if workload == Workload::SimPaperDefault {
                assert_eq!(report.findings["sim_promotion_beats_popularity"].ran, 1);
            }

            // The result line names every metric of its table, with its unit.
            let line: Value =
                serde_json::from_str(&report.result_json(traced)).expect("result line parses");
            let table = if traced { PER_LAYER } else { END_TO_END };
            let metrics = line
                .get("metrics")
                .and_then(Value::as_map)
                .expect("metrics");
            assert_eq!(metrics.len(), table.len(), "{what}");
            for ((name, metric), (want_name, want_unit)) in metrics.iter().zip(table) {
                assert_eq!(name, want_name, "{what}");
                assert_eq!(metric.get("unit"), Some(&Value::Str(want_unit.to_string())));
                assert!(
                    metric.get("value").and_then(Value::as_f64).is_some(),
                    "{what}: {name}"
                );
            }
            if !traced {
                for (name, _) in END_TO_END {
                    let value = report.values.get(name).copied().unwrap_or(0.0);
                    assert!(value > 0.0, "{what}: {name} = {value}");
                }
            }
        }
    }
}
