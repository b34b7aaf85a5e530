//! The rrp benchmark: four closed-loop workloads (one client thread each)
//! over the serving stack (`rrp-serve`, `rrp-wal`) and the simulator
//! (`rrp-sim`), timed from outside through the crates' public functions
//! and counters. See `README.md` for the workloads, their fixed input
//! properties and which layer metric should move which end-to-end metric.

pub mod durable;
pub mod inputs;
pub mod measure;
pub mod report;
pub mod serving;
pub mod sim;

use measure::{Samples, Tracer};
use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TopkChurnV2,
    ReadMostlyV1,
    DurableIngest,
    SimPaperDefault,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TopkChurnV2,
        Workload::ReadMostlyV1,
        Workload::DurableIngest,
        Workload::SimPaperDefault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkChurnV2 => "topk_churn_v2",
            Workload::ReadMostlyV1 => "read_mostly_v1",
            Workload::DurableIngest => "durable_ingest",
            Workload::SimPaperDefault => "sim_paper_default",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's own (`Full`) or the self-test's (`Tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// How many times set-up runs; `setup_s` is the median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Tiny => 1,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where the durable directory, the WAL probe and the span file go.
    pub work_dir: PathBuf,
}

/// The state a workload threads through its run.
pub struct Run {
    pub config: Config,
    pub tracer: Tracer,
    pub report: Report,
    /// Round durations with tracing off / on, for the tracing overhead.
    round_us: [Samples; 2],
    /// CPU seconds spent in output checks, kept out of `cpu_us_per_op`.
    cpu_in_checks: f64,
}

impl Run {
    fn new(config: Config) -> Self {
        Run {
            tracer: Tracer::new(false),
            report: Report::default(),
            round_us: Default::default(),
            cpu_in_checks: 0.0,
            config,
        }
    }

    /// How long the timed loop runs: whole rounds until this much round
    /// time has passed.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.config.seconds)
    }

    /// Start round `r` and say whether it is traced. A traced run traces
    /// every second round, so traced and untraced rounds interleave on the
    /// same state and under the same host load, and the difference of
    /// their medians is the tracing overhead.
    pub fn begin_round(&mut self, r: u64) -> bool {
        let traced = self.config.trace && r % 2 == 1;
        self.tracer.set_enabled(traced);
        traced
    }

    /// Record one ordinary (non-probe) round's duration.
    pub fn round_done(&mut self, elapsed: Duration) {
        self.round_us[usize::from(self.tracer.enabled())].push_duration_us(elapsed);
    }

    /// Shared per-layer figures of a traced run: self time per layer per
    /// ordinary round, tracing overhead, span count.
    fn finish_trace(&mut self) {
        if !self.config.trace {
            return;
        }
        let rounds = self.tracer.root_count(ROUND).max(1) as f64;
        for (layer, ns) in self.tracer.self_ns_by_layer(ROUND) {
            let name = match layer {
                "bench" => "trace.self_us_per_round.bench",
                "service" => "trace.self_us_per_round.service",
                "durable" => "trace.self_us_per_round.durable",
                "replica" => "trace.self_us_per_round.replica",
                "sim" => "trace.self_us_per_round.sim",
                _ => continue,
            };
            self.report.set(name, ns as f64 / 1e3 / rounds);
        }
        let [untraced, traced] = &mut self.round_us;
        let overhead = (traced.median() / untraced.median() - 1.0) * 100.0;
        self.report.set("trace.overhead_pct", overhead);
        self.report
            .set("trace.spans", self.tracer.span_count() as f64);
        let path = self.config.work_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            self.config.workload.name(),
            self.config.seed
        ));
        if let Err(e) = self.tracer.write_jsonl(&path) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }

    /// Run output checks off the CPU clock of the timed loop.
    pub fn checking<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = measure::cpu_seconds();
        let out = f(self);
        self.cpu_in_checks += measure::cpu_seconds() - start;
        out
    }

    /// A CPU clock over the timed loop: read it before the loop, then pass
    /// the reading and the loop's operation count to [`Run::set_cpu_per_op`].
    pub fn cpu_mark(&self) -> (f64, f64) {
        (measure::cpu_seconds(), self.cpu_in_checks)
    }

    /// `cpu_us_per_op`: CPU time of the loop since `mark`, checks excluded,
    /// per operation.
    pub fn set_cpu_per_op(&mut self, mark: (f64, f64), ops: u64) {
        let cpu = measure::cpu_seconds() - mark.0 - (self.cpu_in_checks - mark.1);
        self.report
            .set("cpu_us_per_op", cpu * 1e6 / ops.max(1) as f64);
    }

    /// Run set-up `setup_repeats` times, freeing each result before the
    /// next so peak memory holds one copy, and record the medians of the
    /// load, warm and total times. `build` returns its state and the
    /// instant loading ended (warming runs from there to its return).
    pub fn set_up<T>(&mut self, mut build: impl FnMut() -> (T, Instant)) -> T {
        let (mut load, mut warm, mut total) =
            (Samples::default(), Samples::default(), Samples::default());
        let mut state = None;
        for _ in 0..self.config.scale.setup_repeats() {
            drop(state.take());
            let start = Instant::now();
            let (value, loaded) = build();
            let end = Instant::now();
            load.push((loaded - start).as_secs_f64());
            warm.push((end - loaded).as_secs_f64());
            total.push((end - start).as_secs_f64());
            state = Some(value);
        }
        self.report.set("setup_s", total.median());
        self.report.set("setup.load_s", load.median());
        self.report.set("setup.warm_s", warm.median());
        state.expect("set-up runs at least once")
    }
}

/// Name of the root span of an ordinary workload round.
pub const ROUND: &str = "bench.round";
/// Name of the root span of a probe round (excluded from self time and
/// overhead: it runs extra calls to isolate one layer).
pub const PROBE_ROUND: &str = "bench.probe_round";

/// Run one workload and return its report.
pub fn run(config: Config) -> Report {
    std::fs::create_dir_all(&config.work_dir).expect("create the benchmark work directory");
    let mut run = Run::new(config);
    let p = &mut run.report;
    p.provenance("workload", run.config.workload.name());
    p.provenance("seed", run.config.seed);
    p.provenance("trace", if run.config.trace { "on" } else { "off" });
    p.provenance("seconds", run.config.seconds);
    p.provenance("nproc", rrp_serve::available_workers());
    p.provenance("git_commit", measure::git_commit());
    let scale = run.config.scale;
    match run.config.workload {
        Workload::TopkChurnV2 => serving::run(&mut run, serving::Shape::topk_churn_v2(scale)),
        Workload::ReadMostlyV1 => serving::run(&mut run, serving::Shape::read_mostly_v1(scale)),
        Workload::DurableIngest => durable::run(&mut run),
        Workload::SimPaperDefault => sim::run(&mut run),
    }
    run.finish_trace();
    let rss = measure::rss_peak_mb();
    run.report.set("rss_peak_mb", rss);
    run.report
}
