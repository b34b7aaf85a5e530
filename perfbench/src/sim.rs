//! `sim_paper_default`: the day loop of `rrp_sim::Simulation` on the
//! paper's default community under the recommended promotion recipe,
//! checked against a popularity-only twin.

use crate::measure::Samples;
use crate::{Run, Scale, ROUND};
use rrp_model::CommunityConfig;
use rrp_ranking::{PolicyKind, PopularityRanking, RandomizedRankPromotion};
use rrp_sim::{SimConfig, SimMetrics, Simulation};
use std::time::{Duration, Instant};

fn community(scale: Scale) -> CommunityConfig {
    match scale {
        Scale::Full => CommunityConfig::paper_default(),
        Scale::Tiny => CommunityConfig::builder()
            .pages(200)
            .users(100)
            .monitored_users(20)
            .total_visits_per_day(100.0)
            .expected_lifetime_days(30.0)
            .build()
            .expect("a valid tiny community"),
    }
}

fn promoted() -> PolicyKind {
    RandomizedRankPromotion::recommended(1).into()
}

fn simulation(config: SimConfig, policy: PolicyKind) -> Simulation {
    Simulation::new(config, policy).expect("a valid simulation config")
}

/// Warm up, measure the recommended window, return the window's metrics.
fn window(config: SimConfig, policy: PolicyKind) -> SimMetrics {
    simulation(config, policy).run_standard()
}

fn same_bits(a: &SimMetrics, b: &SimMetrics) -> bool {
    a.days_measured == b.days_measured
        && a.absolute_qpc.to_bits() == b.absolute_qpc.to_bits()
        && a.normalized_qpc.to_bits() == b.normalized_qpc.to_bits()
        && a.mean_zero_awareness_fraction.to_bits() == b.mean_zero_awareness_fraction.to_bits()
}

pub fn run(run: &mut Run) {
    let config = SimConfig::for_community(community(run.config.scale), run.config.seed);
    let warmup = config.recommended_warmup_days();
    let measure = config.recommended_measure_days();

    let mut sim = run.set_up(|| {
        let mut sim = simulation(config, promoted());
        let loaded = Instant::now();
        sim.run(warmup);
        (sim, loaded)
    });
    let p = &mut run.report;
    p.provenance("n", config.community.pages());
    p.provenance("users", config.community.users());
    p.provenance("monitored_users", config.community.monitored_users());
    p.provenance("policy", sim.policy_name());
    p.provenance("warmup_days", warmup);
    p.provenance("window_days", measure);
    p.provenance("workers", 1);

    sim.start_measurement();
    let mut day_us = Samples::default();
    let mut traced_day_us = Samples::default();
    let mut untraced_days = 0u64;
    let mut untraced_busy = Duration::ZERO;
    let mut traced_days = 0u64;
    let mut retired = 0u64;
    let mut measured: Option<SimMetrics> = None;
    let cpu = run.cpu_mark();
    let mut day = 0u64;
    let budget = run.budget();
    let mut spent = Duration::ZERO;
    while spent < budget {
        let traced = run.begin_round(day);
        let retired_before = sim.population().retired_count();
        let start = Instant::now();
        let root = run.tracer.begin(ROUND, day);
        let span = run.tracer.begin("sim.run_day", day);
        sim.run_day();
        run.tracer.end(span);
        run.tracer.end(root);
        let elapsed = start.elapsed();
        spent += elapsed;
        run.round_done(elapsed);
        run.report.ops_ok(1);
        day += 1;
        if traced {
            traced_day_us.push_duration_us(elapsed);
            traced_days += 1;
            retired += sim.population().retired_count() - retired_before;
        } else {
            day_us.push_duration_us(elapsed);
            untraced_days += 1;
            untraced_busy += elapsed;
        }
        if day == measure {
            measured = Some(sim.metrics());
        }
    }
    if !run.config.trace {
        run.set_cpu_per_op(cpu, untraced_days);
    }
    // A run too short to finish the window finishes it untimed.
    while day < measure {
        sim.run_day();
        day += 1;
        if day == measure {
            measured = Some(sim.metrics());
        }
    }
    let measured = measured.expect("the measured window completed");

    // The day loop must repeat bit for bit at this seed…
    let again = window(config, promoted());
    run.report
        .check("sim_qpc_repeats", same_bits(&measured, &again));
    // The paper's headline: promotion beats the popularity-only twin over
    // the same window. One window of one community is dominated by whether
    // popularity ranking happens to entrench a top-quality page, so this is
    // a finding reported per run, not a failed operation.
    let twin = window(config, PopularityRanking.into());
    run.report.finding(
        "sim_promotion_beats_popularity",
        measured.normalized_qpc > twin.normalized_qpc,
    );
    let p = &mut run.report;
    p.provenance("promoted_normalized_qpc", measured.normalized_qpc);
    p.provenance("popularity_normalized_qpc", twin.normalized_qpc);

    if run.config.trace {
        p.set("sim.day_us.p50", traced_day_us.median());
        p.set("sim.day_us.p99", traced_day_us.percentile(99.0));
        p.set(
            "sim.retired_per_day",
            retired as f64 / traced_days.max(1) as f64,
        );
    } else {
        let days_per_s = untraced_days as f64 / untraced_busy.as_secs_f64();
        p.set("sim_days_per_s", days_per_s);
        p.set("op_p50_ms", day_us.median() / 1e3);
        p.set("op_p99_ms", day_us.percentile(99.0) / 1e3);
        p.set("op_samples", day_us.count() as f64);
    }
}
