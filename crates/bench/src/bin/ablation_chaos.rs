//! **Ablation** — elastic re-expansion after a transient device outage.
//!
//! Serves the same generation workload with 4-way Liger under three fault
//! scenarios:
//!
//! * **healthy** — no faults; the throughput and output baseline;
//! * **degraded** — one device lost permanently early in the trace; the
//!   engine drains, replans 4 → 3 and serves the rest on degraded capacity;
//! * **outage + rejoin** — the same device goes down for a bounded window
//!   and comes back; the watchdog confirms the rejoin through quarantine
//!   and the engine re-expands 3 → 4.
//!
//! Three properties are asserted, not just printed:
//!
//! * **accounting** — every job either completes or is shed with a
//!   recorded reason, in every scenario;
//! * **output integrity** — each job completed under faults produces the
//!   exact token stream of the healthy run; faults may slow or shed work,
//!   never corrupt it;
//! * **recovered capacity** — the rejoin run sustains at least 80% of the
//!   healthy token throughput (and at least the permanently-degraded
//!   run's), demonstrating that re-expansion actually restores the world
//!   rather than serving out the trace at 3-way capacity.
//!
//! Flags: `--jobs N` (default 96), `--smoke` (small fixed trace, exercises
//! the accounting/output/rejoin gates only — used by CI).

use liger_bench::{arg_flag, arg_parse, Node, Table};
use liger_core::{LigerConfig, LigerEngine};
use liger_gpu_sim::{DeviceId, FaultSpec, SimDuration, SimTime};
use liger_model::ModelConfig;
use liger_serving::{
    serve_continuous, ContinuousReport, GenerationJob, HealthConfig, PrefixTag, SchedulerConfig,
};

fn model() -> ModelConfig {
    ModelConfig::opt_30b().with_layers(4)
}

/// Watchdog sized for the Liger engine: probes share a hardware queue with
/// the secondary stream (connections = 2), so the bound must absorb normal
/// kernel queueing without false positives (the recovery tier's sizing).
fn config(world: u32) -> SchedulerConfig {
    let mut c = SchedulerConfig::sized_for(&model(), world, Node::V100.device().mem_capacity);
    c.health = Some(HealthConfig {
        interval: SimDuration::from_millis(1),
        suspicion_threshold: 3,
        probe_stream: 3,
        ..HealthConfig::default()
    });
    c
}

fn jobs(n: u64, rate: f64) -> Vec<GenerationJob> {
    (0..n)
        .map(|i| GenerationJob {
            id: i,
            batch: 2,
            prompt_len: 48 + 16 * (i % 3) as u32,
            output_tokens: if i % 4 == 0 { 12 } else { 3 + (i % 3) as u32 },
            arrival: SimTime::from_secs_f64(i as f64 / rate),
            prefix: PrefixTag::NONE,
        })
        .collect()
}

fn run(world: usize, jobs: Vec<GenerationJob>, faults: Option<FaultSpec>) -> ContinuousReport {
    let node = Node::V100;
    let mut sim = node.simulation_with_faults(world, false, faults);
    let mut engine = LigerEngine::new(
        model(),
        node.cost_model(),
        world,
        LigerConfig::default().with_contention_factor(node.contention_factor()),
    )
    .expect("the ablation preset is a valid Liger configuration");
    serve_continuous(
        &mut sim,
        &mut engine,
        jobs,
        &model(),
        &node.cost_model(),
        config(world as u32),
    )
}

fn main() {
    let smoke = arg_flag("smoke");
    let n: u64 = if smoke { 16 } else { arg_parse("jobs", 96) };
    let world = 4;
    let rate = 250.0;
    // The outage is anchored early so the re-expanded world serves most of
    // the trace; the permanent loss lands at the same instant.
    let t_loss = SimTime::from_millis(20);
    let t_back = SimTime::from_millis(50);

    println!("Ablation: transient outage and re-expansion — OPT-30B@4L, V100 node, 4-way");
    println!("(device 3 down at {t_loss}; rejoin at {t_back}; {n} jobs at {rate:.0} req/s)");

    let scenarios: Vec<(&str, Option<FaultSpec>)> = vec![
        ("healthy (4)", None),
        ("degraded (4 -> 3)", Some(FaultSpec::new(42).device_down(DeviceId(3), t_loss))),
        ("outage + rejoin", Some(FaultSpec::new(42).device_outage(DeviceId(3), t_loss, t_back))),
    ];

    let mut t = Table::new(&[
        "scenario",
        "completed",
        "shed",
        "rejoins",
        "re-expansions",
        "tok/s",
        "vs healthy",
    ]);

    let mut failed = false;
    let mut healthy: Option<ContinuousReport> = None;
    let mut degraded_thr: Option<f64> = None;
    for (label, faults) in scenarios {
        let report = run(world, jobs(n, rate), faults);
        let rec = report.serving.recovery();
        let thr = report.generation.token_throughput();
        let ratio = healthy
            .as_ref()
            .map(|h| format!("{:.0}%", 100.0 * thr / h.generation.token_throughput()))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            label.into(),
            format!("{}", report.generation.completed()),
            format!("{}", rec.shed_requests()),
            format!("{}", rec.rejoins),
            format!("{}", rec.re_expansions),
            format!("{thr:.0}"),
            ratio,
        ]);

        // Accounting gate: no silent drops in any scenario.
        if report.generation.completed() + rec.shed_requests() as usize != n as usize {
            eprintln!(
                "FAIL: {label}: {} completed + {} shed != {n} submitted",
                report.generation.completed(),
                rec.shed_requests()
            );
            failed = true;
        }

        // Output-integrity gate: every surviving job's stream matches the
        // healthy run's token for token.
        if let Some(h) = &healthy {
            for (id, stream) in &report.outputs {
                if stream != &h.outputs[id] {
                    eprintln!("FAIL: {label}: job {id} diverged from the healthy output stream");
                    failed = true;
                }
            }
        }

        if label == "outage + rejoin" {
            // The watchdog must actually confirm the rejoin and re-expand;
            // a silently-permanent loss would still pass the gates above.
            if rec.rejoins < 1 || rec.re_expansions < 1 {
                eprintln!(
                    "FAIL: {label}: expected a confirmed rejoin and a re-expansion, saw {} / {}",
                    rec.rejoins, rec.re_expansions
                );
                failed = true;
            }
            // Recovered-capacity gates (skipped in smoke: the trace is too
            // short for throughput to be meaningful).
            if !smoke {
                let h = healthy.as_ref().expect("healthy runs first").generation.token_throughput();
                if thr < 0.8 * h {
                    eprintln!(
                        "FAIL: {label}: {thr:.0} tok/s is under 80% of the healthy {h:.0} tok/s"
                    );
                    failed = true;
                }
                if let Some(d) = degraded_thr {
                    if thr < d {
                        eprintln!(
                            "FAIL: {label}: {thr:.0} tok/s below the permanently-degraded {d:.0}"
                        );
                        failed = true;
                    }
                }
            }
        }
        if label == "degraded (4 -> 3)" {
            degraded_thr = Some(thr);
        }
        if healthy.is_none() {
            healthy = Some(report);
        }
    }

    println!("{}", t.render());
    if failed {
        eprintln!("ablation_chaos: FAILED (see messages above)");
        std::process::exit(1);
    }
}
