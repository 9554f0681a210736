//! **Ablation** — cross-request prefix caching on the paged KV pool.
//!
//! Serves a skewed shared-prefix workload (a few prompt classes, each with a
//! long common prefix and a short unique tail — the shape of system-prompt
//! and few-shot traffic) two ways on 4-way Liger:
//!
//! * **no cache** — every admission prefills its full prompt;
//! * **prefix cache** — finished prefills publish their prompt blocks;
//!   later single-row admissions adopt the longest cached chain, bump the
//!   shared blocks' refcounts, and prefill only the novel tail.
//!
//! Three gates are asserted, not just printed:
//!
//! * **prefill speedup** — the cached run's prefill throughput (logical
//!   prompt tokens per second of the admission span, arrival of the first
//!   job to the last first-token) is at least **2x** the uncached run's;
//! * **trace hygiene** — both healthy runs and a device-loss run sanitize
//!   clean: zero happens-before diagnostics and zero double frees, so no
//!   shared block is leaked, freed twice, or freed while still referenced;
//! * **accounting** — every request completes (or, under the fault
//!   schedule, completes or is shed with a typed reason).
//!
//! Flags: `--requests N` (default 96), `--faults <spec>` (e.g. `down:2:5`),
//! `--smoke` (small fixed workload — used by CI).

use liger_bench::{arg_faults, arg_flag, arg_parse, Node, Table};
use liger_core::{LigerConfig, LigerEngine};
use liger_gpu_sim::{DeviceId, FaultSpec, SimDuration, SimTime};
use liger_model::{ModelConfig, RecoveryPolicy};
use liger_serving::{
    serve_continuous, ContinuousReport, GenerationJob, HealthConfig, PrefixTag, SchedulerConfig,
};

/// Prompt classes (distinct shared prefixes).
const CLASSES: u64 = 4;
/// Tokens of prompt shared within a class (28 blocks of 16).
const SHARED: u32 = 448;
/// When the flood arrives: far enough after the per-class warm-ups that
/// every class's chain is published by then.
const FLOOD_MS: u64 = 40;

/// A skewed shared-prefix workload: one warm-up request per class spaced
/// out front (so each class's chain is published before the flood), then a
/// near-simultaneous flood of requests with 16-48-token unique tails and
/// short replies. Single-row throughout — only single-row sequences adopt
/// cached chains.
fn workload(n: usize) -> Vec<GenerationJob> {
    (0..n as u64)
        .map(|id| {
            let class = id % CLASSES;
            let warm = id < CLASSES;
            GenerationJob {
                id,
                batch: 1,
                prompt_len: SHARED + 16 + 16 * (id % 3) as u32,
                output_tokens: 2 + (id % 3) as u32,
                arrival: if warm {
                    SimTime::from_millis(2 * id)
                } else {
                    SimTime::from_millis(FLOOD_MS) + SimDuration::from_micros(100 * id)
                },
                prefix: PrefixTag::shared(class, SHARED),
            }
        })
        .collect()
}

fn model() -> ModelConfig {
    ModelConfig::gpt_8b().with_layers(8)
}

fn engine(world: usize) -> LigerEngine {
    LigerEngine::new(
        model(),
        Node::V100.cost_model(),
        world,
        LigerConfig::default().with_contention_factor(Node::V100.contention_factor()),
    )
    .expect("valid Liger setup")
}

fn scheduler_config(world: u32, cached: bool, health: bool) -> SchedulerConfig {
    let capacity = Node::V100.device().mem_capacity;
    let mut c = if cached {
        // Pin budget for every class's shared chain.
        SchedulerConfig::sized_for_shared(&model(), world, capacity, CLASSES as u32 * SHARED)
    } else {
        SchedulerConfig::sized_for(&model(), world, capacity)
    };
    c.policy = RecoveryPolicy::Replicate;
    if health {
        c.health = Some(HealthConfig {
            interval: SimDuration::from_millis(1),
            suspicion_threshold: 3,
            probe_stream: 3,
            ..HealthConfig::default()
        });
    }
    c
}

/// Prefill throughput of the *flood* (the steady-state warm traffic, after
/// the per-class warm-ups): logical prompt tokens — cached or not, the
/// tokens whose KV the serve made available — per second of admission span,
/// first flood arrival to the last flood first-token. Completion counts
/// cover the whole run.
struct Outcome {
    prefill_tok_s: f64,
    mean_ttft_ms: f64,
    completed: usize,
}

fn outcome(report: &ContinuousReport, jobs: &[GenerationJob]) -> Outcome {
    let completed = report.generation.results().len();
    let flood: Vec<_> = report.generation.results().iter().filter(|r| r.id >= CLASSES).collect();
    assert!(!flood.is_empty(), "no flood completions to score");
    let first = flood.iter().map(|r| r.arrival).min().unwrap();
    let last_ft = flood.iter().map(|r| r.first_token).max().unwrap();
    let tokens: u64 = flood.iter().map(|r| jobs[r.id as usize].prompt_len as u64).sum();
    let ttft: f64 = flood
        .iter()
        .map(|r| r.first_token.saturating_since(r.arrival).as_millis_f64())
        .sum::<f64>()
        / flood.len() as f64;
    Outcome {
        prefill_tok_s: tokens as f64 / last_ft.saturating_since(first).as_secs_f64(),
        mean_ttft_ms: ttft,
        completed,
    }
}

type Run = (ContinuousReport, Option<liger_gpu_sim::Trace>, u64, u64);

fn run(jobs: &[GenerationJob], world: usize, cached: bool, faults: Option<FaultSpec>) -> Run {
    let health = faults.is_some();
    let mut sim = Node::V100.simulation_with_faults(world, true, faults);
    let mut e = engine(world);
    let cost = Node::V100.cost_model();
    let report = serve_continuous(
        &mut sim,
        &mut e,
        jobs.to_vec(),
        &model(),
        &cost,
        scheduler_config(world as u32, cached, health),
    );
    let double_frees = sim.memory_double_frees();
    let shed = report.serving.recovery().shed_requests();
    (report, sim.take_trace(), double_frees, shed)
}

fn sanitize_or_fail(label: &str, trace: &liger_gpu_sim::Trace, df: u64, failed: &mut bool) {
    if df != 0 {
        eprintln!("FAIL: {label}: {df} double free(s) in the memory tracker");
        *failed = true;
    }
    let diags = liger_verify::sanitize(trace);
    if diags.is_empty() {
        println!("  sanitizer clean: {label}");
    } else {
        eprintln!("FAIL: {label}: {} sanitizer diagnostic(s):", diags.len());
        for d in &diags {
            eprintln!("    {d}");
        }
        *failed = true;
    }
}

fn main() {
    let smoke = arg_flag("smoke");
    let requests = if smoke { 24 } else { arg_parse("requests", 96) };
    let world = 4;
    let jobs = workload(requests);

    println!(
        "Ablation: prefix caching on the paged KV pool — GPT-8B(8L), V100 node, {requests} seqs"
    );
    println!(
        "({CLASSES} prompt classes, {SHARED}-token shared prefixes, 16-48-token unique tails)"
    );

    let mut failed = false;

    let (cold_report, cold_trace, cold_df, _) = run(&jobs, world, false, None);
    let (warm_report, warm_trace, warm_df, _) = run(&jobs, world, true, None);
    let cold = outcome(&cold_report, &jobs);
    let warm = outcome(&warm_report, &jobs);
    let p = warm_report.serving.prefix();

    let mut t = Table::new(&["config", "completed", "prefill tok/s", "mean TTFT (ms)"]);
    for (label, o) in [("no cache", &cold), ("prefix cache", &warm)] {
        t.row(&[
            label.into(),
            format!("{}", o.completed),
            format!("{:.0}", o.prefill_tok_s),
            format!("{:.2}", o.mean_ttft_ms),
        ]);
    }
    println!("{}", t.render());
    println!(
        "cache: {}/{} lookups hit, {} tokens served from cache ({:.0}% of prompt work), \
         {} blocks published, {} evicted",
        p.hits,
        p.lookups,
        p.cached_tokens,
        p.cached_fraction() * 100.0,
        p.published_blocks,
        p.evicted_blocks
    );
    println!(
        "speedup: {:.2}x prefill tok/s, {:+.1}% mean TTFT",
        warm.prefill_tok_s / cold.prefill_tok_s,
        (warm.mean_ttft_ms / cold.mean_ttft_ms - 1.0) * 100.0
    );

    // Accounting: both healthy runs complete every sequence, and the token
    // streams are identical — caching must never change what is emitted.
    for (label, o) in [("no cache", &cold), ("prefix cache", &warm)] {
        if o.completed != jobs.len() {
            eprintln!("FAIL: {label} completed {} of {}", o.completed, jobs.len());
            failed = true;
        }
    }
    if cold_report.outputs != warm_report.outputs {
        eprintln!("FAIL: prefix caching changed an output token stream");
        failed = true;
    }
    // The headline gate: adopted prefixes must at least double prefill
    // throughput on this skewed workload.
    if warm.prefill_tok_s < 2.0 * cold.prefill_tok_s {
        eprintln!(
            "FAIL: cached prefill {:.1} tok/s is under 2x uncached {:.1} tok/s",
            warm.prefill_tok_s, cold.prefill_tok_s
        );
        failed = true;
    }
    if p.hits == 0 {
        eprintln!("FAIL: the shared-prefix workload never hit the cache");
        failed = true;
    }

    sanitize_or_fail("no cache", cold_trace.as_ref().expect("traced run"), cold_df, &mut failed);
    sanitize_or_fail("prefix cache", warm_trace.as_ref().unwrap(), warm_df, &mut failed);

    // A device-loss run with the cache on: the index is flushed mid-serve,
    // accounting still closes and the trace stays sanitizer-clean.
    let faults = arg_faults().unwrap_or_else(|| {
        let mid = jobs[jobs.len() / 2].arrival;
        FaultSpec::new(7).device_down(DeviceId(3), mid)
    });
    let (loss_report, loss_trace, loss_df, shed) = run(&jobs, world, true, Some(faults));
    let completed = loss_report.generation.completed();
    println!("loss run: {completed} completed, {shed} shed");
    if completed + shed as usize != jobs.len() {
        eprintln!(
            "FAIL: loss run accounting: {completed} completed + {shed} shed != {} submitted",
            jobs.len()
        );
        failed = true;
    }
    sanitize_or_fail(
        "prefix cache with device loss",
        loss_trace.as_ref().unwrap(),
        loss_df,
        &mut failed,
    );

    if failed {
        eprintln!("ablation_prefix: FAILED (see messages above)");
        std::process::exit(1);
    }
    println!(
        "ok: prefix caching >=2x prefill tok/s with identical outputs; traces sanitized clean"
    );
}
