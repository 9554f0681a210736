//! Behaviour lock for the serving runners.
//!
//! Every run is a pure function of its seed and config, so "same
//! behaviour" has a byte-exact meaning. This file serves a fixed, small
//! matrix through each public serving entry point — healthy and under
//! device loss, windowed outage with rejoin, link flaps, kernel failures,
//! every router policy and a degraded NIC — and compares an FNV-1a-64
//! digest of each run's Chrome trace JSON and metrics JSON (plus the
//! output token streams, where the report carries them) against
//! `tests/golden/behaviour_lock.txt`.
//!
//! A refactor of the serving layer must leave every digest unchanged. To
//! re-bless after an *intentional* behaviour change:
//!
//! ```text
//! LIGER_GOLDEN_REGEN=1 cargo test --test behaviour_lock
//! ```
//!
//! then review which entries moved and say why in the change log.

use liger::prelude::*;
use liger::serving::{
    serve_cluster, serve_continuous, serve_disaggregated, serve_generations, serve_queries,
    serve_with_policy, serve_with_recovery, BatcherConfig, ClusterConfig, ContinuousReport,
    DisaggConfig, GenerationJob, GenerationMetrics, PrefixTag, Query, RetryPolicy, RouterPolicy,
    SpecDecodeConfig,
};
use liger_collectives::ClusterTopology;
use liger_gpu_sim::{FaultSpec, KernelFaultParams, ToJson, Trace};

const GOLDEN: &str = include_str!("golden/behaviour_lock.txt");

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn model() -> ModelConfig {
    ModelConfig::tiny_test()
}

fn cost() -> CostModel {
    CostModel::v100_node()
}

fn engine(world: usize) -> LigerEngine {
    LigerEngine::new(model(), cost(), world, LigerConfig::default()).expect("valid tiny engine")
}

/// Traced V100 simulation, one MPI-style host rank per device.
fn sim(world: usize, faults: FaultSpec) -> Simulation {
    let mut b = Simulation::builder()
        .devices(DeviceSpec::v100_16gb(), world)
        .capture_trace(true)
        .faults(faults);
    for r in 0..world {
        b = b.host(HostSpec::mpi_rank(r));
    }
    b.build().expect("valid lock simulation")
}

fn faults(spec: &str) -> FaultSpec {
    FaultSpec::parse(spec).expect("valid lock fault spec")
}

fn health() -> HealthConfig {
    HealthConfig {
        interval: SimDuration::from_micros(100),
        suspicion_threshold: 3,
        probe_stream: 3,
        rejoin_quarantine: 3,
    }
}

/// The observable bytes of one run: every trace, then the metrics JSON and
/// the per-request detail the summary JSON rolls up.
fn fingerprint(traces: &[Trace], metrics: &ServingMetrics) -> String {
    let mut s = String::new();
    for t in traces {
        s.push_str(&t.to_chrome_json());
        s.push('\n');
    }
    s.push_str(&metrics.to_json());
    s.push('\n');
    for c in metrics.completions() {
        s.push_str(&c.to_json());
    }
    s.push('\n');
    s.push_str(&format!(
        "timeline={:?} shed={:?}",
        metrics.recovery_timeline(),
        metrics.recovery().shed
    ));
    s
}

fn generation_fingerprint(m: &GenerationMetrics) -> String {
    let mut s = String::new();
    for r in m.results() {
        s.push_str(&r.to_json());
    }
    s
}

// -- serve_with_recovery -----------------------------------------------------

fn recovery_run(spec: &str) -> (String, ServingMetrics) {
    let requests = PrefillTraceConfig {
        count: 24,
        batch: 2,
        seq_min: 16,
        seq_max: 64,
        arrivals: ArrivalProcess::Constant { rate: 4000.0 },
        seed: 3,
    }
    .generate();
    let config = RecoveryConfig {
        health: health(),
        policy: RecoveryPolicy::Recompute,
        admission: AdmissionConfig { queue_watermark: 6 },
    };
    let mut sim = sim(4, faults(spec));
    let mut e = engine(4);
    let m = serve_with_recovery(&mut sim, &mut e, requests, &model(), &cost(), config);
    let trace = sim.take_trace().expect("trace capture was enabled");
    (fingerprint(&[trace], &m), m)
}

// -- serve_continuous --------------------------------------------------------

fn continuous_jobs(n: u64) -> Vec<GenerationJob> {
    (0..n)
        .map(|id| GenerationJob {
            id,
            batch: 1,
            prompt_len: 48 + 16 * (id % 3) as u32,
            output_tokens: if id % 4 == 0 { 14 } else { 4 + (id % 3) as u32 },
            arrival: SimTime::from_micros(id * 60),
            prefix: if id % 2 == 0 { PrefixTag::shared(1 + id % 3, 32) } else { PrefixTag::NONE },
        })
        .collect()
}

fn continuous_run(spec: &str) -> (String, ContinuousReport) {
    let mut cfg =
        SchedulerConfig::sized_for_shared(&model(), 4, DeviceSpec::v100_16gb().mem_capacity, 256);
    cfg.health = Some(health());
    cfg.max_running = 6;
    cfg.admission = AdmissionConfig { queue_watermark: 4 };
    cfg.spec = Some(SpecDecodeConfig::for_target(&model(), 3, 0.6));
    let mut sim = sim(4, faults(spec));
    let mut e = engine(4);
    let r = serve_continuous(&mut sim, &mut e, continuous_jobs(20), &model(), &cost(), cfg);
    let trace = sim.take_trace().expect("trace capture was enabled");
    let mut s = fingerprint(&[trace], &r.serving);
    s.push_str(&generation_fingerprint(&r.generation));
    s.push_str(&format!("outputs={:?}", r.outputs));
    (s, r)
}

// -- serve_cluster / serve_disaggregated ---------------------------------------

fn cluster_jobs(n: u64, gap_us: u64) -> Vec<GenerationJob> {
    (0..n)
        .map(|id| GenerationJob {
            id,
            batch: 1,
            prompt_len: if id % 4 == 3 { 96 } else { 32 + (id % 3) as u32 * 16 },
            output_tokens: 3 + (id % 4) as u32 * 2,
            arrival: SimTime::from_micros(id * gap_us),
            prefix: if id % 3 == 0 { PrefixTag::shared(1 + id % 2, 16) } else { PrefixTag::NONE },
        })
        .collect()
}

fn cluster_run(policy: RouterPolicy, loss: bool) -> String {
    let mut sched = SchedulerConfig::sized_for(&model(), 2, DeviceSpec::v100_16gb().mem_capacity);
    if loss {
        sched.max_running = 2;
        sched.admission.queue_watermark = 2;
        sched.health = Some(HealthConfig::default());
    }
    let config = ClusterConfig::new(3, sched).with_policy(policy);
    let r = serve_cluster(cluster_jobs(18, 5), &model(), &cost(), config, |replica, wave| {
        let f = if loss && wave == 0 && replica == 1 {
            FaultSpec::new(1).device_down(DeviceId(1), SimTime::from_micros(120))
        } else {
            FaultSpec::none()
        };
        (sim(2, f), engine(2))
    });
    assert_eq!(r.serving.recovery().losses, u64::from(loss), "replica loss is confirmed");
    let mut s = fingerprint(&r.traces, &r.serving);
    s.push_str(&r.to_json());
    s.push_str(&generation_fingerprint(&r.generation));
    s.push_str(&format!("rerouted={} lost={:?} outputs={:?}", r.rerouted, r.lost, r.outputs));
    s
}

fn disagg_run(degrade: f64) -> String {
    let topology = ClusterTopology::v100_cluster(2, 2);
    let sched = SchedulerConfig::sized_for(&model(), 2, DeviceSpec::v100_16gb().mem_capacity);
    let config = DisaggConfig::new(topology, sched).with_nic_degrade(degrade);
    let r = serve_disaggregated(cluster_jobs(12, 30), &model(), config, |_, devices| {
        (sim(devices.len(), FaultSpec::none()), engine(devices.len()))
    });
    let mut s = fingerprint(&r.traces, &r.serving);
    s.push_str(&r.to_json());
    s.push_str(&generation_fingerprint(&r.generation));
    s.push_str(&format!(
        "streamed_blocks={} streamed_bytes={} outputs={:?}",
        r.streamed_blocks, r.streamed_bytes, r.outputs
    ));
    s
}

// -- the static runners ----------------------------------------------------------

fn prefill_trace(count: usize, rate: f64) -> Vec<Request> {
    PrefillTraceConfig {
        count,
        batch: 2,
        seq_min: 16,
        seq_max: 96,
        arrivals: ArrivalProcess::Poisson { rate },
        seed: 11,
    }
    .generate()
}

fn policy_run() -> String {
    let f = FaultSpec::new(7).kernel_failures(KernelFaultParams {
        prob: 0.3,
        fraction: 0.5,
        from: SimTime::from_micros(100),
        until: SimTime::from_millis(3),
    });
    let mut sim = sim(2, f);
    let mut e = engine(2);
    let m = serve_with_policy(&mut sim, &mut e, prefill_trace(16, 8000.0), RetryPolicy::default());
    assert!(m.faults().retries > 0, "the policy entry must exercise the retry path");
    fingerprint(&[sim.take_trace().expect("trace capture was enabled")], &m)
}

fn queries_run() -> String {
    let queries: Vec<Query> = (0..20)
        .map(|i| Query {
            id: i,
            seq_len: 16 + (i as u32 * 7) % 64,
            arrival: SimTime::from_micros(i * 45),
        })
        .collect();
    let config = BatcherConfig { max_batch: 4, max_wait: SimDuration::from_micros(200) };
    let mut sim = sim(2, FaultSpec::none());
    let mut e = engine(2);
    let m = serve_queries(&mut sim, &mut e, config, queries);
    fingerprint(&[sim.take_trace().expect("trace capture was enabled")], &m)
}

fn generations_run() -> String {
    let jobs: Vec<GenerationJob> = (0..6)
        .map(|id| GenerationJob {
            id,
            batch: 2,
            prompt_len: 32 + 8 * id as u32,
            output_tokens: 3 + id as u32 % 3,
            arrival: SimTime::from_micros(id * 150),
            prefix: PrefixTag::NONE,
        })
        .collect();
    let mut sim = sim(2, FaultSpec::none());
    let mut e = engine(2);
    let m = serve_generations(&mut sim, &mut e, jobs);
    let mut s = sim.take_trace().expect("trace capture was enabled").to_chrome_json();
    s.push_str(&generation_fingerprint(&m));
    s
}

/// The lock matrix, in golden-file order: `(entry name, fingerprint)`.
fn matrix() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut push = |name: &str, fp: String| out.push((name.to_string(), fp));

    let (fp, m) = recovery_run("");
    assert_eq!(m.recovery().losses, 0);
    push("recovery/healthy", fp);
    let (fp, m) = recovery_run("seed=9;down:3:1");
    assert_eq!(m.recovery().losses, 1, "the down: entry must exercise a confirmed loss");
    push("recovery/down", fp);
    let (fp, m) = recovery_run("seed=9;flap:0:1:0:4:1;down:3:1..3");
    assert_eq!(m.recovery().re_expansions, 1, "the flap entry must rejoin and re-expand");
    push("recovery/flap", fp);

    let (fp, r) = continuous_run("");
    assert!(r.serving.spec().rounds > 0 && r.serving.prefix().hits > 0);
    push("continuous/healthy", fp);
    let (fp, r) = continuous_run("seed=9;down:2:1");
    assert_eq!(r.serving.recovery().losses, 1, "the down: entry must exercise a confirmed loss");
    push("continuous/down", fp);
    let (fp, r) = continuous_run("seed=9;down:2:1..3");
    assert_eq!(r.serving.recovery().re_expansions, 1, "the outage entry must re-expand");
    push("continuous/outage-rejoin", fp);
    let (fp, _) = continuous_run("seed=9;flap:1:2:0:4:1");
    push("continuous/flap", fp);

    for policy in
        [RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding, RouterPolicy::PrefixAffinity]
    {
        push(&format!("cluster/{}", policy.name()), cluster_run(policy, false));
    }
    push("cluster/replica-loss", cluster_run(RouterPolicy::RoundRobin, true));

    push("disagg/nic-healthy", disagg_run(1.0));
    push("disagg/nic-degraded", disagg_run(4.0));

    push("policy/kernel-failures", policy_run());
    push("batcher/queries", queries_run());
    push("generations/static", generations_run());
    out
}

#[test]
fn serving_behaviour_matches_the_lock() {
    let rendered: String = matrix()
        .iter()
        .map(|(name, fp)| format!("{name} {:016x}\n", fnv1a64(fp.as_bytes())))
        .collect();
    if std::env::var_os("LIGER_GOLDEN_REGEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/behaviour_lock.txt");
        std::fs::write(path, &rendered).expect("write golden file");
        eprintln!("regenerated {path}");
        return;
    }
    let drifted: Vec<String> = rendered
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        drifted.is_empty() && rendered.lines().count() == GOLDEN.lines().count(),
        "serving behaviour drifted from tests/golden/behaviour_lock.txt:\n{}\nif the change is \
         intentional, regenerate with LIGER_GOLDEN_REGEN=1 and say why in the change log",
        drifted.join("\n")
    );
}
