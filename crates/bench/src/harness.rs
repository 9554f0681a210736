//! Shared experiment machinery.

use std::fmt::Write as _;

use liger_collectives::{NcclConfig, Topology};
use liger_core::{LigerConfig, LigerEngine, SyncMode};
use liger_gpu_sim::json::{JsonArray, JsonObject, ToJson};
use liger_gpu_sim::{DeviceSpec, FaultSpec, HostSpec, Simulation};
use liger_model::{profile_contention, CostModel, ModelConfig};
use liger_parallelism::{InterOpEngine, IntraOpEngine, PipelineFlavor};
use liger_serving::{
    serve, serve_with_policy, serve_with_recovery, RecoveryConfig, Request, RetryPolicy,
    ServingMetrics,
};

/// One of the paper's two testbeds (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// 4× Tesla V100 16 GB, NVLink, 32.75 GB/s all-reduce bus bandwidth.
    V100,
    /// 4× A100 80 GB, PCIe switch, 14.88 GB/s all-reduce bus bandwidth.
    A100,
}

impl Node {
    /// Device specification.
    pub fn device(self) -> DeviceSpec {
        match self {
            Node::V100 => DeviceSpec::v100_16gb(),
            Node::A100 => DeviceSpec::a100_80gb(),
        }
    }

    /// Interconnect topology.
    pub fn topology(self) -> Topology {
        match self {
            Node::V100 => Topology::v100_nvlink(),
            Node::A100 => Topology::a100_pcie(),
        }
    }

    /// Cost model (Liger-tuned NCCL channels).
    pub fn cost_model(self) -> CostModel {
        CostModel::new(self.device(), self.topology())
    }

    /// The contention factor obtained from offline profiling (§3.5); the
    /// paper reports 1.10 for the V100 node and 1.15 for the A100 node.
    pub fn contention_factor(self) -> f64 {
        profile_contention(&self.device(), &NcclConfig::liger_tuned()).factor()
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Node::V100 => "V100",
            Node::A100 => "A100",
        }
    }

    /// Builds a fresh simulation of this node with `world` devices and one
    /// MPI-style host rank per device.
    pub fn simulation(self, world: usize, trace: bool) -> Simulation {
        self.simulation_with_faults(world, trace, None)
    }

    /// Like [`simulation`](Self::simulation) but with an optional fault
    /// schedule installed.
    pub fn simulation_with_faults(
        self,
        world: usize,
        trace: bool,
        faults: Option<FaultSpec>,
    ) -> Simulation {
        let mut b = Simulation::builder().devices(self.device(), world).capture_trace(trace);
        for r in 0..world {
            b = b.host(HostSpec::mpi_rank(r));
        }
        if let Some(spec) = faults {
            b = b.faults(spec);
        }
        b.build().expect("node presets are valid")
    }
}

/// Which engine to construct for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineKind {
    /// Liger with the given configuration.
    Liger(LigerConfig),
    /// Megatron-style tensor parallelism.
    IntraOp,
    /// Equal-stage pipeline.
    InterOp,
    /// Theoretical pipeline (intra-op partitioned kernels).
    InterTh,
}

impl EngineKind {
    /// Liger with the node's profiled contention factor and the paper's
    /// defaults (hybrid sync, division factor 8).
    pub fn liger_default(node: Node) -> EngineKind {
        EngineKind::Liger(LigerConfig::default().with_contention_factor(node.contention_factor()))
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Liger(c) => match c.sync_mode {
                SyncMode::Hybrid => "Liger",
                SyncMode::CpuGpu => "Liger(CPU-GPU)",
                SyncMode::InterStream => "Liger(streams)",
            },
            EngineKind::IntraOp => "Intra-Op",
            EngineKind::InterOp => "Inter-Op",
            EngineKind::InterTh => "Inter-Th",
        }
    }

    /// The engine labels of the paper's main comparison.
    pub fn paper_lineup(node: Node) -> Vec<EngineKind> {
        vec![
            EngineKind::liger_default(node),
            EngineKind::IntraOp,
            EngineKind::InterOp,
            EngineKind::InterTh,
        ]
    }
}

/// Serves `requests` on a fresh simulation of `node` with the chosen engine;
/// returns the metrics.
pub fn run_serving(
    kind: &EngineKind,
    model: &ModelConfig,
    node: Node,
    world: usize,
    requests: Vec<Request>,
) -> ServingMetrics {
    run_serving_with_faults(kind, model, node, world, requests, None, None)
}

/// Like [`run_serving`] but under an optional fault schedule and retry
/// policy. With a policy set, failed requests are retried with backoff and
/// the metrics carry degraded-mode counters (retries, timeouts, kernel
/// failures, degraded rounds).
pub fn run_serving_with_faults(
    kind: &EngineKind,
    model: &ModelConfig,
    node: Node,
    world: usize,
    requests: Vec<Request>,
    faults: Option<FaultSpec>,
    policy: Option<RetryPolicy>,
) -> ServingMetrics {
    let cost = node.cost_model();
    let mut sim = node.simulation_with_faults(world, false, faults);
    let drive = |e: &mut dyn liger_serving::InferenceEngine, sim: &mut Simulation| match policy {
        Some(p) => serve_with_policy(sim, e, requests.clone(), p),
        None => serve(sim, e, requests.clone()),
    };
    match kind {
        EngineKind::Liger(config) => {
            let mut e =
                LigerEngine::new(model.clone(), cost, world, *config).expect("valid Liger setup");
            let mut m = drive(&mut e, &mut sim);
            m.faults_mut().degraded_rounds = e.degraded_rounds();
            m
        }
        EngineKind::IntraOp => {
            let mut e =
                IntraOpEngine::new(model.clone(), cost, world).expect("valid intra-op setup");
            drive(&mut e, &mut sim)
        }
        EngineKind::InterOp => {
            let mut e = InterOpEngine::new(model.clone(), cost, world, PipelineFlavor::Measured)
                .expect("valid inter-op setup");
            drive(&mut e, &mut sim)
        }
        EngineKind::InterTh => {
            let mut e = InterOpEngine::new(model.clone(), cost, world, PipelineFlavor::Theoretical)
                .expect("valid inter-th setup");
            drive(&mut e, &mut sim)
        }
    }
}

/// Serves `requests` with a node-tuned Liger engine under the full
/// elastic-recovery pipeline (health watchdog, drain-and-replan, KV
/// recovery, admission control) on a fresh simulation of `node` with the
/// given fault schedule. The returned metrics carry the recovery counters
/// and phase timeline alongside the usual serving numbers.
pub fn run_liger_recovery(
    model: &ModelConfig,
    node: Node,
    world: usize,
    requests: Vec<Request>,
    faults: Option<FaultSpec>,
    config: RecoveryConfig,
) -> ServingMetrics {
    let cost = node.cost_model();
    let mut sim = node.simulation_with_faults(world, false, faults);
    let liger = LigerConfig::default().with_contention_factor(node.contention_factor());
    let mut e =
        LigerEngine::new(model.clone(), cost.clone(), world, liger).expect("valid Liger setup");
    let mut m = serve_with_recovery(&mut sim, &mut e, requests, model, &cost, config);
    m.faults_mut().degraded_rounds = e.degraded_rounds();
    m
}

/// Reads `--faults <spec>` from the process arguments and parses it with
/// [`FaultSpec::parse`]. Exits with the parse error on a malformed spec.
pub fn arg_faults() -> Option<FaultSpec> {
    let raw = arg_value("faults")?;
    match FaultSpec::parse(&raw) {
        Ok(spec) => Some(spec),
        Err(e) => {
            eprintln!("invalid --faults spec: {e}");
            std::process::exit(2);
        }
    }
}

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Engine label.
    pub engine: &'static str,
    /// Arrival rate (jobs/s) this point was driven at.
    pub rate: f64,
    /// Average end-to-end latency in milliseconds.
    pub avg_latency_ms: f64,
    /// P99 latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Achieved throughput in jobs/s.
    pub throughput: f64,
}

/// Runs `engines × rates` serving sweeps in parallel and returns points in
/// deterministic `(engine, rate)` order.
///
/// Std-only work-queue parallelism: `std::thread::scope` workers (bounded
/// by the host's parallelism) claim job indices from a shared atomic
/// counter and report measurements back over a `std::sync::mpsc` channel.
/// Dynamic claiming keeps all workers busy even when points have very
/// different costs (high-rate points simulate far more queueing).
pub fn sweep<F>(
    engines: &[EngineKind],
    rates: &[f64],
    model: &ModelConfig,
    node: Node,
    world: usize,
    make_trace: F,
) -> Vec<ExperimentPoint>
where
    F: Fn(f64) -> Vec<Request> + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let jobs: Vec<(usize, usize)> =
        (0..engines.len()).flat_map(|e| (0..rates.len()).map(move |r| (e, r))).collect();
    let mut results: Vec<Option<ExperimentPoint>> = vec![None; jobs.len()];

    let threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(jobs.len().max(1));
    let next_job = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, ExperimentPoint)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next_job = &next_job;
            let jobs = &jobs;
            let make_trace = &make_trace;
            scope.spawn(move || loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(&(e, r)) = jobs.get(i) else { break };
                let kind = &engines[e];
                let rate = rates[r];
                let metrics = run_serving(kind, model, node, world, make_trace(rate));
                let point = ExperimentPoint {
                    engine: kind.label(),
                    rate,
                    avg_latency_ms: metrics.avg_latency().as_millis_f64(),
                    p99_latency_ms: metrics.latency_percentile(99.0).as_millis_f64(),
                    throughput: metrics.throughput(),
                };
                if tx.send((i, point)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, point) in rx {
            results[i] = Some(point);
        }
    });

    results.into_iter().map(|p| p.expect("all points measured")).collect()
}

/// Minimal fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", c, w = widths[i] + 2);
                let _ = i;
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        let _ = cols;
        out
    }
}

/// Analytic serving capacity (jobs/s) of the Intra-Op baseline for one
/// job shape: the reciprocal of the serialized kernel-sum iteration time.
/// Used to center arrival-rate sweeps on each panel's interesting region.
pub fn intra_capacity(
    model: &ModelConfig,
    node: Node,
    world: usize,
    shape: liger_model::BatchShape,
) -> f64 {
    let cm = node.cost_model();
    let ops = liger_model::assemble(&cm, model, shape, world as u32);
    let (compute, comm) = liger_model::class_totals(&ops);
    1.0 / (compute + comm).as_secs_f64()
}

/// The arrival-rate grid used by the Fig. 10/11 style sweeps: fractions of
/// the panel's Intra-Op capacity, extending past Liger's saturation point.
pub fn rate_grid(capacity: f64) -> Vec<f64> {
    [0.4, 0.7, 0.9, 1.05, 1.2, 1.4].iter().map(|f| f * capacity).collect()
}

/// Writes sweep points as CSV to `results/<name>.csv` when `--csv` was
/// passed (plotting-friendly export of the same data the tables print).
pub fn maybe_write_csv(name: &str, points: &[ExperimentPoint]) {
    if !arg_flag("csv") {
        return;
    }
    let mut out =
        String::from("engine,rate_req_s,avg_latency_ms,p99_latency_ms,throughput_req_s\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            p.engine, p.rate, p.avg_latency_ms, p.p99_latency_ms, p.throughput
        );
    }
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.csv");
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

impl ToJson for ExperimentPoint {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::begin(out);
        obj.field("engine", &self.engine)
            .field("rate_req_s", &self.rate)
            .field("avg_latency_ms", &self.avg_latency_ms)
            .field("p99_latency_ms", &self.p99_latency_ms)
            .field("throughput_req_s", &self.throughput);
        obj.end();
    }
}

/// Writes sweep points as JSON to `results/<name>.json` when `--json` was
/// passed (same data as [`maybe_write_csv`], machine-readable).
pub fn maybe_write_json(name: &str, points: &[ExperimentPoint]) {
    if !arg_flag("json") {
        return;
    }
    let mut out = String::new();
    {
        let mut arr = JsonArray::begin(&mut out);
        for p in points {
            arr.item(p);
        }
        arr.end();
    }
    out.push('\n');
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Reads `--name value` from the process arguments.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            return args.next();
        }
    }
    None
}

/// Parses `--name value` as a `T`, or returns `default` when the flag is
/// absent. A value that does not parse exits with status 2, naming the flag.
pub fn arg_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    let Some(raw) = arg_value(name) else { return default };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid --{name} value {raw:?}");
        std::process::exit(2);
    })
}

/// True when `--name` appears in the process arguments.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// Requests per measured point: `--requests N` or 300 by default (the paper
/// serves 2000; pass `--requests 2000` for full fidelity).
pub fn default_requests() -> usize {
    arg_parse("requests", 300)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_serving::PrefillTraceConfig;

    #[test]
    fn node_presets() {
        assert_eq!(Node::V100.label(), "V100");
        assert_eq!(Node::A100.label(), "A100");
        assert!(Node::V100.topology().allreduce_bus_bw > Node::A100.topology().allreduce_bus_bw);
        let f_v = Node::V100.contention_factor();
        let f_a = Node::A100.contention_factor();
        assert!(f_v > 1.0 && f_a > f_v, "paper ordering of contention factors");
    }

    #[test]
    fn lineup_has_four_engines() {
        let lineup = EngineKind::paper_lineup(Node::V100);
        let labels: Vec<_> = lineup.iter().map(|e| e.label()).collect();
        assert_eq!(labels, vec!["Liger", "Intra-Op", "Inter-Op", "Inter-Th"]);
    }

    #[test]
    fn sweep_produces_deterministic_grid() {
        let model = ModelConfig::tiny_test();
        let engines = [EngineKind::IntraOp, EngineKind::InterOp];
        let rates = [200.0, 400.0];
        let make = |rate: f64| PrefillTraceConfig::paper(10, 2, rate, 7).generate();
        let points = sweep(&engines, &rates, &model, Node::V100, 2, make);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].engine, "Intra-Op");
        assert_eq!(points[0].rate, 200.0);
        assert_eq!(points[3].engine, "Inter-Op");
        assert_eq!(points[3].rate, 400.0);
        for p in &points {
            assert!(p.throughput > 0.0);
            assert!(p.avg_latency_ms > 0.0);
            assert!(p.p99_latency_ms >= p.avg_latency_ms * 0.5);
        }
        // Determinism.
        let again = sweep(&engines, &rates, &model, Node::V100, 2, make);
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.avg_latency_ms, b.avg_latency_ms);
            assert_eq!(a.throughput, b.throughput);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["engine", "rate", "lat"]);
        t.row(&["Liger".into(), "10".into(), "1.5".into()]);
        t.row(&["Intra-Op".into(), "100".into(), "2.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("engine"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].contains("Intra-Op"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }
}
