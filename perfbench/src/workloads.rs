//! The two workloads. Each pass builds its inputs from the seed, runs the
//! real serving program single-threaded on the sequential event core, and
//! checks what the program returned.
//!
//! Every workload is open-loop in simulated time: arrivals follow a seeded
//! schedule whatever the simulation has reached.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;

use liger_collectives::NcclConfig;
use liger_core::{plan_round, FuncVec, LigerConfig, LigerEngine, PlanParams, SyncMode};
use liger_gpu_sim::rng::Rng;
use liger_gpu_sim::{CoreSelect, DeviceSpec, HostSpec, SimTime, Simulation, Trace};
use liger_model::{profile_contention, BatchShape, CostModel, ModelConfig};
use liger_serving::{
    output_token, route_jobs, serve_cluster_on, serve_on, BatchingCounters, ClusterConfig,
    GenerationJob, GenerationMetrics, GenerationResult, PrefillTraceConfig, PrefixCounters,
    PrefixTag, Request, RouterPolicy, SchedulerConfig, ServingMetrics,
};

use crate::clock::CpuTimer;
use crate::probe::{Probe, Recorder};
use crate::report::{percentile, Tally, MIN_TAIL};
use crate::spans::Spans;

/// `paper_prefill`: requests in the paper's prefill trace.
const PREFILL_REQUESTS: usize = 1000;
/// Sequences per prefill request (the paper's batch 2).
const PREFILL_BATCH: u32 = 2;
/// Constant arrival rate, about 85 % of the ≈23.4 req/s the node sustains.
/// At 22 req/s (94 %) the pooled p99 moved by 13–15 % from seed to seed;
/// here it holds within a few percent.
const PREFILL_RATE: f64 = 20.0;
/// Distinct request traces per run.
const PREFILL_INPUTS: usize = 8;

/// `prefix_cluster`: generation jobs.
const CLUSTER_JOBS: usize = 1000;
/// Poisson arrival rate in jobs/s.
const CLUSTER_RATE: f64 = 70.0;
/// Distinct job lists per run.
const CLUSTER_INPUTS: usize = 4;
/// Prompt classes, each with its own shared prefix.
const CLASSES: u64 = 4;
/// Tokens of prompt shared within a class.
const SHARED: u32 = 448;
/// Replicas behind the router.
const REPLICAS: usize = 2;
/// GPUs per replica.
const REPLICA_WORLD: usize = 2;

/// `paper_prefill` in a traced run: leading requests of each trace served
/// again with capture on. One request already makes a trace of about half
/// a megabyte.
const TRACED_REQUESTS: usize = 1;

/// Set-ups timed per pass; the last one is used.
const SETUP_REPEATS: usize = 10;

/// Spans that wrap the serving entry points.
pub const SERVE_SPANS: [&str; 2] = ["serving.serve_on", "serving.serve_cluster_on"];

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 10 prefill trace on OPT-30B / 4×V100; in a traced
    /// run, also a traced request exported, parsed and sanitized.
    PaperPrefill,
    /// Shared-prefix traffic on two 2-GPU replicas behind a router.
    PrefixCluster,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperPrefill, Workload::PrefixCluster];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPrefill => "paper_prefill",
            Workload::PrefixCluster => "prefix_cluster",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct inputs of a run, each built from its own seed drawn from
    /// the run's seed. The simulated metrics pool all of them.
    pub fn inputs_per_run(self) -> usize {
        match self {
            Workload::PaperPrefill => PREFILL_INPUTS,
            Workload::PrefixCluster => CLUSTER_INPUTS,
        }
    }

    /// Runs one pass with inputs built from `seed`, reporting into `rec`.
    /// With `trace_pipeline`, a `paper_prefill` pass also serves its first
    /// request untraced and traced and sends the trace through export,
    /// parse and sanitize; the traced run does this, so that the trace
    /// pipeline is measured and checked without its single long parse
    /// setting the host time of the untraced run.
    pub fn pass(self, seed: u64, rec: &Rc<RefCell<Recorder>>, trace_pipeline: bool) -> Pass {
        match self {
            Workload::PaperPrefill => paper_prefill(seed, rec, trace_pipeline),
            Workload::PrefixCluster => prefix_cluster(seed, rec),
        }
    }
}

/// What one pass measured and checked.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host CPU seconds of each set-up made in the pass.
    pub setup_s: Vec<f64>,
    /// Host CPU seconds from built inputs to checked outputs, split at the
    /// marks of [`Recorder::marks`].
    pub segments_s: Vec<f64>,
    /// Every request completed correctly, as a generation result (a
    /// prefill request is a one-token generation).
    pub results: Vec<GenerationResult>,
    /// Requests submitted and failed.
    pub tally: Tally,
    /// Digest of every output the program returned, for the repeat check.
    pub digest: u64,
    /// The node the workload ran on, for the planning replay.
    pub node: Node,
    /// Serving counters.
    pub counters: Counters,
}

impl Pass {
    /// Host CPU seconds from built inputs to checked outputs.
    pub fn cpu_s(&self) -> f64 {
        self.segments_s.iter().sum()
    }
}

/// Serving-layer counters of one pass.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Continuous-batching and KV-pool counters.
    pub batching: BatchingCounters,
    /// Prefix-cache counters.
    pub prefix: PrefixCounters,
    /// Completions per replica (one entry for a single node).
    pub replica_completions: Vec<u64>,
    /// Jobs re-routed in the cluster's second wave.
    pub rerouted: u64,
    /// The traced request's pipeline (`paper_prefill` in a traced run only).
    pub trace: Option<TraceCounters>,
}

/// Sizes and timings of the trace pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounters {
    /// Bytes of exported Chrome JSON.
    pub bytes: u64,
    /// Kernel events in the trace.
    pub events: u64,
    /// Sanitizer diagnostics.
    pub diagnostics: u64,
    /// Host CPU seconds serving the traced requests with capture off.
    pub untraced_serve_s: f64,
    /// Host CPU seconds serving the same requests with capture on.
    pub traced_serve_s: f64,
}

impl TraceCounters {
    /// Traced ÷ untraced serve time − 1; 0 when nothing was served.
    pub fn capture_overhead(&self) -> f64 {
        if self.untraced_serve_s == 0.0 {
            return 0.0;
        }
        self.traced_serve_s / self.untraced_serve_s - 1.0
    }
}

/// The modelled node: model, cost model, tensor-parallel degree and the
/// engine configuration.
#[derive(Debug, Clone)]
pub struct Node {
    /// Served model.
    pub model: ModelConfig,
    /// Kernel and collective cost model.
    pub cost: CostModel,
    /// GPUs per engine.
    pub world: usize,
    /// Liger configuration.
    pub liger: LigerConfig,
}

impl Node {
    /// `model` on `world` V100s with the profiled contention factor, hybrid
    /// synchronisation and division factor 8.
    pub fn v100(model: ModelConfig, world: usize) -> Node {
        let profile = profile_contention(&DeviceSpec::v100_16gb(), &NcclConfig::liger_tuned());
        let liger = LigerConfig::default()
            .with_sync_mode(SyncMode::Hybrid)
            .with_contention_factor(profile.factor())
            .with_division_factor(8);
        Node { model, cost: CostModel::v100_node(), world, liger }
    }

    fn engine(&self) -> LigerEngine {
        LigerEngine::new(self.model.clone(), self.cost.clone(), self.world, self.liger)
            .expect("the model fits the node")
    }

    fn sim(&self, capture_trace: bool) -> Simulation {
        let mut b = Simulation::builder()
            .devices(DeviceSpec::v100_16gb(), self.world)
            .capture_trace(capture_trace);
        for rank in 0..self.world {
            b = b.host(HostSpec::mpi_rank(rank));
        }
        b.build().expect("a V100 node is a valid simulation")
    }

    /// Plans the batch `shapes` with Algorithm 1 the way the engine does:
    /// each shape's kernel list is assembled and priced when a processing
    /// slot frees, and rounds are planned until every list is drained.
    pub fn replay(&self, shapes: &[BatchShape], spans: &mut Spans) -> Replay {
        let params = PlanParams {
            contention_factor: self.liger.contention_factor,
            division_factor: self.liger.division_factor,
            enable_decomposition: self.liger.enable_decomposition,
            straggler_factor: 1.0,
        };
        let tp = self.world as u32;
        let mut next = shapes.iter().enumerate();
        let mut processing: VecDeque<FuncVec> = VecDeque::new();
        let mut out = Replay::default();
        loop {
            while processing.len() < self.liger.processing_slots {
                let Some((i, &shape)) = next.next() else { break };
                let fv = spans.scope("replay.assemble", |_| {
                    FuncVec::assemble(i as u64, shape, SimTime::ZERO, &self.cost, &self.model, tp)
                });
                out.ops += fv.len() as u64;
                processing.push_back(fv);
            }
            if processing.is_empty() {
                return out;
            }
            let plan = spans
                .scope("replay.plan_round", |_| plan_round(&mut processing, &params, &self.cost));
            black_box(plan.expect("a non-empty processing list plans a round"));
            out.rounds += 1;
            processing.retain(|fv| !fv.is_empty());
        }
    }
}

/// Work done by [`Node::replay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replay {
    /// Rounds planned.
    pub rounds: u64,
    /// Kernel ops assembled and priced.
    pub ops: u64,
}

/// Runs `make` [`SETUP_REPEATS`] times, timing each in CPU seconds;
/// returns the last product and the timings.
fn timed_setup<T>(mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = CpuTimer::start();
        last = Some(black_box(make()));
        times.push(t.elapsed_s());
    }
    (last.expect("at least one set-up"), times)
}

/// Runs `f` inside a span of `rec`.
fn in_span<R>(rec: &Rc<RefCell<Recorder>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = rec.borrow_mut().spans.enter(name);
    let r = f();
    rec.borrow_mut().spans.exit(id);
    r
}

fn paper_prefill(seed: u64, rec: &Rc<RefCell<Recorder>>, traced_slice: bool) -> Pass {
    let ((node, engine, mut sim, requests, slice), setup_s) = timed_setup(|| {
        let node = Node::v100(ModelConfig::opt_30b(), 4);
        let engine = node.engine();
        let sim = node.sim(false);
        let requests =
            PrefillTraceConfig::paper(PREFILL_REQUESTS, PREFILL_BATCH, PREFILL_RATE, seed)
                .generate();
        let slice = traced_slice.then(|| {
            let engines = (node.engine(), node.engine());
            let sims = (node.sim(false), node.sim(true));
            (engines, sims)
        });
        (node, engine, sim, requests, slice)
    });
    let start = rec.borrow().now();
    let mut probe = Probe::new(engine, rec);
    let metrics = in_span(rec, "serving.serve_on", || {
        serve_on(CoreSelect::Seq, &mut sim, &mut probe, requests.clone())
    });
    drop(probe);
    let (results, mut tally) = check_prefill(&requests, &metrics);
    let mut digest = Digest::of_sims(rec);
    let mut counters = Counters {
        batching: *metrics.batching(),
        prefix: *metrics.prefix(),
        replica_completions: vec![metrics.completed() as u64],
        ..Counters::default()
    };
    if let Some(((untraced_engine, traced_engine), (untraced_sim, traced_sim))) = slice {
        let slice = &requests[..TRACED_REQUESTS];
        let (trace_tally, trace) = check_trace_pipeline(
            slice,
            rec,
            (untraced_engine, untraced_sim),
            (traced_engine, traced_sim),
            &mut digest,
        );
        tally.absorb(trace_tally);
        counters.trace = Some(trace);
    }
    Pass {
        setup_s,
        segments_s: rec.borrow().segments_since(start),
        digest: digest.of_results(&results),
        results,
        tally,
        node,
        counters,
    }
}

/// Serves `slice` with trace capture off and on, exports the captured trace
/// to Chrome JSON, parses it back and sanitizes it.
fn check_trace_pipeline(
    slice: &[Request],
    rec: &Rc<RefCell<Recorder>>,
    untraced: (LigerEngine, Simulation),
    traced: (LigerEngine, Simulation),
    digest: &mut Digest,
) -> (Tally, TraceCounters) {
    let mut tally = Tally::new(slice.len() as u64);
    let mut counters = TraceCounters::default();
    let mut serve_slice = |(engine, mut sim): (LigerEngine, Simulation)| {
        let t = CpuTimer::start();
        let mut probe = Probe::new(engine, rec);
        let metrics = in_span(rec, "serving.serve_on", || {
            serve_on(CoreSelect::Seq, &mut sim, &mut probe, slice.to_vec())
        });
        let elapsed = t.elapsed_s();
        if metrics.completed() != slice.len() {
            tally.fail_all(format!(
                "traced slice: {} of {} requests completed",
                metrics.completed(),
                slice.len()
            ));
        }
        (sim, elapsed)
    };
    // Each step ends a stretch of the pass's clock; the parse is most of it.
    let mark = || rec.borrow_mut().mark();
    let (_, untraced_s) = serve_slice(untraced);
    mark();
    let (mut sim, traced_s) = serve_slice(traced);
    mark();
    counters.untraced_serve_s = untraced_s;
    counters.traced_serve_s = traced_s;
    let Some(trace) = sim.take_trace() else {
        tally.fail_all("trace capture was on but no trace was captured");
        return (tally, counters);
    };
    let json = in_span(rec, "trace.to_chrome_json", || trace.to_chrome_json());
    mark();
    counters.bytes = json.len() as u64;
    counters.events = trace.events().len() as u64;
    let parsed = in_span(rec, "json.parse_chrome_json", || Trace::parse_chrome_json(&json));
    mark();
    let parsed = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            tally.fail_all(format!("exported trace does not parse: {e:?}"));
            return (tally, counters);
        }
    };
    let diagnostics =
        in_span(rec, "analysis.sanitize_parsed", || liger_verify::sanitize_parsed(&parsed));
    mark();
    counters.diagnostics = diagnostics.len() as u64;
    let (events, marks) = (parsed.trace.events().len(), parsed.trace.marks().len());
    if events != trace.events().len() || marks != trace.marks().len() {
        tally.fail_all(format!(
            "trace round trip: parsed {events} events and {marks} marks, captured {} and {}",
            trace.events().len(),
            trace.marks().len()
        ));
    } else if parsed.trace.to_chrome_json() != json {
        tally.fail_all("trace round trip: re-exported JSON differs from the export");
    }
    if let Some(first) = diagnostics.first() {
        tally.fail_all(format!("sanitizer: {} diagnostics, first {first:?}", diagnostics.len()));
    }
    digest.add(counters.bytes).add(counters.events).add(marks as u64);
    (tally, counters)
}

/// Checks the prefill serve: every request completed exactly once, at or
/// after its arrival, and nothing is unaccounted for. Returns each completed
/// request as a one-token generation result.
fn check_prefill(requests: &[Request], metrics: &ServingMetrics) -> (Vec<GenerationResult>, Tally) {
    let mut tally = Tally::new(requests.len() as u64);
    let mut seen = vec![false; requests.len()];
    let mut results = Vec::with_capacity(requests.len());
    let mut bad = 0;
    for c in metrics.completions() {
        let Some(req) = requests.get(c.id as usize) else {
            tally.fail(1, format!("completion for unknown request {}", c.id));
            continue;
        };
        if std::mem::replace(&mut seen[c.id as usize], true) {
            tally.fail(1, format!("request {} completed twice", c.id));
            continue;
        }
        if c.arrival != req.arrival || c.finished < c.arrival {
            bad += 1;
            continue;
        }
        results.push(GenerationResult {
            id: c.id,
            arrival: c.arrival,
            first_token: c.finished,
            finished: c.finished,
            tokens: 1,
            batch: req.shape.batch,
        });
    }
    if bad > 0 {
        tally.fail(bad, format!("{bad} completions disagree with their request's arrival"));
    }
    let missing = seen.iter().filter(|s| !**s).count() as u64;
    if missing > 0 {
        tally.fail(missing, format!("{missing} requests never completed"));
    }
    let shed = metrics.recovery().shed_requests();
    if metrics.completed() as u64 + shed != requests.len() as u64 {
        tally.fail_all(format!(
            "accounting: {} completed + {shed} shed != {} submitted",
            metrics.completed(),
            requests.len()
        ));
    }
    (results, tally)
}

/// Checks a generation serve: completed + shed = submitted, and every
/// completed job's output stream is `expected(job)`.
pub fn check_generation(
    jobs: &[GenerationJob],
    generation: &GenerationMetrics,
    outputs: &BTreeMap<u64, Vec<u64>>,
    shed: u64,
    expected: impl Fn(&GenerationJob) -> Vec<u64>,
) -> Tally {
    let mut tally = Tally::new(jobs.len() as u64);
    let mut done = vec![0u32; jobs.len()];
    for r in generation.results() {
        match done.get_mut(r.id as usize) {
            Some(n) => *n += 1,
            None => tally.fail(1, format!("result for unknown job {}", r.id)),
        }
    }
    let mut wrong = Vec::new();
    for (job, &n) in jobs.iter().zip(&done) {
        let ok = n == 1 && outputs.get(&job.id).is_some_and(|s| *s == expected(job));
        if !ok {
            wrong.push(job.id);
        }
    }
    if let Some(first) = wrong.first() {
        tally.fail(
            wrong.len() as u64,
            format!(
                "{} jobs not completed once with the oracle stream, first {first}",
                wrong.len()
            ),
        );
    }
    if generation.completed() as u64 + shed != jobs.len() as u64 {
        tally.fail_all(format!(
            "accounting: {} completed + {shed} shed != {} submitted",
            generation.completed(),
            jobs.len()
        ));
    }
    tally
}

/// The oracle stream of `job`: `output_token(job, t)` for every step.
pub fn oracle_stream(job: &GenerationJob) -> Vec<u64> {
    (0..job.output_tokens.max(1)).map(|t| output_token(job, t)).collect()
}

/// Skewed replies: in every four consecutive jobs, three get 4–12 tokens
/// and one, at a seeded place, gets 48–96. Fixing the share of long
/// replies, rather than drawing it job by job, keeps the tokens a list asks
/// for from swinging with the seed.
fn reply_len(rng: &mut Rng, id: u64, long_slot: &mut u64) -> u32 {
    if id.is_multiple_of(4) {
        *long_slot = rng.u64_below(4);
    }
    if id % 4 == *long_slot {
        rng.u32_inclusive(48, 96)
    } else {
        rng.u32_inclusive(4, 12)
    }
}

/// `n` jobs with Poisson arrivals at `rate`, each given its prompt by `prompt`.
fn poisson_jobs(
    n: usize,
    rate: f64,
    seed: u64,
    mut prompt: impl FnMut(&mut Rng) -> (u32, PrefixTag),
) -> Vec<GenerationJob> {
    let mut rng = Rng::seed_from_u64(seed);
    let (mut at, mut long_slot) = (0.0, 0);
    (0..n as u64)
        .map(|id| {
            at += rng.exponential(rate);
            let (prompt_len, prefix) = prompt(&mut rng);
            GenerationJob {
                id,
                batch: 1,
                prompt_len,
                output_tokens: reply_len(&mut rng, id, &mut long_slot),
                arrival: SimTime::from_secs_f64(at),
                prefix,
            }
        })
        .collect()
}

/// A 448-token prefix shared within one of four classes plus a unique tail
/// of 16–48 tokens.
pub fn cluster_jobs(seed: u64) -> Vec<GenerationJob> {
    poisson_jobs(CLUSTER_JOBS, CLUSTER_RATE, seed, |rng| {
        let class = rng.u64_below(CLASSES);
        (SHARED + rng.u32_inclusive(16, 48), PrefixTag::shared(class, SHARED))
    })
}

fn prefix_cluster(seed: u64, rec: &Rc<RefCell<Recorder>>) -> Pass {
    let ((node, jobs, config), mut setup_s) = timed_setup(|| {
        let node = Node::v100(ModelConfig::gpt_8b().with_layers(8), REPLICA_WORLD);
        let scheduler = SchedulerConfig::sized_for_shared(
            &node.model,
            REPLICA_WORLD as u32,
            DeviceSpec::v100_16gb().mem_capacity,
            CLASSES as u32 * SHARED,
        );
        let config =
            ClusterConfig::new(REPLICAS, scheduler).with_policy(RouterPolicy::PrefixAffinity);
        (node, cluster_jobs(seed), config)
    });
    // Replicas are built inside the serving call; their set-up time is
    // added to every set-up sample and left out of the pass's clock.
    let start = rec.borrow().now();
    let report = in_span(rec, "serving.serve_cluster_on", || {
        serve_cluster_on(
            CoreSelect::Seq,
            jobs.clone(),
            &node.model,
            &node.cost,
            config.clone(),
            |_, _| {
                let t = CpuTimer::start();
                let replica = in_span(rec, "setup.replica", || {
                    (node.sim(false), Probe::new(node.engine(), rec))
                });
                rec.borrow_mut().paused_s += t.elapsed_s();
                replica
            },
        )
    });
    // A replica numbers its jobs densely in arrival order and generates
    // each stream from that local job, so the oracle is applied to the job
    // as the replica saw it.
    let mut served_as = BTreeMap::new();
    for routed in route_jobs(&jobs, config.replicas, config.policy) {
        for (local, id) in routed.into_iter().enumerate() {
            served_as.insert(id, GenerationJob { id: local as u64, ..jobs[id as usize] });
        }
    }
    let shed = report.serving.recovery().shed_requests();
    let mut tally = check_generation(&jobs, &report.generation, &report.outputs, shed, |job| {
        oracle_stream(&served_as[&job.id])
    });
    if let Some(first) = report.lost.first() {
        tally.fail(
            report.lost.len() as u64,
            format!("{} jobs lost, first {first}", report.lost.len()),
        );
    }
    if report.rerouted > 0 {
        tally.fail(
            report.rerouted,
            format!("{} jobs re-routed on a healthy cluster", report.rerouted),
        );
    }
    let extra = rec.borrow().paused_s;
    for s in &mut setup_s {
        *s += extra;
    }
    Pass {
        setup_s,
        segments_s: rec.borrow().segments_since(start),
        digest: Digest::of_generation(rec, &report.generation, &report.outputs),
        results: report.generation.results().to_vec(),
        tally,
        node,
        counters: Counters {
            batching: *report.serving.batching(),
            prefix: *report.serving.prefix(),
            replica_completions: report
                .replicas
                .iter()
                .map(|r| r.generation.completed() as u64)
                .collect(),
            rerouted: report.rerouted,
            trace: None,
        },
    }
}

/// The eight simulated-time metrics over the results of several passes,
/// each pass on its own inputs. Percentiles are taken over every request;
/// throughputs are completions (tokens) over the summed spans from each
/// pass's first arrival to its last completion. A request with a single
/// output token has no decode phase; its one token took its whole latency,
/// which is then its time per output token. A percentile without ten
/// samples beyond it fails the run.
pub fn sim_metrics(passes: &[&[GenerationResult]], tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let all = || passes.iter().flat_map(|p| p.iter());
    let ms = |f: fn(&GenerationResult) -> liger_gpu_sim::SimDuration| -> Vec<f64> {
        all().map(|r| f(r).as_millis_f64()).collect()
    };
    let latency = ms(GenerationResult::total);
    let ttft = ms(GenerationResult::ttft);
    let tpot = ms(|r| if r.tokens > 1 { r.tpot() } else { r.total() });
    let mut pct = |name: &'static str, samples: &[f64], p: u32| {
        let v = percentile(samples, p).unwrap_or_else(|| {
            tally.fail_all(format!(
                "{name}: {} samples leave fewer than {MIN_TAIL} beyond p{p}",
                samples.len()
            ));
            f64::NAN
        });
        (name, v)
    };
    let (mut span_s, mut tokens) = (0.0, 0.0);
    for results in passes {
        let mut generation = GenerationMetrics::default();
        for r in *results {
            generation.record(*r);
        }
        let first = results.iter().map(|r| r.arrival).min().unwrap_or(SimTime::ZERO);
        let last = results.iter().map(|r| r.finished).max().unwrap_or(SimTime::ZERO);
        let span = last.saturating_since(first).as_secs_f64();
        span_s += span;
        tokens += generation.token_throughput() * span;
    }
    vec![
        pct("sim_latency_p50_ms", &latency, 50),
        pct("sim_latency_p99_ms", &latency, 99),
        ("sim_throughput_rps", latency.len() as f64 / span_s),
        pct("sim_ttft_p50_ms", &ttft, 50),
        pct("sim_ttft_p95_ms", &ttft, 95),
        pct("sim_tpot_p50_ms", &tpot, 50),
        pct("sim_tpot_p95_ms", &tpot, 95),
        ("sim_tok_per_s", tokens / span_s),
    ]
}

/// FNV-1a over a sequence of words: a fingerprint of a pass's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn add(&mut self, word: u64) -> &mut Self {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Digest of the engine-call count and the simulator counters of every
    /// dropped probe of `rec`.
    fn of_sims(rec: &Rc<RefCell<Recorder>>) -> Digest {
        let mut d = Digest::default();
        d.add(rec.borrow().calls);
        for s in &rec.borrow().sims {
            d.add(s.events).add(s.kernels).add(s.rounds).add(s.busy_ns).add(s.busy_overlap_ns);
        }
        d
    }

    fn of_generation(
        rec: &Rc<RefCell<Recorder>>,
        generation: &GenerationMetrics,
        outputs: &BTreeMap<u64, Vec<u64>>,
    ) -> u64 {
        let mut d = Digest::of_sims(rec);
        for (id, stream) in outputs {
            d.add(*id);
            for t in stream {
                d.add(*t);
            }
        }
        d.of_results(generation.results())
    }

    fn of_results(&mut self, results: &[GenerationResult]) -> u64 {
        for r in results {
            self.add(r.id).add(r.first_token.as_nanos()).add(r.finished.as_nanos());
        }
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs() -> Vec<GenerationJob> {
        cluster_jobs(7).into_iter().take(3).collect()
    }

    fn served(jobs: &[GenerationJob]) -> (GenerationMetrics, BTreeMap<u64, Vec<u64>>) {
        let mut generation = GenerationMetrics::default();
        let mut outputs = BTreeMap::new();
        for j in jobs {
            generation.record(GenerationResult {
                id: j.id,
                arrival: j.arrival,
                first_token: j.arrival,
                finished: j.arrival,
                tokens: j.output_tokens,
                batch: 1,
            });
            outputs.insert(j.id, oracle_stream(j));
        }
        (generation, outputs)
    }

    #[test]
    fn oracle_streams_pass() {
        let jobs = jobs();
        let (generation, outputs) = served(&jobs);
        let tally = check_generation(&jobs, &generation, &outputs, 0, oracle_stream);
        assert_eq!(tally.failed_frac(), 0.0, "{:?}", tally.notes);
    }

    #[test]
    fn a_corrupted_stream_raises_failed_frac() {
        let jobs = jobs();
        let (generation, mut outputs) = served(&jobs);
        outputs.get_mut(&jobs[1].id).expect("job 1 served")[0] ^= 1;
        let tally = check_generation(&jobs, &generation, &outputs, 0, oracle_stream);
        assert_eq!(tally.failed, 1);
        assert!(tally.failed_frac() > 0.0);
    }

    #[test]
    fn a_missing_job_breaks_the_accounting() {
        let jobs = jobs();
        let (generation, outputs) = served(&jobs[..2]);
        let tally = check_generation(&jobs, &generation, &outputs, 0, oracle_stream);
        assert_eq!(tally.failed, 3, "accounting failure taints the pass: {:?}", tally.notes);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(cluster_jobs(3), cluster_jobs(3));
        assert_ne!(cluster_jobs(3), cluster_jobs(4));
        let shapes = |s| PrefillTraceConfig::paper(10, 2, 22.0, s).generate();
        assert_eq!(shapes(3), shapes(3));
    }

    #[test]
    fn a_quarter_of_the_replies_are_long_in_every_four_jobs() {
        for jobs in [cluster_jobs(5), cluster_jobs(6)] {
            for four in jobs.chunks_exact(4) {
                let long = four.iter().filter(|j| j.output_tokens >= 48).count();
                assert_eq!(long, 1, "{four:?}");
                assert!(four
                    .iter()
                    .all(|j| (4..=12).contains(&j.output_tokens)
                        || (48..=96).contains(&j.output_tokens)));
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
