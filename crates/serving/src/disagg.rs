//! Disaggregated serving: dedicated prefill workers, dedicated decode
//! workers, and a KV stream over the inter-node link between them.
//!
//! Colocated continuous batching interleaves prompt (prefill) phases with
//! decode steps on the same engine, so a burst of long prompts stalls
//! every running decode — the decode tail latency inherits the prompt
//! distribution. Disaggregation (DistServe/Splitwise-style) splits the
//! cluster: a **prefill node** runs only prompt phases; when a prompt's
//! KV is resident, its block table is streamed over the NIC (priced by
//! [`kv_stream_time`] against the cluster's [`NicLink`]) to a **decode
//! node**, which admits the shipped table directly into its own paged
//! pool and fused-decodes it with the rest of the running set. Decode
//! steps never wait behind a prefill, so decode p99 is governed by the
//! decode batch alone — the property the `ablation_disagg` benchmark
//! gates on.
//!
//! Memory stays fully tracked on both worker classes: the prefill pool
//! holds a prompt's blocks from admission until the stream *completes*
//! (streaming is backpressure — blocks in flight still occupy the source
//! pool), and the decode pool allocates the shipped table at admission
//! and frees it at retirement. Both traces run the thread/memory
//! sanitizer clean (TS-LEAK / TS-UAF / TS-DOUBLE-FREE), and the static
//! verifier's capacity rule covers both pools.
//!
//! The two workers run as two simulations sharing one time axis (both
//! start at t = 0; a job enters the decode worker at the instant its KV
//! stream finished on the prefill side). Each worker is a deterministic
//! [`Driver`] over its own engine, so the whole tier is byte-identical
//! across event cores.

use std::collections::{BTreeMap, HashMap, VecDeque};

use liger_collectives::{kv_stream_time, ClusterTopology, NicLink};
use liger_gpu_sim::{
    CoreSelect, DeviceId, Driver, HostId, KernelSpec, SimTime, Simulation, StreamId, Trace, Wake,
};
use liger_kvcache::BlockPool;
use liger_model::{BatchShape, CostModel, ModelConfig};

use crate::admission::{ShedReason, ShedRecord};
use crate::engine::{InferenceEngine, RunnerToken};
use crate::generation::{arm_job_arrivals, GenerationJob, GenerationMetrics, GenerationResult};
use crate::metrics::{MetricsSections, ServingMetrics};
use crate::prefix::output_token;
use crate::request::{Completion, Request};
use crate::scheduler::{decode_shape, SchedulerConfig};

/// Stream index the KV stream kernel rides on (the engines launch on
/// streams 0 and 1; the NIC egress queue must not serialize behind them).
const NIC_STREAM: usize = 2;

/// Which worker class a simulation/engine pair backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisaggRole {
    /// Runs prompt phases only.
    Prefill,
    /// Admits shipped block tables and runs fused decode only.
    Decode,
}

impl DisaggRole {
    /// Stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            DisaggRole::Prefill => "prefill",
            DisaggRole::Decode => "decode",
        }
    }
}

/// Parameters of the disaggregated tier.
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Node geometry and NIC pricing.
    pub cluster: ClusterTopology,
    /// Node index hosting the prefill workers.
    pub prefill_node: usize,
    /// Node index hosting the decode workers.
    pub decode_node: usize,
    /// Pool geometry and admission bounds, applied to both worker classes
    /// (each node gets its own pool of this shape).
    pub scheduler: SchedulerConfig,
    /// NIC bandwidth degradation factor (`>= 1.0`; `1.0` = healthy). Models
    /// a `niclink` fault on the prefill→decode link: every KV stream is
    /// priced against the degraded link.
    pub nic_degrade: f64,
}

impl DisaggConfig {
    /// A two-node split over `cluster`: node 0 prefills, node 1 decodes.
    pub fn new(cluster: ClusterTopology, scheduler: SchedulerConfig) -> DisaggConfig {
        DisaggConfig { cluster, prefill_node: 0, decode_node: 1, scheduler, nic_degrade: 1.0 }
    }

    /// Degrades the inter-node link by `factor` (`>= 1.0`).
    pub fn with_nic_degrade(mut self, factor: f64) -> DisaggConfig {
        self.nic_degrade = factor;
        self
    }

    /// Rejects degenerate parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        self.scheduler.validate()?;
        if self.prefill_node == self.decode_node {
            return Err("prefill and decode must run on distinct nodes".into());
        }
        if self.prefill_node >= self.cluster.nodes || self.decode_node >= self.cluster.nodes {
            return Err("disagg node index out of range".into());
        }
        if self.nic_degrade < 1.0 || self.nic_degrade.is_nan() {
            return Err("nic_degrade must be >= 1.0".into());
        }
        Ok(())
    }

    /// The NIC link every KV stream is priced against (degraded when a
    /// `niclink` fault is configured).
    pub fn effective_nic(&self) -> NicLink {
        if self.nic_degrade > 1.0 {
            self.cluster.nic.degraded(self.nic_degrade)
        } else {
            self.cluster.nic.clone()
        }
    }

    /// Devices of the prefill node in cluster-global numbering (fault
    /// addressing; each worker's own simulation numbers devices locally).
    pub fn prefill_devices(&self) -> Vec<DeviceId> {
        self.cluster.devices_of(self.prefill_node).map(DeviceId).collect()
    }

    /// Devices of the decode node in cluster-global numbering.
    pub fn decode_devices(&self) -> Vec<DeviceId> {
        self.cluster.devices_of(self.decode_node).map(DeviceId).collect()
    }

    /// One node's devices in that node's own simulation: every worker runs
    /// in its own sim, so device ids are node-local `0..devices_per_node`.
    pub fn node_devices(&self) -> Vec<DeviceId> {
        (0..self.cluster.devices_per_node).map(DeviceId).collect()
    }
}

/// Outcome of one disaggregated serve.
#[derive(Debug, Clone, Default)]
pub struct DisaggReport {
    /// Per-generation results: arrival and first token on the prefill
    /// node's clock, completion on the decode node's.
    pub generation: GenerationMetrics,
    /// Prefill-node serving counters (prompt completions count here for
    /// single-token jobs that never ship).
    pub prefill: ServingMetrics,
    /// Decode-node serving counters (full-generation completions).
    pub decode: ServingMetrics,
    /// Both nodes merged.
    pub serving: ServingMetrics,
    /// Every produced output token per job id (token 0 from the prefill
    /// worker, the rest from decode) — byte-compared against the colocated
    /// scheduler's streams by the differential tests.
    pub outputs: BTreeMap<u64, Vec<u64>>,
    /// KV blocks shipped prefill → decode.
    pub streamed_blocks: u64,
    /// Bytes shipped prefill → decode (full KV: per-device block bytes ×
    /// prefill world).
    pub streamed_bytes: u64,
    /// Captured traces, `[prefill, decode]`, when the factory enabled
    /// trace capture.
    pub traces: Vec<Trace>,
}

impl DisaggReport {
    /// Jobs completed across both worker classes.
    pub fn completed(&self) -> usize {
        self.generation.completed()
    }
}

/// JSON view: one section per worker class plus the merged aggregate, all
/// through the shared [`MetricsSections`] helper.
impl liger_gpu_sim::ToJson for DisaggReport {
    fn write_json(&self, out: &mut String) {
        let mut sections = MetricsSections::new();
        sections.push("aggregate", &self.serving);
        sections.push("prefill_node", &self.prefill);
        sections.push("decode_node", &self.decode);
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("completed", &self.completed())
            .field("streamed_blocks", &self.streamed_blocks)
            .field("streamed_bytes", &self.streamed_bytes)
            .field("metrics", &sections);
        obj.end();
    }
}

/// Serves `jobs` disaggregated on the environment-selected event core.
/// `make_worker(role, devices)` builds each worker's simulation and engine
/// over that node's devices.
pub fn serve_disaggregated<E: InferenceEngine>(
    jobs: Vec<GenerationJob>,
    model: &ModelConfig,
    cost: &CostModel,
    config: DisaggConfig,
    make_worker: impl FnMut(DisaggRole, &[DeviceId]) -> (Simulation, E),
) -> DisaggReport {
    serve_disaggregated_on(CoreSelect::from_env(), jobs, model, cost, config, make_worker)
}

/// [`serve_disaggregated`] on an explicit event core.
pub fn serve_disaggregated_on<E: InferenceEngine>(
    core: CoreSelect,
    jobs: Vec<GenerationJob>,
    model: &ModelConfig,
    cost: &CostModel,
    config: DisaggConfig,
    mut make_worker: impl FnMut(DisaggRole, &[DeviceId]) -> (Simulation, E),
) -> DisaggReport {
    config.validate().expect("invalid DisaggConfig");
    assert!(jobs.len() < (1u64 << 52) as usize, "job count overflows the stream token namespace");
    debug_assert_eq!(
        config.scheduler.pool.block_bytes,
        liger_model::kv_block_bytes(
            model,
            config.cluster.devices_per_node as u32,
            config.scheduler.pool.block_tokens
        ),
        "pool geometry must match the model's KV sizing on one node"
    );
    let mut report = DisaggReport::default();

    // -- prefill wave --------------------------------------------------------
    let node_devices = config.node_devices();
    let (mut sim_p, mut engine_p) = make_worker(DisaggRole::Prefill, &node_devices);
    let lookahead = crate::runner::core_lookahead(&sim_p, cost);
    let mut prefill = PrefillWorker::new(&mut engine_p, &jobs, &config, &node_devices);
    crate::runner::run_core(core, Some(lookahead), &mut sim_p, &mut prefill);
    let PrefillOutcome {
        kv_ready,
        first_token,
        serving: prefill_metrics,
        generation: prefill_generation,
        outputs: prefill_outputs,
        streamed_blocks,
        streamed_bytes,
    } = prefill.into_outcome();
    if let Some(trace) = sim_p.take_trace() {
        report.traces.push(trace);
    }

    // -- decode wave ---------------------------------------------------------
    let (mut sim_d, mut engine_d) = make_worker(DisaggRole::Decode, &node_devices);
    let lookahead = crate::runner::core_lookahead(&sim_d, cost);
    let mut decode = DecodeWorker::new(&mut engine_d, &jobs, &config, &node_devices, kv_ready);
    crate::runner::run_core(core, Some(lookahead), &mut sim_d, &mut decode);
    let DecodeOutcome {
        serving: decode_metrics,
        generation: decode_generation,
        outputs: decode_outputs,
    } = decode.into_outcome(&first_token);
    if let Some(trace) = sim_d.take_trace() {
        report.traces.push(trace);
    }

    // -- merge ---------------------------------------------------------------
    for r in prefill_generation.results() {
        report.generation.record(*r);
    }
    for r in decode_generation.results() {
        report.generation.record(*r);
    }
    report.outputs = prefill_outputs;
    for (id, mut tail) in decode_outputs {
        report.outputs.entry(id).or_default().append(&mut tail);
    }
    report.serving.merge(&prefill_metrics);
    report.serving.merge(&decode_metrics);
    report.prefill = prefill_metrics;
    report.decode = decode_metrics;
    report.streamed_blocks = streamed_blocks;
    report.streamed_bytes = streamed_bytes;
    report
}

/// What the prefill wave hands the decode wave.
struct PrefillOutcome {
    /// Stream-arrival instant per job that shipped.
    kv_ready: BTreeMap<u64, SimTime>,
    /// First-token instant per job (prefill completion).
    first_token: HashMap<u64, SimTime>,
    serving: ServingMetrics,
    /// Single-token jobs finish entirely on the prefill node.
    generation: GenerationMetrics,
    outputs: BTreeMap<u64, Vec<u64>>,
    streamed_blocks: u64,
    streamed_bytes: u64,
}

/// The prefill worker: prompt phases only, then a NIC stream per prompt.
struct PrefillWorker<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    jobs: &'a [GenerationJob],
    pool: BlockPool,
    nic: NicLink,
    /// NIC egress device (the node's first device: one NIC per node, so
    /// streams serialize on its queue).
    egress: DeviceId,
    /// Full-KV scale factor: per-device block bytes × prefill world.
    world: u64,
    max_running: usize,
    token_budget: u64,

    waiting: VecDeque<u64>,
    inflight: HashMap<u64, u64>,
    tokens_inflight: u64,
    streaming: usize,
    next_request: u64,
    outstanding: usize,

    kv_ready: BTreeMap<u64, SimTime>,
    first_token: HashMap<u64, SimTime>,
    serving: ServingMetrics,
    generation: GenerationMetrics,
    outputs: BTreeMap<u64, Vec<u64>>,
    streamed_blocks: u64,
    streamed_bytes: u64,
}

impl<'a, E: InferenceEngine + ?Sized> PrefillWorker<'a, E> {
    fn new(
        engine: &'a mut E,
        jobs: &'a [GenerationJob],
        config: &DisaggConfig,
        devices: &[DeviceId],
    ) -> Self {
        PrefillWorker {
            engine,
            jobs,
            pool: BlockPool::new(config.scheduler.pool, devices.to_vec()),
            nic: config.effective_nic(),
            egress: devices[0],
            world: devices.len() as u64,
            max_running: config.scheduler.max_running,
            token_budget: config.scheduler.prefill_token_budget,
            waiting: VecDeque::new(),
            inflight: HashMap::new(),
            tokens_inflight: 0,
            streaming: 0,
            next_request: 0,
            outstanding: jobs.len(),
            kv_ready: BTreeMap::new(),
            first_token: HashMap::new(),
            serving: ServingMetrics::new(),
            generation: GenerationMetrics::default(),
            outputs: BTreeMap::new(),
            streamed_blocks: 0,
            streamed_bytes: 0,
        }
    }

    fn into_outcome(self) -> PrefillOutcome {
        PrefillOutcome {
            kv_ready: self.kv_ready,
            first_token: self.first_token,
            serving: self.serving,
            generation: self.generation,
            outputs: self.outputs,
            streamed_blocks: self.streamed_blocks,
            streamed_bytes: self.streamed_bytes,
        }
    }

    fn shed(&mut self, id: u64, now: SimTime) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.serving.recovery_mut().shed.push(ShedRecord {
            id,
            at: now,
            reason: ShedReason::KvExhausted,
        });
    }

    /// FCFS admission under the running bound, the token budget, and the
    /// pool watermark.
    fn admit(&mut self, sim: &mut Simulation) {
        while let Some(&id) = self.waiting.front() {
            if self.inflight.len() + self.streaming >= self.max_running {
                return;
            }
            if self.pool.above_watermark() {
                return;
            }
            let job = self.jobs[id as usize];
            let (prompt, rows) = (job.prompt_len, job.batch);
            if self.pool.blocks_for(prompt) * rows as u64 > self.pool.capacity_blocks() {
                self.waiting.pop_front();
                self.shed(id, sim.now());
                continue;
            }
            let prefill_tokens = prompt as u64 * rows as u64;
            if self.tokens_inflight > 0 && self.tokens_inflight + prefill_tokens > self.token_budget
            {
                return;
            }
            match self.pool.grow(sim, id, prompt, rows) {
                Ok(_) => {
                    self.waiting.pop_front();
                    let rid = self.next_request;
                    self.next_request += 1;
                    self.inflight.insert(rid, id);
                    self.tokens_inflight += prefill_tokens;
                    let shape = BatchShape::prefill(rows, prompt);
                    self.engine.submit(Request::new(rid, shape, sim.now()), sim);
                }
                Err(_) if self.inflight.is_empty() && self.streaming == 0 => {
                    self.serving.batching_mut().out_of_blocks += 1;
                    self.waiting.pop_front();
                    self.pool.release(sim, id);
                    self.shed(id, sim.now());
                }
                Err(_) => {
                    self.serving.batching_mut().out_of_blocks += 1;
                    return;
                }
            }
        }
    }

    /// A prompt's KV is resident: either the job is done (single-token
    /// generations never ship) or its blocks stream out over the NIC.
    fn prefill_done(&mut self, id: u64, finished: SimTime, sim: &mut Simulation) {
        let job = self.jobs[id as usize];
        self.first_token.insert(id, finished);
        self.outputs.entry(id).or_default().push(output_token(&job, 0));
        if job.output_tokens <= 1 {
            self.pool.release(sim, id);
            self.outstanding = self.outstanding.saturating_sub(1);
            self.generation.record(GenerationResult {
                id,
                arrival: job.arrival,
                first_token: finished,
                finished,
                tokens: job.output_tokens,
                batch: job.batch,
            });
            self.serving.record(Completion { id, arrival: job.arrival, finished });
            return;
        }
        // Ship the block table: one comm kernel on the NIC egress queue,
        // priced against the (possibly degraded) inter-node link. The
        // blocks stay allocated until the stream completes — in-flight KV
        // still occupies the source pool.
        let blocks = self.pool.blocks_for(job.prompt_len) * job.batch as u64;
        let bytes = blocks * self.pool.config().block_bytes * self.world;
        self.streamed_blocks += blocks;
        self.streamed_bytes += bytes;
        self.streaming += 1;
        let host = HostId(self.egress.0);
        let stream = StreamId::new(self.egress, NIC_STREAM);
        let spec = KernelSpec::comm("kv-stream", kv_stream_time(bytes, &self.nic)).with_tag(id);
        sim.launch(host, stream, spec);
        let ev = sim.record_event(host, stream);
        sim.notify_on_event(ev, host, RunnerToken::Stream(id).encode());
    }

    fn collect(&mut self, sim: &mut Simulation) {
        for (rid, finished) in self.engine.drain_completions() {
            if let Some(id) = self.inflight.remove(&rid) {
                let job = self.jobs[id as usize];
                let tokens = job.prompt_len as u64 * job.batch as u64;
                self.tokens_inflight = self.tokens_inflight.saturating_sub(tokens);
                self.prefill_done(id, finished, sim);
            }
        }
        if self.outstanding == 0 {
            debug_assert!(self.pool.is_empty(), "prefill ended with live KV blocks");
            sim.request_stop();
        } else {
            self.admit(sim);
        }
    }
}

impl<E: InferenceEngine + ?Sized> Driver for PrefillWorker<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        if !arm_job_arrivals(self.jobs, sim) {
            sim.request_stop();
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        match (wake, RunnerToken::of(&wake)) {
            (Wake::EventFired { fired_at, .. }, Some(RunnerToken::Stream(id))) => {
                self.pool.release(sim, id);
                self.streaming -= 1;
                self.outstanding = self.outstanding.saturating_sub(1);
                self.kv_ready.insert(id, fired_at);
            }
            (Wake::Timer { .. }, Some(RunnerToken::Arrival(id))) => self.waiting.push_back(id),
            (other, _) => self.engine.on_wake(other, sim),
        }
        self.collect(sim);
    }
}

/// What the decode wave reports.
struct DecodeOutcome {
    serving: ServingMetrics,
    generation: GenerationMetrics,
    outputs: BTreeMap<u64, Vec<u64>>,
}

#[derive(Debug)]
struct DecodeSeq {
    job: GenerationJob,
    /// Completed steps; the prefill node already produced step 0's token,
    /// so sequences enter at 1.
    steps_done: u32,
}

/// The decode worker: admits shipped block tables, fused-decodes the
/// running set, one step in flight at a time.
struct DecodeWorker<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    pool: BlockPool,
    max_running: usize,

    /// Stream arrivals, `(kv-ready instant, job)` — timers set at start.
    arrivals: Vec<(SimTime, GenerationJob)>,
    states: HashMap<u64, DecodeSeq>,
    waiting: VecDeque<u64>,
    running: Vec<u64>,
    decode_inflight: Option<(u64, Vec<u64>)>,
    next_request: u64,
    outstanding: usize,

    serving: ServingMetrics,
    generation: GenerationMetrics,
    outputs: BTreeMap<u64, Vec<u64>>,
    /// Completion instants in job-id order (ordered so the final report is
    /// identical across event cores and hash seeds).
    finished_at: BTreeMap<u64, SimTime>,
}

impl<'a, E: InferenceEngine + ?Sized> DecodeWorker<'a, E> {
    fn new(
        engine: &'a mut E,
        jobs: &[GenerationJob],
        config: &DisaggConfig,
        devices: &[DeviceId],
        kv_ready: BTreeMap<u64, SimTime>,
    ) -> Self {
        let arrivals: Vec<(SimTime, GenerationJob)> =
            kv_ready.into_iter().map(|(id, at)| (at, jobs[id as usize])).collect();
        let outstanding = arrivals.len();
        DecodeWorker {
            engine,
            pool: BlockPool::new(config.scheduler.pool, devices.to_vec()),
            max_running: config.scheduler.max_running,
            arrivals,
            states: HashMap::new(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            decode_inflight: None,
            next_request: 0,
            outstanding,
            serving: ServingMetrics::new(),
            generation: GenerationMetrics::default(),
            outputs: BTreeMap::new(),
            finished_at: BTreeMap::new(),
        }
    }

    /// Finalizes the report, stitching each result's first-token instant
    /// from the prefill wave.
    fn into_outcome(mut self, first_token: &HashMap<u64, SimTime>) -> DecodeOutcome {
        let finished = std::mem::take(&mut self.finished_at);
        for (id, done) in finished {
            let job = self.states.remove(&id).expect("finished sequence kept state").job;
            let first = first_token.get(&id).copied().unwrap_or(done);
            self.generation.record(GenerationResult {
                id,
                arrival: job.arrival,
                first_token: first,
                finished: done,
                tokens: job.output_tokens,
                batch: job.batch,
            });
            self.serving.record(Completion { id, arrival: job.arrival, finished: done });
        }
        DecodeOutcome { serving: self.serving, generation: self.generation, outputs: self.outputs }
    }

    fn shed(&mut self, id: u64, now: SimTime) {
        self.states.remove(&id);
        self.outstanding = self.outstanding.saturating_sub(1);
        self.serving.recovery_mut().shed.push(ShedRecord {
            id,
            at: now,
            reason: ShedReason::KvExhausted,
        });
    }

    /// Admits a shipped block table: the prompt's blocks materialize in
    /// the decode pool (the stream delivered their contents) and the
    /// sequence joins the running set — no prefill pass.
    fn admit(&mut self, sim: &mut Simulation) {
        while let Some(&id) = self.waiting.front() {
            if self.running.len() >= self.max_running {
                return;
            }
            if self.pool.above_watermark() {
                return;
            }
            let job = self.states[&id].job;
            let (prompt, rows) = (job.prompt_len, job.batch);
            let final_tokens = prompt + job.output_tokens.max(1) - 1;
            if self.pool.blocks_for(final_tokens) * rows as u64 > self.pool.capacity_blocks() {
                self.waiting.pop_front();
                self.pool.release(sim, id);
                self.shed(id, sim.now());
                continue;
            }
            match self.pool.grow(sim, id, prompt, rows) {
                Ok(_) => {
                    self.waiting.pop_front();
                    self.running.push(id);
                }
                Err(_) if self.running.is_empty() => {
                    self.serving.batching_mut().out_of_blocks += 1;
                    self.waiting.pop_front();
                    self.pool.release(sim, id);
                    self.shed(id, sim.now());
                }
                Err(_) => {
                    self.serving.batching_mut().out_of_blocks += 1;
                    return;
                }
            }
        }
    }

    /// Forms and submits the next fused decode step over the running set.
    /// A member the pool cannot grow sheds (re-prefilling on the decode
    /// node is impossible by construction — it has no prompt path).
    fn form_decode_step(&mut self, sim: &mut Simulation) {
        let mut members: Vec<u64> = Vec::with_capacity(self.running.len());
        let mut i = 0;
        while i < self.running.len() {
            let id = self.running[i];
            let (tokens, rows) = {
                let s = &self.states[&id];
                (s.job.prompt_len + s.steps_done, s.job.batch)
            };
            match self.pool.grow(sim, id, tokens, rows) {
                Ok(_) => {
                    members.push(id);
                    i += 1;
                }
                Err(_) => {
                    self.serving.batching_mut().out_of_blocks += 1;
                    // Shed the youngest — it re-queued most recently and
                    // frees the most headroom per completed token lost.
                    let victim = self.running.pop().expect("running set is non-empty here");
                    members.retain(|&m| m != victim);
                    self.pool.release(sim, victim);
                    self.shed(victim, sim.now());
                }
            }
        }
        if members.is_empty() {
            return;
        }
        let (total_rows, max_context, real_tokens) = decode_shape(
            members.iter().map(|id| (self.states[id].job, self.states[id].steps_done)),
        );
        let padded = (max_context as u64 + 1) * total_rows as u64;
        self.serving.batching_mut().record_batch(padded, real_tokens);
        self.serving
            .batching_mut()
            .record_occupancy(members.len() as f64 / self.max_running as f64);
        let rid = self.next_request;
        self.next_request += 1;
        let shape = BatchShape::decode(total_rows, max_context);
        self.decode_inflight = Some((rid, members));
        self.engine.submit(Request::new(rid, shape, sim.now()), sim);
    }

    fn collect(&mut self, sim: &mut Simulation) {
        for (rid, finished) in self.engine.drain_completions() {
            if self.decode_inflight.as_ref().is_some_and(|&(d, _)| d == rid) {
                let (_, members) = self.decode_inflight.take().expect("checked above");
                for id in members {
                    let done_now = {
                        let s = self.states.get_mut(&id).expect("decode member has state");
                        let token = output_token(&s.job, s.steps_done);
                        self.outputs.entry(id).or_default().push(token);
                        s.steps_done += 1;
                        s.steps_done >= s.job.output_tokens
                    };
                    if done_now {
                        self.running.retain(|&r| r != id);
                        self.pool.release(sim, id);
                        self.finished_at.insert(id, finished);
                        self.outstanding = self.outstanding.saturating_sub(1);
                    }
                }
            }
        }
        if self.outstanding == 0 {
            debug_assert!(self.pool.is_empty(), "decode ended with live KV blocks");
            sim.request_stop();
        } else {
            self.admit(sim);
            if self.decode_inflight.is_none() {
                self.form_decode_step(sim);
            }
        }
    }
}

impl<E: InferenceEngine + ?Sized> Driver for DecodeWorker<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        if self.arrivals.is_empty() {
            sim.request_stop();
            return;
        }
        for (at, job) in std::mem::take(&mut self.arrivals) {
            self.states.insert(job.id, DecodeSeq { job, steps_done: 1 });
            sim.set_timer(at, RunnerToken::Arrival(job.id).encode());
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        match (wake, RunnerToken::of(&wake)) {
            (Wake::Timer { .. }, Some(RunnerToken::Arrival(id))) => self.waiting.push_back(id),
            (other, _) => self.engine.on_wake(other, sim),
        }
        self.collect(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> DisaggConfig {
        let cluster = ClusterTopology::test_cluster(2, 2);
        let sched = SchedulerConfig::sized_for(&ModelConfig::tiny_test(), 2, 16 * (1 << 30));
        DisaggConfig::new(cluster, sched)
    }

    #[test]
    fn config_validates() {
        test_config().validate().unwrap();
        let mut same_node = test_config();
        same_node.decode_node = same_node.prefill_node;
        assert!(same_node.validate().is_err());
        let mut bad_factor = test_config();
        bad_factor.nic_degrade = 0.5;
        assert!(bad_factor.validate().is_err());
    }

    #[test]
    fn node_device_split_is_disjoint() {
        let cfg = test_config();
        let p = cfg.prefill_devices();
        let d = cfg.decode_devices();
        assert_eq!(p, vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(d, vec![DeviceId(2), DeviceId(3)]);
    }

    #[test]
    fn degraded_nic_slows_streams() {
        let healthy = test_config();
        let degraded = test_config().with_nic_degrade(4.0);
        let bytes = 1 << 20;
        assert!(
            kv_stream_time(bytes, &degraded.effective_nic())
                > kv_stream_time(bytes, &healthy.effective_nic())
        );
        // Latency is unchanged; only bandwidth degrades.
        assert_eq!(healthy.effective_nic().latency, degraded.effective_nic().latency);
    }
}
