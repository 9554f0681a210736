//! Full generative serving: prefill + incremental sampling loops.
//!
//! The paper's §4.3 benchmarks a *single* sampling iteration. A real
//! generative deployment serves whole generations: one conditioning
//! (prefill) pass over the prompt, then one decode iteration per output
//! token with a growing KV cache. This module chains those dependent
//! iterations through any [`InferenceEngine`]: iteration *k+1* of a job is
//! submitted when iteration *k* completes, so generations from different
//! jobs interleave naturally inside the engine — which is precisely the
//! regime interleaved parallelism was designed for.
//!
//! This driver batches *statically*: a job's members share one padded
//! sequence length and retire together. It remains as the fixed-batch
//! baseline; the default generative path is the iteration-level
//! continuous-batching scheduler in [`crate::scheduler`], which re-forms
//! the running set at every decode step over a paged KV pool.

use std::collections::HashMap;

use liger_gpu_sim::{CoreSelect, Driver, SimDuration, SimTime, Simulation, Wake};
use liger_model::BatchShape;

use crate::engine::{InferenceEngine, RunnerToken};
use crate::request::Request;
use crate::runner::run_core;

/// One generation job: a batch of prompts decoded for a fixed number of
/// output tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationJob {
    /// Job id (dense, assigned by the caller).
    pub id: u64,
    /// Sequences generated together.
    pub batch: u32,
    /// Prompt length (the conditioning phase's sequence length).
    pub prompt_len: u32,
    /// Output tokens to decode.
    pub output_tokens: u32,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Shared-prefix identity ([`PrefixTag::NONE`](crate::prefix::PrefixTag::NONE)
    /// for a request sharing nothing); drives the prefix cache and the
    /// deterministic token oracle.
    pub prefix: crate::prefix::PrefixTag,
}

/// Outcome of one finished generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationResult {
    /// Job id.
    pub id: u64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// When the prefill (first token) completed.
    pub first_token: SimTime,
    /// When the final token completed.
    pub finished: SimTime,
    /// Output tokens produced (per sequence).
    pub tokens: u32,
    /// Sequences in the job's batch.
    pub batch: u32,
}

impl GenerationResult {
    /// Time to first token (prefill latency + queueing).
    pub fn ttft(&self) -> SimDuration {
        self.first_token.saturating_since(self.arrival)
    }

    /// Mean time per output token over the decode phase.
    pub fn tpot(&self) -> SimDuration {
        if self.tokens <= 1 {
            return SimDuration::ZERO;
        }
        let span = self.finished.saturating_since(self.first_token);
        span / (self.tokens as u64 - 1)
    }

    /// End-to-end generation latency.
    pub fn total(&self) -> SimDuration {
        self.finished.saturating_since(self.arrival)
    }
}

/// Aggregated generation metrics.
#[derive(Debug, Clone, Default)]
pub struct GenerationMetrics {
    results: Vec<GenerationResult>,
}

impl GenerationMetrics {
    /// Completed generations.
    pub fn completed(&self) -> usize {
        self.results.len()
    }

    /// Per-job results.
    pub fn results(&self) -> &[GenerationResult] {
        &self.results
    }

    /// Records one finished generation (used by the serving drivers).
    pub fn record(&mut self, r: GenerationResult) {
        self.results.push(r);
    }

    /// Mean time to first token.
    pub fn avg_ttft(&self) -> SimDuration {
        self.mean(|r| r.ttft())
    }

    /// Mean time per output token.
    pub fn avg_tpot(&self) -> SimDuration {
        self.mean(|r| r.tpot())
    }

    /// Mean end-to-end generation latency.
    pub fn avg_total(&self) -> SimDuration {
        self.mean(|r| r.total())
    }

    /// Generated tokens per second (batch-expanded), from first arrival to
    /// last completion.
    pub fn token_throughput(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let first =
            self.results.iter().map(|r| r.arrival).min().expect("results checked non-empty above");
        let last =
            self.results.iter().map(|r| r.finished).max().expect("results checked non-empty above");
        let span = last.saturating_since(first).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let tokens: u64 = self.results.iter().map(|r| r.tokens as u64 * r.batch as u64).sum();
        tokens as f64 / span
    }

    fn mean(&self, f: impl Fn(&GenerationResult) -> SimDuration) -> SimDuration {
        if self.results.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.results.iter().map(|r| f(r).as_nanos() as u128).sum();
        SimDuration::from_nanos((total / self.results.len() as u128) as u64)
    }
}

#[derive(Debug)]
struct JobState {
    job: GenerationJob,
    first_token: Option<SimTime>,
    steps_done: u32,
}

/// Drives a set of generation jobs through an engine: prefill at arrival,
/// then one decode iteration per output token, each submitted when the
/// previous completes.
pub struct GenerationRunner<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    jobs: Vec<GenerationJob>,
    states: HashMap<u64, JobState>,
    /// Maps engine request ids to (job, step). Step 0 is the prefill.
    requests: HashMap<u64, (u64, u32)>,
    next_request: u64,
    metrics: GenerationMetrics,
    outstanding: usize,
}

impl<'a, E: InferenceEngine + ?Sized> GenerationRunner<'a, E> {
    /// Creates a runner over `jobs`.
    pub fn new(engine: &'a mut E, jobs: Vec<GenerationJob>) -> Self {
        let outstanding = jobs.len();
        GenerationRunner {
            engine,
            jobs,
            states: HashMap::new(),
            requests: HashMap::new(),
            next_request: 0,
            metrics: GenerationMetrics::default(),
            outstanding,
        }
    }

    /// Finished metrics.
    pub fn into_metrics(self) -> GenerationMetrics {
        self.metrics
    }

    fn submit_step(&mut self, job_id: u64, step: u32, sim: &mut Simulation) {
        let state = &self.states[&job_id];
        let shape = if step == 0 {
            BatchShape::prefill(state.job.batch, state.job.prompt_len)
        } else {
            BatchShape::decode(state.job.batch, state.job.prompt_len + step - 1)
        };
        let rid = self.next_request;
        self.next_request += 1;
        self.requests.insert(rid, (job_id, step));
        self.engine.submit(Request::new(rid, shape, sim.now()), sim);
    }

    fn collect(&mut self, sim: &mut Simulation) {
        for (rid, finished) in self.engine.drain_completions() {
            let (job_id, step) = self.requests.remove(&rid).expect("unknown request completed");
            let (done, next_step) = {
                let state = self.states.get_mut(&job_id).expect("completion for unknown job");
                if step == 0 {
                    state.first_token = Some(finished);
                }
                state.steps_done = state.steps_done.max(step + 1);
                // Steps: 1 prefill + output_tokens-1 decodes produce
                // output_tokens tokens in total (the prefill emits token 1).
                let total_steps = state.job.output_tokens.max(1);
                (state.steps_done >= total_steps, state.steps_done)
            };
            if done {
                let state = self
                    .states
                    .remove(&job_id)
                    .expect("job state exists: `done` was computed from this entry");
                self.metrics.results.push(GenerationResult {
                    id: job_id,
                    arrival: state.job.arrival,
                    first_token: state.first_token.unwrap_or(finished),
                    finished,
                    tokens: state.job.output_tokens,
                    batch: state.job.batch,
                });
                self.outstanding -= 1;
            } else {
                self.submit_step(job_id, next_step, sim);
            }
        }
        if self.outstanding == 0 {
            sim.request_stop();
        }
    }
}

/// Arms one arrival timer per job (dense ids); false for an empty list.
pub(crate) fn arm_job_arrivals(jobs: &[GenerationJob], sim: &mut Simulation) -> bool {
    for (i, job) in jobs.iter().enumerate() {
        debug_assert_eq!(job.id as usize, i, "job ids must be dense indices");
        sim.set_timer(job.arrival, RunnerToken::Arrival(job.id).encode());
    }
    !jobs.is_empty()
}

impl<E: InferenceEngine + ?Sized> Driver for GenerationRunner<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        if !arm_job_arrivals(&self.jobs, sim) {
            sim.request_stop();
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        match (wake, RunnerToken::of(&wake)) {
            (Wake::Timer { .. }, Some(RunnerToken::Arrival(job_id))) => {
                let job = self.jobs[job_id as usize];
                debug_assert_eq!(job.id, job_id, "job ids must be dense indices");
                self.states.insert(job_id, JobState { job, first_token: None, steps_done: 0 });
                self.submit_step(job_id, 0, sim);
            }
            (other, _) => self.engine.on_wake(other, sim),
        }
        self.collect(sim);
    }
}

/// Serves full generations with `engine` on `sim`; returns the metrics.
pub fn serve_generations<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    jobs: Vec<GenerationJob>,
) -> GenerationMetrics {
    serve_generations_on(CoreSelect::from_env(), sim, engine, jobs)
}

/// [`serve_generations`] on an explicit event core.
pub fn serve_generations_on<E: InferenceEngine + ?Sized>(
    core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    jobs: Vec<GenerationJob>,
) -> GenerationMetrics {
    let mut runner = GenerationRunner::new(engine, jobs);
    run_core(core, None, sim, &mut runner);
    runner.into_metrics()
}

impl liger_gpu_sim::ToJson for GenerationJob {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("id", &self.id)
            .field("batch", &self.batch)
            .field("prompt_len", &self.prompt_len)
            .field("output_tokens", &self.output_tokens)
            .field("arrival", &self.arrival)
            .field("prefix_class", &self.prefix.class)
            .field("prefix_shared_len", &self.prefix.shared_len);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for GenerationResult {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("id", &self.id)
            .field("arrival", &self.arrival)
            .field("first_token", &self.first_token)
            .field("finished", &self.finished)
            .field("tokens", &self.tokens)
            .field("batch", &self.batch)
            .field("ttft_ns", &self.ttft())
            .field("tpot_ns", &self.tpot());
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{DeviceId, DeviceSpec, HostId, HostSpec, KernelSpec, StreamId};
    use liger_model::Phase;

    /// Engine whose iterations take 10us (prefill) / 2us (decode).
    struct StepEngine {
        done: Vec<(u64, SimTime)>,
        decode_contexts: Vec<u32>,
    }

    impl InferenceEngine for StepEngine {
        fn name(&self) -> &'static str {
            "step"
        }
        fn submit(&mut self, request: Request, sim: &mut Simulation) {
            let us = match request.shape.phase {
                Phase::Prefill { .. } => 10,
                Phase::Decode { context } => {
                    self.decode_contexts.push(context);
                    2
                }
            };
            let stream = StreamId::new(DeviceId(0), 0);
            sim.launch(HostId(0), stream, KernelSpec::compute("it", SimDuration::from_micros(us)));
            let ev = sim.record_event(HostId(0), stream);
            sim.notify_on_event(ev, HostId(0), request.id);
        }
        fn on_wake(&mut self, wake: Wake, _: &mut Simulation) {
            if let Wake::EventFired { token, fired_at, .. } = wake {
                self.done.push((token, fired_at));
            }
        }
        fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
            std::mem::take(&mut self.done)
        }
    }

    fn sim() -> Simulation {
        Simulation::builder()
            .device(DeviceSpec::test_device())
            .host(HostSpec::instant())
            .build()
            .unwrap()
    }

    fn job(id: u64, tokens: u32, arrival_us: u64) -> GenerationJob {
        GenerationJob {
            id,
            batch: 4,
            prompt_len: 16,
            output_tokens: tokens,
            arrival: SimTime::from_micros(arrival_us),
            prefix: crate::prefix::PrefixTag::NONE,
        }
    }

    #[test]
    fn single_generation_timing() {
        let mut e = StepEngine { done: vec![], decode_contexts: vec![] };
        let m = serve_generations(&mut sim(), &mut e, vec![job(0, 5, 0)]);
        assert_eq!(m.completed(), 1);
        let r = m.results()[0];
        // Prefill 10us, then 4 decode steps of 2us.
        assert_eq!(r.ttft(), SimDuration::from_micros(10));
        assert_eq!(r.total(), SimDuration::from_micros(18));
        assert_eq!(r.tokens, 5);
        assert_eq!(r.tpot(), SimDuration::from_micros(2));
        // Decode contexts grow with the KV cache: prompt + step - 1.
        assert_eq!(e.decode_contexts, vec![16, 17, 18, 19]);
    }

    #[test]
    fn one_token_generation_is_prefill_only() {
        let mut e = StepEngine { done: vec![], decode_contexts: vec![] };
        let m = serve_generations(&mut sim(), &mut e, vec![job(0, 1, 0)]);
        let r = m.results()[0];
        assert_eq!(r.total(), SimDuration::from_micros(10));
        assert_eq!(r.tpot(), SimDuration::ZERO);
        assert!(e.decode_contexts.is_empty());
    }

    #[test]
    fn generations_interleave_and_all_finish() {
        let mut e = StepEngine { done: vec![], decode_contexts: vec![] };
        let jobs = (0..6).map(|i| job(i, 8, 5 * i)).collect();
        let m = serve_generations(&mut sim(), &mut e, jobs);
        assert_eq!(m.completed(), 6);
        assert!(m.avg_ttft() >= SimDuration::from_micros(10));
        assert!(m.token_throughput() > 0.0);
    }

    #[test]
    fn empty_job_list_terminates() {
        let mut e = StepEngine { done: vec![], decode_contexts: vec![] };
        let m = serve_generations(&mut sim(), &mut e, vec![]);
        assert_eq!(m.completed(), 0);
        assert_eq!(m.avg_ttft(), SimDuration::ZERO);
        assert_eq!(m.token_throughput(), 0.0);
    }

    #[test]
    fn metrics_aggregate_sensibly() {
        let mut e = StepEngine { done: vec![], decode_contexts: vec![] };
        let m = serve_generations(&mut sim(), &mut e, vec![job(0, 4, 0), job(1, 4, 0)]);
        assert_eq!(m.completed(), 2);
        assert!(m.avg_total() >= m.avg_ttft());
        for r in m.results() {
            assert!(r.finished > r.arrival);
            assert!(r.first_token <= r.finished);
        }
    }
}
