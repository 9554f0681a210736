//! The serving-system frontend: packing user queries into batches.
//!
//! The paper's system overview (Fig. 5) places Liger behind a serving layer
//! that, "after receiving requests and packing them as a batch", hands the
//! batch to the runtime. This module implements that layer: individual
//! queries arrive one by one; the batcher groups them — up to a maximum
//! batch size, holding a partial batch no longer than a configurable
//! timeout — and emits engine [`Request`]s. Queries in one batch share the
//! batch's padded sequence length (the longest member), which is the
//! padding waste real batched serving pays.

use std::collections::VecDeque;

use liger_gpu_sim::{SimDuration, SimTime};
use liger_model::BatchShape;

use crate::request::Request;

/// One user query (a single sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Query id (caller-assigned, dense).
    pub id: u64,
    /// Prompt length.
    pub seq_len: u32,
    /// Arrival instant.
    pub arrival: SimTime,
}

/// Batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Maximum queries per batch.
    pub max_batch: u32,
    /// Longest a partial batch may wait for more queries before it is
    /// flushed anyway.
    pub max_wait: SimDuration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch: 8, max_wait: SimDuration::from_millis(10) }
    }
}

impl BatcherConfig {
    /// Validates the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be >= 1".into());
        }
        Ok(())
    }
}

/// A batch emitted by the batcher: the engine request plus the member
/// queries (for unbatching completions back to users).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBatch {
    /// The engine-facing request.
    pub request: Request,
    /// Ids of the member queries.
    pub members: Vec<u64>,
}

/// Packs queries into batches.
#[derive(Debug)]
pub struct Batcher {
    config: BatcherConfig,
    pending: VecDeque<Query>,
    next_request: u64,
}

impl Batcher {
    /// Creates a batcher.
    pub fn new(config: BatcherConfig) -> Result<Batcher, String> {
        config.validate()?;
        Ok(Batcher { config, pending: VecDeque::new(), next_request: 0 })
    }

    /// Queries currently held back.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Offers a query at its arrival instant; returns a batch when the
    /// arrival filled one.
    pub fn offer(&mut self, query: Query) -> Option<PackedBatch> {
        self.pending.push_back(query);
        if self.pending.len() >= self.config.max_batch as usize {
            return Some(self.flush(query.arrival).expect("pending is non-empty"));
        }
        None
    }

    /// The deadline by which the oldest pending query must be flushed, if
    /// any. The serving loop arms a timer for this instant.
    pub fn flush_deadline(&self) -> Option<SimTime> {
        self.pending.front().map(|q| q.arrival + self.config.max_wait)
    }

    /// Flushes the current partial batch (timeout path). Returns `None`
    /// when nothing is pending.
    pub fn flush(&mut self, now: SimTime) -> Option<PackedBatch> {
        if self.pending.is_empty() {
            return None;
        }
        let take = (self.config.max_batch as usize).min(self.pending.len());
        let members: Vec<Query> = self.pending.drain(..take).collect();
        let seq = members.iter().map(|q| q.seq_len).max().expect("non-empty batch");
        let id = self.next_request;
        self.next_request += 1;
        Some(PackedBatch {
            request: Request::new(id, BatchShape::prefill(take as u32, seq), now),
            members: members.iter().map(|q| q.id).collect(),
        })
    }

    /// Padding waste of a batch: padded tokens minus real tokens, as a
    /// fraction of the padded total.
    pub fn padding_waste(batch_seq: u32, member_lens: &[u32]) -> f64 {
        if member_lens.is_empty() || batch_seq == 0 {
            return 0.0;
        }
        let padded = batch_seq as u64 * member_lens.len() as u64;
        let real: u64 = member_lens.iter().map(|&l| l as u64).sum();
        (padded - real.min(padded)) as f64 / padded as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, seq: u32, at_us: u64) -> Query {
        Query { id, seq_len: seq, arrival: SimTime::from_micros(at_us) }
    }

    #[test]
    fn fills_to_max_batch() {
        let mut b =
            Batcher::new(BatcherConfig { max_batch: 3, max_wait: SimDuration::from_millis(5) })
                .unwrap();
        assert!(b.offer(q(0, 16, 0)).is_none());
        assert!(b.offer(q(1, 64, 10)).is_none());
        let batch = b.offer(q(2, 32, 20)).expect("third query fills the batch");
        assert_eq!(batch.members, vec![0, 1, 2]);
        assert_eq!(batch.request.shape.batch, 3);
        // Padded to the longest member.
        assert!(matches!(batch.request.shape.phase, liger_model::Phase::Prefill { seq_len: 64 }));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn timeout_flushes_partial_batches() {
        let mut b =
            Batcher::new(BatcherConfig { max_batch: 8, max_wait: SimDuration::from_millis(5) })
                .unwrap();
        b.offer(q(0, 40, 0));
        b.offer(q(1, 20, 1_000));
        assert_eq!(b.flush_deadline(), Some(SimTime::from_millis(5)));
        let batch = b.flush(SimTime::from_millis(5)).unwrap();
        assert_eq!(batch.request.shape.batch, 2);
        assert_eq!(batch.members, vec![0, 1]);
        assert_eq!(b.pending(), 0);
        assert!(b.flush(SimTime::from_millis(6)).is_none(), "nothing left to flush");
        assert_eq!(b.flush_deadline(), None);
    }

    #[test]
    fn request_ids_are_dense_and_increasing() {
        let mut b =
            Batcher::new(BatcherConfig { max_batch: 1, max_wait: SimDuration::ZERO }).unwrap();
        let r0 = b.offer(q(0, 16, 0)).unwrap().request.id;
        let r1 = b.offer(q(1, 16, 5)).unwrap().request.id;
        assert_eq!((r0, r1), (0, 1));
    }

    #[test]
    fn padding_waste_accounting() {
        assert_eq!(Batcher::padding_waste(64, &[64, 64]), 0.0);
        // 64-token pad over [16, 64]: (128-80)/128 = 0.375.
        assert!((Batcher::padding_waste(64, &[16, 64]) - 0.375).abs() < 1e-12);
        assert_eq!(Batcher::padding_waste(64, &[]), 0.0);
        assert_eq!(Batcher::padding_waste(0, &[1]), 0.0);
    }

    #[test]
    fn zero_max_batch_rejected() {
        assert!(Batcher::new(BatcherConfig { max_batch: 0, max_wait: SimDuration::ZERO }).is_err());
    }

    #[test]
    fn burst_larger_than_max_batch_splits() {
        let mut b =
            Batcher::new(BatcherConfig { max_batch: 4, max_wait: SimDuration::from_millis(1) })
                .unwrap();
        let mut emitted = Vec::new();
        for i in 0..10 {
            if let Some(batch) = b.offer(q(i, 16, 0)) {
                emitted.push(batch);
            }
        }
        assert_eq!(emitted.len(), 2, "two full batches emitted");
        assert_eq!(b.pending(), 2, "remainder awaits the timeout");
        let tail = b.flush(SimTime::from_millis(1)).unwrap();
        assert_eq!(tail.request.shape.batch, 2);
    }
}

// ---------------------------------------------------------------------------
// Query-level serving loop
// ---------------------------------------------------------------------------

use std::collections::HashMap;

use liger_gpu_sim::{CoreSelect, Driver, Simulation, Wake};

use crate::engine::{InferenceEngine, RunnerToken};
use crate::metrics::ServingMetrics;
use crate::request::Completion;
use crate::runner::run_core;

/// One dispatched batch awaiting completion.
#[derive(Debug, Clone)]
struct InFlightBatch {
    /// The engine-facing request (kept for requeue resubmission).
    request: Request,
    /// Member query ids.
    members: Vec<u64>,
    /// Requeues consumed so far.
    attempts: u32,
    /// A member kernel failed; requeue when the attempt drains.
    tainted: bool,
}

/// Serves individual queries through a [`Batcher`] and an engine: the
/// end-to-end frontend + runtime stack of the paper's Fig. 5. Latency is
/// measured per *query* (including time spent waiting in the batcher).
///
/// With a requeue budget (see [`serve_queries_with_retry`]), a batch whose
/// kernels were killed by the fault schedule is resubmitted whole once the
/// tainted attempt drains, up to `requeue_limit` times per batch.
pub struct QueryRunner<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    batcher: Batcher,
    queries: Vec<Query>,
    /// request id -> members + requeue state.
    in_flight: HashMap<u64, InFlightBatch>,
    metrics: ServingMetrics,
    outstanding: usize,
    flush_gen: u64,
    requeue_limit: u32,
}

impl<'a, E: InferenceEngine + ?Sized> QueryRunner<'a, E> {
    /// Creates a runner over `queries` (ids must be dense indices).
    pub fn new(
        engine: &'a mut E,
        config: BatcherConfig,
        queries: Vec<Query>,
    ) -> Result<Self, String> {
        let outstanding = queries.len();
        Ok(QueryRunner {
            engine,
            batcher: Batcher::new(config)?,
            queries,
            in_flight: HashMap::new(),
            metrics: ServingMetrics::new(),
            outstanding,
            flush_gen: 0,
            requeue_limit: 0,
        })
    }

    /// [`Self::new`] with up to `requeue_limit` resubmissions per batch on
    /// kernel failure.
    pub fn with_retry(
        engine: &'a mut E,
        config: BatcherConfig,
        queries: Vec<Query>,
        requeue_limit: u32,
    ) -> Result<Self, String> {
        let mut runner = QueryRunner::new(engine, config, queries)?;
        runner.requeue_limit = requeue_limit;
        Ok(runner)
    }

    /// Finished metrics (query-level).
    pub fn into_metrics(self) -> ServingMetrics {
        self.metrics
    }

    fn dispatch(&mut self, batch: PackedBatch, sim: &mut Simulation) {
        // The batch is padded to its longest member: account the waste the
        // per-batch `Batcher::padding_waste` math computes, instead of
        // dropping it on the floor.
        let padded_seq = batch.request.shape.phase.tokens() as u64;
        let real: u64 =
            batch.members.iter().map(|&q| self.queries[q as usize].seq_len as u64).sum();
        self.metrics.batching_mut().record_batch(padded_seq * batch.members.len() as u64, real);
        self.in_flight.insert(
            batch.request.id,
            InFlightBatch {
                request: batch.request,
                members: batch.members,
                attempts: 0,
                tainted: false,
            },
        );
        self.engine.submit(batch.request, sim);
    }

    fn arm_flush_timer(&mut self, sim: &mut Simulation) {
        if let Some(deadline) = self.batcher.flush_deadline() {
            self.flush_gen += 1;
            sim.set_timer(deadline, RunnerToken::Flush(self.flush_gen).encode());
        }
    }

    fn collect(&mut self, sim: &mut Simulation) {
        for (rid, finished) in self.engine.drain_completions() {
            let entry = self.in_flight.get_mut(&rid).expect("unknown request completed");
            if entry.tainted && entry.attempts < self.requeue_limit {
                // Put the whole batch back on the engine now that its
                // tainted attempt has drained.
                entry.tainted = false;
                entry.attempts += 1;
                let request = entry.request;
                self.metrics.faults_mut().requeues += 1;
                self.engine.submit(request, sim);
                continue;
            }
            let members = self.in_flight.remove(&rid).expect("entry vanished").members;
            for qid in members {
                self.metrics.record(Completion {
                    id: qid,
                    arrival: self.queries[qid as usize].arrival,
                    finished,
                });
                self.outstanding -= 1;
            }
        }
        if self.outstanding == 0 {
            sim.request_stop();
        }
    }
}

impl<E: InferenceEngine + ?Sized> Driver for QueryRunner<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        if self.queries.is_empty() {
            sim.request_stop();
            return;
        }
        for (i, q) in self.queries.iter().enumerate() {
            debug_assert_eq!(q.id as usize, i, "query ids must be dense indices");
            sim.set_timer(q.arrival, RunnerToken::Arrival(q.id).encode());
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        match (wake, RunnerToken::of(&wake)) {
            (Wake::Timer { .. }, Some(RunnerToken::Flush(generation))) => {
                // Only the newest flush timer is authoritative.
                if generation == self.flush_gen {
                    if let Some(batch) = self.batcher.flush(sim.now()) {
                        self.dispatch(batch, sim);
                    }
                    self.arm_flush_timer(sim);
                }
            }
            (Wake::Timer { .. }, Some(RunnerToken::Arrival(id))) => {
                let id = id as usize;
                let was_empty = self.batcher.pending() == 0;
                if let Some(batch) = self.batcher.offer(self.queries[id]) {
                    self.dispatch(batch, sim);
                    self.arm_flush_timer(sim);
                } else if was_empty {
                    self.arm_flush_timer(sim);
                }
            }
            (Wake::KernelFailed { tag, .. }, _) => {
                if self.requeue_limit > 0 {
                    self.metrics.faults_mut().kernel_failures += 1;
                    if let Some(entry) = self.in_flight.get_mut(&tag) {
                        entry.tainted = true;
                    }
                }
                self.engine.on_wake(wake, sim);
            }
            (other, _) => self.engine.on_wake(other, sim),
        }
        self.collect(sim);
    }
}

/// Serves individual `queries` through the batcher + `engine`; returns
/// query-level metrics.
pub fn serve_queries<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    config: BatcherConfig,
    queries: Vec<Query>,
) -> ServingMetrics {
    serve_queries_on(CoreSelect::from_env(), sim, engine, config, queries)
}

/// [`serve_queries`] on an explicit event core.
pub fn serve_queries_on<E: InferenceEngine + ?Sized>(
    core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    config: BatcherConfig,
    queries: Vec<Query>,
) -> ServingMetrics {
    let mut runner = QueryRunner::new(engine, config, queries).expect("valid batcher config");
    run_core(core, None, sim, &mut runner);
    runner.into_metrics()
}

/// [`serve_queries`] with requeue-on-kernel-failure: a batch whose kernels
/// the fault schedule killed is resubmitted whole (up to `requeue_limit`
/// times per batch) once the tainted attempt drains.
pub fn serve_queries_with_retry<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    config: BatcherConfig,
    queries: Vec<Query>,
    requeue_limit: u32,
) -> ServingMetrics {
    serve_queries_with_retry_on(CoreSelect::from_env(), sim, engine, config, queries, requeue_limit)
}

/// [`serve_queries_with_retry`] on an explicit event core.
pub fn serve_queries_with_retry_on<E: InferenceEngine + ?Sized>(
    core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    config: BatcherConfig,
    queries: Vec<Query>,
    requeue_limit: u32,
) -> ServingMetrics {
    let mut runner =
        QueryRunner::with_retry(engine, config, queries, requeue_limit).expect("valid config");
    run_core(core, None, sim, &mut runner);
    runner.into_metrics()
}

#[cfg(test)]
mod runner_tests {
    use super::*;
    use crate::request::Request;
    use liger_gpu_sim::{DeviceId, DeviceSpec, HostId, HostSpec, KernelSpec, SimTime, StreamId};
    use liger_model::Phase;

    /// Engine taking 10us per batch regardless of size, recording shapes.
    struct RecordingEngine {
        done: Vec<(u64, SimTime)>,
        shapes: Vec<(u32, u32)>, // (batch, seq)
    }

    impl InferenceEngine for RecordingEngine {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn submit(&mut self, request: Request, sim: &mut Simulation) {
            let seq = match request.shape.phase {
                Phase::Prefill { seq_len } => seq_len,
                Phase::Decode { context } => context,
            };
            self.shapes.push((request.shape.batch, seq));
            let stream = StreamId::new(DeviceId(0), 0);
            sim.launch(
                HostId(0),
                stream,
                KernelSpec::compute("b", liger_gpu_sim::SimDuration::from_micros(10)),
            );
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

    fn queries(gaps_us: &[u64], seqs: &[u32]) -> Vec<Query> {
        let mut t = 0;
        gaps_us
            .iter()
            .zip(seqs)
            .enumerate()
            .map(|(i, (&gap, &seq))| {
                t += gap;
                Query { id: i as u64, seq_len: seq, arrival: SimTime::from_micros(t) }
            })
            .collect()
    }

    #[test]
    fn burst_is_packed_into_one_batch() {
        let mut e = RecordingEngine { done: vec![], shapes: vec![] };
        let qs = queries(&[0, 0, 0, 0], &[16, 64, 32, 48]);
        let cfg = BatcherConfig { max_batch: 4, max_wait: SimDuration::from_millis(1) };
        let m = serve_queries(&mut sim(), &mut e, cfg, qs);
        assert_eq!(m.completed(), 4);
        assert_eq!(e.shapes, vec![(4, 64)], "one padded batch of four");
    }

    #[test]
    fn timeout_flushes_sparse_arrivals() {
        let mut e = RecordingEngine { done: vec![], shapes: vec![] };
        // Two queries 100us apart, deadline 50us: two singleton batches.
        let qs = queries(&[0, 100], &[16, 32]);
        let cfg = BatcherConfig { max_batch: 8, max_wait: SimDuration::from_micros(50) };
        let m = serve_queries(&mut sim(), &mut e, cfg, qs);
        assert_eq!(m.completed(), 2);
        assert_eq!(e.shapes, vec![(1, 16), (1, 32)]);
        // Query latency includes the batcher wait: 50us + 10us service.
        assert_eq!(m.max_latency(), SimDuration::from_micros(60));
    }

    #[test]
    fn query_latency_includes_batching_delay() {
        let mut e = RecordingEngine { done: vec![], shapes: vec![] };
        let qs = queries(&[0, 10], &[16, 16]);
        let cfg = BatcherConfig { max_batch: 2, max_wait: SimDuration::from_millis(1) };
        let m = serve_queries(&mut sim(), &mut e, cfg, qs);
        let mut comps: Vec<_> = m.completions().to_vec();
        comps.sort_by_key(|c| c.id);
        // First query waited 10us for the second, then 10us of service.
        assert_eq!(comps[0].latency(), SimDuration::from_micros(20));
        assert_eq!(comps[1].latency(), SimDuration::from_micros(10));
    }

    #[test]
    fn empty_query_list_terminates() {
        let mut e = RecordingEngine { done: vec![], shapes: vec![] };
        let m = serve_queries(&mut sim(), &mut e, BatcherConfig::default(), vec![]);
        assert_eq!(m.completed(), 0);
    }

    use liger_gpu_sim::{FaultSpec, KernelFaultParams, SimDuration};

    /// Like [`RecordingEngine`] but tags kernels with the request id so the
    /// simulator's failure notifications map back to batches.
    struct TaggedEngine {
        done: Vec<(u64, SimTime)>,
    }

    impl InferenceEngine for TaggedEngine {
        fn name(&self) -> &'static str {
            "tagged"
        }
        fn submit(&mut self, request: Request, sim: &mut Simulation) {
            let stream = StreamId::new(DeviceId(0), 0);
            sim.launch(
                HostId(0),
                stream,
                KernelSpec::compute("b", SimDuration::from_micros(10)).with_tag(request.id),
            );
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

    fn faulty_sim(faults: FaultSpec) -> Simulation {
        Simulation::builder()
            .device(DeviceSpec::test_device())
            .host(HostSpec::instant())
            .faults(faults)
            .build()
            .unwrap()
    }

    #[test]
    fn failed_batch_is_requeued_whole() {
        // The batch's kernel dies at 5us (window [0, 1us), certain failure);
        // the requeue resubmits it at 5us and it completes clean at 15us.
        let faults = FaultSpec::new(5).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::from_micros(1),
        });
        let mut e = TaggedEngine { done: vec![] };
        let qs = queries(&[0, 0], &[16, 32]);
        let cfg = BatcherConfig { max_batch: 2, max_wait: SimDuration::from_millis(1) };
        let m = serve_queries_with_retry(&mut faulty_sim(faults), &mut e, cfg, qs, 3);
        assert_eq!(m.completed(), 2, "both members complete, none lost");
        assert_eq!(m.faults().requeues, 1);
        assert_eq!(m.faults().kernel_failures, 1);
        assert!(m.completions().iter().all(|c| c.finished == SimTime::from_micros(15)));
    }

    #[test]
    fn requeue_limit_bounds_resubmissions() {
        let faults = FaultSpec::new(5).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        let mut e = TaggedEngine { done: vec![] };
        let qs = queries(&[0, 0], &[16, 32]);
        let cfg = BatcherConfig { max_batch: 2, max_wait: SimDuration::from_millis(1) };
        let m = serve_queries_with_retry(&mut faulty_sim(faults), &mut e, cfg, qs, 2);
        assert_eq!(m.completed(), 2, "exhausted budget still completes the batch");
        assert_eq!(m.faults().requeues, 2);
        assert_eq!(m.faults().kernel_failures, 3, "initial attempt + two requeues");
    }

    #[test]
    fn zero_requeue_limit_matches_plain_serving() {
        let faults = FaultSpec::new(5).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::from_micros(1),
        });
        let mut e = TaggedEngine { done: vec![] };
        let qs = queries(&[0, 0], &[16, 32]);
        let cfg = BatcherConfig { max_batch: 2, max_wait: SimDuration::from_millis(1) };
        let m = serve_queries_with_retry(&mut faulty_sim(faults), &mut e, cfg, qs, 0);
        assert_eq!(m.completed(), 2, "no requeue: the tainted result is delivered");
        assert_eq!(m.faults().requeues, 0);
        assert!(m.completions().iter().all(|c| c.finished == SimTime::from_micros(5)));
    }
}

impl liger_gpu_sim::ToJson for Query {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("id", &self.id).field("seq_len", &self.seq_len).field("arrival", &self.arrival);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for BatcherConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("max_batch", &self.max_batch).field("max_wait", &self.max_wait);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for PackedBatch {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("request", &self.request).field("members", &self.members);
        obj.end();
    }
}
