//! The request-trace runner: feeds a trace of whole requests into an
//! engine running on the simulator and collects metrics. One driver backs
//! [`serve`], [`serve_with_policy`] and
//! [`serve_with_recovery`](crate::recovery::serve_with_recovery): a
//! [`RetryPolicy`] adds retries and timeouts, and the
//! [`membership`](crate::membership) controller adds loss and rejoin
//! handling.

use std::collections::VecDeque;

use liger_gpu_sim::{CoreSelect, DeviceId, Driver, SimDuration, Simulation, Wake};

use crate::admission::ShedRecord;
use crate::engine::{InferenceEngine, RunnerToken};
use crate::membership::{Member, Membership, PendingChange};
use crate::metrics::{RecoveryCounters, ServingMetrics};
use crate::request::{Completion, Request};

/// Degraded-mode reaction policy: per-request timeout accounting plus
/// bounded exponential-backoff retries of requests whose kernels were killed
/// by the fault schedule.
///
/// A failed attempt is *not* cancelled mid-flight — the simulator drains it
/// like a successful kernel (preserving stream FIFO order) — so the retry is
/// scheduled once the tainted attempt completes, after a backoff delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// End-to-end latency past which a request counts as timed out. Purely
    /// observational: the attempt keeps running (cancelling work mid-kernel
    /// has no real-hardware analogue on CUDA streams).
    pub timeout: SimDuration,
    /// Maximum retries per request; a request whose budget is exhausted
    /// completes with its last (tainted) attempt rather than being dropped.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub backoff: SimDuration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(500),
            max_retries: 3,
            backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based):
    /// `backoff * 2^attempt`, capped at `backoff_cap`.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let scaled = self.backoff.as_nanos().saturating_mul(1u64 << attempt.min(20));
        SimDuration::from_nanos(scaled.min(self.backoff_cap.as_nanos()))
    }
}

/// Per-request state.
#[derive(Debug, Clone, Copy, Default)]
struct RequestState {
    /// Retries consumed so far.
    attempts: u32,
    /// A kernel of the current attempt failed; retry on completion.
    tainted: bool,
    /// Completed or shed; late wakes are ignored.
    done: bool,
}

/// Drives one request trace: arrival timers → engine submissions →
/// completion collection → stop once every request is completed or shed.
///
/// With a [`RetryPolicy`], a request whose kernel failed
/// ([`Wake::KernelFailed`]) is resubmitted with exponential backoff once its
/// tainted attempt drains, and timeouts are tallied. With a membership
/// controller, every wake passes through the controller first and arrivals
/// during a replan wait in the deferred queue.
pub(crate) struct ServingRunner<'a, E: InferenceEngine + ?Sized> {
    membership: Option<Membership<'a>>,
    ledger: Ledger<'a, E>,
}

/// The runner's side of the controller: the trace, the engine and the
/// per-request bookkeeping.
struct Ledger<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    requests: Vec<Request>,
    metrics: ServingMetrics,
    policy: Option<RetryPolicy>,
    /// Indexed by request id.
    states: Vec<RequestState>,
    /// Requests neither completed nor shed.
    outstanding: usize,
    /// Arrivals deferred during a replan plus cancelled in-flight requests,
    /// in arrival order (front = oldest).
    deferred: VecDeque<u64>,
    /// Cancelled in-flight ids whose KV the controller must rebuild.
    lost: Vec<u64>,
}

/// Serves `requests` (dense ids, sorted by arrival) with `engine` on `sim`
/// under an optional retry policy and membership controller; returns the
/// metrics.
pub(crate) fn serve_trace<'a, E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &'a mut E,
    requests: Vec<Request>,
    policy: Option<RetryPolicy>,
    membership: Option<Membership<'a>>,
) -> ServingMetrics {
    let n = requests.len();
    let ledger = Ledger {
        engine,
        requests,
        metrics: ServingMetrics::new(),
        policy,
        states: vec![RequestState::default(); n],
        outstanding: n,
        deferred: VecDeque::new(),
        lost: Vec::new(),
    };
    let mut runner = ServingRunner { membership, ledger };
    sim.run_to_completion(&mut runner);
    let ServingRunner { membership, mut ledger } = runner;
    if let Some(m) = membership {
        m.fold_health(ledger.metrics.recovery_mut());
    }
    ledger.metrics
}

impl<E: InferenceEngine + ?Sized> ServingRunner<'_, E> {
    fn stop(&mut self, sim: &mut Simulation) {
        if let Some(m) = &mut self.membership {
            m.stop();
        }
        sim.request_stop();
    }
}

impl<E: InferenceEngine + ?Sized> Ledger<'_, E> {
    /// Marks `id` terminal; false if it already was.
    fn retire(&mut self, id: u64) -> bool {
        let was_live = !std::mem::replace(&mut self.states[id as usize].done, true);
        if was_live {
            self.outstanding -= 1;
        }
        was_live
    }

    /// Records finished requests, or retries a tainted attempt after backoff
    /// while its budget lasts; true once nothing is outstanding.
    fn collect(&mut self, sim: &mut Simulation) -> bool {
        for (id, finished) in self.engine.drain_completions() {
            let s = &mut self.states[id as usize];
            if let Some(policy) = self.policy.filter(|p| s.tainted && s.attempts < p.max_retries) {
                s.tainted = false;
                let delay = policy.delay(s.attempts);
                s.attempts += 1;
                self.metrics.faults_mut().retries += 1;
                sim.set_timer(sim.now() + delay, RunnerToken::Retry(id).encode());
            } else if self.retire(id) {
                let arrival = self.requests[id as usize].arrival;
                self.metrics.record(Completion { id, arrival, finished });
            }
        }
        self.outstanding == 0
    }

    /// Handles a wake the controller (if any) passed on; `serving` is false
    /// mid-replan.
    fn on_wake(&mut self, wake: Wake, serving: bool, sim: &mut Simulation) {
        match (wake, RunnerToken::of(&wake)) {
            (Wake::Timer { .. }, Some(RunnerToken::Retry(id))) => {
                if !self.states[id as usize].done {
                    self.engine.submit(self.requests[id as usize], sim);
                }
            }
            (Wake::Timer { .. }, Some(RunnerToken::Timeout(id))) => {
                if !self.states[id as usize].done {
                    self.metrics.faults_mut().timeouts += 1;
                }
            }
            (Wake::Timer { .. }, Some(RunnerToken::Arrival(id))) => {
                let request = self.requests[id as usize];
                chain_arrival(&self.requests, id as usize, sim);
                // Mid-replan arrivals wait out the replan.
                if serving {
                    self.engine.submit(request, sim);
                } else {
                    self.deferred.push_back(id);
                }
                if let Some(policy) = self.policy {
                    let deadline = request.arrival + policy.timeout;
                    sim.set_timer(deadline, RunnerToken::Timeout(id).encode());
                }
            }
            (Wake::KernelFailed { tag, .. }, _) if self.policy.is_some() => {
                self.metrics.faults_mut().kernel_failures += 1;
                if let Some(s) = self.states.get_mut(tag as usize) {
                    s.tainted |= !s.done;
                }
                // Engines may track failures too (all current ones ignore).
                self.engine.on_wake(wake, sim);
            }
            _ => self.engine.on_wake(wake, sim),
        }
    }
}

impl<E: InferenceEngine + ?Sized> Member for Ledger<'_, E> {
    fn recovery(&mut self) -> &mut RecoveryCounters {
        self.metrics.recovery_mut()
    }

    fn replan(&mut self, change: PendingChange, devices: &[DeviceId], sim: &mut Simulation) {
        let mut cancelled = match change {
            PendingChange::Loss(dead) => self.engine.on_device_loss(dead, devices, sim),
            PendingChange::Rejoin(device) => self.engine.on_device_rejoin(device, devices, sim),
        };
        cancelled.sort_unstable();
        cancelled.retain(|&id| !self.states[id as usize].done);
        // Cancelled in-flight requests predate every deferred arrival, so
        // prepending (in reverse) keeps the queue in arrival order.
        for &id in cancelled.iter().rev() {
            self.deferred.push_front(id);
        }
        self.lost = cancelled;
    }

    fn kv_extents(&mut self) -> Vec<(u32, u32)> {
        let shapes =
            std::mem::take(&mut self.lost).into_iter().map(|id| self.requests[id as usize].shape);
        shapes.map(|shape| (shape.batch, shape.phase.kv_len())).collect()
    }

    fn backlog(&mut self) -> &mut VecDeque<u64> {
        &mut self.deferred
    }

    fn resume(&mut self, shed: &[ShedRecord], sim: &mut Simulation) {
        for s in shed {
            self.retire(s.id);
        }
        while let Some(id) = self.deferred.pop_front() {
            if !self.states[id as usize].done {
                self.engine.submit(self.requests[id as usize], sim);
            }
        }
    }

    fn readmit(&mut self, ids: &[u64]) {
        for &id in ids {
            self.states[id as usize].done = false;
            self.outstanding += 1;
            self.deferred.push_back(id);
        }
        // Readmitted sheds are older than deferred arrivals; restore
        // arrival order before resubmitting.
        let mut backlog: Vec<u64> = std::mem::take(&mut self.deferred).into();
        backlog.sort_unstable();
        backlog.dedup();
        self.deferred = backlog.into();
    }
}

/// Checks a request trace (dense ids, sorted by arrival) and arms the first
/// arrival timer; false for an empty trace. Arrival timers are chained
/// ([`chain_arrival`]): only the next pending arrival has a timer in
/// flight, so the event heap holds O(in-flight batch) timer entries instead
/// of one per trace request up front.
fn arm_arrivals(requests: &[Request], sim: &mut Simulation) -> bool {
    for (i, r) in requests.iter().enumerate() {
        debug_assert_eq!(r.id as usize, i, "request ids must be dense arrival indices");
        debug_assert!(
            i == 0 || requests[i - 1].arrival <= r.arrival,
            "requests must be sorted by arrival"
        );
    }
    let Some(first) = requests.first() else { return false };
    sim.set_timer(first.arrival, RunnerToken::Arrival(first.id).encode());
    true
}

/// Request `id` arrived: arms the timer of the next arrival, if any.
/// `set_timer` clamps past deadlines to `now`, so a burst of simultaneous
/// arrivals still drains one per wake.
fn chain_arrival(requests: &[Request], id: usize, sim: &mut Simulation) {
    if let Some(next) = requests.get(id + 1) {
        sim.set_timer(next.arrival, RunnerToken::Arrival(next.id).encode());
    }
}

impl<E: InferenceEngine + ?Sized> Driver for ServingRunner<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        if let Some(m) = &mut self.membership {
            m.start(sim.alive_devices(), sim);
        }
        if !arm_arrivals(&self.ledger.requests, sim) {
            self.stop(sim);
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        let wake = match &mut self.membership {
            Some(m) => m.on_wake(wake, sim, &mut self.ledger),
            None => Some(wake),
        };
        if let Some(wake) = wake {
            let serving = self.membership.as_ref().is_none_or(Membership::serving);
            self.ledger.on_wake(wake, serving, sim);
        }
        if self.ledger.collect(sim) {
            self.stop(sim);
        }
    }
}

/// Serves `requests` with `engine` on `sim`; returns the metrics.
pub fn serve<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
) -> ServingMetrics {
    serve_trace(sim, engine, requests, None, None)
}

/// Forwards to [`serve`]; `CoreSelect::Seq` is the only core. Kept for the
/// perfbench harness until its next change drops it (ROADMAP 3(d)).
pub fn serve_on<E: InferenceEngine + ?Sized>(
    _core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
) -> ServingMetrics {
    serve(sim, engine, requests)
}

/// [`serve`] with a [`RetryPolicy`]: requests whose kernels fail are retried
/// with exponential backoff, and timeout/retry/failure counts land in the
/// returned metrics' [`faults`](ServingMetrics::faults).
pub fn serve_with_policy<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
    policy: RetryPolicy,
) -> ServingMetrics {
    serve_trace(sim, engine, requests, Some(policy), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{
        DeviceId, DeviceSpec, EventId, HostId, HostSpec, KernelSpec, SimDuration, SimTime, StreamId,
    };
    use liger_model::BatchShape;

    /// A trivial engine: each request is one 10us kernel on device 0.
    struct OneKernelEngine {
        pending: Vec<(EventId, u64)>,
        done: Vec<(u64, SimTime)>,
    }

    impl OneKernelEngine {
        fn new() -> Self {
            OneKernelEngine { pending: Vec::new(), done: Vec::new() }
        }
    }

    impl InferenceEngine for OneKernelEngine {
        fn name(&self) -> &'static str {
            "one-kernel"
        }
        fn submit(&mut self, request: Request, sim: &mut Simulation) {
            let stream = StreamId::new(DeviceId(0), 0);
            sim.launch(
                HostId(0),
                stream,
                KernelSpec::compute("job", SimDuration::from_micros(10)).with_tag(request.id),
            );
            let ev = sim.record_event(HostId(0), stream);
            sim.notify_on_event(ev, HostId(0), request.id);
            self.pending.push((ev, request.id));
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

    fn trace(n: usize, gap_us: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i as u64,
                    BatchShape::prefill(1, 16),
                    SimTime::from_micros(gap_us * i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn all_requests_complete() {
        let mut engine = OneKernelEngine::new();
        let metrics = serve(&mut sim(), &mut engine, trace(20, 100));
        assert_eq!(metrics.completed(), 20);
    }

    #[test]
    fn latency_at_low_rate_equals_service_time() {
        let mut engine = OneKernelEngine::new();
        // 100us gaps >> 10us service: no queueing.
        let metrics = serve(&mut sim(), &mut engine, trace(10, 100));
        assert_eq!(metrics.avg_latency(), SimDuration::from_micros(10));
        assert_eq!(metrics.max_latency(), SimDuration::from_micros(10));
    }

    #[test]
    fn overload_builds_queueing_delay() {
        let mut engine = OneKernelEngine::new();
        // 5us gaps < 10us service: the queue grows linearly.
        let metrics = serve(&mut sim(), &mut engine, trace(50, 5));
        assert!(metrics.avg_latency() > SimDuration::from_micros(50));
        // Throughput saturates at the service rate (1 / 10us = 100k/s).
        let thr = metrics.throughput();
        assert!((thr - 100_000.0).abs() / 100_000.0 < 0.05, "throughput {thr}");
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut engine = OneKernelEngine::new();
        let metrics = serve(&mut sim(), &mut engine, Vec::new());
        assert_eq!(metrics.completed(), 0);
    }

    #[test]
    fn completions_map_back_to_arrivals() {
        let mut engine = OneKernelEngine::new();
        let reqs = trace(5, 50);
        let metrics = serve(&mut sim(), &mut engine, reqs.clone());
        for c in metrics.completions() {
            assert_eq!(c.arrival, reqs[c.id as usize].arrival);
            assert!(c.finished > c.arrival);
        }
    }

    use liger_gpu_sim::{FaultSpec, KernelFaultParams};

    fn faulty_sim(faults: FaultSpec) -> Simulation {
        Simulation::builder()
            .device(DeviceSpec::test_device())
            .host(HostSpec::instant())
            .faults(faults)
            .build()
            .unwrap()
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            timeout: SimDuration::from_micros(100),
            max_retries: 3,
            backoff: SimDuration::from_micros(1),
            backoff_cap: SimDuration::from_micros(8),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = policy();
        assert_eq!(p.delay(0), SimDuration::from_micros(1));
        assert_eq!(p.delay(1), SimDuration::from_micros(2));
        assert_eq!(p.delay(2), SimDuration::from_micros(4));
        assert_eq!(p.delay(3), SimDuration::from_micros(8));
        assert_eq!(p.delay(10), SimDuration::from_micros(8), "capped");
    }

    #[test]
    fn failed_request_is_retried_and_completes() {
        // Kernels beginning inside [0, 1us) die at half runtime; the lone
        // request's first attempt (launched at t=0) fails at 5us, the retry
        // (1us backoff => begins at 6us) runs clean and completes at 16us.
        let faults = FaultSpec::new(3).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::from_micros(1),
        });
        let mut engine = OneKernelEngine::new();
        let metrics =
            serve_with_policy(&mut faulty_sim(faults), &mut engine, trace(1, 0), policy());
        assert_eq!(metrics.completed(), 1, "no lost requests");
        assert_eq!(metrics.faults().kernel_failures, 1);
        assert_eq!(metrics.faults().retries, 1);
        assert_eq!(metrics.faults().timeouts, 0);
        assert_eq!(metrics.completions()[0].latency(), SimDuration::from_micros(16));
    }

    #[test]
    fn retry_budget_bounds_resubmissions() {
        // Failures forever: the request burns its full retry budget and then
        // completes tainted instead of being dropped or retried unboundedly.
        let faults = FaultSpec::new(3).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        let mut engine = OneKernelEngine::new();
        let metrics =
            serve_with_policy(&mut faulty_sim(faults), &mut engine, trace(1, 0), policy());
        assert_eq!(metrics.completed(), 1, "exhausted budget still completes the request");
        assert_eq!(metrics.faults().retries, 3);
        assert_eq!(metrics.faults().kernel_failures, 4, "initial attempt + three retries");
    }

    #[test]
    fn timeouts_are_counted_without_cancelling() {
        let p = RetryPolicy { timeout: SimDuration::from_micros(5), ..policy() };
        let mut engine = OneKernelEngine::new();
        // Healthy sim: 10us service > 5us timeout for every request.
        let metrics = serve_with_policy(&mut sim(), &mut engine, trace(3, 100), p);
        assert_eq!(metrics.completed(), 3, "timeout is accounting, not cancellation");
        assert_eq!(metrics.faults().timeouts, 3);
        assert_eq!(metrics.faults().retries, 0);
    }

    #[test]
    fn healthy_runs_keep_fault_counters_zero() {
        let mut engine = OneKernelEngine::new();
        let metrics = serve_with_policy(&mut sim(), &mut engine, trace(5, 100), policy());
        assert_eq!(metrics.completed(), 5);
        assert_eq!(*metrics.faults(), crate::metrics::FaultCounters::default());
    }
}
