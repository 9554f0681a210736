//! The serving runner: feeds a request trace into an engine running on the
//! simulator and collects metrics.

use liger_gpu_sim::{
    CoreSelect, Driver, EventCore, HostId, ParallelCore, SimDuration, SimTime, Simulation, Wake,
};
use liger_model::CostModel;

use crate::engine::{InferenceEngine, RunnerToken};
use crate::metrics::ServingMetrics;
use crate::request::{Completion, Request};

/// Lookahead for the parallel event core under serving workloads: the
/// hosts' kernel launch-overhead floor plus the collective startup latency
/// from the cost model's topology. Serving rounds cannot interact across
/// devices faster than a launch plus a collective setup, so windows thinner
/// than this are not worth a shard hop. Purely a performance hint — any
/// value yields identical results.
pub fn core_lookahead(sim: &Simulation, cost: &CostModel) -> SimDuration {
    let launch = (0..sim.host_count())
        .map(|h| sim.host_spec(HostId(h)).launch_overhead)
        .max()
        .unwrap_or(SimDuration::ZERO);
    launch + cost.topology.base_latency
}

/// Runs `driver` on `sim` to completion with the selected event core.
/// Parallel runs apply `lookahead` when one was derived (see
/// [`core_lookahead`]); `None` keeps the simulator's launch-overhead
/// default.
pub(crate) fn run_core(
    core: CoreSelect,
    lookahead: Option<SimDuration>,
    sim: &mut Simulation,
    driver: &mut dyn Driver,
) -> SimTime {
    match core {
        CoreSelect::Seq => sim.run_to_completion_with(CoreSelect::Seq, driver),
        CoreSelect::Par { workers } => {
            let mut engine = ParallelCore::new(workers);
            if let Some(la) = lookahead {
                engine = engine.with_lookahead(la);
            }
            engine.run(sim, driver, SimTime::MAX)
        }
    }
}

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

/// Per-request fault-reaction state.
#[derive(Debug, Clone, Copy, Default)]
struct RequestState {
    /// Retries consumed so far.
    attempts: u32,
    /// A kernel of the current attempt failed; retry on completion.
    tainted: bool,
    /// A completion has been recorded; late wakes are ignored.
    done: bool,
}

/// Drives one serving experiment: arrival timers → engine submissions →
/// completion collection → stop when the whole trace has been served.
///
/// With a [`RetryPolicy`] attached (see [`serve_with_policy`]), the runner
/// additionally reacts to [`Wake::KernelFailed`]: the affected request is
/// marked tainted and resubmitted with exponential backoff once its current
/// attempt drains, and per-request timeouts are tallied into the metrics.
pub struct ServingRunner<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    requests: Vec<Request>,
    metrics: ServingMetrics,
    outstanding: usize,
    policy: Option<RetryPolicy>,
    states: Vec<RequestState>,
}

impl<'a, E: InferenceEngine + ?Sized> ServingRunner<'a, E> {
    /// Creates a runner over `requests` (any order; they are indexed by id).
    pub fn new(engine: &'a mut E, requests: Vec<Request>) -> Self {
        let outstanding = requests.len();
        let states = vec![RequestState::default(); requests.len()];
        ServingRunner {
            engine,
            requests,
            metrics: ServingMetrics::new(),
            outstanding,
            policy: None,
            states,
        }
    }

    /// [`Self::new`] with a degraded-mode reaction policy attached.
    pub fn with_policy(engine: &'a mut E, requests: Vec<Request>, policy: RetryPolicy) -> Self {
        let mut runner = ServingRunner::new(engine, requests);
        runner.policy = Some(policy);
        runner
    }

    /// The collected metrics (complete once the simulation has stopped).
    pub fn into_metrics(self) -> ServingMetrics {
        self.metrics
    }

    fn collect(&mut self, sim: &mut Simulation) {
        for (id, finished) in self.engine.drain_completions() {
            let idx = id as usize;
            // A tainted attempt finished: resubmit after backoff instead of
            // recording, while the retry budget lasts.
            if let Some(policy) = self.policy {
                let s = &mut self.states[idx];
                if s.tainted && s.attempts < policy.max_retries {
                    s.tainted = false;
                    let delay = policy.delay(s.attempts);
                    s.attempts += 1;
                    self.metrics.faults_mut().retries += 1;
                    sim.set_timer(sim.now() + delay, RunnerToken::Retry(id).encode());
                    continue;
                }
            }
            self.states[idx].done = true;
            let arrival = self.requests[idx].arrival;
            self.metrics.record(Completion { id, arrival, finished });
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        if self.outstanding == 0 {
            sim.request_stop();
        }
    }
}

/// Checks a request trace (dense ids, sorted by arrival) and arms the first
/// arrival timer; false for an empty trace. Arrival timers are chained
/// ([`chain_arrival`]): only the next pending arrival has a timer in
/// flight, so the event heap holds O(in-flight batch) timer entries instead
/// of one per trace request up front.
pub(crate) fn arm_arrivals(requests: &[Request], sim: &mut Simulation) -> bool {
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
pub(crate) fn chain_arrival(requests: &[Request], id: usize, sim: &mut Simulation) {
    if let Some(next) = requests.get(id + 1) {
        sim.set_timer(next.arrival, RunnerToken::Arrival(next.id).encode());
    }
}

impl<E: InferenceEngine + ?Sized> Driver for ServingRunner<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        if !arm_arrivals(&self.requests, sim) {
            sim.request_stop();
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        match (wake, RunnerToken::of(&wake)) {
            (Wake::Timer { .. }, Some(RunnerToken::Retry(id))) => {
                if !self.states[id as usize].done {
                    let request = self.requests[id as usize];
                    self.engine.submit(request, sim);
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
                self.engine.submit(request, sim);
                if let Some(policy) = self.policy {
                    let deadline = request.arrival + policy.timeout;
                    sim.set_timer(deadline, RunnerToken::Timeout(request.id).encode());
                }
            }
            (Wake::KernelFailed { tag, .. }, _) => {
                if self.policy.is_some() {
                    self.metrics.faults_mut().kernel_failures += 1;
                    if let Some(s) = self.states.get_mut(tag as usize) {
                        if !s.done {
                            s.tainted = true;
                        }
                    }
                }
                // Engines may track failures too (all current ones ignore).
                self.engine.on_wake(wake, sim);
            }
            (other, _) => self.engine.on_wake(other, sim),
        }
        self.collect(sim);
    }
}

/// Serves `requests` with `engine` on `sim` using the ambient core
/// selection ([`CoreSelect::from_env`]); returns the metrics.
pub fn serve<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
) -> ServingMetrics {
    serve_on(CoreSelect::from_env(), sim, engine, requests)
}

/// [`serve`] on an explicit event core. Both cores produce identical
/// metrics for identical inputs.
pub fn serve_on<E: InferenceEngine + ?Sized>(
    core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
) -> ServingMetrics {
    let mut runner = ServingRunner::new(engine, requests);
    run_core(core, None, sim, &mut runner);
    runner.into_metrics()
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
    serve_with_policy_on(CoreSelect::from_env(), sim, engine, requests, policy)
}

/// [`serve_with_policy`] on an explicit event core.
pub fn serve_with_policy_on<E: InferenceEngine + ?Sized>(
    core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
    policy: RetryPolicy,
) -> ServingMetrics {
    let mut runner = ServingRunner::with_policy(engine, requests, policy);
    run_core(core, None, sim, &mut runner);
    runner.into_metrics()
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
