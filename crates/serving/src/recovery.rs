//! Elastic recovery from device loss: the drain-and-replan serving loop
//! for static request traces.
//!
//! The [`RecoveryRunner`] wraps any [`InferenceEngine`] with the failure
//! handling the paper's serving scenario needs when a GPU drops out of the
//! node, and with re-expansion when it comes back. The state machine —
//! watchdog detection, drain barrier, KV recovery under the configured
//! [`RecoveryPolicy`], admission shedding and elastic re-expansion — is the
//! shared [`membership`](crate::membership) controller; this runner only
//! supplies what is specific to whole requests:
//!
//! * on a loss or rejoin the engine's cancelled requests are deferred ahead
//!   of every later arrival, and their KV is what the controller prices;
//! * arrivals during a replan wait in the same deferred queue;
//! * resuming resubmits that queue, after the watermark shed on a loss.
//!
//! Every phase transition is timestamped into
//! [`ServingMetrics::recovery_timeline`]; the recovery counters record
//! detection latency, drain and replan time, replayed tokens, and every
//! shed request.

use std::collections::VecDeque;

use liger_gpu_sim::{DeviceId, Driver, Simulation, Wake};
use liger_model::{CostModel, ModelConfig, RecoveryPolicy};

use crate::admission::{AdmissionConfig, ShedRecord};
use crate::engine::{InferenceEngine, RunnerToken};
use crate::health::HealthConfig;
pub use crate::membership::RecoveryPhase;
use crate::membership::{Member, Membership, PendingChange};
use crate::metrics::{RecoveryCounters, ServingMetrics};
use crate::request::{Completion, Request};
use crate::runner::{arm_arrivals, chain_arrival};

/// Parameters of the elastic-recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Watchdog parameters (detection bound = `health.detection_bound()`).
    pub health: HealthConfig,
    /// How lost KV-cache shards are rebuilt.
    pub policy: RecoveryPolicy,
    /// Backlog bound applied when serving resumes on degraded capacity.
    pub admission: AdmissionConfig,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            health: HealthConfig::default(),
            policy: RecoveryPolicy::Replicate,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Serving driver with health monitoring, drain-and-replan device-loss
/// handling, KV recovery, admission control and re-expansion. See the
/// [`membership`](crate::membership) docs for the state machine.
pub struct RecoveryRunner<'a, E: InferenceEngine + ?Sized> {
    membership: Membership<'a>,
    ledger: Ledger<'a, E>,
}

/// The runner's side of the controller: the trace, the engine and the
/// per-request bookkeeping.
struct Ledger<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    requests: Vec<Request>,
    metrics: ServingMetrics,
    /// Requests neither completed nor shed.
    outstanding: usize,
    /// Terminal (completed or shed) flags, indexed by request id.
    done: Vec<bool>,
    /// Arrivals deferred during a replan plus cancelled in-flight requests,
    /// in arrival order (front = oldest).
    deferred: VecDeque<u64>,
    /// Cancelled in-flight ids whose KV the controller must rebuild.
    lost: Vec<u64>,
}

impl<'a, E: InferenceEngine + ?Sized> RecoveryRunner<'a, E> {
    /// Creates a runner over `requests` (dense ids, sorted by arrival).
    pub fn new(
        engine: &'a mut E,
        requests: Vec<Request>,
        model: &'a ModelConfig,
        cost: &'a CostModel,
        config: RecoveryConfig,
    ) -> Self {
        config.health.validate().expect("invalid health config");
        let n = requests.len();
        RecoveryRunner {
            membership: Membership::new(
                model,
                cost,
                config.policy,
                config.admission,
                Some(config.health),
            ),
            ledger: Ledger {
                engine,
                requests,
                metrics: ServingMetrics::new(),
                outstanding: n,
                done: vec![false; n],
                deferred: VecDeque::new(),
                lost: Vec::new(),
            },
        }
    }

    /// The collected metrics (complete once the simulation has stopped).
    pub fn into_metrics(mut self) -> ServingMetrics {
        self.membership.fold_health(self.ledger.metrics.recovery_mut());
        self.ledger.metrics
    }

    /// Current state-machine phase.
    pub fn phase(&self) -> RecoveryPhase {
        self.membership.phase()
    }

    /// Live view of the metrics accumulated so far (health-monitor counters
    /// are only folded in by [`into_metrics`](Self::into_metrics)).
    pub fn metrics(&self) -> &ServingMetrics {
        &self.ledger.metrics
    }
}

impl<E: InferenceEngine + ?Sized> Ledger<'_, E> {
    /// Marks `id` terminal; false if it already was.
    fn retire(&mut self, id: u64) -> bool {
        let was_live = !std::mem::replace(&mut self.done[id as usize], true);
        if was_live {
            self.outstanding -= 1;
        }
        was_live
    }

    /// Records finished requests; true once nothing is outstanding.
    fn collect(&mut self) -> bool {
        for (id, finished) in self.engine.drain_completions() {
            if self.retire(id) {
                let arrival = self.requests[id as usize].arrival;
                self.metrics.record(Completion { id, arrival, finished });
            }
        }
        self.outstanding == 0
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
        cancelled.retain(|&id| !self.done[id as usize]);
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
            if !self.done[id as usize] {
                self.engine.submit(self.requests[id as usize], sim);
            }
        }
    }

    fn readmit(&mut self, ids: &[u64]) {
        for &id in ids {
            self.done[id as usize] = false;
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

impl<E: InferenceEngine + ?Sized> Driver for RecoveryRunner<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        self.membership.start(sim.alive_devices(), sim);
        if !arm_arrivals(&self.ledger.requests, sim) {
            self.membership.stop();
            sim.request_stop();
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        let ledger = &mut self.ledger;
        let wake = self.membership.on_wake(wake, sim, ledger);
        match wake.map(|w| (w, RunnerToken::of(&w))) {
            Some((Wake::Timer { .. }, Some(RunnerToken::Arrival(id)))) => {
                let id = id as usize;
                chain_arrival(&ledger.requests, id, sim);
                // Mid-replan arrivals wait out the replan.
                if self.membership.serving() {
                    ledger.engine.submit(ledger.requests[id], sim);
                } else {
                    ledger.deferred.push_back(id as u64);
                }
            }
            Some((other, _)) => ledger.engine.on_wake(other, sim),
            None => {}
        }
        if ledger.collect() {
            self.membership.stop();
            sim.request_stop();
        }
    }
}

/// Serves `requests` with `engine` on `sim` under the elastic-recovery
/// pipeline; `model` and `cost` price the KV-recovery work. Returns the
/// metrics, including the recovery counters and phase timeline.
pub fn serve_with_recovery<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
    model: &ModelConfig,
    cost: &CostModel,
    config: RecoveryConfig,
) -> ServingMetrics {
    let mut runner = RecoveryRunner::new(engine, requests, model, cost, config);
    sim.run_to_completion(&mut runner);
    runner.into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{
        DeviceSpec, EventId, FaultSpec, HostId, HostSpec, KernelSpec, SimDuration, SimTime,
        StreamId,
    };
    use liger_model::BatchShape;

    /// A round-robin one-kernel engine with honest device-loss support:
    /// abandons in-flight work, bumps its completion epoch so stale records
    /// are ignored, and reshards onto the survivors.
    struct ToyEngine {
        devices: Vec<DeviceId>,
        next: usize,
        epoch: u64,
        inflight: Vec<u64>,
        done: Vec<(u64, SimTime)>,
        pending: Vec<(EventId, u64)>,
    }

    impl ToyEngine {
        fn new(world: usize) -> ToyEngine {
            ToyEngine {
                devices: (0..world).map(DeviceId).collect(),
                next: 0,
                epoch: 0,
                inflight: Vec::new(),
                done: Vec::new(),
                pending: Vec::new(),
            }
        }
    }

    impl InferenceEngine for ToyEngine {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn submit(&mut self, request: Request, sim: &mut Simulation) {
            let d = self.devices[self.next % self.devices.len()];
            self.next += 1;
            let stream = StreamId::new(d, 0);
            sim.launch(
                HostId(d.0),
                stream,
                KernelSpec::compute("job", SimDuration::from_micros(40)).with_tag(request.id),
            );
            let ev = sim.record_event(HostId(d.0), stream);
            sim.notify_on_event(ev, HostId(d.0), (self.epoch << 32) | request.id);
            self.pending.push((ev, request.id));
            self.inflight.push(request.id);
        }
        fn on_wake(&mut self, wake: Wake, _: &mut Simulation) {
            if let Wake::EventFired { token, fired_at, .. } = wake {
                if token >> 32 != self.epoch {
                    return; // stale completion from before a replan
                }
                let id = token & 0xffff_ffff;
                self.inflight.retain(|&x| x != id);
                self.done.push((id, fired_at));
            }
        }
        fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
            std::mem::take(&mut self.done)
        }
        fn on_device_loss(
            &mut self,
            _dead: DeviceId,
            survivors: &[DeviceId],
            _sim: &mut Simulation,
        ) -> Vec<u64> {
            self.epoch += 1;
            self.devices = survivors.to_vec();
            self.next = 0;
            let mut ids = std::mem::take(&mut self.inflight);
            ids.sort_unstable();
            ids
        }
        fn on_device_rejoin(
            &mut self,
            _rejoined: DeviceId,
            devices: &[DeviceId],
            _sim: &mut Simulation,
        ) -> Vec<u64> {
            self.epoch += 1;
            self.devices = devices.to_vec();
            self.next = 0;
            let mut ids = std::mem::take(&mut self.inflight);
            ids.sort_unstable();
            ids
        }
    }

    fn sim(world: usize, faults: FaultSpec) -> Simulation {
        let mut b = Simulation::builder().devices(DeviceSpec::test_device(), world).faults(faults);
        for _ in 0..world {
            b = b.host(HostSpec::instant());
        }
        b.build().unwrap()
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

    fn run(
        world: usize,
        faults: FaultSpec,
        requests: Vec<Request>,
        config: RecoveryConfig,
    ) -> ServingMetrics {
        let model = ModelConfig::opt_30b();
        let cost = CostModel::v100_node();
        let mut engine = ToyEngine::new(world);
        serve_with_recovery(&mut sim(world, faults), &mut engine, requests, &model, &cost, config)
    }

    #[test]
    fn healthy_run_completes_everything_with_an_empty_timeline() {
        let m = run(3, FaultSpec::new(1), trace(8, 50), RecoveryConfig::default());
        assert_eq!(m.completed(), 8);
        assert_eq!(m.recovery().losses, 0);
        assert!(m.recovery_timeline().is_empty());
        assert_eq!(m.recovery().shed_requests(), 0);
    }

    #[test]
    fn a_mid_trace_loss_recovers_and_completes_every_request() {
        let config = RecoveryConfig::default();
        let death = SimTime::from_micros(500);
        let faults = FaultSpec::new(1).device_down(DeviceId(2), death);
        let m = run(3, faults, trace(24, 60), config);
        assert_eq!(m.recovery().losses, 1, "exactly one confirmed loss");
        assert_eq!(m.completed(), 24, "replicate policy loses nothing");
        assert!(m.recovery().shed.is_empty());
        let labels: Vec<&str> = m.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, vec!["draining", "recovering", "degraded"]);
        assert!(
            m.recovery().detection_latency <= config.health.detection_bound(),
            "detection {} beyond bound {}",
            m.recovery().detection_latency,
            config.health.detection_bound()
        );
        assert!(m.recovery().replan_time > SimDuration::ZERO, "recovery work was priced");
    }

    #[test]
    fn recompute_policy_counts_replayed_tokens() {
        let config =
            RecoveryConfig { policy: RecoveryPolicy::Recompute, ..RecoveryConfig::default() };
        let faults = FaultSpec::new(1).device_down(DeviceId(1), SimTime::from_micros(500));
        let m = run(2, faults, trace(24, 60), config);
        assert_eq!(m.recovery().losses, 1);
        assert!(
            m.recovery().recompute_tokens > 0,
            "in-flight prefills replay their tokens on recovery"
        );
        assert_eq!(m.completed() + m.recovery().shed_requests() as usize, 24);
    }

    #[test]
    fn a_tight_watermark_sheds_oldest_first_with_reasons() {
        let config = RecoveryConfig {
            admission: AdmissionConfig { queue_watermark: 1 },
            ..RecoveryConfig::default()
        };
        // Arrivals keep pouring in during the recovery pause, so the
        // deferred queue overflows the watermark of 1.
        let faults = FaultSpec::new(1).device_down(DeviceId(2), SimTime::from_micros(300));
        let m = run(3, faults, trace(40, 20), config);
        assert_eq!(m.recovery().losses, 1);
        let shed = &m.recovery().shed;
        assert!(!shed.is_empty(), "overflowing backlog must shed");
        assert_eq!(m.completed() + shed.len(), 40, "every request completes or is shed");
        for s in shed {
            assert_eq!(s.reason.name(), "queue-depth");
        }
        // Oldest-first: every shed id is older than every id that still
        // completed after being deferred.
        let max_shed = shed.iter().map(|s| s.id).max().unwrap();
        for w in shed.windows(2) {
            assert!(w[0].id < w[1].id, "shed in arrival order");
        }
        assert!(max_shed < 40);
    }

    #[test]
    fn empty_trace_stops_immediately() {
        let m = run(2, FaultSpec::new(1), Vec::new(), RecoveryConfig::default());
        assert_eq!(m.completed(), 0);
    }

    #[test]
    fn a_windowed_outage_rejoins_and_re_expands_to_normal() {
        let faults = FaultSpec::new(1).device_outage(
            DeviceId(2),
            SimTime::from_micros(500),
            SimTime::from_micros(3000),
        );
        let m = run(3, faults, trace(40, 150), RecoveryConfig::default());
        assert_eq!(m.recovery().losses, 1, "the outage is confirmed as a loss");
        assert_eq!(m.recovery().rejoins, 1, "the rejoin clears quarantine once");
        assert_eq!(m.recovery().re_expansions, 1, "one re-expansion back to full world");
        assert_eq!(m.completed(), 40, "nothing is lost across the outage");
        let labels: Vec<&str> = m.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, vec!["draining", "recovering", "degraded", "expanding", "normal"]);
    }

    #[test]
    fn re_expansion_readmits_queue_depth_shed_requests() {
        let config = RecoveryConfig {
            admission: AdmissionConfig { queue_watermark: 1 },
            ..RecoveryConfig::default()
        };
        let faults = FaultSpec::new(1).device_outage(
            DeviceId(2),
            SimTime::from_micros(300),
            SimTime::from_micros(3000),
        );
        let m = run(3, faults, trace(60, 100), config);
        assert_eq!(m.recovery().re_expansions, 1);
        // The degraded window shed for queue depth, but the rejoin brought
        // the capacity back: every shed request was re-admitted and ran.
        assert_eq!(m.recovery().shed_requests(), 0, "queue-depth sheds were re-admitted");
        assert_eq!(m.completed(), 60);
    }

    #[test]
    fn a_flap_shorter_than_quarantine_is_damped() {
        // Up for only 200us between two outages: one healthy tick, then
        // silence again — never enough for the 3-tick quarantine.
        let faults = FaultSpec::new(1)
            .device_outage(DeviceId(1), SimTime::from_micros(500), SimTime::from_micros(1700))
            .device_down(DeviceId(1), SimTime::from_micros(1900));
        let m = run(2, faults, trace(30, 100), RecoveryConfig::default());
        assert_eq!(m.recovery().losses, 1, "the flap never cleared quarantine");
        assert_eq!(m.recovery().rejoins, 0);
        assert_eq!(m.recovery().re_expansions, 0);
        assert!(m.recovery().flaps >= 1, "the partial recovery is counted as a flap");
        assert_eq!(m.completed() + m.recovery().shed_requests() as usize, 30);
    }

    #[test]
    fn a_second_loss_during_drain_queues_and_both_replans_run() {
        // Device 2 dies at 500us; device 1 dies at 700us, confirmed while
        // the first loss is still draining/recovering. The queued loss must
        // replay afterwards without hanging or double-handling.
        let faults = FaultSpec::new(1)
            .device_down(DeviceId(2), SimTime::from_micros(500))
            .device_down(DeviceId(1), SimTime::from_micros(700));
        let m = run(3, faults, trace(30, 100), RecoveryConfig::default());
        assert_eq!(m.recovery().losses, 2, "both losses are confirmed");
        let labels: Vec<&str> = m.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert_eq!(
            labels.iter().filter(|&&l| l == "draining").count(),
            2,
            "each loss runs its own drain: {labels:?}"
        );
        assert_eq!(m.completed() + m.recovery().shed_requests() as usize, 30);
    }
}
