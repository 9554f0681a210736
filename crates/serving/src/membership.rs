//! The serving membership controller: one state machine for device loss
//! and rejoin, shared by every runner that replans its engine over the
//! devices still serving.
//!
//! The Liger engine replans its interleaved schedule over whichever GPUs
//! are serving ([`InferenceEngine::on_device_loss`] /
//! [`InferenceEngine::on_device_rejoin`]). `Membership` decides *when*
//! that happens and what the runner does around it:
//!
//! ```text
//!            confirmed loss                 drain barrier fired
//!  Normal ─────────────────▶ Draining ─────────────────────────▶ Recovering
//!  Degraded                                                          │
//!     ▲  ▲                                 KV rebuilt (or nothing to │
//!     │  └──────────────────────────────── rebuild): shed + resume ◀─┘
//!     │
//!     │ warm-up + KV migrate/recompute done: readmit + resume
//!  Expanding ◀────────────────────────── confirmed rejoin (Normal/Degraded)
//! ```
//!
//! 1. **Detect** — a [`HealthMonitor`] heartbeats every device; a loss or
//!    rejoin is acted on only once the watchdog *confirms* it. The
//!    simulator's [`Wake::DeviceDown`] oracle is recorded purely as ground
//!    truth for the detection-latency metric.
//! 2. **Drain** — the runner's engine abandons its in-flight work and
//!    replans over the survivors; barrier events behind all outstanding
//!    survivor work gate the next phase, so no stale kernel overlaps the
//!    replan.
//! 3. **Recover** — the KV extents the runner reports are rebuilt under the
//!    configured [`RecoveryPolicy`] on every survivor.
//! 4. **Shed & resume** — the backlog is trimmed to the admission watermark
//!    (oldest first, each shed with a [`ShedReason`]) and serving resumes on
//!    the survivors until the next change.
//! 5. **Expand** — a confirmed rejoin widens the world by exactly that
//!    device: the engine replans onto it, the rejoined device reloads its
//!    weight shard, and each reported KV extent is migrated back or
//!    recomputed, whichever the cost model prices cheaper. Queue-depth sheds
//!    are readmitted once the device is warm — the capacity that forced them
//!    out is back.
//!
//! Changes confirmed mid-replan queue in confirmation order and replay once
//! serving resumes. Every transition is timestamped into the recovery
//! timeline. A runner plugs in through the `Member` hooks; the controller
//! never knows which runner it serves.

use std::collections::VecDeque;

use liger_gpu_sim::{
    DeviceId, HostId, KernelSpec, SimDuration, SimTime, Simulation, StreamId, Wake,
};
use liger_model::{kv_recovery_plan, CostModel, LayerOp, ModelConfig, RecoveryPolicy};

use crate::admission::{AdmissionConfig, AdmissionController, ShedReason, ShedRecord};
#[allow(unused_imports)] // doc links
use crate::engine::InferenceEngine;
use crate::engine::RunnerToken;
use crate::health::{HealthConfig, HealthMonitor};
use crate::metrics::RecoveryCounters;

/// Engine streams the drain barrier covers (the Liger engine launches on
/// streams 0 and 1; probes ride elsewhere).
const BARRIER_STREAMS: usize = 2;

/// Where the controller is in the membership state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Serving normally; no confirmed loss outstanding.
    Normal,
    /// Loss confirmed; waiting for survivor streams to drain.
    Draining,
    /// Replanned; KV recovery work is running on the survivors.
    Recovering,
    /// Serving again on reduced capacity.
    Degraded,
    /// A quarantined device rejoined; the engine has replanned onto the
    /// wider set and the warmup + KV migrate/recompute work is running.
    Expanding,
}

impl RecoveryPhase {
    /// Stable label (timeline, tables).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPhase::Normal => "normal",
            RecoveryPhase::Draining => "draining",
            RecoveryPhase::Recovering => "recovering",
            RecoveryPhase::Degraded => "degraded",
            RecoveryPhase::Expanding => "expanding",
        }
    }
}

/// A watchdog-confirmed status change: queued behind an in-progress
/// recovery or expansion in confirmation order, and handed to
/// [`Member::replan`] when it is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingChange {
    Loss(DeviceId),
    Rejoin(DeviceId),
}

/// How a runner plugs into the controller.
pub(crate) trait Member {
    /// The counters the controller records the timeline, detection and
    /// replan times, recompute debt and sheds into.
    fn recovery(&mut self) -> &mut RecoveryCounters;

    /// The engine replans for `change` over `devices` (the survivors of a
    /// loss, or the widened set of a rejoin); the runner requeues whatever
    /// the engine cancelled.
    fn replan(&mut self, change: PendingChange, devices: &[DeviceId], sim: &mut Simulation);

    /// `(batch, kv_len)` of every KV extent the change just applied must
    /// rebuild.
    fn kv_extents(&mut self) -> Vec<(u32, u32)>;

    /// The wait queue the admission watermark trims (front = oldest).
    fn backlog(&mut self) -> &mut VecDeque<u64>;

    /// Serving resumes on the new world: retire the `shed` ids, then
    /// resubmit or reschedule the backlog.
    fn resume(&mut self, shed: &[ShedRecord], sim: &mut Simulation);

    /// Queue-depth sheds (ascending ids) become live again and rejoin the
    /// backlog.
    fn readmit(&mut self, ids: &[u64]);
}

/// The membership controller. See the module docs for the state machine.
#[derive(Debug)]
pub(crate) struct Membership<'a> {
    model: &'a ModelConfig,
    cost: &'a CostModel,
    policy: RecoveryPolicy,
    admission: AdmissionController,
    health: Option<HealthConfig>,
    monitor: Option<HealthMonitor>,
    phase: RecoveryPhase,
    /// Status changes confirmed while a recovery or expansion was already
    /// in progress, replayed strictly in confirmation order. Stale losses
    /// are never dropped: even if a lost device has since rejoined, the
    /// engine's in-flight work died with it and must still be replanned.
    pending: VecDeque<PendingChange>,
    /// Oracle death instants from [`Wake::DeviceDown`], for the
    /// detection-latency metric only.
    ground_truth: Vec<(DeviceId, SimTime)>,
    /// The serving world: devices the engine is currently planned over.
    /// Distinct from `Simulation::alive_devices` — a device whose outage
    /// window closed is sim-alive while it still sits in rejoin quarantine,
    /// and joins this set only on a watchdog-confirmed rejoin.
    world: Vec<DeviceId>,
    survivors: Vec<DeviceId>,
    /// Live device count at start; reaching it again on expansion restores
    /// [`RecoveryPhase::Normal`].
    full_world: usize,
    drain_pending: usize,
    /// When the current phase began: the drain, recover and expand
    /// timestamps the timing counters are measured from.
    phase_since: SimTime,
}

impl<'a> Membership<'a> {
    /// A controller pricing KV rebuilds with `model` and `cost`. `health`
    /// `None` disables loss detection.
    pub(crate) fn new(
        model: &'a ModelConfig,
        cost: &'a CostModel,
        policy: RecoveryPolicy,
        admission: AdmissionConfig,
        health: Option<HealthConfig>,
    ) -> Self {
        Membership {
            model,
            cost,
            policy,
            admission: AdmissionController::new(admission),
            health,
            monitor: None,
            phase: RecoveryPhase::Normal,
            pending: VecDeque::new(),
            ground_truth: Vec::new(),
            world: Vec::new(),
            survivors: Vec::new(),
            full_world: 0,
            drain_pending: 0,
            phase_since: SimTime::ZERO,
        }
    }

    /// Starts serving over `world` and, when configured, the watchdog over
    /// every live device. Call from the driver's start hook.
    pub(crate) fn start(&mut self, world: Vec<DeviceId>, sim: &mut Simulation) {
        self.full_world = sim.alive_devices().len();
        self.world = world;
        if let Some(health) = self.health {
            let mut monitor =
                HealthMonitor::new(health, sim.alive_devices(), RunnerToken::Health(0).encode());
            monitor.start(sim);
            self.monitor = Some(monitor);
        }
    }

    /// Stops probing (the serve is complete).
    pub(crate) fn stop(&mut self) {
        if let Some(m) = &mut self.monitor {
            m.stop();
        }
    }

    /// Whether the runner is serving (not mid-replan).
    pub(crate) fn serving(&self) -> bool {
        matches!(self.phase, RecoveryPhase::Normal | RecoveryPhase::Degraded)
    }

    /// Devices the engine is currently planned over.
    pub(crate) fn world(&self) -> &[DeviceId] {
        &self.world
    }

    /// Folds the watchdog's flap and rejoin counts into `rec`.
    pub(crate) fn fold_health(&self, rec: &mut RecoveryCounters) {
        if let Some(m) = &self.monitor {
            rec.flaps = m.flaps();
            rec.rejoins = m.rejoins();
        }
    }

    /// Routes one wake through the watchdog and the state machine. Returns
    /// the wake when it belongs to the runner or its engine.
    pub(crate) fn on_wake<M: Member>(
        &mut self,
        wake: Wake,
        sim: &mut Simulation,
        member: &mut M,
    ) -> Option<Wake> {
        // The monitor inspects every wake; confirmations come back here.
        let events = self.monitor.as_mut().map(|m| m.on_wake(&wake, sim)).unwrap_or_default();
        for dead in events.lost {
            self.confirm_loss(dead, sim, member);
        }
        for device in events.rejoined {
            self.confirm_rejoin(device, sim, member);
        }
        let token = match wake {
            // Oracle knowledge: logged for the detection-latency metric,
            // never acted on directly.
            Wake::DeviceDown { device, at } => {
                self.ground_truth.push((device, at));
                return None;
            }
            Wake::Timer { token } | Wake::EventFired { token, .. } => token,
            _ => return Some(wake),
        };
        if self.owns_health(token) {
            return None;
        }
        match (wake, RunnerToken::decode(token)) {
            (Wake::EventFired { .. }, Some(RunnerToken::Drain)) => {
                self.drain_pending = self.drain_pending.saturating_sub(1);
                if self.drain_pending == 0 && self.phase == RecoveryPhase::Draining {
                    self.begin_recovery(sim, member);
                }
            }
            (Wake::EventFired { .. }, Some(RunnerToken::Recovered)) => {
                if self.phase == RecoveryPhase::Recovering {
                    self.finish_recovery(sim, member);
                }
            }
            (Wake::EventFired { .. }, Some(RunnerToken::Expanded)) => {
                if self.phase == RecoveryPhase::Expanding {
                    self.finish_expansion(sim, member);
                }
            }
            _ => return Some(wake),
        }
        None
    }

    fn owns_health(&self, token: u64) -> bool {
        self.monitor.as_ref().is_some_and(|m| m.owns(token))
    }

    fn set_phase(&mut self, phase: RecoveryPhase, now: SimTime, member: &mut impl Member) {
        self.phase = phase;
        self.phase_since = now;
        member.recovery().timeline.push((phase.name(), now));
    }

    /// A watchdog-confirmed loss: record detection latency and either start
    /// a recovery or queue the loss behind the change in progress.
    fn confirm_loss(&mut self, dead: DeviceId, sim: &mut Simulation, member: &mut impl Member) {
        let now = sim.now();
        let rec = member.recovery();
        rec.losses += 1;
        if let Some(&(_, death)) = self.ground_truth.iter().find(|&&(d, _)| d == dead) {
            rec.detection_latency = now.saturating_since(death);
        }
        if self.serving() {
            self.handle_loss(dead, sim, member);
        } else {
            self.pending.push_back(PendingChange::Loss(dead));
        }
    }

    /// A watchdog-confirmed rejoin (the device answered probes through the
    /// full quarantine): either re-expand now or queue behind the change in
    /// progress. A device that has already died again is dropped here — the
    /// watchdog will confirm the fresh loss on its own.
    fn confirm_rejoin(&mut self, device: DeviceId, sim: &mut Simulation, member: &mut impl Member) {
        if !self.serving() {
            self.pending.push_back(PendingChange::Rejoin(device));
        } else if sim.alive_devices().contains(&device) {
            self.handle_rejoin(device, sim, member);
        }
    }

    /// Replay the oldest queued status change, skipping rejoins whose
    /// device has died again in the meantime. Queued losses are never
    /// skipped: the engine's in-flight work died with the device even if
    /// it is alive again now.
    fn pop_pending(&mut self, sim: &mut Simulation, member: &mut impl Member) {
        while let Some(change) = self.pending.pop_front() {
            match change {
                PendingChange::Loss(dead) => {
                    self.handle_loss(dead, sim, member);
                    return;
                }
                PendingChange::Rejoin(device) => {
                    if sim.alive_devices().contains(&device) {
                        self.handle_rejoin(device, sim, member);
                        return;
                    }
                }
            }
        }
    }

    /// Re-expansion: the engine replans onto the widened set, each reported
    /// KV extent is either migrated back or recomputed (whichever the cost
    /// model prices cheaper), and the rejoined device reloads its weight
    /// shard before anything else lands on it.
    fn handle_rejoin(
        &mut self,
        rejoined: DeviceId,
        sim: &mut Simulation,
        member: &mut impl Member,
    ) {
        let now = sim.now();
        if self.world.contains(&rejoined) {
            return; // duplicate confirmation; already serving
        }
        self.set_phase(RecoveryPhase::Expanding, now, member);
        // Widen by exactly the confirmed device: other sim-alive devices
        // may still be in quarantine and join only on their own rejoin.
        self.world.push(rejoined);
        self.world.sort_unstable_by_key(|d| d.0);
        // Plan only over sim-alive members: one may have died again with
        // its loss not yet confirmed, and work placed on it would vanish.
        let alive = sim.alive_devices();
        let devices: Vec<DeviceId> =
            self.world.iter().copied().filter(|d| alive.contains(d)).collect();
        let ways = devices.len() as u32;
        // Live KV sits on the narrower pre-rejoin placement; those devices
        // hold the copies a migrate would source.
        let holders = (devices.len() - 1).max(1) as u32;
        member.replan(PendingChange::Rejoin(rejoined), &devices, sim);
        let mut migrate = SimDuration::ZERO;
        let mut recompute = SimDuration::ZERO;
        let mut tokens = 0u64;
        for (batch, kv_len) in member.kv_extents() {
            let plan = |policy, holders| {
                kv_recovery_plan(self.model, self.cost, policy, ways, holders, batch, kv_len)
            };
            let mig = plan(RecoveryPolicy::Replicate, holders);
            let rec = plan(RecoveryPolicy::Recompute, ways);
            if rec.duration < mig.duration {
                recompute += rec.duration;
                tokens += rec.recompute_tokens;
            } else {
                migrate += mig.duration;
            }
        }
        member.recovery().recompute_tokens += tokens;
        let dev = HostId(rejoined.0);
        let stream = StreamId::new(rejoined, 0);
        // Warm the rejoined device first: its weight shard travels over the
        // interconnect before any KV or serving kernel may land on it.
        let warm = self
            .cost
            .op_time(&LayerOp::P2p { bytes: self.model.weight_bytes() / u64::from(ways.max(1)) });
        sim.launch(dev, stream, KernelSpec::comm("rejoin-warmup", warm));
        if migrate > SimDuration::ZERO {
            sim.launch(dev, stream, KernelSpec::comm("kv-expand-migrate", migrate));
        }
        if recompute > SimDuration::ZERO {
            sim.launch(dev, stream, KernelSpec::compute("kv-expand-recompute", recompute));
        }
        let ev = sim.record_event(dev, stream);
        sim.notify_on_event(ev, dev, RunnerToken::Expanded.encode());
    }

    /// The rejoined device is warm: readmit what was shed for queue depth
    /// (KV-exhaustion sheds stay final), then resume at full capacity — or
    /// degraded, if other devices are still out.
    fn finish_expansion(&mut self, sim: &mut Simulation, member: &mut impl Member) {
        let now = sim.now();
        let rec = member.recovery();
        rec.replan_time += now.saturating_since(self.phase_since);
        rec.re_expansions += 1;
        let mut readmitted = Vec::new();
        rec.shed.retain(|s| {
            let readmit = s.reason == ShedReason::QueueDepth;
            if readmit {
                readmitted.push(s.id);
            }
            !readmit
        });
        readmitted.sort_unstable();
        member.readmit(&readmitted);
        let all_back = self.world.len() == self.full_world;
        let phase = if all_back { RecoveryPhase::Normal } else { RecoveryPhase::Degraded };
        self.set_phase(phase, now, member);
        member.resume(&[], sim);
        self.pop_pending(sim, member);
    }

    /// Drain-and-replan: the engine abandons its work and replans over the
    /// survivors; barrier events behind all remaining survivor work gate the
    /// transition to KV recovery.
    fn handle_loss(&mut self, dead: DeviceId, sim: &mut Simulation, member: &mut impl Member) {
        let now = sim.now();
        // Only serving-world members can be lost: a device that died again
        // while quarantining holds no serving state.
        if !self.world.contains(&dead) {
            return;
        }
        // Survivors must also be sim-alive: a world member that has died
        // again (its own loss not yet confirmed) cannot host drain-barrier
        // records — dead devices drop them, and the drain would never
        // complete. Its confirmation will run its own drain later.
        let alive = sim.alive_devices();
        let survivors: Vec<DeviceId> =
            self.world.iter().copied().filter(|&d| d != dead && alive.contains(&d)).collect();
        if survivors.is_empty() {
            // The watchdog condemned the only serving device (a false
            // positive under congestion). Shrinking onto nothing is
            // unactionable: keep serving and let the probes recover.
            return;
        }
        self.set_phase(RecoveryPhase::Draining, now, member);
        self.survivors = survivors;
        self.world.retain(|&d| d != dead);
        member.replan(PendingChange::Loss(dead), &self.survivors, sim);
        // Barrier: one event per survivor engine stream, enqueued after any
        // still-running work, so every pre-loss record has fired before the
        // recovery kernels (and the resubmissions behind them) launch.
        self.drain_pending = 0;
        for &d in &self.survivors {
            for s in 0..BARRIER_STREAMS {
                let ev = sim.record_event(HostId(d.0), StreamId::new(d, s));
                sim.notify_on_event(ev, HostId(d.0), RunnerToken::Drain.encode());
                self.drain_pending += 1;
            }
        }
    }

    /// Survivor streams are empty: price the lost KV shards and launch the
    /// recovery work (or skip straight to degraded serving if there is
    /// nothing to rebuild).
    fn begin_recovery(&mut self, sim: &mut Simulation, member: &mut impl Member) {
        let now = sim.now();
        member.recovery().drain_time += now.saturating_since(self.phase_since);
        self.set_phase(RecoveryPhase::Recovering, now, member);
        // KV was sharded over the pre-loss degree (survivors + the dead).
        let ways = self.survivors.len() as u32 + 1;
        let holders = self.survivors.len() as u32;
        let mut duration = SimDuration::ZERO;
        let mut tokens = 0u64;
        for (batch, kv_len) in member.kv_extents() {
            let plan =
                kv_recovery_plan(self.model, self.cost, self.policy, ways, holders, batch, kv_len);
            duration += plan.duration;
            tokens += plan.recompute_tokens;
        }
        member.recovery().recompute_tokens += tokens;
        if duration == SimDuration::ZERO {
            self.finish_recovery(sim, member);
            return;
        }
        let spec = match self.policy {
            RecoveryPolicy::Recompute => KernelSpec::compute("kv-recover-recompute", duration),
            RecoveryPolicy::Replicate => KernelSpec::comm("kv-recover-replicate", duration),
        };
        for &d in &self.survivors {
            sim.launch(HostId(d.0), StreamId::new(d, 0), spec.clone());
        }
        let d0 = self.survivors[0];
        let ev = sim.record_event(HostId(d0.0), StreamId::new(d0, 0));
        sim.notify_on_event(ev, HostId(d0.0), RunnerToken::Recovered.encode());
    }

    fn finish_recovery(&mut self, sim: &mut Simulation, member: &mut impl Member) {
        let now = sim.now();
        member.recovery().replan_time += now.saturating_since(self.phase_since);
        self.enter_degraded(sim, member);
    }

    /// Back to serving on the survivors: shed the backlog beyond the
    /// watermark (oldest first), resume, then take on any change confirmed
    /// while this recovery ran.
    fn enter_degraded(&mut self, sim: &mut Simulation, member: &mut impl Member) {
        let now = sim.now();
        self.set_phase(RecoveryPhase::Degraded, now, member);
        let shed = self.admission.shed_excess(member.backlog(), now);
        member.recovery().shed.extend_from_slice(&shed);
        member.resume(&shed, sim);
        self.pop_pending(sim, member);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{DeviceSpec, Driver, FaultSpec, HostSpec};

    /// A member that records what the controller asks of it.
    #[derive(Default)]
    struct Fake {
        rec: RecoveryCounters,
        replans: Vec<(PendingChange, Vec<DeviceId>)>,
        backlog: VecDeque<u64>,
        resumes: usize,
    }

    impl Member for Fake {
        fn recovery(&mut self) -> &mut RecoveryCounters {
            &mut self.rec
        }
        fn replan(&mut self, change: PendingChange, devices: &[DeviceId], _: &mut Simulation) {
            self.replans.push((change, devices.to_vec()));
        }
        fn kv_extents(&mut self) -> Vec<(u32, u32)> {
            // Enough KV that each rebuild takes a while (about 0.5 ms).
            vec![(32, 2048)]
        }
        fn backlog(&mut self) -> &mut VecDeque<u64> {
            &mut self.backlog
        }
        fn resume(&mut self, _: &[ShedRecord], _: &mut Simulation) {
            self.resumes += 1;
        }
        fn readmit(&mut self, _: &[u64]) {}
    }

    /// Drives the controller with watchdog confirmations scripted at fixed
    /// instants (no health monitor), routing every wake through it.
    struct Harness<'a> {
        ctl: Membership<'a>,
        member: Fake,
        script: Vec<(SimTime, PendingChange)>,
    }

    impl Driver for Harness<'_> {
        fn start(&mut self, sim: &mut Simulation) {
            self.ctl.start(sim.alive_devices(), sim);
            for (i, &(at, _)) in self.script.iter().enumerate() {
                sim.set_timer(at, i as u64);
            }
        }

        fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
            if let Some(Wake::Timer { token }) = self.ctl.on_wake(wake, sim, &mut self.member) {
                match self.script[token as usize].1 {
                    PendingChange::Loss(d) => self.ctl.confirm_loss(d, sim, &mut self.member),
                    PendingChange::Rejoin(d) => self.ctl.confirm_rejoin(d, sim, &mut self.member),
                }
            }
        }
    }

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// Runs `script` on `world` devices under `faults`; returns the member
    /// and the controller's final phase and world.
    fn run(
        world: usize,
        faults: FaultSpec,
        script: Vec<(u64, PendingChange)>,
    ) -> (Fake, RecoveryPhase, Vec<DeviceId>) {
        let mut b = Simulation::builder().devices(DeviceSpec::test_device(), world).faults(faults);
        for _ in 0..world {
            b = b.host(HostSpec::instant());
        }
        let mut sim = b.build().unwrap();
        let (model, cost) = (ModelConfig::opt_30b(), CostModel::v100_node());
        let admission = AdmissionConfig::default();
        let ctl = Membership::new(&model, &cost, RecoveryPolicy::Replicate, admission, None);
        let script = script.into_iter().map(|(t, c)| (us(t), c)).collect();
        let mut h = Harness { ctl, member: Fake::default(), script };
        sim.run_to_completion(&mut h);
        let (phase, world) = (h.ctl.phase, h.ctl.world().to_vec());
        (h.member, phase, world)
    }

    fn labels(rec: &RecoveryCounters) -> Vec<&'static str> {
        rec.timeline.iter().map(|&(l, _)| l).collect()
    }

    #[test]
    fn a_queued_rejoin_of_a_device_that_died_again_is_skipped() {
        // Device 2 is out over [10, 100) us and dies for good at 300 us. Its
        // rejoin is confirmed at 150 us, mid-recovery, so it queues; by the
        // time the recovery finishes the device is dead again, and the
        // queued rejoin must not widen the world onto it.
        let d2 = DeviceId(2);
        let faults = FaultSpec::new(1).device_outage(d2, us(10), us(100)).device_down(d2, us(300));
        let script = vec![(20, PendingChange::Loss(d2)), (150, PendingChange::Rejoin(d2))];
        let (m, phase, world) = run(3, faults, script);
        let recovered_at = m.rec.timeline.last().expect("the loss ran its recovery").1;
        assert!(recovered_at > us(300), "the rejoin was still queued when device 2 died again");
        assert_eq!(m.replans, vec![(PendingChange::Loss(d2), vec![DeviceId(0), DeviceId(1)])]);
        assert_eq!(labels(&m.rec), ["draining", "recovering", "degraded"]);
        assert_eq!((phase, world), (RecoveryPhase::Degraded, vec![DeviceId(0), DeviceId(1)]));
        assert_eq!(m.resumes, 1);
    }

    #[test]
    fn a_loss_confirmed_for_the_sole_survivor_is_ignored() {
        // Device 1 really dies; later the watchdog also condemns device 0,
        // the only device left serving. Shrinking onto nothing is
        // unactionable: the loss is counted but nothing is replanned.
        let faults = FaultSpec::new(1).device_down(DeviceId(1), us(10));
        let script =
            vec![(20, PendingChange::Loss(DeviceId(1))), (2_000, PendingChange::Loss(DeviceId(0)))];
        let (m, phase, world) = run(2, faults, script);
        assert_eq!(m.rec.losses, 2, "both confirmations are counted");
        assert_eq!(m.replans.len(), 1, "only the real loss replans");
        assert_eq!(labels(&m.rec), ["draining", "recovering", "degraded"]);
        assert_eq!((phase, world), (RecoveryPhase::Degraded, vec![DeviceId(0)]));
    }

    #[test]
    fn a_queued_repeat_loss_of_a_device_already_out_is_a_no_op() {
        // The same loss is confirmed twice, the second time mid-recovery:
        // it queues, and replaying it finds the device already out of the
        // world — no second drain.
        let d1 = DeviceId(1);
        let faults = FaultSpec::new(1).device_down(d1, us(10));
        let script = vec![(20, PendingChange::Loss(d1)), (60, PendingChange::Loss(d1))];
        let (m, phase, world) = run(3, faults, script);
        assert_eq!(m.replans.len(), 1);
        assert_eq!(labels(&m.rec), ["draining", "recovering", "degraded"]);
        assert_eq!((phase, world), (RecoveryPhase::Degraded, vec![DeviceId(0), DeviceId(2)]));
    }
}
