//! Static introspection of the engine's launch behavior.
//!
//! [`LaunchProgram::from_plans`] replays the exact launch sequence
//! [`LigerEngine`](crate::LigerEngine) would issue for a list of
//! [`RoundPlan`]s — comm-subset-first ordering, the hybrid E1/E2 events of
//! §3.4, the previous round's E2 gating the secondary stream, per-round
//! dependency events and the promoted-batch cross-stream wait — but records
//! it as data instead of driving a simulator. The static plan verifier in
//! `liger-verify` proves properties (deadlock freedom, wait-graph
//! acyclicity, collective matching) over this program *before* anything
//! runs.
//!
//! The replay mirrors `LigerEngine::launch_round` op for op; the
//! `mirrors_engine_launch_order` test in this module locks the two
//! together. Host-side notifications (`notify_on_event`, `host_sync`) are
//! deliberately absent: they never enqueue device work, so they cannot
//! participate in a device-side deadlock.

use std::collections::BTreeMap;

use liger_gpu_sim::KernelClass;

use crate::scheduler::RoundPlan;

/// Stream index the primary subset runs on (mirrors the engine).
pub const PRIMARY_STREAM: usize = 0;
/// Stream index the secondary subset runs on (mirrors the engine).
pub const SECONDARY_STREAM: usize = 1;

/// One device-side operation of the launch program, in lane order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// A kernel launch. `collective` groups the rendezvous members of one
    /// communication op across devices; compute kernels carry `None`.
    Kernel {
        /// Owning batch id.
        batch: u64,
        /// Compute or communication.
        class: KernelClass,
        /// Rendezvous group, shared by every member lane.
        collective: Option<u64>,
    },
    /// `cudaEventRecord`: the event fires when the lane reaches this point.
    Record {
        /// Program-unique event id.
        event: u64,
    },
    /// `cudaStreamWaitEvent`: the lane stalls here until the event fires.
    Wait {
        /// Program-unique event id.
        event: u64,
    },
}

/// The statically predicted device-side launch program: per-lane op lists,
/// where a lane is one `(device, stream)` pair.
#[derive(Debug, Clone, Default)]
pub struct LaunchProgram {
    /// Ops per `(device, stream)`, each in enqueue order.
    pub lanes: BTreeMap<(usize, usize), Vec<PlanOp>>,
}

/// Per-batch launch state the engine tracks across rounds.
#[derive(Debug, Clone, Default)]
struct BatchState {
    last_stream: Option<usize>,
    dep_events: Option<Vec<u64>>,
}

/// Replay state: lanes under construction plus the engine-side trackers.
struct Builder<'a> {
    devices: &'a [usize],
    lanes: BTreeMap<(usize, usize), Vec<PlanOp>>,
    batches: BTreeMap<u64, BatchState>,
    next_event: u64,
    next_collective: u64,
    prev_e2: Option<Vec<u64>>,
}

impl Builder<'_> {
    fn push(&mut self, device: usize, stream: usize, op: PlanOp) {
        self.lanes.entry((device, stream)).or_default().push(op);
    }

    fn record_event(&mut self, device: usize, stream: usize) -> u64 {
        let ev = self.next_event;
        self.next_event += 1;
        self.push(device, stream, PlanOp::Record { event: ev });
        ev
    }

    /// One item on `stream` of every device: compute fans out as
    /// independent kernels, comm becomes a rendezvous collective (skipped
    /// on a degenerate single-device deployment, like the engine).
    fn launch_item(&mut self, batch: u64, class: KernelClass, stream: usize) {
        let collective = match class {
            KernelClass::Compute => None,
            KernelClass::Comm => {
                if self.devices.len() < 2 {
                    return;
                }
                let c = self.next_collective;
                self.next_collective += 1;
                Some(c)
            }
        };
        for &d in self.devices {
            self.push(d, stream, PlanOp::Kernel { batch, class, collective });
        }
    }

    /// Batch-completion notification: the engine records one event on
    /// device 0 and notifies the host on it.
    fn notify_batch_done(&mut self, stream: usize) {
        let d0 = self.devices[0];
        self.record_event(d0, stream);
    }

    fn launch_primary(&mut self, plan: &RoundPlan, hybrid: bool) {
        // Promoted batch: if the primary batch last ran on the secondary
        // stream, its stream-0 run waits on that round's dependency events.
        if let Some(item) = plan.primary.first() {
            let state = self.batches.entry(item.batch).or_default();
            if state.last_stream == Some(SECONDARY_STREAM) {
                if let Some(deps) = state.dep_events.clone() {
                    for (i, &d) in self.devices.iter().enumerate() {
                        self.push(d, PRIMARY_STREAM, PlanOp::Wait { event: deps[i] });
                    }
                }
            }
        }

        let n = plan.primary.len();
        for (idx, item) in plan.primary.iter().enumerate() {
            if hybrid && idx == n - 1 {
                // E1: recorded on device 0 immediately before the run's
                // last kernel; its notification is host-side.
                self.record_event(self.devices[0], PRIMARY_STREAM);
            }
            self.launch_item(item.batch, plan.primary_class, PRIMARY_STREAM);
            if item.completes_batch {
                self.notify_batch_done(PRIMARY_STREAM);
            }
        }

        // E2 per device; the next round's secondary stream waits on it.
        let e2: Vec<u64> =
            self.devices.iter().map(|&d| self.record_event(d, PRIMARY_STREAM)).collect();
        self.prev_e2 = Some(e2);

        if let Some(item) = plan.primary.first() {
            self.batches.entry(item.batch).or_default().last_stream = Some(PRIMARY_STREAM);
        }
    }

    fn launch_secondary(&mut self, plan: &RoundPlan, gate: Option<&[u64]>) {
        if plan.secondary.is_empty() {
            return;
        }
        if let Some(prev) = gate {
            for (i, &d) in self.devices.iter().enumerate() {
                self.push(d, SECONDARY_STREAM, PlanOp::Wait { event: prev[i] });
            }
        }
        let class = plan.secondary_class();
        for item in &plan.secondary {
            self.launch_item(item.batch, class, SECONDARY_STREAM);
            if item.completes_batch {
                self.notify_batch_done(SECONDARY_STREAM);
            }
        }
        let deps: Vec<u64> =
            self.devices.iter().map(|&d| self.record_event(d, SECONDARY_STREAM)).collect();
        for item in &plan.secondary {
            let state = self.batches.entry(item.batch).or_default();
            state.last_stream = Some(SECONDARY_STREAM);
            state.dep_events = Some(deps.clone());
        }
    }
}

impl LaunchProgram {
    /// Replays `plans` over devices `0..world`. `hybrid` selects the E1
    /// event of the hybrid synchronization mode.
    pub fn from_plans(plans: &[RoundPlan], world: usize, hybrid: bool) -> LaunchProgram {
        let devices: Vec<usize> = (0..world).collect();
        LaunchProgram::from_plans_on(plans, &devices, hybrid)
    }

    /// Replays `plans` over an explicit device set (a degraded topology's
    /// survivors, for instance).
    pub fn from_plans_on(plans: &[RoundPlan], devices: &[usize], hybrid: bool) -> LaunchProgram {
        assert!(!devices.is_empty(), "launch program needs at least one device");
        let mut b = Builder {
            devices,
            lanes: BTreeMap::new(),
            batches: BTreeMap::new(),
            next_event: 0,
            next_collective: 0,
            prev_e2: None,
        };
        for plan in plans {
            // The secondary stream is gated on the previous round's E2.
            let gate = b.prev_e2.take();
            // Communication launches first: its rendezvous benefits most
            // from reaching the devices early.
            if plan.primary_class == KernelClass::Comm {
                b.launch_primary(plan, hybrid);
                b.launch_secondary(plan, gate.as_deref());
            } else {
                b.launch_secondary(plan, gate.as_deref());
                b.launch_primary(plan, hybrid);
            }
        }
        LaunchProgram { lanes: b.lanes }
    }

    /// Ops in one lane, empty when the lane was never touched.
    pub fn lane(&self, device: usize, stream: usize) -> &[PlanOp] {
        self.lanes.get(&(device, stream)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total ops across every lane.
    pub fn len(&self) -> usize {
        self.lanes.values().map(Vec::len).sum()
    }

    /// True when no lane holds any op.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use liger_gpu_sim::prelude::*;
    use liger_model::{assemble, BatchShape, CostModel, ModelConfig};

    use super::*;
    use crate::funcvec::FuncVec;
    use crate::scheduler::{plan_round, LaunchItem, PlanParams};
    use crate::{LigerConfig, LigerEngine, SyncMode};

    fn item(batch: u64, comm: bool, completes: bool) -> LaunchItem {
        let op = if comm {
            liger_model::LayerOp::AllReduce { bytes: 1 << 20, ranks: 2 }
        } else {
            liger_model::LayerOp::Gelu { rows: 64, width: 64 }
        };
        let placed = liger_model::PlacedOp { layer: 0, op };
        LaunchItem {
            batch,
            op: liger_model::PricedOp { placed, duration: SimDuration::from_micros(10) },
            completes_batch: completes,
        }
    }

    fn plan(primary: Vec<LaunchItem>, secondary: Vec<LaunchItem>, comm_primary: bool) -> RoundPlan {
        let class = if comm_primary { KernelClass::Comm } else { KernelClass::Compute };
        RoundPlan { primary, secondary, primary_class: class, window: SimDuration::from_micros(10) }
    }

    #[test]
    fn secondary_waits_on_previous_rounds_e2() {
        let plans = vec![
            plan(vec![item(0, false, false)], vec![], false),
            plan(vec![item(0, false, false)], vec![item(1, true, false)], false),
        ];
        let prog = LaunchProgram::from_plans(&plans, 2, true);
        // Round 0 recorded E2 per device; round 1's secondary lane on each
        // device must begin with a wait on its own device's E2.
        for d in 0..2 {
            let lane = prog.lane(d, SECONDARY_STREAM);
            assert!(
                matches!(lane.first(), Some(PlanOp::Wait { .. })),
                "device {d} secondary lane must be gated: {lane:?}"
            );
        }
        // The two devices wait on *different* events (per-device E2).
        let ev = |d: usize| match prog.lane(d, SECONDARY_STREAM)[0] {
            PlanOp::Wait { event } => event,
            ref op => panic!("expected wait, got {op:?}"),
        };
        assert_ne!(ev(0), ev(1));
    }

    #[test]
    fn promoted_batch_waits_on_dependency_events() {
        // Batch 1 runs secondary in round 0, then primary in round 1: its
        // stream-0 run must wait on round 0's dependency events.
        let plans = vec![
            plan(vec![item(0, false, true)], vec![item(1, true, false)], false),
            plan(vec![item(1, false, false)], vec![], false),
        ];
        let prog = LaunchProgram::from_plans(&plans, 2, false);
        for d in 0..2 {
            let lane = prog.lane(d, PRIMARY_STREAM);
            assert!(
                lane.iter().any(|op| matches!(op, PlanOp::Wait { .. })),
                "device {d} primary lane must wait for the promoted batch: {lane:?}"
            );
        }
    }

    #[test]
    fn collectives_fan_out_with_shared_ids() {
        let plans = vec![plan(vec![item(0, true, false)], vec![item(1, false, false)], true)];
        let prog = LaunchProgram::from_plans(&plans, 4, false);
        let collective_of = |d: usize| {
            prog.lane(d, PRIMARY_STREAM)
                .iter()
                .find_map(|op| match op {
                    PlanOp::Kernel { collective, .. } => *collective,
                    _ => None,
                })
                .expect("comm kernel present")
        };
        let c0 = collective_of(0);
        for d in 1..4 {
            assert_eq!(collective_of(d), c0, "collective id must match across devices");
        }
        // Compute fan-out carries no collective.
        for d in 0..4 {
            for op in prog.lane(d, SECONDARY_STREAM) {
                if let PlanOp::Kernel { collective, .. } = op {
                    assert_eq!(*collective, None);
                }
            }
        }
    }

    #[test]
    fn hybrid_places_e1_before_last_primary_kernel() {
        let plans = vec![plan(vec![item(0, false, false), item(0, false, false)], vec![], false)];
        let prog = LaunchProgram::from_plans(&plans, 2, true);
        let lane = prog.lane(0, PRIMARY_STREAM);
        // kernel, E1 record, kernel, E2 record.
        assert!(matches!(lane[0], PlanOp::Kernel { .. }));
        assert!(matches!(lane[1], PlanOp::Record { .. }));
        assert!(matches!(lane[2], PlanOp::Kernel { .. }));
        assert!(matches!(lane[3], PlanOp::Record { .. }));
    }

    /// The replay and the real engine agree: for a real planned workload,
    /// the per-lane kernel fan-out predicted by [`LaunchProgram`] matches
    /// the kernels the engine actually enqueues in the simulator trace.
    #[test]
    fn mirrors_engine_launch_order() {
        let cfg = ModelConfig::tiny_test();
        let cm = CostModel::v100_node();
        let world = 2;

        // Predict: in inter-stream (flood) mode the engine plans batch 0's
        // rounds at first submission and batch 1's after batch 0 completes,
        // so the offline replay floods each batch in turn. Params mirror
        // `LigerEngine::params` on a healthy node at default config.
        let lc = LigerConfig::default().with_sync_mode(SyncMode::InterStream);
        let params = PlanParams {
            contention_factor: lc.contention_factor,
            division_factor: lc.division_factor,
            enable_decomposition: lc.enable_decomposition,
            straggler_factor: 1.0,
        };
        let shape = BatchShape::prefill(1, 16);
        let mut plans = Vec::new();
        for b in 0..2u64 {
            let fv = FuncVec::from_ops(
                b,
                shape,
                SimTime::ZERO,
                assemble(&cm, &cfg, shape, world as u32),
            );
            let mut processing: VecDeque<FuncVec> = [fv].into();
            while let Some(p) = plan_round(&mut processing, &params, &cm) {
                plans.push(p);
            }
        }
        let prog = LaunchProgram::from_plans(&plans, world, false);

        // Run: same workload through the real engine.
        let mut sim = Simulation::builder()
            .devices(DeviceSpec::v100_16gb(), world)
            .capture_trace(true)
            .build()
            .unwrap();
        let mut engine = LigerEngine::new(cfg, cm, world, lc).unwrap();
        let reqs: Vec<liger_serving::Request> = (0..2)
            .map(|i| liger_serving::Request::new(i, BatchShape::prefill(1, 16), SimTime::ZERO))
            .collect();
        let _ = liger_serving::serve(&mut sim, &mut engine, reqs);
        let trace = sim.take_trace().unwrap();

        // Compare per-lane kernel class sequences (trace has no Record
        // entries for events the engine recorded, so filter to kernels).
        for (&(d, s), ops) in &prog.lanes {
            let predicted: Vec<KernelClass> = ops
                .iter()
                .filter_map(|op| match op {
                    PlanOp::Kernel { class, .. } => Some(*class),
                    _ => None,
                })
                .collect();
            let mut actual: Vec<(SimTime, KernelClass)> = trace
                .on_device(DeviceId(d))
                .filter(|e| e.stream == s)
                .map(|e| (e.enqueued_at, e.class))
                .collect();
            actual.sort_by_key(|&(t, _)| t);
            let actual: Vec<KernelClass> = actual.into_iter().map(|(_, c)| c).collect();
            assert_eq!(
                predicted, actual,
                "lane ({d},{s}): predicted kernel classes diverge from the engine"
            );
        }
    }
}
