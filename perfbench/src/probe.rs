//! An engine wrapper that delegates every call to the real Liger engine and
//! records, from outside, what the engine and the simulator did.
//!
//! The wrapper opens a span around each engine call when the traced run is
//! on, keeps the batch shapes it was handed for the planning replay, and
//! snapshots the simulator's counters after every call. Every serving runner
//! stops the simulation from the wake that hands the engine its last
//! completion, so the snapshot of the last call is the simulator's state at
//! the end of the serve. A cluster builds its simulations inside the serving
//! call, so the snapshot is the only view of them; the wrapper hands it to
//! the shared [`Recorder`] when it is dropped.

use std::cell::RefCell;
use std::rc::Rc;

use liger_core::LigerEngine;
use liger_gpu_sim::{DeviceId, SimTime, Simulation, Wake};
use liger_model::BatchShape;
use liger_serving::{InferenceEngine, Request};

use crate::clock::cpu_seconds;
use crate::spans::Spans;

/// Engine calls between two marks of a pass's clock: about 40–100 ms of
/// host time on the workloads.
pub const SEGMENT_CALLS: u64 = 32_768;

/// Simulator counters of one simulation (or the sum over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimSnapshot {
    /// Events dispatched.
    pub events: u64,
    /// Kernels launched.
    pub kernels: u64,
    /// Scheduling rounds the engine planned.
    pub rounds: u64,
    /// Device-nanoseconds of simulated time (devices × end time).
    pub device_ns: u64,
    /// Σ over devices of time with a compute kernel running.
    pub busy_compute_ns: u64,
    /// Σ over devices of time with any kernel running.
    pub busy_ns: u64,
    /// Σ over devices of time with compute and communication overlapping.
    pub busy_overlap_ns: u64,
}

impl SimSnapshot {
    /// Reads `sim` and the engine's round count.
    pub fn read(sim: &Simulation, rounds: u64) -> SimSnapshot {
        let mut snap = SimSnapshot {
            events: sim.events_dispatched(),
            kernels: sim.kernels_launched(),
            rounds,
            device_ns: sim.device_count() as u64 * sim.now().as_nanos(),
            ..SimSnapshot::default()
        };
        for d in 0..sim.device_count() {
            let s = sim.device_stats(DeviceId(d));
            let (compute, comm, overlap) =
                (s.busy_compute.as_nanos(), s.busy_comm.as_nanos(), s.busy_overlap.as_nanos());
            snap.busy_compute_ns += compute;
            snap.busy_ns += compute + comm - overlap;
            snap.busy_overlap_ns += overlap;
        }
        snap
    }

    /// Adds `o` field by field.
    pub fn add(&mut self, o: &SimSnapshot) {
        self.events += o.events;
        self.kernels += o.kernels;
        self.rounds += o.rounds;
        self.device_ns += o.device_ns;
        self.busy_compute_ns += o.busy_compute_ns;
        self.busy_ns += o.busy_ns;
        self.busy_overlap_ns += o.busy_overlap_ns;
    }

    /// Σ compute–communication overlap ÷ Σ busy time.
    pub fn overlap_frac(&self) -> f64 {
        ratio(self.busy_overlap_ns as f64, self.busy_ns as f64)
    }

    /// Σ compute-busy time ÷ (devices × simulated end time).
    pub fn compute_util(&self) -> f64 {
        ratio(self.busy_compute_ns as f64, self.device_ns as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What every wrapper of one workload pass shares: the spans, the batch
/// shapes submitted (traced run only), the engine-call count, the marks of
/// the pass's clock, and the final simulator snapshots of the wrappers
/// dropped so far.
#[derive(Debug)]
pub struct Recorder {
    /// Spans of this pass.
    pub spans: Spans,
    /// Shapes handed to the engine, in submission order (traced run only).
    pub shapes: Vec<BatchShape>,
    /// Engine calls made, over every wrapper.
    pub calls: u64,
    /// The pass's clock ([`Recorder::now`]) at every [`SEGMENT_CALLS`]-th
    /// engine call and wherever [`Recorder::mark`] was called. The same
    /// input makes the same calls, so the marks split every pass on it at
    /// the same points of its work.
    pub marks: Vec<f64>,
    /// Host CPU seconds spent on set-up inside the pass, which its clock
    /// leaves out.
    pub paused_s: f64,
    /// Final snapshot per dropped wrapper, in drop order.
    pub sims: Vec<SimSnapshot>,
}

impl Recorder {
    /// A shared recorder for one pass of `workload`.
    pub fn shared(workload: &'static str, traced: bool) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            spans: Spans::new(workload, traced),
            shapes: Vec::new(),
            calls: 0,
            marks: Vec::new(),
            paused_s: 0.0,
            sims: Vec::new(),
        }))
    }

    /// The pass's clock: host CPU seconds less those spent on set-up.
    pub fn now(&self) -> f64 {
        cpu_seconds() - self.paused_s
    }

    /// Marks the pass's clock now.
    pub fn mark(&mut self) {
        let now = self.now();
        self.marks.push(now);
    }

    /// CPU seconds of each stretch of a pass that began at `start` on the
    /// pass's clock and ends now, split at the marks; they sum to the pass.
    pub fn segments_since(&self, start: f64) -> Vec<f64> {
        let mut prev = start;
        let mut out: Vec<f64> =
            self.marks.iter().map(|&m| m - std::mem::replace(&mut prev, m)).collect();
        out.push(self.now() - prev);
        out
    }

    /// Sum of the snapshots of every dropped wrapper.
    pub fn sim_total(&self) -> SimSnapshot {
        let mut total = SimSnapshot::default();
        for s in &self.sims {
            total.add(s);
        }
        total
    }
}

/// The delegating engine. Each one serves one simulation.
pub struct Probe {
    inner: LigerEngine,
    rec: Rc<RefCell<Recorder>>,
    traced: bool,
    last: SimSnapshot,
}

impl Probe {
    /// Wraps `inner`, reporting into `rec`.
    pub fn new(inner: LigerEngine, rec: &Rc<RefCell<Recorder>>) -> Probe {
        let traced = rec.borrow().spans.is_on();
        Probe { inner, rec: Rc::clone(rec), traced, last: SimSnapshot::default() }
    }

    fn call<R>(
        &mut self,
        name: &'static str,
        sim: &mut Simulation,
        f: impl FnOnce(&mut LigerEngine, &mut Simulation) -> R,
    ) -> R {
        let r = self.timed(name, |inner| f(inner, sim));
        self.last = SimSnapshot::read(sim, self.inner.rounds_planned());
        r
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut LigerEngine) -> R) -> R {
        {
            let mut rec = self.rec.borrow_mut();
            rec.calls += 1;
            if rec.calls.is_multiple_of(SEGMENT_CALLS) {
                rec.mark();
            }
        }
        if !self.traced {
            return f(&mut self.inner);
        }
        let id = self.rec.borrow_mut().spans.enter(name);
        let r = f(&mut self.inner);
        self.rec.borrow_mut().spans.exit(id);
        r
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Borrowing cannot fail: no recorder borrow outlives a probe call.
        self.rec.borrow_mut().sims.push(self.last);
    }
}

impl InferenceEngine for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, request: Request, sim: &mut Simulation) {
        if self.traced {
            self.rec.borrow_mut().shapes.push(request.shape);
        }
        self.call("engine.submit", sim, |e, sim| e.submit(request, sim));
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        self.call("engine.on_wake", sim, |e, sim| e.on_wake(wake, sim));
    }

    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        self.timed("engine.drain_completions", |e| e.drain_completions())
    }

    fn on_device_loss(
        &mut self,
        dead: DeviceId,
        survivors: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        self.call("engine.on_device_loss", sim, |e, sim| e.on_device_loss(dead, survivors, sim))
    }

    fn on_device_rejoin(
        &mut self,
        rejoined: DeviceId,
        devices: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        self.call("engine.on_device_rejoin", sim, |e, sim| {
            e.on_device_rejoin(rejoined, devices, sim)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_run_from_mark_to_mark_and_sum_to_the_pass() {
        let rec = Recorder::shared("t", false);
        let mut r = rec.borrow_mut();
        let start = r.now();
        r.marks = vec![start + 0.5, start + 1.25];
        let segments = r.segments_since(start);
        assert_eq!(segments.len(), 3);
        assert!((segments[0] - 0.5).abs() < 1e-9 && (segments[1] - 0.75).abs() < 1e-9);
        let total: f64 = segments.iter().sum();
        assert!((total - (r.now() - start)).abs() < 1e-3, "{segments:?}");
    }
}
