//! Schedule-space model checking of event interleavings.
//!
//! The sequential event core (DESIGN §13) breaks ties among pending events
//! on different devices by the canonical `(time, lane rank, seq)` key. On
//! real hardware those devices race; the tie-break is only sound if the
//! order could not have mattered. Under the conservative window rule this
//! module checks that claim — and under the unguarded rule the stronger
//! claims an optimistic (time-warp) core would need — by
//! bounded-exhaustive exploration of the schedule space with dynamic
//! partial-order reduction:
//!
//! 1. An [`ExploreCore`] run records a *trail* of [`ChoicePoint`]s: the
//!    simulation steps where ≥ 2 pending events were reorderable under the
//!    active [`WindowRule`].
//! 2. The checker forks the schedule at each new choice point, replaying a
//!    **cloned** pristine simulation with the redirected schedule vector
//!    (stateless model checking: a schedule is a complete name for one
//!    interleaving).
//! 3. Fork fan-out is pruned with **persistent sets** (the closure of the
//!    canonical choice under footprint intersection — alternatives whose
//!    (device, stream, memory-tag, event) footprints are disjoint from
//!    every member commute with the whole set and need no separate branch)
//!    and **sleep sets** (an alternative already explored from an
//!    equivalent prefix stays asleep until some later dispatch conflicts
//!    with it).
//!
//! Every explored terminal state is checked three ways:
//!
//! * **MC-DETERMINISM** — the per-device-lane trace projections must be
//!   byte-identical across all explored schedules;
//! * **MC-SANITIZE** — each distinct terminal trace must be clean under
//!   the existing `TS-*` sanitizer rules;
//! * **MC-QUIESCENCE** / **MC-DEADLOCK** — nothing may be left pending or
//!   blocked: a cyclic wait among blocked queues is reported as a
//!   deadlock, any other stuck residue (a wait on an event that can never
//!   fire, a collective that can never complete its rendezvous, a parked
//!   host) as a quiescence failure.
//!
//! Programs come from three sources: the engine's introspected
//! [`LaunchProgram`]s ([`McProgram::from_launch_program`]), exported
//! Chrome traces ([`McProgram::from_trace`], approximate), and the
//! hand-built [`adversarial_battery`] of small order-dependent programs.

use std::collections::{BTreeMap, BTreeSet};

use liger_core::introspect::{LaunchProgram, PlanOp};
use liger_gpu_sim::{
    ChoicePoint, DeviceSpec, DispatchFootprint, Driver, EnabledEvent, EventCore, EventId,
    ExploreCore, HostId, HostSpec, KernelClass, KernelSpec, SimDuration, SimTime, Simulation,
    StreamId, TerminalReport, Trace, TraceMark, Wake, WindowRule,
};

use crate::diag::Diagnostic;
use crate::sanitizer::sanitize;

/// Rule id: observable outcome depends on the schedule.
pub const MC_DETERMINISM: &str = "MC-DETERMINISM";
/// Rule id: an explored terminal trace fails the `TS-*` sanitizer.
pub const MC_SANITIZE: &str = "MC-SANITIZE";
/// Rule id: a terminal state left pending or unfinishable work behind.
pub const MC_QUIESCENCE: &str = "MC-QUIESCENCE";
/// Rule id: a terminal state contains a cyclic wait among blocked queues.
pub const MC_DEADLOCK: &str = "MC-DEADLOCK";
/// Rule id: the DPOR reduction ratio fell below a required floor
/// (`liger-verify explore --min-ratio`). Not a program defect — a
/// regression signal that pruning stopped working.
pub const MC_REDUCTION: &str = "MC-REDUCTION";

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

/// One operation of a model-checked program, on a `(device, stream)` lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McOp {
    /// A kernel launch.
    Kernel {
        /// No-load execution time in nanoseconds (clamped ≥ 1 at launch).
        work_ns: u64,
        /// Computation or communication.
        class: KernelClass,
        /// Memory label in the TS-HAZARD sense (batch id for engine
        /// programs).
        tag: u64,
        /// Rendezvous group shared by every member lane, if collective.
        collective: Option<u64>,
    },
    /// `cudaEventRecord` of a program-scoped event id.
    Record {
        /// Program-unique event id.
        event: u64,
    },
    /// `cudaStreamWaitEvent` on a program-scoped event id.
    Wait {
        /// Program-unique event id.
        event: u64,
    },
}

/// A model-checked program: per-lane op lists, replayed onto a fresh
/// simulation for every explored schedule.
#[derive(Debug, Clone, Default)]
pub struct McProgram {
    /// Program name, used in reports.
    pub name: String,
    /// Ops per `(device, stream)` lane, in enqueue order.
    pub lanes: BTreeMap<(usize, usize), Vec<McOp>>,
    /// Declared collective sizes. Defaults to the member count present in
    /// the program; an override larger than the member count models a
    /// missing participant (the rendezvous can then never complete).
    pub collective_sizes: BTreeMap<u64, usize>,
}

impl McProgram {
    /// An empty program.
    pub fn new(name: impl Into<String>) -> McProgram {
        McProgram { name: name.into(), lanes: BTreeMap::new(), collective_sizes: BTreeMap::new() }
    }

    /// Appends `op` to lane `(device, stream)`.
    pub fn push(&mut self, device: usize, stream: usize, op: McOp) -> &mut Self {
        self.lanes.entry((device, stream)).or_default().push(op);
        self
    }

    /// Number of devices the program spans.
    pub fn world(&self) -> usize {
        self.lanes.keys().map(|&(d, _)| d + 1).max().unwrap_or(1)
    }

    /// Number of streams per device the program needs.
    pub fn streams(&self) -> usize {
        self.lanes.keys().map(|&(_, s)| s + 1).max().unwrap_or(1).max(2)
    }

    /// Total ops across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.values().map(Vec::len).sum()
    }

    /// True when no lane holds any op.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Member count per collective actually present in the program.
    fn collective_members(&self) -> BTreeMap<u64, usize> {
        let mut m = BTreeMap::new();
        for ops in self.lanes.values() {
            for op in ops {
                if let McOp::Kernel { collective: Some(c), .. } = op {
                    *m.entry(*c).or_insert(0) += 1;
                }
            }
        }
        m
    }

    /// Converts an introspected engine launch program, assigning each
    /// kernel a deterministic duration from a small per-class palette (the
    /// checker cares about orderings and synchronization structure, not
    /// absolute times; distinct durations just make interleavings
    /// observable).
    pub fn from_launch_program(name: impl Into<String>, prog: &LaunchProgram) -> McProgram {
        let mut mc = McProgram::new(name);
        for (&(d, s), ops) in &prog.lanes {
            for (i, op) in ops.iter().enumerate() {
                let conv = match *op {
                    PlanOp::Kernel { batch, class, collective } => {
                        let base = match class {
                            KernelClass::Compute => 8_000,
                            KernelClass::Comm => 5_000,
                        };
                        McOp::Kernel {
                            work_ns: base + 1_000 * ((d + s + i) as u64 % 3),
                            class,
                            tag: batch,
                            collective,
                        }
                    }
                    PlanOp::Record { event } => McOp::Record { event },
                    PlanOp::Wait { event } => McOp::Wait { event },
                };
                mc.push(d, s, conv);
            }
        }
        mc
    }

    /// Approximate reconstruction from an exported Chrome trace: kernels
    /// keyed by their enqueue time, records and waits by their fire /
    /// resolve time (the trace does not carry enqueue instants for marks).
    /// Good enough to re-explore the schedule neighborhood of a captured
    /// run; not an exact inverse of execution.
    pub fn from_trace(name: impl Into<String>, trace: &Trace) -> McProgram {
        type Keyed = BTreeMap<(usize, usize), Vec<(SimTime, usize, McOp)>>;
        let mut keyed: Keyed = BTreeMap::new();
        for (i, e) in trace.events().iter().enumerate() {
            let work = e.ended_at.saturating_since(e.started_at).as_nanos().max(1);
            let op = McOp::Kernel {
                work_ns: work,
                class: e.class,
                tag: e.tag,
                collective: e.collective.map(|c| c.0),
            };
            keyed.entry((e.device.0, e.stream)).or_default().push((e.enqueued_at, i, op));
        }
        for (i, m) in trace.marks().iter().enumerate() {
            let (lane, op) = match *m {
                TraceMark::Record { event, device, stream, at } => {
                    ((device.0, stream), (at, usize::MAX - i, McOp::Record { event }))
                }
                TraceMark::Wait { event, device, stream, at } => {
                    ((device.0, stream), (at, usize::MAX - i, McOp::Wait { event }))
                }
                // Allocation marks are driver-side; they carry no lane order.
                TraceMark::Alloc { .. } | TraceMark::Free { .. } => continue,
            };
            keyed.entry(lane).or_default().push((op.0, op.1, op.2));
        }
        let mut mc = McProgram::new(name);
        for ((d, s), mut ops) in keyed {
            ops.sort_by_key(|&(at, i, _)| (at, i));
            for (_, _, op) in ops {
                mc.push(d, s, op);
            }
        }
        mc
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Enqueues the whole program up front from one instant host, wiring the
/// program's symbolic event and collective ids to freshly created simulator
/// ids. Replay is stateless: the driver holds no mutable state, so the same
/// driver replays any number of cloned simulations.
struct ReplayDriver<'a> {
    program: &'a McProgram,
}

impl Driver for ReplayDriver<'_> {
    fn start(&mut self, sim: &mut Simulation) {
        // Events: create in ascending program-id order so the mapping is
        // deterministic (ids may be sparse in hand-built programs).
        let mut event_ids: BTreeSet<u64> = BTreeSet::new();
        for ops in self.program.lanes.values() {
            for op in ops {
                match op {
                    McOp::Record { event } | McOp::Wait { event } => {
                        event_ids.insert(*event);
                    }
                    McOp::Kernel { .. } => {}
                }
            }
        }
        let events: BTreeMap<u64, EventId> =
            event_ids.into_iter().map(|e| (e, sim.new_event())).collect();
        let mut sizes = self.program.collective_members();
        for (&c, &size) in &self.program.collective_sizes {
            sizes.insert(c, size);
        }
        let colls: BTreeMap<u64, _> =
            sizes.iter().map(|(&c, &n)| (c, sim.new_collective(n))).collect();

        let host = HostId(0);
        for (&(d, s), ops) in &self.program.lanes {
            let stream = StreamId::new(liger_gpu_sim::DeviceId(d), s);
            for (i, op) in ops.iter().enumerate() {
                match op {
                    McOp::Kernel { work_ns, class, tag, collective } => {
                        let work = SimDuration::from_nanos((*work_ns).max(1));
                        let name = format!("d{d}s{s}.{i}");
                        let mut spec = match class {
                            KernelClass::Compute => KernelSpec::compute(name, work),
                            KernelClass::Comm => KernelSpec::comm(name, work),
                        };
                        spec = spec.with_tag(*tag);
                        if let Some(c) = collective {
                            spec = spec.with_collective(colls[c]);
                        }
                        sim.launch(host, stream, spec);
                    }
                    McOp::Record { event } => {
                        sim.record_existing_event(host, stream, events[event]);
                    }
                    McOp::Wait { event } => {
                        sim.stream_wait(host, stream, events[event]);
                    }
                }
            }
        }
    }

    fn on_wake(&mut self, _wake: Wake, _sim: &mut Simulation) {}
}

/// Builds the pristine template simulation for `program`: one contended
/// V100-style device per program device (contention makes overlap-order
/// observable, which is exactly what order-dependence looks like), one
/// hardware queue per stream, one instant host, trace capture on.
fn build_template(program: &McProgram) -> Simulation {
    let streams = program.streams();
    Simulation::builder()
        .devices(DeviceSpec::v100_16gb().with_connections(streams), program.world())
        .host(HostSpec::instant())
        .streams_per_device(streams)
        .capture_trace(true)
        .build()
        .expect("model-checker template simulation")
}

/// Everything one replayed schedule produced.
struct RunOutcome {
    trail: Vec<ChoicePoint>,
    hash: u64,
    trace: Trace,
    report: TerminalReport,
}

fn run_schedule(
    template: &Simulation,
    program: &McProgram,
    rule: WindowRule,
    schedule: &[usize],
) -> RunOutcome {
    let mut sim = template.clone();
    let mut core = ExploreCore::new(rule).with_schedule(schedule.to_vec());
    let mut driver = ReplayDriver { program };
    core.run(&mut sim, &mut driver, SimTime::MAX);
    let report = sim.terminal_report();
    let trace = sim.take_trace().expect("template captures traces");
    let hash = projection_hash(&trace, program.world());
    RunOutcome { trail: core.take_trail(), hash, trace, report }
}

// ---------------------------------------------------------------------------
// Trace projection hashing (MC-DETERMINISM)
// ---------------------------------------------------------------------------

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Hash of one device's trace projection: its kernel events in completion
/// order plus its synchronization/memory marks in simulation order. Two
/// schedules with equal projections on every device are observationally
/// equivalent.
pub fn device_projection_hash(trace: &Trace, device: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.events() {
        if e.device.0 != device {
            continue;
        }
        fnv1a(&mut h, e.name.as_bytes());
        let class = match e.class {
            liger_gpu_sim::KernelClass::Compute => 0u64,
            liger_gpu_sim::KernelClass::Comm => 1,
        };
        for v in [
            class,
            e.tag,
            e.stream as u64,
            e.enqueued_at.as_nanos(),
            e.started_at.as_nanos(),
            e.ended_at.as_nanos(),
            e.failed as u64,
            e.collective.map(|c| c.0 + 1).unwrap_or(0),
        ] {
            fnv1a(&mut h, &v.to_le_bytes());
        }
    }
    for m in trace.marks() {
        if m.device().0 != device {
            continue;
        }
        let (kind, id, at) = match *m {
            TraceMark::Record { event, at, .. } => (1u64, event, at),
            TraceMark::Wait { event, at, .. } => (2, event, at),
            TraceMark::Alloc { id, at, .. } => (3, id, at),
            TraceMark::Free { id, at, .. } => (4, id, at),
        };
        for v in [kind, id, at.as_nanos()] {
            fnv1a(&mut h, &v.to_le_bytes());
        }
    }
    h
}

/// Combined hash over every device's projection, in device order.
pub fn projection_hash(trace: &Trace, world: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in 0..world {
        fnv1a(&mut h, &device_projection_hash(trace, d).to_le_bytes());
    }
    h
}

// ---------------------------------------------------------------------------
// Terminal-state verdicts (MC-SANITIZE / MC-QUIESCENCE / MC-DEADLOCK)
// ---------------------------------------------------------------------------

fn schedule_label(schedule: &[usize]) -> String {
    if schedule.is_empty() {
        "canonical schedule".to_string()
    } else {
        let s: Vec<String> = schedule.iter().map(|c| c.to_string()).collect();
        format!("schedule [{}]", s.join(","))
    }
}

/// Checks one terminal state, appending MC-* diagnostics.
fn check_terminal(
    schedule: &[usize],
    trace: &Trace,
    report: &TerminalReport,
    out: &mut Vec<Diagnostic>,
) {
    let label = schedule_label(schedule);
    for inner in sanitize(trace) {
        let mut d =
            Diagnostic::new(MC_SANITIZE, format!("{label}: {}: {}", inner.rule, inner.message));
        d.device = inner.device;
        d.stream = inner.stream;
        out.push(d);
    }
    if report.is_quiescent() {
        return;
    }

    // Wait-for graph over blocked queues: queue -> queues whose progress
    // could unblock it. A cycle is a deadlock; anything else stuck is a
    // quiescence failure.
    let blocked: BTreeSet<(usize, usize)> =
        report.blocked_lanes.iter().map(|l| (l.device, l.queue)).collect();
    let mut edges: BTreeMap<(usize, usize), BTreeSet<(usize, usize)>> = BTreeMap::new();
    for lane in &report.blocked_lanes {
        let node = (lane.device, lane.queue);
        match lane.block {
            liger_gpu_sim::LaneBlock::Event(ev) => {
                let holders: Vec<(usize, usize)> = report
                    .held_records
                    .iter()
                    .filter(|&&(e, ..)| e == ev)
                    .map(|&(_, d, q)| (d, q))
                    .collect();
                if holders.is_empty() {
                    out.push(
                        Diagnostic::new(
                            MC_QUIESCENCE,
                            format!(
                                "{label}: stream {} waits on event {ev}, which no queued \
                                 record can ever fire (lost signal)",
                                lane.stream
                            ),
                        )
                        .on_device(lane.device)
                        .on_stream(lane.stream),
                    );
                }
                for h in holders {
                    if blocked.contains(&h) {
                        edges.entry(node).or_default().insert(h);
                    }
                }
            }
            liger_gpu_sim::LaneBlock::Collective(c) => {
                // Members blocked at a queue head on this same collective
                // have already arrived at the rendezvous — they are not a
                // source of future progress. Only members queued on other
                // lanes can still unblock it.
                let arrived: BTreeSet<(usize, usize)> = report
                    .blocked_lanes
                    .iter()
                    .filter(|l| l.block == liger_gpu_sim::LaneBlock::Collective(c))
                    .map(|l| (l.device, l.queue))
                    .collect();
                let queued: Vec<(usize, usize)> = report
                    .queued_collective_members
                    .iter()
                    .filter(|&&(cc, ..)| cc == c)
                    .map(|&(_, d, q)| (d, q))
                    .filter(|dq| !arrived.contains(dq))
                    .collect();
                if queued.is_empty() {
                    let gathered = report
                        .gathering_collectives
                        .iter()
                        .find(|&&(cc, ..)| cc == c)
                        .map(|&(_, got, size)| (got, size));
                    let (got, size) = gathered.unwrap_or((0, 0));
                    out.push(
                        Diagnostic::new(
                            MC_QUIESCENCE,
                            format!(
                                "{label}: collective {c} can never complete its rendezvous \
                                 ({got} of {size} members arrived, none still queued)"
                            ),
                        )
                        .on_device(lane.device)
                        .on_stream(lane.stream),
                    );
                }
                for h in queued {
                    if blocked.contains(&h) {
                        edges.entry(node).or_default().insert(h);
                    }
                }
            }
        }
    }

    // Cycle detection (iterative DFS with colors) over the wait-for graph.
    let mut color: BTreeMap<(usize, usize), u8> = BTreeMap::new(); // 1 = open, 2 = done
    let mut cycle_nodes: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &start in &blocked {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<((usize, usize), usize)> = vec![(start, 0)];
        color.insert(start, 1);
        let mut path: Vec<(usize, usize)> = vec![start];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs: Vec<(usize, usize)> =
                edges.get(&node).map(|s| s.iter().copied().collect()).unwrap_or_default();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                match color.get(&s).copied().unwrap_or(0) {
                    0 => {
                        color.insert(s, 1);
                        stack.push((s, 0));
                        path.push(s);
                    }
                    1 => {
                        // Found a back edge: the cycle is the path suffix.
                        let from = path.iter().position(|&n| n == s).unwrap_or(0);
                        cycle_nodes.extend(path[from..].iter().copied());
                    }
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    if !cycle_nodes.is_empty() {
        let lanes: Vec<String> = cycle_nodes.iter().map(|&(d, q)| format!("gpu{d}.q{q}")).collect();
        let first = cycle_nodes.iter().next().copied().unwrap_or((0, 0));
        out.push(
            Diagnostic::new(
                MC_DEADLOCK,
                format!("{label}: cyclic wait among blocked queues {{{}}}", lanes.join(", ")),
            )
            .on_device(first.0),
        );
    }

    for &(h, ev) in &report.blocked_hosts {
        out.push(Diagnostic::new(
            MC_QUIESCENCE,
            format!("{label}: host {h} parked forever on event {ev}"),
        ));
    }
    // Residue not already attributed above (blocked lanes feeding a cycle,
    // ops queued behind blocked heads, events cut off by a bound).
    if report.pending_events > 0 {
        out.push(Diagnostic::new(
            MC_QUIESCENCE,
            format!("{label}: {} event(s) still pending at exit", report.pending_events),
        ));
    } else if cycle_nodes.is_empty()
        && report.queued_ops > 0
        && report.blocked_lanes.iter().all(|l| {
            // Lanes already reported as lost signals / dead rendezvous are
            // covered; anything else stuck gets a generic residue report.
            match l.block {
                liger_gpu_sim::LaneBlock::Event(ev) => {
                    report.held_records.iter().any(|&(e, ..)| e == ev)
                }
                liger_gpu_sim::LaneBlock::Collective(c) => {
                    report.queued_collective_members.iter().any(|&(cc, ..)| cc == c)
                }
            }
        })
    {
        out.push(Diagnostic::new(
            MC_QUIESCENCE,
            format!("{label}: {} op(s) left queued behind blocked streams", report.queued_ops),
        ));
    }
}

// ---------------------------------------------------------------------------
// DPOR exploration
// ---------------------------------------------------------------------------

/// Result of exploring one program's schedule space.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Program name.
    pub program: String,
    /// Window rule the exploration ran under.
    pub rule: WindowRule,
    /// Schedules actually replayed.
    pub explored: u64,
    /// Schedule branches statically pruned (persistent-set or sleep-set).
    pub pruned: u64,
    /// Distinct choice points encountered (tree nodes, each counted once).
    pub choice_points: u64,
    /// Distinct terminal trace-projection hashes observed.
    pub terminal_hashes: BTreeSet<u64>,
    /// True when the `--bound` schedule budget cut exploration short: the
    /// reported counts are a lower bound, not a certificate.
    pub truncated: bool,
    /// Deduplicated MC-* diagnostics across all explored schedules.
    pub diagnostics: Vec<Diagnostic>,
}

impl Exploration {
    /// DPOR reduction ratio: schedules accounted for (explored + pruned)
    /// per schedule replayed. A lower bound on naive ÷ DPOR, since each
    /// pruned branch stands for at least one full schedule.
    pub fn pruning_ratio(&self) -> f64 {
        (self.explored + self.pruned) as f64 / (self.explored.max(1)) as f64
    }
}

#[derive(Clone)]
struct SleepEntry {
    device: usize,
    at: SimTime,
    seq: u64,
    footprint: DispatchFootprint,
}

struct Branch {
    schedule: Vec<usize>,
    sleep: Vec<SleepEntry>,
}

fn sleep_entry(e: &EnabledEvent) -> SleepEntry {
    SleepEntry { device: e.device, at: e.at, seq: e.seq, footprint: e.footprint.clone() }
}

/// Persistent set at one choice point: the closure of the chosen event
/// under static-footprint intersection. Alternatives outside the closure
/// commute with every member (and, via the transitive continuation scan,
/// with everything those members can reach), so reordering them cannot be
/// observed.
fn persistent_set(enabled: &[EnabledEvent], chosen: usize) -> Vec<bool> {
    let mut in_set = vec![false; enabled.len()];
    in_set[chosen] = true;
    loop {
        let mut changed = false;
        for j in 0..enabled.len() {
            if in_set[j] {
                continue;
            }
            let conflicts = (0..enabled.len())
                .any(|k| in_set[k] && enabled[j].footprint.intersects(&enabled[k].footprint));
            if conflicts {
                in_set[j] = true;
                changed = true;
            }
        }
        if !changed {
            return in_set;
        }
    }
}

/// Explores `program`'s schedule space under `rule` with DPOR pruning,
/// replaying at most `bound` schedules.
pub fn explore(program: &McProgram, rule: WindowRule, bound: u64) -> Exploration {
    explore_inner(program, rule, bound, true)
}

/// Naive full enumeration: every alternative at every choice point is
/// branched, no pruning. The DPOR soundness oracle — must visit exactly
/// the same terminal hashes as [`explore`] (and usually many more
/// schedules doing it).
pub fn enumerate_naive(program: &McProgram, rule: WindowRule, bound: u64) -> Exploration {
    explore_inner(program, rule, bound, false)
}

fn explore_inner(program: &McProgram, rule: WindowRule, bound: u64, dpor: bool) -> Exploration {
    let template = build_template(program);
    let mut result = Exploration {
        program: program.name.clone(),
        rule,
        explored: 0,
        pruned: 0,
        choice_points: 0,
        terminal_hashes: BTreeSet::new(),
        truncated: false,
        diagnostics: Vec::new(),
    };
    let mut seen: BTreeSet<(&'static str, String)> = BTreeSet::new();
    let mut first_by_hash: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut stack: Vec<Branch> = vec![Branch { schedule: Vec::new(), sleep: Vec::new() }];

    while let Some(branch) = stack.pop() {
        if result.explored >= bound.max(1) {
            result.truncated = true;
            break;
        }
        let outcome = run_schedule(&template, program, rule, &branch.schedule);
        result.explored += 1;

        if let std::collections::btree_map::Entry::Vacant(e) = first_by_hash.entry(outcome.hash) {
            e.insert(branch.schedule.clone());
            result.terminal_hashes.insert(outcome.hash);
            let mut diags = Vec::new();
            check_terminal(&branch.schedule, &outcome.trace, &outcome.report, &mut diags);
            for d in diags {
                if seen.insert((d.rule, d.message.clone())) {
                    result.diagnostics.push(d);
                }
            }
        }

        // Walk the trail: evolve the sleep set, branch at new choice points.
        let mut sleep = branch.sleep;
        let mut push_list: Vec<Branch> = Vec::new();
        for (i, cp) in outcome.trail.iter().enumerate() {
            // Dispatches since the previous choice point wake conflicting
            // sleepers.
            sleep.retain(|e| !e.footprint.intersects(&cp.pre));
            if i >= branch.schedule.len() {
                result.choice_points += 1;
                let persistent = if dpor {
                    persistent_set(&cp.enabled, cp.chosen)
                } else {
                    vec![true; cp.enabled.len()]
                };
                // Alternatives explored earlier from this node sleep in the
                // later ones (starting with the branch we are running now).
                let mut explored_here: Vec<SleepEntry> = vec![sleep_entry(&cp.enabled[cp.chosen])];
                let mut children: Vec<Branch> = Vec::new();
                for (j, alt) in cp.enabled.iter().enumerate() {
                    if j == cp.chosen {
                        continue;
                    }
                    let asleep = dpor
                        && sleep
                            .iter()
                            .any(|e| e.device == alt.device && e.at == alt.at && e.seq == alt.seq);
                    if !persistent[j] || asleep {
                        result.pruned += 1;
                        continue;
                    }
                    let mut schedule: Vec<usize> =
                        outcome.trail[..i].iter().map(|c| c.chosen).collect();
                    schedule.push(j);
                    let mut child_sleep = sleep.clone();
                    if dpor {
                        child_sleep.extend(explored_here.iter().cloned());
                    }
                    children.push(Branch { schedule, sleep: child_sleep });
                    explored_here.push(sleep_entry(alt));
                }
                // Reverse within the choice point so LIFO pops explore
                // alternatives in spawn order (the sleep-set contract:
                // a sleeping sibling's subtree completes first).
                children.reverse();
                push_list.extend(children);
            }
            sleep.retain(|e| !e.footprint.intersects(&cp.observed));
        }
        // Deeper choice points extend the subtree of every shallower
        // canonical choice; push them last so they pop (complete) first.
        stack.extend(push_list);
    }
    if !stack.is_empty() {
        result.truncated = true;
    }

    if result.terminal_hashes.len() > 1 {
        let mut examples: Vec<String> =
            first_by_hash.values().take(2).map(|s| schedule_label(s)).collect();
        examples.sort();
        let d = Diagnostic::new(
            MC_DETERMINISM,
            format!(
                "observable outcome depends on event order: {} distinct terminal states \
                 across {} explored schedule(s) (e.g. {} vs {})",
                result.terminal_hashes.len(),
                result.explored,
                examples.first().cloned().unwrap_or_default(),
                examples.get(1).cloned().unwrap_or_default(),
            ),
        );
        result.diagnostics.insert(0, d);
    }
    result
}

// ---------------------------------------------------------------------------
// Adversarial battery
// ---------------------------------------------------------------------------

/// One battery entry: a program, the rule to explore it under, and the MC
/// rule ids it must trigger (empty = must explore clean).
#[derive(Debug, Clone)]
pub struct McCase {
    /// The program to explore.
    pub program: McProgram,
    /// Window rule for the exploration.
    pub rule: WindowRule,
    /// Rule ids expected in the diagnostics (empty = clean).
    pub expect: &'static [&'static str],
}

fn kernel(work_us: u64, tag: u64) -> McOp {
    McOp::Kernel { work_ns: work_us * 1_000, class: KernelClass::Compute, tag, collective: None }
}

fn coll_kernel(work_us: u64, tag: u64, c: u64) -> McOp {
    McOp::Kernel { work_ns: work_us * 1_000, class: KernelClass::Comm, tag, collective: Some(c) }
}

/// The hand-built battery of small adversarial programs (≤ 6 events each):
/// clean programs that must explore quiet, and order-dependent or stuck
/// programs pinning each MC rule id. `liger-verify explore battery` runs
/// all of them and checks every expectation.
pub fn adversarial_battery() -> Vec<McCase> {
    let mut cases = Vec::new();

    // Independent cross-device fan-out: real choice points, one terminal
    // state, clean.
    let mut p = McProgram::new("indep-fanout");
    p.push(0, 0, kernel(10, 0)).push(0, 0, kernel(6, 0));
    p.push(1, 0, kernel(7, 1)).push(1, 0, kernel(9, 1));
    cases.push(McCase { program: p, rule: WindowRule::Conservative, expect: &[] });

    // A record/wait chain across devices: synchronization pins the order,
    // exploration stays canonical and clean.
    let mut p = McProgram::new("record-chain");
    p.push(0, 0, kernel(10, 0)).push(0, 0, McOp::Record { event: 0 });
    p.push(1, 0, McOp::Wait { event: 0 }).push(1, 0, kernel(5, 1));
    cases.push(McCase { program: p, rule: WindowRule::Conservative, expect: &[] });

    // A 2-member rendezvous plus an independent bystander device.
    let mut p = McProgram::new("rendezvous");
    p.push(0, 0, coll_kernel(8, 0, 0));
    p.push(1, 0, coll_kernel(8, 0, 0));
    p.push(2, 0, kernel(5, 1));
    cases.push(McCase { program: p, rule: WindowRule::Conservative, expect: &[] });

    // Order-dependent repricing: d1's gated kernel overlaps (and thereby
    // repriced, via contention) d1's other stream only in the order where
    // d0's completion fires the gate before the other stream finishes. The
    // conservative window never realizes that order — the record pins
    // d0's completion — but unguarded exploration must catch it.
    let mut p = McProgram::new("racy-reprice");
    p.push(0, 0, kernel(10, 0)).push(0, 0, McOp::Record { event: 0 });
    p.push(1, 0, McOp::Wait { event: 0 }).push(1, 0, kernel(5, 1));
    p.push(1, 1, kernel(12, 2));
    cases.push(McCase { program: p, rule: WindowRule::Unguarded, expect: &[MC_DETERMINISM] });

    // Cross-device record/wait cycle: both queues block forever on each
    // other.
    let mut p = McProgram::new("deadlock-cross");
    p.push(0, 0, McOp::Wait { event: 1 });
    p.push(0, 0, kernel(5, 0));
    p.push(0, 0, McOp::Record { event: 0 });
    p.push(1, 0, McOp::Wait { event: 0 });
    p.push(1, 0, kernel(5, 1));
    p.push(1, 0, McOp::Record { event: 1 });
    cases.push(McCase { program: p, rule: WindowRule::Conservative, expect: &[MC_DEADLOCK] });

    // A wait on an event nothing ever records.
    let mut p = McProgram::new("lost-signal");
    p.push(0, 0, McOp::Wait { event: 0 }).push(0, 0, kernel(5, 0));
    p.push(1, 0, kernel(7, 1));
    cases.push(McCase { program: p, rule: WindowRule::Conservative, expect: &[MC_QUIESCENCE] });

    // A rendezvous declared for 3 members with only 2 participants.
    let mut p = McProgram::new("missing-member");
    p.push(0, 0, coll_kernel(8, 0, 0));
    p.push(1, 0, coll_kernel(8, 0, 0));
    p.collective_sizes.insert(0, 3);
    cases.push(McCase { program: p, rule: WindowRule::Conservative, expect: &[MC_QUIESCENCE] });

    // Unsynchronized same-tag kernels on two streams of one device: every
    // schedule carries a write-write hazard the sanitizer must flag.
    let mut p = McProgram::new("hazard-overlap");
    p.push(0, 0, kernel(10, 7));
    p.push(0, 1, kernel(10, 7));
    cases.push(McCase { program: p, rule: WindowRule::Conservative, expect: &[MC_SANITIZE] });

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(x: &Exploration) -> BTreeSet<&'static str> {
        x.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn indep_fanout_is_deterministic_with_real_choice_points() {
        let battery = adversarial_battery();
        let case = &battery[0];
        let x = explore(&case.program, case.rule, 256);
        assert!(!x.truncated);
        assert!(x.choice_points > 0, "fan-out must expose choice points");
        assert_eq!(x.terminal_hashes.len(), 1, "one terminal state");
        assert!(x.diagnostics.is_empty(), "{:?}", x.diagnostics);
        assert!(x.pruning_ratio() >= 2.0, "ratio {}", x.pruning_ratio());
    }

    #[test]
    fn battery_expectations_hold() {
        for case in adversarial_battery() {
            let x = explore(&case.program, case.rule, 256);
            let got = rules(&x);
            for want in case.expect {
                assert!(
                    got.contains(want),
                    "{}: expected {want}, got {:?}",
                    case.program.name,
                    x.diagnostics
                );
            }
            if case.expect.is_empty() {
                assert!(
                    x.diagnostics.is_empty(),
                    "{}: expected clean, got {:?}",
                    case.program.name,
                    x.diagnostics
                );
            }
            assert!(!x.truncated, "{}: battery must be fully explorable", case.program.name);
        }
    }

    #[test]
    fn dpor_visits_exactly_the_naive_terminal_states_on_battery() {
        for case in adversarial_battery() {
            let d = explore(&case.program, case.rule, 4096);
            let n = enumerate_naive(&case.program, case.rule, 4096);
            assert!(!d.truncated && !n.truncated, "{}", case.program.name);
            assert_eq!(
                d.terminal_hashes, n.terminal_hashes,
                "{}: DPOR and naive enumeration disagree",
                case.program.name
            );
            assert!(
                d.explored <= n.explored,
                "{}: DPOR explored more than naive",
                case.program.name
            );
        }
    }

    #[test]
    fn bound_truncates_and_reports_it() {
        let battery = adversarial_battery();
        let fanout = &battery[0];
        let full = enumerate_naive(&fanout.program, fanout.rule, 4096);
        assert!(full.explored > 1);
        let cut = enumerate_naive(&fanout.program, fanout.rule, 1);
        assert!(cut.truncated);
        assert_eq!(cut.explored, 1);
    }

    #[test]
    fn from_launch_program_round_trips_structure() {
        use liger_core::introspect::LaunchProgram;
        let prog = LaunchProgram {
            lanes: [
                (
                    (0usize, 0usize),
                    vec![
                        PlanOp::Kernel { batch: 3, class: KernelClass::Compute, collective: None },
                        PlanOp::Record { event: 0 },
                    ],
                ),
                ((1usize, 0usize), vec![PlanOp::Wait { event: 0 }]),
            ]
            .into_iter()
            .collect(),
        };
        let mc = McProgram::from_launch_program("x", &prog);
        assert_eq!(mc.len(), 3);
        assert_eq!(mc.world(), 2);
        assert!(matches!(mc.lanes[&(0, 0)][0], McOp::Kernel { tag: 3, .. }));
        assert!(matches!(mc.lanes[&(1, 0)][0], McOp::Wait { event: 0 }));
    }

    #[test]
    fn from_trace_reconstructs_kernels_per_lane() {
        // Build a trace by running a battery program, then reconvert.
        let battery = adversarial_battery();
        let case = &battery[0];
        let template = build_template(&case.program);
        let out = run_schedule(&template, &case.program, case.rule, &[]);
        let mc = McProgram::from_trace("replayed", &out.trace);
        assert_eq!(mc.len(), case.program.len());
        let x = explore(&mc, WindowRule::Conservative, 64);
        assert!(x.diagnostics.is_empty(), "{:?}", x.diagnostics);
    }

    #[test]
    fn schedules_replay_deterministically() {
        let battery = adversarial_battery();
        let case = &battery[0];
        let template = build_template(&case.program);
        let a = run_schedule(&template, &case.program, case.rule, &[1]);
        let b = run_schedule(&template, &case.program, case.rule, &[1]);
        assert_eq!(a.hash, b.hash, "same schedule must replay to the same bytes");
        assert_eq!(a.trail.len(), b.trail.len());
    }
}
