//! Deterministic, seeded fault injection for the simulated node.
//!
//! Real fleets see stragglers, flaky links and transient kernel failures;
//! this module lets the simulator reproduce them **deterministically** so
//! scheduling and serving policies can be validated under degradation.
//!
//! # Determinism contract
//!
//! Every fault decision is a pure function of `(seed, sim-time, device or
//! link id)` — there is no wall-clock, no hidden RNG stream and no state
//! mutated by queries. Two runs with the same seed, schedule and workload
//! produce byte-identical traces; changing the seed changes only the
//! hash-driven decisions (kernel failures, launch spikes), never the
//! windowed faults, which are fixed intervals.
//!
//! # Fault classes
//!
//! * **Device straggler** ([`FaultSpec::straggler`]): every kernel on a
//!   device progresses slower by a factor over a time window — the SM
//!   clock / HBM bandwidth degradation of a thermally throttled or
//!   misbehaving GPU.
//! * **Link degradation / partition** ([`FaultSpec::degrade_link`],
//!   [`FaultSpec::partition_link`]): collectives whose member set spans the
//!   link stretch by a factor over a window. A partition is modelled as a
//!   very large finite factor so collectives still complete (after the
//!   window ends a boundary reprice restores the healthy rate) instead of
//!   hanging the simulation.
//! * **Kernel failure** ([`FaultSpec::kernel_failures`]): a launched kernel
//!   occupies its device for a configurable fraction of its runtime, then
//!   fails. The failed kernel still pops from its hardware queue (stream
//!   FIFO order and event semantics are preserved — no hangs), but the
//!   driver is woken with [`Wake::KernelFailed`](crate::Wake::KernelFailed)
//!   so the serving layer can retry.
//! * **Launch-overhead spike** ([`FaultSpec::launch_spikes`]): a host
//!   kernel launch occasionally pays an extra overhead, modelling driver
//!   jitter and lock contention on the submitting CPU.
//! * **Device outage** ([`FaultSpec::device_down`],
//!   [`FaultSpec::device_outage`]): a device stops executing work at a
//!   trigger instant. An open-ended outage is the permanent ECC/XID-class
//!   failure that takes a GPU out of the fleet; a windowed outage
//!   (`down:dev:t0..t1`) models the transient loss — a driver reset, a
//!   host reboot, a fabric hiccup — after which the device rejoins. The
//!   simulator fails the device's running and queued kernels in FIFO
//!   order, aborts collectives that counted on it, and wakes the driver
//!   with [`Wake::DeviceDown`](crate::Wake::DeviceDown); at the window end
//!   it marks the device alive again and wakes the driver with
//!   [`Wake::DeviceRejoined`](crate::Wake::DeviceRejoined). Several
//!   disjoint windows on the same device model a flapping GPU.
//! * **Link flap** ([`FaultSpec::link_flap`]): sugar that expands into
//!   alternating link-partition windows, modelling a flapping NIC or
//!   switch port that oscillates between partitioned and healthy.
//! * **Node-scoped faults** ([`FaultSpec::node_down`],
//!   [`FaultSpec::node_outage`], [`FaultSpec::nic_link`]): sugar over a
//!   node geometry (`devices_per_node` consecutive devices per node, the
//!   same flat numbering the cluster topology uses). A node down/outage
//!   expands to one device down per member; a NIC-link degradation expands
//!   to a degraded link on every cross-node device pair, so collectives and
//!   KV streams spanning the two nodes stretch by the factor. Like
//!   `link_flap`, the expansion is primitive — `Display` renders the
//!   expanded forms and the round trip holds by equality.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::ids::{DeviceId, HostId};
use crate::time::{SimDuration, SimTime};

/// Slowdown factor used by [`FaultSpec::partition_link`]: large enough that
/// a partitioned collective makes essentially no progress inside the
/// window, finite so it never hangs the event loop.
pub const PARTITION_FACTOR: f64 = 1e6;

/// Most windows one `flap:`, `node-down:` or `niclink:` segment may expand
/// to, so [`FaultSpec::parse`] does work linear in its input.
const MAX_SEGMENT_WINDOWS: usize = 1024;

/// A device straggler window: kernels on `device` run `factor`× slower
/// during `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSlowdown {
    /// Affected device.
    pub device: DeviceId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Slowdown factor (≥ 1).
    pub factor: f64,
}

/// A degraded inter-device link: collectives spanning `{a, b}` stretch by
/// `factor` during `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// One endpoint.
    pub a: DeviceId,
    /// The other endpoint.
    pub b: DeviceId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Stretch factor (≥ 1); [`PARTITION_FACTOR`] models a partition.
    pub factor: f64,
}

/// Seeded kernel-failure injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFaultParams {
    /// Probability that a kernel beginning inside the window fails.
    pub prob: f64,
    /// Fraction of the kernel's nominal runtime consumed before the
    /// failure manifests (in `[0, 1]`).
    pub fraction: f64,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// Seeded host launch-overhead spike parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchSpikeParams {
    /// Probability that one kernel launch pays the extra overhead.
    pub prob: f64,
    /// The extra overhead paid.
    pub extra: SimDuration,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// A device outage: `device` stops executing work at `at`. When `until` is
/// `None` the outage is open-ended (the device never recovers — permanent
/// loss); otherwise the device rejoins at `until` and the simulator wakes
/// the driver with [`Wake::DeviceRejoined`](crate::Wake::DeviceRejoined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceDown {
    /// The lost device.
    pub device: DeviceId,
    /// The instant the device dies (window start, inclusive).
    pub at: SimTime,
    /// The instant the device rejoins (window end, exclusive); `None`
    /// means the loss is permanent.
    pub until: Option<SimTime>,
}

impl DeviceDown {
    /// Whether the outage covers instant `t`.
    pub fn covers(&self, t: SimTime) -> bool {
        self.at <= t && self.until.is_none_or(|u| t < u)
    }
}

/// A declarative, seeded fault schedule for one simulation run.
///
/// Constructed with the builder methods and handed to
/// [`SimulationBuilder::faults`](crate::SimulationBuilder::faults), or
/// parsed from the bench harness's `--faults` spec string with
/// [`FaultSpec::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    seed: u64,
    slowdowns: Vec<DeviceSlowdown>,
    links: Vec<LinkFault>,
    kernel_faults: Option<KernelFaultParams>,
    launch_spikes: Option<LaunchSpikeParams>,
    downs: Vec<DeviceDown>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// An empty schedule (no faults ever fire).
    pub fn none() -> FaultSpec {
        FaultSpec::new(0)
    }

    /// An empty schedule with the given decision seed.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            slowdowns: Vec::new(),
            links: Vec::new(),
            kernel_faults: None,
            launch_spikes: None,
            downs: Vec::new(),
        }
    }

    /// The decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no fault of any class is configured.
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty()
            && self.links.is_empty()
            && self.kernel_faults.is_none()
            && self.launch_spikes.is_none()
            && self.downs.is_empty()
    }

    /// Adds a device straggler window (`factor` ≥ 1).
    pub fn straggler(
        mut self,
        device: DeviceId,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> FaultSpec {
        assert!(factor >= 1.0, "straggler factor must be >= 1, got {factor}");
        assert!(from < until, "straggler window is empty");
        self.slowdowns.push(DeviceSlowdown { device, from, until, factor });
        self
    }

    /// Adds a degraded-link window (`factor` ≥ 1).
    pub fn degrade_link(
        mut self,
        a: DeviceId,
        b: DeviceId,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> FaultSpec {
        assert!(factor >= 1.0, "link factor must be >= 1, got {factor}");
        assert!(from < until, "link window is empty");
        self.links.push(LinkFault { a, b, from, until, factor });
        self
    }

    /// Adds a link partition window ([`PARTITION_FACTOR`] stretch).
    pub fn partition_link(
        self,
        a: DeviceId,
        b: DeviceId,
        from: SimTime,
        until: SimTime,
    ) -> FaultSpec {
        self.degrade_link(a, b, from, until, PARTITION_FACTOR)
    }

    /// Enables seeded kernel failures.
    pub fn kernel_failures(mut self, params: KernelFaultParams) -> FaultSpec {
        assert!((0.0..=1.0).contains(&params.prob), "failure prob out of [0,1]");
        assert!((0.0..=1.0).contains(&params.fraction), "failure fraction out of [0,1]");
        self.kernel_faults = Some(params);
        self
    }

    /// Enables seeded host launch-overhead spikes.
    pub fn launch_spikes(mut self, params: LaunchSpikeParams) -> FaultSpec {
        assert!((0.0..=1.0).contains(&params.prob), "spike prob out of [0,1]");
        self.launch_spikes = Some(params);
        self
    }

    /// Marks `device` as permanently lost from `at` onward.
    pub fn device_down(self, device: DeviceId, at: SimTime) -> FaultSpec {
        self.push_down(DeviceDown { device, at, until: None })
    }

    /// Marks `device` as down over the window `[from, until)`: it dies at
    /// `from` and rejoins at `until`. Several disjoint windows on the same
    /// device model a flapping GPU.
    pub fn device_outage(self, device: DeviceId, from: SimTime, until: SimTime) -> FaultSpec {
        assert!(from < until, "outage window is empty: {from:?}..{until:?}");
        self.push_down(DeviceDown { device, at: from, until: Some(until) })
    }

    fn push_down(mut self, down: DeviceDown) -> FaultSpec {
        // Windows on one device must not overlap or even touch: a rejoin
        // and a death at the same instant would be order-ambiguous.
        let conflict = self.downs.iter().any(|d| {
            d.device == down.device
                && d.at <= down.until.unwrap_or(SimTime::MAX)
                && down.at <= d.until.unwrap_or(SimTime::MAX)
        });
        assert!(!conflict, "overlapping down windows for device {:?}", down.device);
        self.downs.push(down);
        self
    }

    /// Alternating partition windows on the link `{a, b}`: partitioned for
    /// `period` starting at `from`, healthy for `period`, and so on until
    /// `until` — a flapping NIC or switch port.
    pub fn link_flap(
        mut self,
        a: DeviceId,
        b: DeviceId,
        from: SimTime,
        until: SimTime,
        period: SimDuration,
    ) -> FaultSpec {
        assert!(from < until, "flap window is empty");
        assert!(!period.is_zero(), "flap period must be positive");
        let mut start = from;
        while start < until {
            let end = (start + period).min(until);
            self = self.partition_link(a, b, start, end);
            start = end + period;
        }
        self
    }

    /// Takes every device of node `node` down permanently at `at` — a
    /// whole-host loss (kernel panic, power supply, fabric isolation).
    /// Nodes are `devices_per_node` consecutive devices: node `n` owns
    /// devices `[n·k, (n+1)·k)`.
    pub fn node_down(mut self, devices_per_node: usize, node: usize, at: SimTime) -> FaultSpec {
        for d in Self::node_devices(devices_per_node, node) {
            self = self.device_down(DeviceId(d), at);
        }
        self
    }

    /// Takes every device of node `node` down over `[from, until)` — a host
    /// reboot after which the whole node rejoins.
    pub fn node_outage(
        mut self,
        devices_per_node: usize,
        node: usize,
        from: SimTime,
        until: SimTime,
    ) -> FaultSpec {
        for d in Self::node_devices(devices_per_node, node) {
            self = self.device_outage(DeviceId(d), from, until);
        }
        self
    }

    /// Degrades the inter-node NIC link between nodes `node_a` and `node_b`
    /// by `factor` over `[from, until)`: every cross-node device pair gets a
    /// degraded link, so collectives and KV streams spanning the two nodes
    /// stretch while intra-node traffic is untouched.
    pub fn nic_link(
        mut self,
        devices_per_node: usize,
        node_a: usize,
        node_b: usize,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> FaultSpec {
        assert!(node_a != node_b, "niclink endpoints must be distinct nodes, got {node_a}");
        for da in Self::node_devices(devices_per_node, node_a) {
            for db in Self::node_devices(devices_per_node, node_b) {
                self = self.degrade_link(DeviceId(da), DeviceId(db), from, until, factor);
            }
        }
        self
    }

    fn node_devices(devices_per_node: usize, node: usize) -> std::ops::Range<usize> {
        assert!(devices_per_node >= 1, "node geometry needs at least one device per node");
        node * devices_per_node..(node + 1) * devices_per_node
    }

    /// The configured device outages (permanent and windowed).
    pub fn device_downs(&self) -> &[DeviceDown] {
        &self.downs
    }

    /// When `device` first dies, if any outage is scheduled for it.
    pub fn device_down_at(&self, device: DeviceId) -> Option<SimTime> {
        self.downs.iter().filter(|d| d.device == device).map(|d| d.at).min()
    }

    /// Whether `device` is dead at instant `at` (inside any outage window).
    pub fn is_device_down(&self, device: DeviceId, at: SimTime) -> bool {
        self.downs.iter().any(|d| d.device == device && d.covers(at))
    }

    /// The configured straggler windows.
    pub fn stragglers(&self) -> &[DeviceSlowdown] {
        &self.slowdowns
    }

    /// The configured link fault windows.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.links
    }

    /// Every window edge at which rates change — the simulator schedules a
    /// settle + reprice at each so piecewise rates are exact.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut out: Vec<SimTime> = Vec::new();
        for s in &self.slowdowns {
            out.push(s.from);
            out.push(s.until);
        }
        for l in &self.links {
            out.push(l.from);
            out.push(l.until);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Combined straggler factor on `device` at `at` (product of active
    /// windows; 1.0 when healthy).
    pub fn device_factor(&self, device: DeviceId, at: SimTime) -> f64 {
        let mut f = 1.0;
        for s in &self.slowdowns {
            if s.device == device && s.from <= at && at < s.until {
                f *= s.factor;
            }
        }
        f
    }

    /// Combined stretch factor of the link `{a, b}` at `at` (symmetric in
    /// the endpoints; 1.0 when healthy).
    pub fn link_factor(&self, a: DeviceId, b: DeviceId, at: SimTime) -> f64 {
        let mut f = 1.0;
        for l in &self.links {
            let hit = (l.a == a && l.b == b) || (l.a == b && l.b == a);
            if hit && l.from <= at && at < l.until {
                f *= l.factor;
            }
        }
        f
    }

    /// Worst pairwise link stretch over a collective's member devices at
    /// `at` — the collective progresses at the rate of its slowest link.
    pub fn collective_link_factor(
        &self,
        members: impl Iterator<Item = DeviceId> + Clone,
        at: SimTime,
    ) -> f64 {
        if self.links.is_empty() {
            return 1.0;
        }
        let mut worst = 1.0f64;
        let mut outer = members.clone();
        while let Some(a) = outer.next() {
            for b in outer.clone() {
                worst = worst.max(self.link_factor(a, b, at));
            }
        }
        worst
    }

    /// Whether *any* kernel starting in `[from, until)` could fail. A
    /// conservative window check the explore core uses to pin fault-prone
    /// dispatches to the canonical order, so failure wakes reach the driver
    /// in that order.
    pub(crate) fn kernel_failure_possible(&self, from: SimTime, until: SimTime) -> bool {
        match self.kernel_faults {
            Some(kf) => kf.prob > 0.0 && from < kf.until && kf.from < until,
            None => false,
        }
    }

    /// Whether a kernel beginning on `device` at `at` fails, and if so the
    /// fraction of its runtime it consumes first. Pure function of
    /// `(seed, at, device)`.
    pub fn kernel_failure(&self, device: DeviceId, at: SimTime) -> Option<f64> {
        let kf = self.kernel_faults?;
        if !(kf.from <= at && at < kf.until) {
            return None;
        }
        let u = unit_hash(self.seed, 0x4b46_4149_4c00_0001, device.0 as u64, at.as_nanos());
        (u < kf.prob).then_some(kf.fraction)
    }

    /// Extra launch overhead host `host` pays for a kernel launched at
    /// `at`. Pure function of `(seed, at, host)`.
    pub fn launch_spike(&self, host: HostId, at: SimTime) -> SimDuration {
        let Some(sp) = self.launch_spikes else { return SimDuration::ZERO };
        if !(sp.from <= at && at < sp.until) {
            return SimDuration::ZERO;
        }
        let u = unit_hash(self.seed, 0x5350_494b_4500_0001, host.0 as u64, at.as_nanos());
        if u < sp.prob {
            sp.extra
        } else {
            SimDuration::ZERO
        }
    }

    /// Parses a `--faults` spec string. Segments are `;`-separated; fields
    /// within a segment are `:`-separated and positional:
    ///
    /// * `seed=<u64>` — decision seed (default 0)
    /// * `slow:<dev>:<from_ms>:<until_ms>:<factor>` — device straggler
    /// * `link:<a>:<b>:<from_ms>:<until_ms>:<factor>` — link degradation
    /// * `part:<a>:<b>:<from_ms>:<until_ms>` — link partition
    /// * `kfail:<prob>:<fraction>[:<from_ms>:<until_ms>]` — kernel failures
    ///   (whole run when the window is omitted)
    /// * `spike:<prob>:<extra_us>[:<from_ms>:<until_ms>]` — launch spikes
    /// * `down:<dev>:<at_ms>` — permanent device loss
    /// * `down:<dev>:<from_ms>..<until_ms>` — windowed outage (the device
    ///   rejoins at `until`); repeat the segment for a flapping device
    /// * `flap:<a>:<b>:<from_ms>:<until_ms>:<period_ms>` — link flap
    ///   (alternating partition windows of length `period`)
    /// * `nodes=<devices_per_node>` — node geometry for the node-scoped
    ///   segments that follow it (must precede them)
    /// * `node-down:<n>:<at_ms>` / `node-down:<n>:<from_ms>..<until_ms>` —
    ///   whole-node loss or outage (expands to one `down:` per device)
    /// * `niclink:<a>-<b>:<from_ms>:<until_ms>:<factor>` — inter-node NIC
    ///   degradation (expands to `link:` on every cross-node device pair)
    ///
    /// Example: `seed=7;slow:0:10:30:1.5;kfail:0.01:0.5;down:3:40..80` or
    /// `nodes=4;node-down:1:40..80;niclink:0-1:10:30:8`.
    ///
    /// Errors carry the byte offset of the offending field so a bad
    /// `--faults` flag fails with a pointer into the spec string. Parsing
    /// never panics: empty or overlapping windows, factors below 1 or not
    /// finite, probabilities outside `[0, 1]` and times or node indices
    /// that overflow are errors, and a `flap:`, `node-down:` or `niclink:`
    /// segment may expand to at most 1024 windows.
    pub fn parse(spec: &str) -> Result<FaultSpec, ParseError> {
        fn num<T: std::str::FromStr>(s: &str, off: usize, what: &str) -> Result<T, ParseError> {
            s.parse::<T>().map_err(|_| ParseError::at(off, format!("{what}, got {s:?}")))
        }
        fn scaled(s: &str, off: usize, unit_ns: u64, what: &str) -> Result<u64, ParseError> {
            s.parse::<u64>()
                .ok()
                .and_then(|n| n.checked_mul(unit_ns))
                .ok_or_else(|| ParseError::at(off, format!("{what}, got {s:?}")))
        }
        fn ms(s: &str, off: usize) -> Result<SimTime, ParseError> {
            let what = "a millisecond count up to 18446744073709";
            scaled(s, off, 1_000_000, what).map(SimTime::from_nanos)
        }
        /// `<from_ms>` and `<until_ms>` fields with `from < until`.
        fn window(
            from: (&str, usize),
            until: (&str, usize),
            what: &str,
        ) -> Result<(SimTime, SimTime), ParseError> {
            let (f, u) = (ms(from.0, from.1)?, ms(until.0, until.1)?);
            if u <= f {
                let got = format!("{}:{}", from.0, until.0);
                return Err(ParseError::at(
                    from.1,
                    format!("a non-empty {what} window (start < end), got {got:?}"),
                ));
            }
            Ok((f, u))
        }
        /// `<at_ms>` (permanent) or `<from_ms>..<until_ms>` (windowed).
        fn outage((w, off): (&str, usize)) -> Result<(SimTime, Option<SimTime>), ParseError> {
            let Some((from, until)) = w.split_once("..") else { return Ok((ms(w, off)?, None)) };
            let (f, u) = (ms(from, off)?, ms(until, off + from.len() + 2)?);
            if u <= f {
                let expected = format!("a non-empty outage window (start < end), got {w:?}");
                return Err(ParseError::at(off, expected));
            }
            Ok((f, Some(u)))
        }
        fn factor(s: &str, off: usize, what: &str) -> Result<f64, ParseError> {
            let f = num::<f64>(s, off, what)?;
            if f.is_finite() && f >= 1.0 {
                Ok(f)
            } else {
                Err(ParseError::at(off, format!("{what} (finite, at least 1), got {s:?}")))
            }
        }
        fn prob(s: &str, off: usize, what: &str) -> Result<f64, ParseError> {
            let p = num::<f64>(s, off, what)?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(ParseError::at(off, format!("{what} in [0, 1], got {s:?}")))
            }
        }
        /// The devices of node `n` under `k` devices per node.
        fn node_devices(n: usize, k: usize, off: usize) -> Result<Range<usize>, ParseError> {
            let lo = n.checked_mul(k);
            match lo.and_then(|lo| Some(lo..lo.checked_add(k)?)) {
                Some(devices) => Ok(devices),
                None => Err(ParseError::at(
                    off,
                    format!("a node index whose devices fit a usize index, got {n}"),
                )),
            }
        }
        fn expansion(windows: u128, off: usize, seg: &str) -> Result<(), ParseError> {
            if windows <= MAX_SEGMENT_WINDOWS as u128 {
                return Ok(());
            }
            let expected = format!(
                "a segment expanding to at most {MAX_SEGMENT_WINDOWS} windows \
                 ({windows} here), got {seg:?}"
            );
            Err(ParseError::at(off, expected))
        }
        /// Adds an outage on every device in `devices`. As in
        /// `push_down`, windows on one device must neither overlap nor
        /// touch; `outages` holds each device's windows by start, so a
        /// check looks at the two neighbours instead of scanning them all.
        fn downs(
            out: &mut FaultSpec,
            outages: &mut BTreeMap<(usize, SimTime), SimTime>,
            devices: Range<usize>,
            (at, until): (SimTime, Option<SimTime>),
            off: usize,
        ) -> Result<(), ParseError> {
            let end = until.unwrap_or(SimTime::MAX);
            for d in devices {
                let before = outages.range(..=(d, at)).next_back();
                let after = outages.range((d, at)..).next();
                if before.is_some_and(|(&(bd, _), &b_end)| bd == d && b_end >= at)
                    || after.is_some_and(|(&(ad, a_at), _)| ad == d && a_at <= end)
                {
                    return Err(ParseError::at(
                        off,
                        format!(
                            "an outage that neither overlaps nor touches another on device {d}"
                        ),
                    ));
                }
                outages.insert((d, at), end);
                out.downs.push(DeviceDown { device: DeviceId(d), at, until });
            }
            Ok(())
        }
        fn node_geometry(k: Option<usize>, at: usize, seg: &str) -> Result<usize, ParseError> {
            k.ok_or_else(|| {
                ParseError::at(
                    at,
                    format!("nodes=<devices_per_node> before node-scoped faults: {seg:?}"),
                )
            })
        }
        let mut out = FaultSpec::none();
        // Node geometry for `node-down:` / `niclink:` segments; set by a
        // preceding `nodes=<k>` segment and never stored on the spec — the
        // node forms expand to device-granular primitives at parse time.
        let mut devices_per_node: Option<usize> = None;
        let mut outages = BTreeMap::new();
        let mut cursor = 0usize;
        for raw in spec.split(';') {
            let seg_start = cursor + (raw.len() - raw.trim_start().len());
            cursor += raw.len() + 1;
            let seg = raw.trim();
            if seg.is_empty() {
                continue;
            }
            if let Some(seed) = seg.strip_prefix("seed=") {
                out.seed = num::<u64>(seed, seg_start + "seed=".len(), "a u64 seed")?;
                continue;
            }
            if let Some(k) = seg.strip_prefix("nodes=") {
                let off = seg_start + "nodes=".len();
                let k = num::<usize>(k, off, "a devices-per-node count")?;
                if k == 0 {
                    return Err(ParseError::at(
                        off,
                        "a positive devices-per-node count, got \"0\"".to_string(),
                    ));
                }
                devices_per_node = Some(k);
                continue;
            }
            // Fields paired with their byte offset into `spec`.
            let fields: Vec<(&str, usize)> = {
                let mut fo = seg_start;
                seg.split(':')
                    .map(|f| {
                        let at = fo;
                        fo += f.len() + 1;
                        (f, at)
                    })
                    .collect()
            };
            let device = |f: &(&str, usize)| num::<usize>(f.0, f.1, "a device index").map(DeviceId);
            match fields.as_slice() {
                [("slow", _), dev, from, until, f] => {
                    let dev = device(dev)?;
                    let (from, until) = window(*from, *until, "straggler")?;
                    let f = factor(f.0, f.1, "a slowdown factor")?;
                    out = out.straggler(dev, from, until, f);
                }
                [("link", _), a, b, from, until, f] => {
                    let (a, b) = (device(a)?, device(b)?);
                    let (from, until) = window(*from, *until, "link")?;
                    let f = factor(f.0, f.1, "a stretch factor")?;
                    out = out.degrade_link(a, b, from, until, f);
                }
                [("part", _), a, b, from, until] => {
                    let (a, b) = (device(a)?, device(b)?);
                    let (from, until) = window(*from, *until, "partition")?;
                    out = out.partition_link(a, b, from, until);
                }
                [("kfail", at), p, fraction, rest @ ..] => {
                    let (from, until) = match rest {
                        [] => (SimTime::ZERO, SimTime::MAX),
                        [f, u] => (ms(f.0, f.1)?, ms(u.0, u.1)?),
                        _ => {
                            return Err(ParseError::at(
                                *at,
                                format!("kfail with 3 or 5 fields, got {seg:?}"),
                            ))
                        }
                    };
                    out = out.kernel_failures(KernelFaultParams {
                        prob: prob(p.0, p.1, "a failure probability")?,
                        fraction: prob(fraction.0, fraction.1, "a runtime fraction")?,
                        from,
                        until,
                    });
                }
                [("spike", at), p, extra_us, rest @ ..] => {
                    let (from, until) = match rest {
                        [] => (SimTime::ZERO, SimTime::MAX),
                        [f, u] => (ms(f.0, f.1)?, ms(u.0, u.1)?),
                        _ => {
                            return Err(ParseError::at(
                                *at,
                                format!("spike with 3 or 5 fields, got {seg:?}"),
                            ))
                        }
                    };
                    let prob = prob(p.0, p.1, "a spike probability")?;
                    let what = "extra micros up to 18446744073709551";
                    let extra_ns = scaled(extra_us.0, extra_us.1, 1_000, what)?;
                    out = out.launch_spikes(LaunchSpikeParams {
                        prob,
                        extra: SimDuration::from_nanos(extra_ns),
                        from,
                        until,
                    });
                }
                [("down", _), dev, w] => {
                    let d = device(dev)?.0;
                    downs(&mut out, &mut outages, d..d + 1, outage(*w)?, dev.1)?;
                }
                [("flap", _), a, b, from, until, period] => {
                    let (a, b) = (device(a)?, device(b)?);
                    let (from, until) = window(*from, *until, "flap")?;
                    let period_ns = ms(period.0, period.1)?.as_nanos();
                    if period_ns == 0 {
                        return Err(ParseError::at(
                            period.1,
                            "a positive flap period in ms, got \"0\"".to_string(),
                        ));
                    }
                    // One partition window per two periods of the span.
                    let span = u128::from(until.as_nanos() - from.as_nanos());
                    expansion(span.div_ceil(2 * u128::from(period_ns)), period.1, seg)?;
                    let period = SimDuration::from_nanos(period_ns);
                    out = out.link_flap(a, b, from, until, period);
                }
                [("node-down", at), node, w] => {
                    let k = node_geometry(devices_per_node, *at, seg)?;
                    expansion(k as u128, *at, seg)?;
                    let n = num::<usize>(node.0, node.1, "a node index")?;
                    let devices = node_devices(n, k, node.1)?;
                    downs(&mut out, &mut outages, devices, outage(*w)?, node.1)?;
                }
                [("niclink", at), pair, from, until, f] => {
                    let k = node_geometry(devices_per_node, *at, seg)?;
                    let Some((a, b)) = pair.0.split_once('-') else {
                        return Err(ParseError::at(
                            pair.1,
                            format!("a node pair <a>-<b>, got {:?}", pair.0),
                        ));
                    };
                    let na = num::<usize>(a, pair.1, "a node index")?;
                    let nb = num::<usize>(b, pair.1 + a.len() + 1, "a node index")?;
                    if na == nb {
                        return Err(ParseError::at(
                            pair.1,
                            format!("distinct niclink endpoint nodes, got {:?}", pair.0),
                        ));
                    }
                    expansion(k as u128 * k as u128, *at, seg)?;
                    node_devices(na.max(nb), k, pair.1)?;
                    let (from, until) = window(*from, *until, "niclink")?;
                    let f = factor(f.0, f.1, "a stretch factor")?;
                    out = out.nic_link(k, na, nb, from, until, f);
                }
                _ => {
                    return Err(ParseError::at(
                        seg_start,
                        format!(
                            "a fault segment (seed=/nodes=/slow/link/part/kfail/spike/down/\
                             flap/node-down/niclink), got {seg:?}"
                        ),
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// Renders the schedule in the exact grammar [`FaultSpec::parse`] accepts,
/// so `parse(spec.to_string())` reconstructs an equal spec. Window edges
/// are rendered as whole milliseconds — the grammar's granularity — so the
/// round trip is exact for any spec that `parse` itself can produce.
/// Partition windows (including [`FaultSpec::link_flap`] expansions)
/// render as `part:` segments, other link faults as `link:`.
impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn ms(t: SimTime) -> u64 {
            t.as_nanos() / 1_000_000
        }
        let mut segs: Vec<String> = Vec::new();
        if self.seed != 0 {
            segs.push(format!("seed={}", self.seed));
        }
        for s in &self.slowdowns {
            segs.push(format!("slow:{}:{}:{}:{}", s.device.0, ms(s.from), ms(s.until), s.factor));
        }
        for l in &self.links {
            if l.factor == PARTITION_FACTOR {
                segs.push(format!("part:{}:{}:{}:{}", l.a.0, l.b.0, ms(l.from), ms(l.until)));
            } else {
                segs.push(format!(
                    "link:{}:{}:{}:{}:{}",
                    l.a.0,
                    l.b.0,
                    ms(l.from),
                    ms(l.until),
                    l.factor
                ));
            }
        }
        if let Some(kf) = self.kernel_faults {
            if kf.from == SimTime::ZERO && kf.until == SimTime::MAX {
                segs.push(format!("kfail:{}:{}", kf.prob, kf.fraction));
            } else {
                segs.push(format!(
                    "kfail:{}:{}:{}:{}",
                    kf.prob,
                    kf.fraction,
                    ms(kf.from),
                    ms(kf.until)
                ));
            }
        }
        if let Some(sp) = self.launch_spikes {
            let extra_us = sp.extra.as_nanos() / 1_000;
            if sp.from == SimTime::ZERO && sp.until == SimTime::MAX {
                segs.push(format!("spike:{}:{}", sp.prob, extra_us));
            } else {
                segs.push(format!(
                    "spike:{}:{}:{}:{}",
                    sp.prob,
                    extra_us,
                    ms(sp.from),
                    ms(sp.until)
                ));
            }
        }
        for d in &self.downs {
            match d.until {
                None => segs.push(format!("down:{}:{}", d.device.0, ms(d.at))),
                Some(u) => segs.push(format!("down:{}:{}..{}", d.device.0, ms(d.at), ms(u))),
            }
        }
        write!(f, "{}", segs.join(";"))
    }
}

/// Error from [`FaultSpec::parse`]: the byte offset of the offending field
/// inside the spec string plus what the parser expected to find there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the spec string where parsing failed.
    pub offset: usize,
    /// Human-readable description of the expected token.
    pub expected: String,
}

impl ParseError {
    fn at(offset: usize, expected: String) -> ParseError {
        ParseError { offset, expected }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault spec error at byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for ParseError {}

/// SplitMix64-style avalanche of `(seed, salt, id, time)` to a uniform
/// `f64` in `[0, 1)` — the pure decision function behind kernel failures
/// and launch spikes.
fn unit_hash(seed: u64, salt: u64, id: u64, time_ns: u64) -> f64 {
    let mut z = seed ^ salt;
    for word in [id, time_ns] {
        z = z.wrapping_add(word).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_spec_is_transparent() {
        let f = FaultSpec::none();
        assert!(f.is_empty());
        assert_eq!(f.device_factor(DeviceId(0), t(5)), 1.0);
        assert_eq!(f.link_factor(DeviceId(0), DeviceId(1), t(5)), 1.0);
        assert_eq!(f.kernel_failure(DeviceId(0), t(5)), None);
        assert_eq!(f.launch_spike(HostId(0), t(5)), SimDuration::ZERO);
        assert!(f.boundaries().is_empty());
    }

    #[test]
    fn straggler_window_is_half_open() {
        let f = FaultSpec::new(1).straggler(DeviceId(0), t(10), t(20), 2.0);
        assert_eq!(f.device_factor(DeviceId(0), t(9)), 1.0);
        assert_eq!(f.device_factor(DeviceId(0), t(10)), 2.0);
        assert_eq!(f.device_factor(DeviceId(0), t(19)), 2.0);
        assert_eq!(f.device_factor(DeviceId(0), t(20)), 1.0);
        assert_eq!(f.device_factor(DeviceId(1), t(15)), 1.0, "other devices healthy");
        assert_eq!(f.boundaries(), vec![t(10), t(20)]);
    }

    #[test]
    fn overlapping_windows_compound() {
        let f = FaultSpec::new(1).straggler(DeviceId(0), t(0), t(20), 2.0).straggler(
            DeviceId(0),
            t(10),
            t(30),
            3.0,
        );
        assert_eq!(f.device_factor(DeviceId(0), t(5)), 2.0);
        assert_eq!(f.device_factor(DeviceId(0), t(15)), 6.0);
        assert_eq!(f.device_factor(DeviceId(0), t(25)), 3.0);
    }

    #[test]
    fn link_factor_is_symmetric_and_collective_takes_worst() {
        let f = FaultSpec::new(1)
            .degrade_link(DeviceId(0), DeviceId(1), t(0), t(10), 4.0)
            .degrade_link(DeviceId(1), DeviceId(2), t(0), t(10), 2.0);
        assert_eq!(f.link_factor(DeviceId(1), DeviceId(0), t(5)), 4.0);
        let members = [DeviceId(0), DeviceId(1), DeviceId(2)];
        assert_eq!(f.collective_link_factor(members.iter().copied(), t(5)), 4.0);
        assert_eq!(f.collective_link_factor(members.iter().copied(), t(15)), 1.0);
        let tail = [DeviceId(1), DeviceId(2)];
        assert_eq!(f.collective_link_factor(tail.iter().copied(), t(5)), 2.0);
        let unlinked = [DeviceId(2), DeviceId(3)];
        assert_eq!(f.collective_link_factor(unlinked.iter().copied(), t(5)), 1.0);
    }

    #[test]
    fn partition_uses_the_large_factor() {
        let f = FaultSpec::new(1).partition_link(DeviceId(0), DeviceId(1), t(0), t(1));
        assert_eq!(f.link_factor(DeviceId(0), DeviceId(1), SimTime::ZERO), PARTITION_FACTOR);
    }

    #[test]
    fn kernel_failure_is_deterministic_and_seed_sensitive() {
        let params = KernelFaultParams { prob: 0.5, fraction: 0.25, from: t(0), until: t(100) };
        let a = FaultSpec::new(7).kernel_failures(params);
        let b = FaultSpec::new(7).kernel_failures(params);
        let c = FaultSpec::new(8).kernel_failures(params);
        let mut diverged = false;
        for i in 0..200u64 {
            let at = SimTime::from_micros(i * 13);
            assert_eq!(a.kernel_failure(DeviceId(0), at), b.kernel_failure(DeviceId(0), at));
            if a.kernel_failure(DeviceId(0), at) != c.kernel_failure(DeviceId(0), at) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds should disagree somewhere");
    }

    #[test]
    fn failure_probability_is_roughly_honored() {
        let params =
            KernelFaultParams { prob: 0.3, fraction: 0.5, from: t(0), until: SimTime::MAX };
        let f = FaultSpec::new(42).kernel_failures(params);
        let hits = (0..10_000u64)
            .filter(|&i| {
                f.kernel_failure(DeviceId(i as usize % 4), SimTime::from_nanos(i * 997)).is_some()
            })
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "empirical failure rate {rate}");
    }

    #[test]
    fn launch_spike_pays_the_extra() {
        let f = FaultSpec::new(3).launch_spikes(LaunchSpikeParams {
            prob: 1.0,
            extra: SimDuration::from_micros(50),
            from: t(0),
            until: t(10),
        });
        assert_eq!(f.launch_spike(HostId(0), t(5)), SimDuration::from_micros(50));
        assert_eq!(f.launch_spike(HostId(0), t(15)), SimDuration::ZERO, "outside the window");
    }

    #[test]
    fn parse_round_trips_the_documented_example() {
        let f = FaultSpec::parse("seed=7;slow:0:10:30:1.5;kfail:0.01:0.5").unwrap();
        assert_eq!(f.seed(), 7);
        assert_eq!(f.device_factor(DeviceId(0), t(20)), 1.5);
        assert_eq!(f.device_factor(DeviceId(0), t(31)), 1.0);
        assert!(f.kernel_faults.is_some());
        let g = FaultSpec::parse("link:0:1:5:15:3.0;part:2:3:0:5;spike:0.1:25:0:100").unwrap();
        assert_eq!(g.link_factor(DeviceId(0), DeviceId(1), t(10)), 3.0);
        assert_eq!(g.link_factor(DeviceId(2), DeviceId(3), t(1)), PARTITION_FACTOR);
        assert!(g.launch_spikes.is_some());
    }

    #[test]
    fn parse_rejects_malformed_segments() {
        assert!(FaultSpec::parse("slow:0:10:30").is_err());
        assert!(FaultSpec::parse("wobble:1").is_err());
        assert!(FaultSpec::parse("slow:x:10:30:1.5").is_err());
        assert!(FaultSpec::parse("kfail:0.1:0.5:1:2:3").is_err());
        assert!(FaultSpec::parse("seed=banana").is_err());
        assert!(FaultSpec::parse("").map(|f| f.is_empty()).unwrap_or(false));
    }

    #[test]
    fn parse_errors_point_at_the_offending_field() {
        let e = FaultSpec::parse("slow:x:10:30:1.5").unwrap_err();
        assert_eq!(e.offset, "slow:".len());
        assert!(e.expected.contains("device index"), "{e}");
        let e = FaultSpec::parse("seed=7;slow:0:10:zz:1.5").unwrap_err();
        assert_eq!(e.offset, "seed=7;slow:0:10:".len());
        assert!(e.expected.contains("millisecond"), "{e}");
        let e = FaultSpec::parse("seed=7; wobble:1").unwrap_err();
        assert_eq!(e.offset, "seed=7; ".len());
        let e = FaultSpec::parse("seed=banana").unwrap_err();
        assert_eq!(e.offset, "seed=".len());
        let shown = format!("{e}");
        assert!(shown.contains("at byte 5"), "{shown}");
        assert!(shown.contains("u64 seed"), "{shown}");
    }

    #[test]
    fn parse_rejects_hostile_input_without_panicking() {
        let cases = [
            ("down:0:1;down:0:2", "another on device 0"),
            ("slow:0:10:5:1.5", "a non-empty straggler window"),
            ("slow:0:1:2:0.5", "a slowdown factor (finite, at least 1)"),
            ("slow:0:1:2:NaN", "a slowdown factor (finite, at least 1)"),
            ("link:0:1:1:2:0.5", "a stretch factor (finite, at least 1)"),
            ("part:0:1:5:5", "a non-empty partition window"),
            ("kfail:2.0:0.5", "a failure probability in [0, 1]"),
            ("spike:5:10", "a spike probability in [0, 1]"),
            ("down:0:18446744073709551615", "a millisecond count up to"),
            ("nodes=4;node-down:4611686018427387904:1", "a node index"),
        ];
        for (spec, expect) in cases {
            let err = FaultSpec::parse(spec).unwrap_err();
            assert!(err.expected.contains(expect), "{spec:?} gave {err}, wanted {expect:?}");
        }
    }

    #[test]
    fn parse_bounds_how_far_one_segment_expands() {
        let max = MAX_SEGMENT_WINDOWS;
        // A 1 ms flap period gives one partition window per 2 ms of span.
        let flap = |windows: usize| format!("flap:0:1:0:{}:1", 2 * windows);
        assert_eq!(FaultSpec::parse(&flap(max)).unwrap().link_faults().len(), max);
        let node = |k: usize| format!("nodes={k};node-down:0:5");
        assert_eq!(FaultSpec::parse(&node(max)).unwrap().device_downs().len(), max);
        let nic = |k: usize| format!("nodes={k};niclink:0-1:1:2:2");
        assert_eq!(FaultSpec::parse(&nic(32)).unwrap().link_faults().len(), 32 * 32);
        for spec in [flap(max + 1), node(max + 1), nic(33)] {
            let err = FaultSpec::parse(&spec).unwrap_err();
            assert!(err.expected.contains("at most 1024 windows"), "{spec:?} gave {err}");
        }
    }

    #[test]
    fn device_down_is_permanent_and_parseable() {
        let f = FaultSpec::new(1).device_down(DeviceId(2), t(40));
        assert!(!f.is_empty());
        assert_eq!(f.device_down_at(DeviceId(2)), Some(t(40)));
        assert_eq!(f.device_down_at(DeviceId(0)), None);
        assert!(!f.is_device_down(DeviceId(2), t(39)));
        assert!(f.is_device_down(DeviceId(2), t(40)));
        assert!(f.is_device_down(DeviceId(2), SimTime::MAX), "death is permanent");
        assert!(!f.is_device_down(DeviceId(0), SimTime::MAX));

        let p = FaultSpec::parse("down:2:40").unwrap();
        assert_eq!(p.device_downs(), f.device_downs());
        assert!(FaultSpec::parse("down:2").is_err());
        assert!(FaultSpec::parse("down:2:x").is_err());
    }

    #[test]
    #[should_panic(expected = "overlapping down windows")]
    fn duplicate_device_down_panics() {
        let _ = FaultSpec::new(1).device_down(DeviceId(0), t(1)).device_down(DeviceId(0), t(2));
    }

    #[test]
    #[should_panic(expected = "overlapping down windows")]
    fn outage_overlapping_a_permanent_down_panics() {
        let _ = FaultSpec::new(1).device_down(DeviceId(0), t(50)).device_outage(
            DeviceId(0),
            t(40),
            t(60),
        );
    }

    #[test]
    fn windowed_outage_ends_and_windows_may_repeat() {
        let f = FaultSpec::new(1).device_outage(DeviceId(1), t(10), t(20)).device_outage(
            DeviceId(1),
            t(30),
            t(40),
        );
        assert!(!f.is_device_down(DeviceId(1), t(9)));
        assert!(f.is_device_down(DeviceId(1), t(10)));
        assert!(f.is_device_down(DeviceId(1), t(19)));
        assert!(!f.is_device_down(DeviceId(1), t(20)), "rejoined at the window end");
        assert!(f.is_device_down(DeviceId(1), t(35)), "second flap window");
        assert!(!f.is_device_down(DeviceId(1), SimTime::MAX));
        assert_eq!(f.device_down_at(DeviceId(1)), Some(t(10)), "first death instant");

        let p = FaultSpec::parse("down:1:10..20;down:1:30..40").unwrap();
        assert_eq!(p.device_downs(), f.device_downs());
    }

    #[test]
    fn disjoint_outages_on_distinct_devices_coexist() {
        let f = FaultSpec::new(1)
            .device_outage(DeviceId(0), t(10), t(20))
            .device_down(DeviceId(1), t(15));
        assert!(f.is_device_down(DeviceId(0), t(15)));
        assert!(f.is_device_down(DeviceId(1), t(15)));
        assert!(!f.is_device_down(DeviceId(0), t(25)));
        assert!(f.is_device_down(DeviceId(1), t(25)), "permanent loss persists");
    }

    #[test]
    fn link_flap_expands_to_alternating_partitions() {
        let f = FaultSpec::new(1).link_flap(
            DeviceId(0),
            DeviceId(1),
            t(10),
            t(50),
            SimDuration::from_millis(10),
        );
        // Partitioned [10,20) and [30,40); healthy in between and after.
        assert_eq!(f.link_factor(DeviceId(0), DeviceId(1), t(15)), PARTITION_FACTOR);
        assert_eq!(f.link_factor(DeviceId(0), DeviceId(1), t(25)), 1.0);
        assert_eq!(f.link_factor(DeviceId(0), DeviceId(1), t(35)), PARTITION_FACTOR);
        assert_eq!(f.link_factor(DeviceId(0), DeviceId(1), t(45)), 1.0);
        let p = FaultSpec::parse("flap:0:1:10:50:10").unwrap();
        assert_eq!(p.link_faults(), f.link_faults());
    }

    #[test]
    fn parse_rejects_malformed_windows() {
        let e = FaultSpec::parse("down:2:10..").unwrap_err();
        assert!(e.expected.contains("millisecond"), "{e}");
        let e = FaultSpec::parse("down:2:..10").unwrap_err();
        assert!(e.expected.contains("millisecond"), "{e}");
        let e = FaultSpec::parse("down:2:20..10").unwrap_err();
        assert_eq!(e.offset, "down:2:".len());
        assert!(e.expected.contains("non-empty outage window"), "{e}");
        let e = FaultSpec::parse("down:2:10..10").unwrap_err();
        assert!(e.expected.contains("start < end"), "{e}");
        let e = FaultSpec::parse("flap:0:1:50:10:5").unwrap_err();
        assert!(e.expected.contains("non-empty flap window"), "{e}");
        let e = FaultSpec::parse("flap:0:1:10:50:0").unwrap_err();
        assert_eq!(e.offset, "flap:0:1:10:50:".len());
        assert!(e.expected.contains("positive flap period"), "{e}");
        let e = FaultSpec::parse("down:2:a..b").unwrap_err();
        assert_eq!(e.offset, "down:2:".len());
    }

    #[test]
    fn node_down_expands_to_every_member_device() {
        let f = FaultSpec::new(1).node_down(4, 1, t(40));
        for d in 4..8 {
            assert!(f.is_device_down(DeviceId(d), t(40)), "device {d} should be down");
            assert!(!f.is_device_down(DeviceId(d), t(39)));
        }
        assert!(!f.is_device_down(DeviceId(0), SimTime::MAX), "node 0 untouched");
        let p = FaultSpec::parse("nodes=4;node-down:1:40").unwrap();
        assert_eq!(p.device_downs(), f.device_downs());
    }

    #[test]
    fn node_outage_rejoins_the_whole_node() {
        let f = FaultSpec::new(1).node_outage(2, 0, t(10), t(20));
        assert!(f.is_device_down(DeviceId(0), t(15)));
        assert!(f.is_device_down(DeviceId(1), t(15)));
        assert!(!f.is_device_down(DeviceId(0), t(20)), "rejoined at the window end");
        assert!(!f.is_device_down(DeviceId(2), t(15)), "next node untouched");
        let p = FaultSpec::parse("nodes=2;node-down:0:10..20").unwrap();
        assert_eq!(p.device_downs(), f.device_downs());
    }

    #[test]
    fn nic_link_degrades_every_cross_node_pair() {
        let f = FaultSpec::new(1).nic_link(2, 0, 1, t(10), t(30), 8.0);
        // All four cross pairs stretch, both directions.
        for a in 0..2usize {
            for b in 2..4usize {
                assert_eq!(f.link_factor(DeviceId(a), DeviceId(b), t(20)), 8.0);
                assert_eq!(f.link_factor(DeviceId(b), DeviceId(a), t(20)), 8.0);
                assert_eq!(f.link_factor(DeviceId(a), DeviceId(b), t(30)), 1.0);
            }
        }
        // Intra-node links are untouched.
        assert_eq!(f.link_factor(DeviceId(0), DeviceId(1), t(20)), 1.0);
        assert_eq!(f.link_factor(DeviceId(2), DeviceId(3), t(20)), 1.0);
        // A collective spanning the nodes pays the NIC stretch.
        let members = [DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)];
        assert_eq!(f.collective_link_factor(members.iter().copied(), t(20)), 8.0);
        let p = FaultSpec::parse("nodes=2;niclink:0-1:10:30:8").unwrap();
        assert_eq!(p.link_faults(), f.link_faults());
    }

    #[test]
    fn node_forms_require_geometry_and_reject_nonsense() {
        let e = FaultSpec::parse("node-down:0:10").unwrap_err();
        assert!(e.expected.contains("nodes=<devices_per_node>"), "{e}");
        let e = FaultSpec::parse("niclink:0-1:10:30:8").unwrap_err();
        assert!(e.expected.contains("nodes=<devices_per_node>"), "{e}");
        let e = FaultSpec::parse("nodes=0;node-down:0:10").unwrap_err();
        assert_eq!(e.offset, "nodes=".len());
        assert!(e.expected.contains("positive devices-per-node"), "{e}");
        let e = FaultSpec::parse("nodes=4;niclink:0:10:30:8").unwrap_err();
        assert!(e.expected.contains("node pair"), "{e}");
        let e = FaultSpec::parse("nodes=4;niclink:1-1:10:30:8").unwrap_err();
        assert!(e.expected.contains("distinct niclink endpoint"), "{e}");
        let e = FaultSpec::parse("nodes=4;niclink:0-x:10:30:8").unwrap_err();
        assert_eq!(e.offset, "nodes=4;niclink:0-".len());
        let e = FaultSpec::parse("nodes=4;node-down:0:20..10").unwrap_err();
        assert!(e.expected.contains("non-empty outage window"), "{e}");
        assert!(FaultSpec::parse("nodes=x;node-down:0:10").is_err());
    }

    #[test]
    fn node_sugar_round_trips_through_display_as_primitives() {
        let f =
            FaultSpec::new(5).node_outage(2, 1, t(10), t(20)).nic_link(2, 0, 1, t(5), t(25), 4.0);
        let rendered = f.to_string();
        assert!(rendered.contains("down:2:10..20"), "{rendered}");
        assert!(rendered.contains("link:0:2:5:25:4"), "{rendered}");
        assert!(!rendered.contains("node-down"), "display renders primitives: {rendered}");
        assert_eq!(FaultSpec::parse(&rendered).unwrap(), f);
    }

    #[test]
    fn display_round_trips_through_parse() {
        let spec = "seed=9;slow:0:10:30:1.5;link:0:1:5:15:3;part:2:3:0:5;\
                    kfail:0.01:0.5;spike:0.1:25:0:100;down:3:40;down:2:10..20";
        let f = FaultSpec::parse(spec).unwrap();
        assert_eq!(format!("{f}"), spec, "display is the canonical grammar");
        assert_eq!(FaultSpec::parse(&format!("{f}")).unwrap(), f);
        assert_eq!(format!("{}", FaultSpec::none()), "", "empty spec displays empty");
        let flap = FaultSpec::new(1).link_flap(
            DeviceId(0),
            DeviceId(1),
            t(0),
            t(30),
            SimDuration::from_millis(10),
        );
        assert_eq!(FaultSpec::parse(&format!("{flap}")).unwrap(), flap);
    }

    #[test]
    fn unit_hash_is_uniform_enough() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| unit_hash(1, 2, i, i * 31)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "hash mean {mean}");
    }
}
