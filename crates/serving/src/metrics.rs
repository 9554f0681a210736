//! Serving metrics: the paper's latency and throughput definitions (§4.1).
//!
//! * **Latency** of a job = completion − arrival = pending time + CUDA
//!   execution time.
//! * **Throughput** = jobs completed per second of serving time.

use liger_gpu_sim::{SimDuration, SimTime};

use crate::admission::ShedRecord;
use crate::request::Completion;

/// Degraded-mode counters accumulated while serving under an active fault
/// schedule (all zero on healthy runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Requests resubmitted after a failed attempt (runner retry path).
    pub retries: u64,
    /// Requests whose latency crossed the policy timeout (accounting only;
    /// the attempt is not cancelled).
    pub timeouts: u64,
    /// Kernel failures observed ([`Wake::KernelFailed`] notifications).
    ///
    /// [`Wake::KernelFailed`]: liger_gpu_sim::Wake::KernelFailed
    pub kernel_failures: u64,
    /// Batches put back on the engine after a member kernel failed
    /// (batcher requeue path).
    pub requeues: u64,
    /// Scheduling rounds planned while a straggler window was active.
    pub degraded_rounds: u64,
}

/// Elastic-recovery counters accumulated by the recovery runner while
/// serving through a permanent device loss (all empty on healthy runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Confirmed permanent device losses.
    pub losses: u64,
    /// Watchdog confirmation delay of the most recent loss: confirmation
    /// instant minus the ground-truth death instant the simulator reported.
    pub detection_latency: SimDuration,
    /// Total time spent draining in-flight survivor work (all losses).
    pub drain_time: SimDuration,
    /// Total time spent replanning and recovering KV state (all losses).
    pub replan_time: SimDuration,
    /// Prefill tokens replayed to rebuild lost KV cache (recompute policy).
    pub recompute_tokens: u64,
    /// Every shed request, with its instant and reason.
    pub shed: Vec<ShedRecord>,
    /// Phase-transition log: `(phase label, instant)` per transition.
    pub timeline: Vec<(&'static str, SimTime)>,
    /// Partial recoveries the watchdog damped: a suspect device answered
    /// probes again but fell silent before clearing quarantine.
    pub flaps: u64,
    /// Watchdog-confirmed rejoins (full quarantine of healthy probes).
    pub rejoins: u64,
    /// Completed re-expansions back onto a rejoined device.
    pub re_expansions: u64,
}

impl RecoveryCounters {
    /// Number of shed requests.
    pub fn shed_requests(&self) -> u64 {
        self.shed.len() as u64
    }
}

/// Batching-efficiency counters: the padding waste the static batcher pays
/// (computed per-batch in `batcher.rs` but previously dropped) and the
/// paged-pool pressure events of the continuous scheduler. All zero on runs
/// that never batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchingCounters {
    /// Batches (or decode steps) dispatched.
    pub batches: u64,
    /// Tokens the dispatched shapes actually processed, padding included.
    pub padded_tokens: u64,
    /// Tokens the batched sequences really needed.
    pub real_tokens: u64,
    /// Sum of running-set occupancy samples (running / max_running), one
    /// per decode step; divide by `occupancy_samples` for the average.
    pub occupancy_sum: f64,
    /// Number of occupancy samples taken.
    pub occupancy_samples: u64,
    /// Sequences preempted (blocks evicted, prefill to be recomputed).
    pub preemptions: u64,
    /// KV blocks freed by preemption.
    pub evicted_blocks: u64,
    /// Typed `OutOfBlocks` failures the scheduler absorbed.
    pub out_of_blocks: u64,
}

impl BatchingCounters {
    /// Aggregate padding-waste ratio: the fraction of processed tokens that
    /// were padding, `(padded − real) / padded`. Zero when nothing batched.
    pub fn padding_waste(&self) -> f64 {
        if self.padded_tokens == 0 {
            return 0.0;
        }
        (self.padded_tokens - self.real_tokens) as f64 / self.padded_tokens as f64
    }

    /// Average running-set occupancy across decode steps (zero when no
    /// samples were taken).
    pub fn avg_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            return 0.0;
        }
        self.occupancy_sum / self.occupancy_samples as f64
    }

    /// Records one dispatched batch shape: `padded` tokens processed of
    /// which `real` were useful.
    pub fn record_batch(&mut self, padded: u64, real: u64) {
        debug_assert!(real <= padded, "real tokens cannot exceed the padded shape");
        self.batches += 1;
        self.padded_tokens += padded;
        self.real_tokens += real;
    }

    /// Records one running-set occupancy sample.
    pub fn record_occupancy(&mut self, occupancy: f64) {
        self.occupancy_sum += occupancy;
        self.occupancy_samples += 1;
    }
}

/// Cross-request prefix-cache counters. All zero on runs with the cache
/// off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCounters {
    /// Admissions that consulted the prefix index.
    pub lookups: u64,
    /// Admissions that adopted at least one cached block.
    pub hits: u64,
    /// Prompt tokens served from cached blocks instead of prefill.
    pub cached_tokens: u64,
    /// Prompt tokens that still had to be prefilled.
    pub novel_tokens: u64,
    /// Blocks newly published into the index.
    pub published_blocks: u64,
    /// Cold cached blocks evicted under watermark pressure.
    pub evicted_blocks: u64,
    /// Cached blocks dropped by the end-of-serve / device-loss flush.
    pub flushed_blocks: u64,
}

impl PrefixCounters {
    /// Fraction of all prompt tokens the cache served, `cached / (cached +
    /// novel)`. Zero before any admission.
    pub fn cached_fraction(&self) -> f64 {
        let total = self.cached_tokens + self.novel_tokens;
        if total == 0 {
            return 0.0;
        }
        self.cached_tokens as f64 / total as f64
    }
}

/// Speculative-decoding counters. All zero on runs with speculation off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecCounters {
    /// Draft-then-verify rounds run.
    pub rounds: u64,
    /// Tokens drafted ahead across all rounds.
    pub drafted: u64,
    /// Drafted tokens the verification pass accepted.
    pub accepted: u64,
    /// Drafted tokens rejected (their KV blocks rolled back).
    pub rejected: u64,
    /// KV blocks dropped from tables by rollback truncation.
    pub rollback_blocks: u64,
}

impl SpecCounters {
    /// Fraction of drafted tokens accepted. Zero before any round.
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            return 0.0;
        }
        self.accepted as f64 / self.drafted as f64
    }
}

/// Aggregated results of one serving run.
#[derive(Debug, Clone, Default)]
pub struct ServingMetrics {
    completions: Vec<Completion>,
    faults: FaultCounters,
    recovery: RecoveryCounters,
    batching: BatchingCounters,
    prefix: PrefixCounters,
    spec: SpecCounters,
}

impl ServingMetrics {
    /// Empty metrics.
    pub fn new() -> ServingMetrics {
        ServingMetrics::default()
    }

    /// Records one completion.
    pub fn record(&mut self, c: Completion) {
        self.completions.push(c);
    }

    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// All completions (arrival order not guaranteed).
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Mean end-to-end latency.
    pub fn avg_latency(&self) -> SimDuration {
        if self.completions.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.completions.iter().map(|c| c.latency().as_nanos() as u128).sum();
        SimDuration::from_nanos((total / self.completions.len() as u128) as u64)
    }

    /// Latency percentile (`p` in `[0, 100]`), nearest-rank.
    pub fn latency_percentile(&self, p: f64) -> SimDuration {
        if self.completions.is_empty() {
            return SimDuration::ZERO;
        }
        let mut lats: Vec<SimDuration> = self.completions.iter().map(|c| c.latency()).collect();
        lats.sort_unstable();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * lats.len() as f64).ceil() as usize).clamp(1, lats.len());
        lats[rank - 1]
    }

    /// Throughput in jobs/second: completed jobs over the span from the
    /// first arrival to the last completion.
    pub fn throughput(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        let first = self.completions.iter().map(|c| c.arrival).min().unwrap_or(SimTime::ZERO);
        let last = self.completions.iter().map(|c| c.finished).max().unwrap_or(SimTime::ZERO);
        let span = last.saturating_since(first).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.completions.len() as f64 / span
    }

    /// Mean pending-free execution estimate is not recoverable from
    /// completions alone; instead expose max latency for saturation checks.
    pub fn max_latency(&self) -> SimDuration {
        self.completions.iter().map(|c| c.latency()).max().unwrap_or(SimDuration::ZERO)
    }

    /// SLO attainment: fraction of jobs whose end-to-end latency met
    /// `deadline` (the AlpaServe-style metric for latency-critical serving).
    pub fn slo_attainment(&self, deadline: SimDuration) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        let met = self.completions.iter().filter(|c| c.latency() <= deadline).count();
        met as f64 / self.completions.len() as f64
    }

    /// Goodput: jobs per second that met `deadline` (throughput × SLO
    /// attainment).
    pub fn goodput(&self, deadline: SimDuration) -> f64 {
        self.throughput() * self.slo_attainment(deadline)
    }

    /// Number of jobs that missed `deadline` (complement of
    /// [`slo_attainment`](Self::slo_attainment), as a count).
    pub fn slo_violations(&self, deadline: SimDuration) -> usize {
        self.completions.iter().filter(|c| c.latency() > deadline).count()
    }

    /// Degraded-mode counters (all zero on healthy runs).
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }

    /// Mutable access for the serving loops accumulating fault reactions.
    pub fn faults_mut(&mut self) -> &mut FaultCounters {
        &mut self.faults
    }

    /// Elastic-recovery counters (all empty on healthy runs).
    pub fn recovery(&self) -> &RecoveryCounters {
        &self.recovery
    }

    /// Mutable access for the recovery runner.
    pub fn recovery_mut(&mut self) -> &mut RecoveryCounters {
        &mut self.recovery
    }

    /// The recovery phase-transition log: `(phase label, instant)` pairs in
    /// chronological order, empty when no device was ever lost.
    pub fn recovery_timeline(&self) -> &[(&'static str, SimTime)] {
        &self.recovery.timeline
    }

    /// Batching-efficiency counters (all zero on runs that never batch).
    pub fn batching(&self) -> &BatchingCounters {
        &self.batching
    }

    /// Mutable access for the batcher and the continuous scheduler.
    pub fn batching_mut(&mut self) -> &mut BatchingCounters {
        &mut self.batching
    }

    /// Prefix-cache counters (all zero with the cache off).
    pub fn prefix(&self) -> &PrefixCounters {
        &self.prefix
    }

    /// Mutable access for the continuous scheduler.
    pub fn prefix_mut(&mut self) -> &mut PrefixCounters {
        &mut self.prefix
    }

    /// Speculative-decoding counters (all zero with speculation off).
    pub fn spec(&self) -> &SpecCounters {
        &self.spec
    }

    /// Mutable access for the continuous scheduler.
    pub fn spec_mut(&mut self) -> &mut SpecCounters {
        &mut self.spec
    }

    /// Renumbers every job id the metrics carry (completions and shed
    /// records) — a replica's dense local ids back to the cluster's.
    pub(crate) fn remap_ids(&mut self, id: impl Fn(u64) -> u64) {
        for c in &mut self.completions {
            c.id = id(c.id);
        }
        for s in &mut self.recovery.shed {
            s.id = id(s.id);
        }
    }

    /// Folds another run's metrics into this one — the cluster tier's
    /// aggregate view over per-replica metrics. Completions concatenate
    /// (remap ids before merging if the runs numbered jobs independently);
    /// counters add; the detection latency keeps the worst observed.
    pub fn merge(&mut self, other: &ServingMetrics) {
        self.completions.extend_from_slice(&other.completions);
        self.faults.merge(&other.faults);
        self.recovery.merge(&other.recovery);
        self.batching.merge(&other.batching);
        self.prefix.merge(&other.prefix);
        self.spec.merge(&other.spec);
    }
}

impl FaultCounters {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, o: &FaultCounters) {
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.kernel_failures += o.kernel_failures;
        self.requeues += o.requeues;
        self.degraded_rounds += o.degraded_rounds;
    }
}

impl RecoveryCounters {
    /// Adds another run's counters into this one. Durations sum, the
    /// detection latency keeps the worst observed, and the shed/timeline
    /// logs concatenate.
    pub fn merge(&mut self, o: &RecoveryCounters) {
        self.losses += o.losses;
        self.detection_latency = self.detection_latency.max(o.detection_latency);
        self.drain_time += o.drain_time;
        self.replan_time += o.replan_time;
        self.recompute_tokens += o.recompute_tokens;
        self.shed.extend_from_slice(&o.shed);
        self.timeline.extend_from_slice(&o.timeline);
        self.flaps += o.flaps;
        self.rejoins += o.rejoins;
        self.re_expansions += o.re_expansions;
    }
}

impl BatchingCounters {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, o: &BatchingCounters) {
        self.batches += o.batches;
        self.padded_tokens += o.padded_tokens;
        self.real_tokens += o.real_tokens;
        self.occupancy_sum += o.occupancy_sum;
        self.occupancy_samples += o.occupancy_samples;
        self.preemptions += o.preemptions;
        self.evicted_blocks += o.evicted_blocks;
        self.out_of_blocks += o.out_of_blocks;
    }
}

impl PrefixCounters {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, o: &PrefixCounters) {
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.cached_tokens += o.cached_tokens;
        self.novel_tokens += o.novel_tokens;
        self.published_blocks += o.published_blocks;
        self.evicted_blocks += o.evicted_blocks;
        self.flushed_blocks += o.flushed_blocks;
    }
}

impl SpecCounters {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, o: &SpecCounters) {
        self.rounds += o.rounds;
        self.drafted += o.drafted;
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.rollback_blocks += o.rollback_blocks;
    }
}

/// Labeled [`ServingMetrics`] sections — an aggregate plus per-replica or
/// per-node views — rendered through the single `ServingMetrics` ToJson
/// path so every section carries the identical field set. The cluster and
/// disaggregated reports emit their JSON through this one helper instead of
/// copy-pasting counter blocks per section.
#[derive(Default)]
pub struct MetricsSections<'a> {
    sections: Vec<(String, &'a ServingMetrics)>,
}

impl<'a> MetricsSections<'a> {
    /// An empty section list.
    pub fn new() -> Self {
        MetricsSections { sections: Vec::new() }
    }

    /// Appends a labeled section; sections render in push order.
    pub fn push(&mut self, label: impl Into<String>, metrics: &'a ServingMetrics) -> &mut Self {
        self.sections.push((label.into(), metrics));
        self
    }
}

impl liger_gpu_sim::ToJson for MetricsSections<'_> {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        for (label, metrics) in &self.sections {
            obj.field(label, *metrics);
        }
        obj.end();
    }
}

/// Metrics serialize as a summary object (latencies in nanoseconds,
/// throughput in jobs/s) — the shape the results tooling consumes.
impl liger_gpu_sim::ToJson for ServingMetrics {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("completed", &self.completed())
            .field("avg_latency_ns", &self.avg_latency())
            .field("p50_latency_ns", &self.latency_percentile(50.0))
            .field("p99_latency_ns", &self.latency_percentile(99.0))
            .field("max_latency_ns", &self.max_latency())
            .field("throughput", &self.throughput())
            .field("faults", &self.faults)
            .field("recovery", &self.recovery)
            .field("batching", &self.batching)
            .field("prefix", &self.prefix)
            .field("spec", &self.spec);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for BatchingCounters {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("batches", &self.batches)
            .field("padded_tokens", &self.padded_tokens)
            .field("real_tokens", &self.real_tokens)
            .field("padding_waste", &self.padding_waste())
            .field("avg_occupancy", &self.avg_occupancy())
            .field("preemptions", &self.preemptions)
            .field("evicted_blocks", &self.evicted_blocks)
            .field("out_of_blocks", &self.out_of_blocks);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for PrefixCounters {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("lookups", &self.lookups)
            .field("hits", &self.hits)
            .field("cached_tokens", &self.cached_tokens)
            .field("novel_tokens", &self.novel_tokens)
            .field("cached_fraction", &self.cached_fraction())
            .field("published_blocks", &self.published_blocks)
            .field("evicted_blocks", &self.evicted_blocks)
            .field("flushed_blocks", &self.flushed_blocks);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for SpecCounters {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("rounds", &self.rounds)
            .field("drafted", &self.drafted)
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected)
            .field("acceptance_rate", &self.acceptance_rate())
            .field("rollback_blocks", &self.rollback_blocks);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for RecoveryCounters {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("losses", &self.losses)
            .field("detection_latency_ns", &self.detection_latency)
            .field("drain_time_ns", &self.drain_time)
            .field("replan_time_ns", &self.replan_time)
            .field("recompute_tokens", &self.recompute_tokens)
            .field("shed_requests", &self.shed_requests())
            .field("flaps", &self.flaps)
            .field("rejoins", &self.rejoins)
            .field("re_expansions", &self.re_expansions);
        obj.end();
    }
}

impl liger_gpu_sim::ToJson for FaultCounters {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("retries", &self.retries)
            .field("timeouts", &self.timeouts)
            .field("kernel_failures", &self.kernel_failures)
            .field("requeues", &self.requeues)
            .field("degraded_rounds", &self.degraded_rounds);
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u64, arrive_ms: u64, finish_ms: u64) -> Completion {
        Completion {
            id,
            arrival: SimTime::from_millis(arrive_ms),
            finished: SimTime::from_millis(finish_ms),
        }
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServingMetrics::new();
        assert_eq!(m.completed(), 0);
        assert_eq!(m.avg_latency(), SimDuration::ZERO);
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.latency_percentile(99.0), SimDuration::ZERO);
        assert_eq!(m.max_latency(), SimDuration::ZERO);
    }

    #[test]
    fn average_latency() {
        let mut m = ServingMetrics::new();
        m.record(c(0, 0, 10)); // 10ms
        m.record(c(1, 5, 35)); // 30ms
        assert_eq!(m.avg_latency(), SimDuration::from_millis(20));
        assert_eq!(m.max_latency(), SimDuration::from_millis(30));
    }

    #[test]
    fn throughput_spans_first_arrival_to_last_finish() {
        let mut m = ServingMetrics::new();
        m.record(c(0, 0, 100));
        m.record(c(1, 50, 200));
        m.record(c(2, 100, 300));
        m.record(c(3, 150, 400));
        // 4 jobs over 400ms = 10 jobs/s.
        assert!((m.throughput() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut m = ServingMetrics::new();
        for i in 1..=100u64 {
            m.record(c(i, 0, i)); // latencies 1..=100 ms
        }
        assert_eq!(m.latency_percentile(50.0), SimDuration::from_millis(50));
        assert_eq!(m.latency_percentile(99.0), SimDuration::from_millis(99));
        assert_eq!(m.latency_percentile(100.0), SimDuration::from_millis(100));
        assert_eq!(m.latency_percentile(0.0), SimDuration::from_millis(1));
    }

    #[test]
    fn slo_attainment_and_goodput() {
        let mut m = ServingMetrics::new();
        m.record(c(0, 0, 10)); // 10ms
        m.record(c(1, 0, 20)); // 20ms
        m.record(c(2, 0, 100)); // 100ms
        m.record(c(3, 0, 200)); // 200ms -> horizon 200ms, thr = 20/s
        assert!((m.slo_attainment(SimDuration::from_millis(20)) - 0.5).abs() < 1e-12);
        assert!((m.slo_attainment(SimDuration::from_millis(1000)) - 1.0).abs() < 1e-12);
        assert_eq!(m.slo_attainment(SimDuration::ZERO), 0.0);
        assert!((m.goodput(SimDuration::from_millis(20)) - 10.0).abs() < 1e-9);
        assert_eq!(ServingMetrics::new().slo_attainment(SimDuration::MAX), 0.0);
    }

    #[test]
    fn slo_violations_complement_attainment() {
        let mut m = ServingMetrics::new();
        m.record(c(0, 0, 10));
        m.record(c(1, 0, 20));
        m.record(c(2, 0, 100));
        assert_eq!(m.slo_violations(SimDuration::from_millis(20)), 1);
        assert_eq!(m.slo_violations(SimDuration::ZERO), 3);
        assert_eq!(m.slo_violations(SimDuration::MAX), 0);
    }

    #[test]
    fn fault_counters_default_zero_and_accumulate() {
        let mut m = ServingMetrics::new();
        assert_eq!(*m.faults(), FaultCounters::default());
        m.faults_mut().retries += 2;
        m.faults_mut().kernel_failures += 1;
        assert_eq!(m.faults().retries, 2);
        assert_eq!(m.faults().kernel_failures, 1);
        use liger_gpu_sim::ToJson;
        assert!(m.to_json().contains("\"retries\":2"));
    }

    #[test]
    fn recovery_counters_default_empty_and_serialize() {
        let mut m = ServingMetrics::new();
        assert_eq!(*m.recovery(), RecoveryCounters::default());
        assert!(m.recovery_timeline().is_empty());
        m.recovery_mut().losses = 1;
        m.recovery_mut().detection_latency = SimDuration::from_micros(400);
        m.recovery_mut().shed.push(ShedRecord {
            id: 9,
            at: SimTime::from_micros(5),
            reason: crate::admission::ShedReason::QueueDepth,
        });
        m.recovery_mut().timeline.push(("draining", SimTime::from_micros(3)));
        m.recovery_mut().flaps = 3;
        m.recovery_mut().rejoins = 2;
        m.recovery_mut().re_expansions = 1;
        assert_eq!(m.recovery().shed_requests(), 1);
        assert_eq!(m.recovery_timeline(), &[("draining", SimTime::from_micros(3))]);
        use liger_gpu_sim::ToJson;
        let json = m.to_json();
        assert!(json.contains("\"losses\":1"));
        assert!(json.contains("\"shed_requests\":1"));
        assert!(json.contains("\"flaps\":3"));
        assert!(json.contains("\"rejoins\":2"));
        assert!(json.contains("\"re_expansions\":1"));
    }

    #[test]
    fn batching_counters_aggregate_and_serialize() {
        let mut m = ServingMetrics::new();
        assert_eq!(*m.batching(), BatchingCounters::default());
        assert_eq!(m.batching().padding_waste(), 0.0);
        assert_eq!(m.batching().avg_occupancy(), 0.0);
        m.batching_mut().record_batch(100, 75);
        m.batching_mut().record_batch(100, 25);
        m.batching_mut().record_occupancy(0.5);
        m.batching_mut().record_occupancy(1.0);
        m.batching_mut().preemptions += 1;
        m.batching_mut().evicted_blocks += 4;
        m.batching_mut().out_of_blocks += 2;
        assert_eq!(m.batching().batches, 2);
        assert!((m.batching().padding_waste() - 0.5).abs() < 1e-12);
        assert!((m.batching().avg_occupancy() - 0.75).abs() < 1e-12);
        use liger_gpu_sim::ToJson;
        let json = m.to_json();
        assert!(json.contains("\"padding_waste\":0.5"));
        assert!(json.contains("\"preemptions\":1"));
        assert!(json.contains("\"out_of_blocks\":2"));
    }

    #[test]
    fn prefix_and_spec_counters_aggregate_and_serialize() {
        let mut m = ServingMetrics::new();
        assert_eq!(*m.prefix(), PrefixCounters::default());
        assert_eq!(m.prefix().cached_fraction(), 0.0);
        assert_eq!(m.spec().acceptance_rate(), 0.0);
        m.prefix_mut().lookups += 2;
        m.prefix_mut().hits += 1;
        m.prefix_mut().cached_tokens += 48;
        m.prefix_mut().novel_tokens += 16;
        m.prefix_mut().published_blocks += 3;
        m.spec_mut().rounds += 1;
        m.spec_mut().drafted += 4;
        m.spec_mut().accepted += 3;
        m.spec_mut().rejected += 1;
        m.spec_mut().rollback_blocks += 1;
        assert!((m.prefix().cached_fraction() - 0.75).abs() < 1e-12);
        assert!((m.spec().acceptance_rate() - 0.75).abs() < 1e-12);
        use liger_gpu_sim::ToJson;
        let json = m.to_json();
        assert!(json.contains("\"cached_tokens\":48"));
        assert!(json.contains("\"published_blocks\":3"));
        assert!(json.contains("\"rollback_blocks\":1"));
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        let mut m = ServingMetrics::new();
        m.record(c(0, 0, 7));
        assert_eq!(m.latency_percentile(-5.0), SimDuration::from_millis(7));
        assert_eq!(m.latency_percentile(200.0), SimDuration::from_millis(7));
    }
}
