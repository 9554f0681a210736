//! The repository's benchmark: host time and simulated serving metrics of
//! the Liger serving program on two workloads.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_prefill --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the program repeats untraced passes of the workload for
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it
//! alternates untraced and traced passes and prints the per-layer metrics;
//! the spans of the last traced pass are written to
//! `perfbench/out/spans-<workload>.csv`. The last line of standard output is
//! the JSON result; lines before it start with `#`. See `README.md`.

mod clock;
mod probe;
mod report;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use liger_gpu_sim::rng::SplitMix64;
use liger_serving::GenerationResult;
use probe::{ratio, Recorder};
use report::{median, per_mb, result_json, Metric, Tally};
use workloads::{sim_metrics, Pass, Workload, SERVE_SPANS};

const USAGE: &str =
    "usage: perfbench --workload <paper_prefill|prefix_cluster> --seed <n> --seconds <n> --trace <0|1>";

/// Traced passes made at least; each comes with an untraced one.
const MIN_TRACED_PASSES: usize = 2;

/// Checked command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} profile={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit().unwrap_or_else(|| "unknown".into()),
    );
    let (tally, metrics) = if args.trace { run_traced(args) } else { run_plain(args) };
    for note in &tally.notes {
        println!("# FAILED: {note}");
    }
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}

/// The seeds of the run's distinct inputs, drawn from `--seed`.
fn input_seeds(args: Args) -> Vec<u64> {
    let mut seeds = SplitMix64::new(args.seed);
    (0..args.workload.inputs_per_run()).map(|_| seeds.next_u64()).collect()
}

/// Serves each of the run's inputs once, then repeats the first input for
/// the rest of `--seconds`, and reports the end-to-end metrics: host CPU
/// time per pass (see [`host_cpu_s`]), the median set-up time, and the
/// simulated metrics pooled over the first pass on each input (every
/// repeat must return exactly what the first pass on input 0 did).
fn run_plain(args: Args) -> (Tally, Vec<Metric>) {
    let seeds = input_seeds(args);
    let start = Instant::now();
    let (mut passes, mut events) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    while passes.len() <= seeds.len() || next_pass_fits(start, passes.len(), args.seconds) {
        let rec = Recorder::shared(args.workload.name(), false);
        passes.push(args.workload.pass(*seeds.get(passes.len()).unwrap_or(&seeds[0]), &rec, false));
        events.push(rec.borrow().sim_total().events);
        // The peak of a process that has served one input, as a user's
        // would. Later passes reuse memory freed by earlier ones, and how
        // the allocator's free lists are left moved the peak after four
        // passes between 34 and 51 MB on the same inputs.
        if passes.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    let mut tally = check_repeats(&passes, |i| if i < seeds.len() { i } else { 0 });
    let setups: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.iter().copied()).collect();
    let cpus: Vec<f64> = passes.iter().map(Pass::cpu_s).collect();
    println!("# cpu_s of each pass: {cpus:?}");
    let firsts: Vec<&[GenerationResult]> =
        passes[..seeds.len()].iter().map(|p| p.results.as_slice()).collect();
    let sim = sim_metrics(&firsts, &mut tally);
    let mut metrics = vec![
        Metric { name: "host_cpu_s", unit: "s", value: host_cpu_s(&passes, &events, seeds.len()) },
        Metric { name: "setup_s", unit: "s", value: median(&setups) },
        Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss.unwrap_or(f64::NAN) },
        Metric { name: "ok_frac", unit: "frac", value: 1.0 - tally.failed_frac() },
    ];
    for (name, value) in sim {
        let unit = match name {
            "sim_throughput_rps" => "1/s",
            "sim_tok_per_s" => "tok/s",
            _ => "ms",
        };
        metrics.push(Metric { name, unit, value });
    }
    (tally, metrics)
}

/// Whether a pass as long as the mean of the `done` passes so far still
/// ends before `seconds` from `start`, so a run ends near its deadline
/// rather than up to a whole pass past it.
fn next_pass_fits(start: Instant, done: usize, seconds: u64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / done.max(1) as f64 <= seconds as f64
}

/// Host CPU seconds of a pass of the run's first input with each stretch
/// of it at its fastest, scaled by the simulated events of the average
/// input over those of the first. Passes `0` and `inputs..` ran the first
/// input; `events` holds each pass's simulated events.
///
/// On a shared host the same stretch of work runs at anything from 1× to
/// 2× its best time as other tenants contend for the core, changing within
/// a second and, for minutes at a time, in how often it is fast; a median
/// reads how busy the neighbours were. Every pass on an input makes the
/// same engine calls, so the marks of [`probe::Recorder::marks`] cut it at
/// the same points of its work. Each stretch (about 40–100 ms) is taken at
/// the fastest any pass ran it, and the stretches are summed: the pass as
/// it runs when nothing contends, which a stretch that short catches far
/// more often than a whole pass does, and the more often the more times
/// one input is served. Host time follows the simulated events closely
/// (the events of the same input repeat exactly), so the scaling stands in
/// for every input without serving each one as often.
fn host_cpu_s(passes: &[Pass], events: &[u64], inputs: usize) -> f64 {
    let runs: Vec<&[f64]> = std::iter::once(&passes[0])
        .chain(&passes[inputs..])
        .map(|p| p.segments_s.as_slice())
        .collect();
    // A pass whose calls differ from the first on its input fails the
    // repeat check; its stretches count as far as they line up.
    let fastest: f64 = (0..runs[0].len())
        .map(|k| runs.iter().filter_map(|r| r.get(k)).copied().fold(f64::MAX, f64::min))
        .sum();
    let mean_events = events[..inputs].iter().sum::<u64>() as f64 / inputs as f64;
    fastest * mean_events / events[0].max(1) as f64
}

/// Sums the passes' tallies and fails every pass whose outputs or simulator
/// counters differ from those of pass `first(i)`, the first pass on the
/// input that pass `i` ran.
fn check_repeats(passes: &[Pass], first: impl Fn(usize) -> usize) -> Tally {
    let mut tally = Tally::default();
    for (i, p) in passes.iter().enumerate() {
        let mut t = p.tally.clone();
        if p.digest != passes[first(i)].digest {
            t.fail_all(format!("pass {i}: outputs differ from pass {}", first(i)));
        }
        tally.absorb(t);
    }
    tally
}

/// Alternates untraced and traced passes for `--seconds`, cycling through
/// the run's inputs, and reports the per-layer metrics, each the median
/// over the traced passes.
fn run_traced(args: Args) -> (Tally, Vec<Metric>) {
    let name = args.workload.name();
    let seeds = input_seeds(args);
    let start = Instant::now();
    let (mut plain, mut traced, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_spans = (String::new(), String::new());
    while traced.len() < MIN_TRACED_PASSES || next_pass_fits(start, traced.len(), args.seconds) {
        let seed = seeds[traced.len() % seeds.len()];
        plain.push(args.workload.pass(seed, &Recorder::shared(name, false), true));
        let rec = Recorder::shared(name, true);
        let pass = args.workload.pass(seed, &rec, true);
        let mut r = rec.borrow_mut();
        let shapes = std::mem::take(&mut r.shapes);
        let replay = pass.node.replay(&shapes, &mut r.spans);
        layers.push(layer_metrics(&pass, &r, replay));
        last_spans = (r.spans.to_csv(&["engine.", "replay."]), r.spans.summary_csv());
        drop(r);
        traced.push(pass);
    }
    let cpu = |passes: &[Pass]| median(&passes.iter().map(Pass::cpu_s).collect::<Vec<_>>());
    let span_overhead = cpu(&traced) / cpu(&plain) - 1.0;
    // Pass 2i is untraced and 2i + 1 traced, both on input i % inputs.
    let paired: Vec<Pass> = plain.into_iter().zip(traced).flat_map(|(p, t)| [p, t]).collect();
    let mut tally = Tally::default();
    for pair in paired.chunks(2) {
        tally.absorb(check_repeats(pair, |_| 0));
    }
    let mut metrics: Vec<Metric> = (0..layers[0].len())
        .map(|i| Metric {
            value: median(&layers.iter().map(|l| l[i].value).collect::<Vec<_>>()),
            ..layers[0][i].clone()
        })
        .collect();
    metrics.push(Metric { name: "bench.span_overhead", unit: "frac", value: span_overhead });
    if let Err(e) = write_spans(name, &last_spans.0, &last_spans.1) {
        tally.fail_all(format!("writing spans: {e}"));
    }
    (tally, metrics)
}

/// The per-layer metrics of one traced pass.
fn layer_metrics(pass: &Pass, rec: &Recorder, replay: workloads::Replay) -> Vec<Metric> {
    let spans = &rec.spans;
    let sim = rec.sim_total();
    let engine_s = spans.total_prefixed_s("engine.");
    let serving_self_s: f64 = SERVE_SPANS.iter().map(|s| spans.self_s(s)).sum();
    let b = &pass.counters.batching;
    let prefix = &pass.counters.prefix;
    let replicas = &pass.counters.replica_completions;
    let mean = replicas.iter().sum::<u64>() as f64 / replicas.len().max(1) as f64;
    let max = replicas.iter().copied().max().unwrap_or(0) as f64;
    let trace = pass.counters.trace.unwrap_or_default();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("core.engine_s", "s", engine_s),
        m("core.engine_calls", "count", rec.calls as f64),
        m("core.rounds", "count", sim.rounds as f64),
        m("core.ns_per_round", "ns", ratio(engine_s * 1e9, sim.rounds as f64)),
        m("core.plan_s", "s", spans.total_s("replay.plan_round")),
        m("core.plan_rounds", "count", replay.rounds as f64),
        m(
            "model.assemble_ns_per_op",
            "ns",
            ratio(spans.total_s("replay.assemble") * 1e9, replay.ops as f64),
        ),
        m("serving.self_s", "s", serving_self_s),
        m("gpu_sim.events", "count", sim.events as f64),
        m("gpu_sim.kernels", "count", sim.kernels as f64),
        m("serving.ns_per_event", "ns", ratio(serving_self_s * 1e9, sim.events as f64)),
        m("gpu_sim.overlap_frac", "frac", sim.overlap_frac()),
        m("gpu_sim.compute_util", "frac", sim.compute_util()),
        m("kvcache.preemptions", "count", b.preemptions as f64),
        m("kvcache.evicted_blocks", "count", b.evicted_blocks as f64),
        m("kvcache.out_of_blocks", "count", b.out_of_blocks as f64),
        m("serving.batch_occupancy", "frac", b.avg_occupancy()),
        m("kvcache.prefix_hit_rate", "frac", ratio(prefix.hits as f64, prefix.lookups as f64)),
        m("kvcache.cached_token_frac", "frac", prefix.cached_fraction()),
        m("cluster.replica_skew", "ratio", ratio(max, mean)),
        m("cluster.rerouted", "count", pass.counters.rerouted as f64),
        m("trace.mb", "MB", trace.bytes as f64 / 1e6),
        m("trace.events", "count", trace.events as f64),
        m("trace.capture_overhead", "frac", trace.capture_overhead()),
        m(
            "trace.export_s_per_mb",
            "s/MB",
            per_mb(spans.total_s("trace.to_chrome_json"), trace.bytes),
        ),
        m(
            "json.parse_s_per_mb",
            "s/MB",
            per_mb(spans.total_s("json.parse_chrome_json"), trace.bytes),
        ),
        m(
            "analysis.sanitize_s_per_mb",
            "s/MB",
            per_mb(spans.total_s("analysis.sanitize_parsed"), trace.bytes),
        ),
        m("analysis.diagnostics", "count", trace.diagnostics as f64),
    ]
}

/// Writes the spans and their per-name summary next to the benchmark's
/// sources, in `out/`.
fn write_spans(workload: &str, spans: &str, summary: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("spans-{workload}.csv")), spans)?;
    std::fs::write(dir.join(format!("spans-{workload}-summary.csv")), summary)
}

/// Peak resident set (VmHWM) of this process in MB (2^20 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git repository.
fn git_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(std::fs::read_to_string(git.join(r)).ok()?.trim().to_string()),
        None => Some(head.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload prefix_cluster --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args { workload: Workload::PrefixCluster, seed: 7, seconds: 10, trace: true }
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper_prefill --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload paper_prefill --seed 1 --seconds 1").is_err());
        assert!(args("--seed").is_err());
    }

    fn test_pass(results: Vec<GenerationResult>) -> Pass {
        Pass {
            setup_s: vec![0.0],
            segments_s: vec![1.0],
            results,
            tally: Tally::default(),
            digest: 0,
            node: workloads::Node::v100(liger_model::ModelConfig::tiny_test(), 2),
            counters: workloads::Counters::default(),
        }
    }

    #[test]
    fn each_stretch_is_taken_at_its_fastest() {
        let pass = |segments_s: Vec<f64>| Pass { segments_s, ..test_pass(Vec::new()) };
        // Inputs of 100 and 300 events; the first input ran twice, with its
        // two stretches fastest in different passes.
        let passes = [pass(vec![0.2, 0.5]), pass(vec![1.0]), pass(vec![0.4, 0.3])];
        let s = host_cpu_s(&passes, &[100, 300, 100], 2);
        assert!((s - 0.5 * 2.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn every_emitted_name_and_unit_is_valid() {
        let results: Vec<_> = (0..1000u64)
            .map(|i| liger_serving::GenerationResult {
                id: i,
                arrival: liger_gpu_sim::SimTime::from_micros(i),
                first_token: liger_gpu_sim::SimTime::from_micros(i + 5),
                finished: liger_gpu_sim::SimTime::from_micros(i + 9),
                tokens: 3,
                batch: 1,
            })
            .collect();
        let mut tally = Tally::new(1000);
        let sim = sim_metrics(&[&results], &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        let pass = Pass { tally, ..test_pass(results) };
        let rec = Recorder::shared("t", true);
        let layers = layer_metrics(&pass, &rec.borrow(), workloads::Replay::default());
        let names: Vec<&str> =
            sim.iter().map(|(n, _)| *n).chain(layers.iter().map(|m| m.name)).collect();
        assert!(names.iter().all(|n| report::valid_name(n)), "{names:?}");
        assert!(layers.iter().all(|m| report::valid_unit(m.unit)));
    }
}
