//! `liger-sim` — command-line serving simulator.
//!
//! The Rust analog of the paper artifact's configurable `main.cu`: pick a
//! model, node, engine, arrival rate and workload, and get the serving
//! metrics. Runs entirely on the simulator; no GPU required.
//!
//! ```sh
//! liger-sim --model opt-30b --node v100 --engine liger --rate 20 --requests 500
//! liger-sim --model glm-130b --node a100 --engine all --rate 6 --batch 4
//! liger-sim --model opt-66b --node a100 --engine liger --decode --rate 30
//! ```

use liger::prelude::*;

struct Args {
    model: ModelConfig,
    node: &'static str,
    engines: Vec<&'static str>,
    world: usize,
    rate: f64,
    requests: usize,
    batch: u32,
    decode: bool,
    division: u32,
    slots: usize,
    adaptive: bool,
    seed: u64,
    slo_ms: Option<u64>,
}

fn arg(name: &str) -> Option<String> {
    let mut it = std::env::args();
    while let Some(a) = it.next() {
        if a == format!("--{name}") {
            return it.next();
        }
    }
    None
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

fn usage() -> ! {
    eprintln!(
        "liger-sim: simulate distributed LLM serving (Liger, PPoPP'24 reproduction)

USAGE:
  liger-sim [OPTIONS]

OPTIONS:
  --model <opt-30b|opt-66b|glm-130b|tiny>   model to serve        [opt-30b]
  --node <v100|a100>                        testbed               [v100]
  --engine <liger|intra|inter|inter-th|all> engine(s) to run      [liger]
  --world <N>                               devices / TP degree   [4]
  --rate <req/s>                            arrival rate          [20]
  --requests <N>                            jobs to serve         [500]
  --batch <N>                               batch size per job    [2]
  --decode                                  decode workload (batch 32, ctx 16)
  --division <F>                            decomposition factor  [8]
  --slots <N>                               processing-list size  [4]
  --adaptive                                adaptive contention factor
  --seed <N>                                trace seed            [42]
  --slo <ms>                                report SLO attainment/goodput
  --help                                    this text"
    );
    std::process::exit(2)
}

fn parse() -> Args {
    if flag("help") {
        usage();
    }
    let model = match arg("model").as_deref().unwrap_or("opt-30b") {
        "opt-30b" => ModelConfig::opt_30b(),
        "opt-66b" => ModelConfig::opt_66b(),
        "glm-130b" => ModelConfig::glm_130b(),
        "tiny" => ModelConfig::tiny_test(),
        other => {
            eprintln!("unknown model {other:?}");
            usage()
        }
    };
    let node = match arg("node").as_deref().unwrap_or("v100") {
        "v100" => "v100",
        "a100" => "a100",
        other => {
            eprintln!("unknown node {other:?}");
            usage()
        }
    };
    let engines: Vec<&'static str> = match arg("engine").as_deref().unwrap_or("liger") {
        "liger" => vec!["liger"],
        "intra" => vec!["intra"],
        "inter" => vec!["inter"],
        "inter-th" => vec!["inter-th"],
        "all" => vec!["liger", "intra", "inter", "inter-th"],
        other => {
            eprintln!("unknown engine {other:?}");
            usage()
        }
    };
    let rate: f64 = parse_num("rate").unwrap_or(20.0);
    if !(rate.is_finite() && rate > 0.0) {
        eprintln!("--rate must be a positive, finite number of requests per second");
        usage()
    }
    Args {
        model,
        node,
        engines,
        world: parse_num("world").unwrap_or(4usize).max(1),
        rate,
        requests: parse_num("requests").unwrap_or(500),
        batch: parse_num("batch").unwrap_or(2),
        decode: flag("decode"),
        division: parse_num("division").unwrap_or(8),
        slots: parse_num("slots").unwrap_or(4),
        adaptive: flag("adaptive"),
        seed: parse_num("seed").unwrap_or(42),
        slo_ms: parse_num("slo"),
    }
}

/// Parses `--name`'s value as a `T`; exits with the usage text when it does
/// not parse. Integer flags parse as integers, so a seed above 2^53 keeps
/// every bit and `--requests 2.5` is an error rather than a truncation.
fn parse_num<T: std::str::FromStr>(name: &str) -> Option<T> {
    arg(name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid --{name} {v:?}");
            usage()
        })
    })
}

fn main() {
    let args = parse();
    let (device, cost) = match args.node {
        "v100" => (DeviceSpec::v100_16gb(), CostModel::v100_node()),
        _ => (DeviceSpec::a100_80gb(), CostModel::a100_node()),
    };
    let trace: Vec<Request> = if args.decode {
        DecodeTraceConfig {
            count: args.requests,
            batch: 32,
            context: 16,
            arrivals: ArrivalProcess::Constant { rate: args.rate },
        }
        .generate()
    } else {
        PrefillTraceConfig::paper(args.requests, args.batch, args.rate, args.seed).generate()
    };

    // Deployment pre-check: refuse models whose weight shards cannot fit
    // the node before spinning up a simulation that would panic mid-run.
    let shard = args.model.weight_bytes() / args.world as u64;
    if shard > device.mem_capacity {
        eprintln!(
            "error: {} needs {:.0} GB of weights per device at {}-way partitioning, but {} has {:.0} GB",
            args.model.name,
            shard as f64 / 1e9,
            args.world,
            device.name,
            device.mem_capacity as f64 / 1e9
        );
        std::process::exit(1);
    }

    println!(
        "serving {} on {} x{} | {} jobs at {:.1} req/s | workload: {}",
        args.model.name,
        device.name,
        args.world,
        args.requests,
        args.rate,
        if args.decode {
            "decode (batch 32, ctx 16)".to_string()
        } else {
            format!("prefill batch {} seq 16-128", args.batch)
        }
    );

    for engine_name in &args.engines {
        let mut sim = {
            let mut b = Simulation::builder().devices(device.clone(), args.world);
            for r in 0..args.world {
                b = b.host(liger::sim::HostSpec::mpi_rank(r));
            }
            b.build().expect("valid node")
        };
        let metrics = match *engine_name {
            "liger" => {
                let factor = profile_contention(&device, &NcclConfig::liger_tuned()).factor();
                let config = LigerConfig {
                    division_factor: args.division,
                    processing_slots: args.slots,
                    adaptive_factor: args.adaptive,
                    ..LigerConfig::default().with_contention_factor(factor)
                };
                let mut e =
                    match LigerEngine::new(args.model.clone(), cost.clone(), args.world, config) {
                        Ok(e) => e,
                        Err(err) => {
                            eprintln!("cannot build Liger engine: {err}");
                            std::process::exit(1);
                        }
                    };
                serve(&mut sim, &mut e, trace.clone())
            }
            "intra" => {
                let mut e = IntraOpEngine::new(args.model.clone(), cost.clone(), args.world)
                    .unwrap_or_else(|e| {
                        eprintln!("cannot build Intra-Op engine: {e}");
                        std::process::exit(1);
                    });
                serve(&mut sim, &mut e, trace.clone())
            }
            flavor @ ("inter" | "inter-th") => {
                let pf = if flavor == "inter" {
                    PipelineFlavor::Measured
                } else {
                    PipelineFlavor::Theoretical
                };
                let mut e = InterOpEngine::new(args.model.clone(), cost.clone(), args.world, pf)
                    .unwrap_or_else(|e| {
                        eprintln!("cannot build pipeline engine: {e}");
                        std::process::exit(1);
                    });
                serve(&mut sim, &mut e, trace.clone())
            }
            _ => unreachable!(),
        };
        print!(
            "  {:<9} served {:>5} | avg {:>10} | p50 {:>10} | p99 {:>10} | {:>7.1} req/s",
            engine_name,
            metrics.completed(),
            metrics.avg_latency().to_string(),
            metrics.latency_percentile(50.0).to_string(),
            metrics.latency_percentile(99.0).to_string(),
            metrics.throughput(),
        );
        if let Some(slo) = args.slo_ms {
            let d = liger::sim::SimDuration::from_millis(slo);
            print!(
                " | SLO({slo}ms): {:.1}% attained, goodput {:.1}/s",
                metrics.slo_attainment(d) * 100.0,
                metrics.goodput(d)
            );
        }
        println!();
    }
}
