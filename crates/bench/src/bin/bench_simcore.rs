//! **Simulator core benchmark** — events/second of the sequential
//! discrete-event engine on a device-parallel flood workload.
//!
//! The workload is ≥8 devices with instant hosts (no launch overhead, so
//! nothing re-enters through the global lane mid-run) and deep pre-seeded
//! queues of plain compute kernels with no collectives. It isolates event
//! dispatch and contention repricing from host and driver costs; real
//! serving workloads synchronize far more often, so this measures the
//! engine's ceiling, not a serving throughput.
//!
//! Flags:
//! - `--smoke`       tiny workload, used by CI to keep the binary working;
//! - `--devices N`   device count (default 8);
//! - `--depth N`     kernels pre-seeded per hardware queue (default 2000,
//!   smoke 50).

use std::time::Instant;

use liger_bench::{arg_flag, arg_parse, Table};
use liger_gpu_sim::prelude::*;

struct Flood {
    devices: usize,
    per_queue: usize,
}

impl Driver for Flood {
    fn start(&mut self, sim: &mut Simulation) {
        for d in 0..self.devices {
            for stream in 0..4 {
                for i in 0..self.per_queue {
                    // Durations vary per (device, stream, kernel) so
                    // completions interleave across lanes, deterministically.
                    // The name is static: building one per kernel would
                    // time the allocator inside the measured region.
                    let us = 1 + ((d * 31 + stream * 7 + i) % 97) as u64;
                    sim.launch(
                        HostId(d),
                        StreamId::new(DeviceId(d), stream),
                        KernelSpec::compute("k", SimDuration::from_micros(us)),
                    );
                }
            }
        }
    }

    fn on_wake(&mut self, _: Wake, _: &mut Simulation) {}
}

fn main() {
    let smoke = arg_flag("smoke");
    let devices: usize = arg_parse("devices", 8).max(1);
    let per_queue: usize = arg_parse("depth", if smoke { 50 } else { 2000 }).max(1);

    println!("Simulator core benchmark — {devices} devices x 4 queues x {per_queue} kernels");
    let mut builder = Simulation::builder().devices(DeviceSpec::v100_16gb(), devices);
    for _ in 0..devices {
        builder = builder.host(HostSpec::instant());
    }
    let mut sim = builder.build().expect("simulation under test builds");
    let mut driver = Flood { devices, per_queue };
    let started = Instant::now();
    let end = sim.run_to_completion(&mut driver);
    let secs = started.elapsed().as_secs_f64();
    let events = sim.events_dispatched();

    let mut t = Table::new(&["core", "events", "kernels", "sim end", "wall (s)", "events/s"]);
    t.row(&[
        "seq".to_string(),
        events.to_string(),
        sim.kernels_completed().to_string(),
        end.to_string(),
        format!("{secs:.3}"),
        format!("{:.0}", events as f64 / secs),
    ]);
    println!("{}", t.render());
}
