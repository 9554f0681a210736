//! Deterministic footprint gate for the simulator's hot path.
//!
//! Serves the paper's prefill trace with OPT-30B Liger on 4×V100 (hybrid
//! synchronisation, profiled contention factor, division factor 8, no trace
//! capture) under a counting global allocator, and bounds two figures that
//! depend only on the code, never on the host:
//!
//! - heap allocations made during `serve`, per kernel launched;
//! - bytes still allocated when `serve` returns (relative to before it
//!   started), per request.
//!
//! The allocator is process-wide, so this file is its own test binary with
//! a single test; only allocations made on the test's own thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use liger::prelude::*;

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ON.try_with(|on| {
        if on.get() {
            ALLOCS.with(|a| a.set(a.get() + allocs));
            LIVE.with(|l| l.set(l.get() + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are what callers get. The bookkeeping only touches
// const-initialised thread-locals without destructors, so it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests served: small enough for a debug build, large enough that
/// per-request growth dominates fixed start-up costs.
const REQUESTS: usize = 100;

#[test]
fn serving_state_stays_proportional_to_live_work() {
    let factor = profile_contention(&DeviceSpec::v100_16gb(), &NcclConfig::liger_tuned()).factor();
    let config = LigerConfig::default()
        .with_sync_mode(SyncMode::Hybrid)
        .with_contention_factor(factor)
        .with_division_factor(8);
    let mut engine =
        LigerEngine::new(ModelConfig::opt_30b(), CostModel::v100_node(), 4, config).unwrap();
    let mut builder =
        Simulation::builder().devices(DeviceSpec::v100_16gb(), 4).capture_trace(false);
    for rank in 0..4 {
        builder = builder.host(HostSpec::mpi_rank(rank));
    }
    let mut sim = builder.build().unwrap();
    let requests = PrefillTraceConfig::paper(REQUESTS, 2, 20.0, 1).generate();

    ON.with(|on| on.set(true));
    let metrics = serve(&mut sim, &mut engine, requests);
    ON.with(|on| on.set(false));
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));

    assert_eq!(metrics.completed(), REQUESTS, "every request is served");
    let kernels = sim.kernels_launched();
    assert!(kernels > 1000 && allocs > 0, "the workload ran under the counter");
    let per_kernel = allocs as f64 / kernels as f64;
    let retained_per_request = live as f64 / REQUESTS as f64;
    println!(
        "{kernels} kernels, {allocs} allocations ({per_kernel:.2}/kernel), \
         {live} bytes retained ({:.1} KB/request)",
        retained_per_request / 1024.0
    );
    assert!(per_kernel <= 1.0, "{per_kernel:.2} heap allocations per kernel launched (max 1.0)");
    assert!(
        retained_per_request <= 32.0 * 1024.0,
        "{:.1} KB retained per request after serve (max 32 KB)",
        retained_per_request / 1024.0
    );
}
