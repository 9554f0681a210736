//! The host clock that times passes and set-ups: CPU seconds consumed by
//! this process.
//!
//! Every workload runs on one thread, so the process's CPU time is the
//! program's host time less any time the scheduler kept it off a core,
//! which a run should not be charged for. It does not remove slowdowns
//! from other tenants sharing the core's caches; `host_cpu_s` in
//! `main.rs` deals with those. Spans keep wall time (see `spans.rs`):
//! reading this clock costs a system call, too much for millions of engine
//! calls.

/// CPU seconds this process has used so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall seconds since the first call, where no process CPU clock is bound.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(std::time::Instant::now).elapsed().as_secs_f64()
}

/// A stopwatch on [`cpu_seconds`].
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    /// Starts the stopwatch.
    pub fn start() -> CpuTimer {
        CpuTimer(cpu_seconds())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn elapsed_s(self) -> f64 {
        cpu_seconds() - self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_never_runs_backwards() {
        let t = CpuTimer::start();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let spent = t.elapsed_s();
        assert!(spent > 0.0, "{spent} after {x}");
        assert!(t.elapsed_s() >= spent);
    }
}
