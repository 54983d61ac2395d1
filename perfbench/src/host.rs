//! Host facts printed next to the wall numbers: how many cores the host
//! really gives a CPU-bound thread pool, and the process's peak memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Effective parallelism from a short CPU burn.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Wall time of one thread burning a fixed amount of work.
    pub one: Duration,
    /// Wall time of `nproc` threads each burning the same amount.
    pub all: Duration,
}

impl Calibration {
    /// `nproc × one / all`: 1.0 means the threads ran one after another,
    /// `nproc` means they ran fully in parallel.
    pub fn effective(&self) -> f64 {
        self.nproc as f64 * self.one.as_secs_f64() / self.all.as_secs_f64().max(1e-9)
    }

    /// One informational line for the run's output.
    pub fn line(&self) -> String {
        format!(
            "host: nproc {} | effective parallelism {:.2} (1 thread {:.1} ms, {} threads {:.1} ms) \
             | all wall numbers below are host-bound",
            self.nproc,
            self.effective(),
            self.one.as_secs_f64() * 1e3,
            self.nproc,
            self.all.as_secs_f64() * 1e3
        )
    }
}

/// A fixed integer burn that the optimizer cannot fold.
fn burn(rounds: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x)
}

/// Burns about `budget` of CPU on one thread, then the same work on each
/// of `nproc` threads at once.
pub fn calibrate(nproc: usize, budget: Duration) -> Calibration {
    // Size the work on one thread first, so the burn lasts about `budget`.
    let mut rounds = 1u64 << 16;
    let one = loop {
        let t0 = Instant::now();
        burn(rounds);
        let dt = t0.elapsed();
        if dt >= budget / 4 {
            let t0 = Instant::now();
            burn(rounds);
            break t0.elapsed();
        }
        rounds *= 2;
    };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nproc {
            s.spawn(|| burn(rounds));
        }
    });
    Calibration {
        nproc,
        one,
        all: t0.elapsed(),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}
