//! End-to-end benchmark of the psj libraries.
//!
//! Four workloads, each run in its own process by `src/main.rs`, call the
//! same public library functions the `psj` CLI and the serve/cluster
//! clients call:
//!
//! * `join_file` — load two persisted R\*-trees and join them, as
//!   `psj join` does (load dominates);
//! * `join_paged` — join trees already in memory through a cold global
//!   page cache far smaller than the trees;
//! * `serve_mix` — a closed loop of window and 10-NN requests against an
//!   in-process `psj_serve::Server`;
//! * `cluster_mix` — the same stream through a `psj_cluster::Router` over
//!   two x-slab shards.
//!
//! Inputs come from the seeded `psj-datagen` scenario; every answer is
//! checked against an oracle (the sequential join, or the direct in-process
//! query). A traced run (`--trace 1`) times every layer from outside, by
//! wrapping calls into each crate's public functions (see `layers`).

pub mod check;
pub mod host;
pub mod input;
pub mod joins;
pub mod layers;
pub mod report;
pub mod serving;
pub mod spans;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Load both trees from their files, then join (refined, unbuffered).
    JoinFile,
    /// Join in-memory trees through a fresh, small global page cache.
    JoinPaged,
    /// Window/10-NN closed loop against one server.
    ServeMix,
    /// The same closed loop through a router over two shards.
    ClusterMix,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::JoinFile,
        Workload::JoinPaged,
        Workload::ServeMix,
        Workload::ClusterMix,
    ];

    /// The workloads `BENCHMARK.json` gates, in its order. `join_paged`
    /// and `cluster_mix` run and are checked like the others, but on the
    /// shared two-vCPU development host their rate and p75 moved by up to
    /// 0.22 (`join_paged`) and 0.15 (`cluster_mix`) of their median across
    /// ten seeds, against a bound of 0.25. Their layers, the page cache
    /// and the router, are still measured in every traced run.
    pub const GATED: [Workload; 2] = [Workload::JoinFile, Workload::ServeMix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinFile => "join_file",
            Workload::JoinPaged => "join_paged",
            Workload::ServeMix => "serve_mix",
            Workload::ClusterMix => "cluster_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input scale (1.0 = the paper's Table 1 size). The join workloads
    /// build R\*-trees by repeated insertion five times per run, about
    /// 12 s a time at scale 1.0, so they run smaller: `join_paged` at a
    /// quarter, and `join_file`, whose op is mostly load, at 0.06, so
    /// that one run of 15 s holds [`report::CHUNKS`] × 100 of its ops. Serving
    /// builds STR-packed trees and keeps the paper's size.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::JoinFile => 0.06,
            Workload::JoinPaged => 0.25,
            Workload::ServeMix | Workload::ClusterMix => 1.0,
        }
    }
}

/// How one run is sized.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same maps and query stream.
    pub seed: u64,
    /// Measurement time of the closed loop.
    pub seconds: Duration,
    /// Input scale (see [`Workload::default_scale`]).
    pub scale: f64,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Fewest successful ops the loop collects before it stops, so every
    /// chunk has 100 ops and a whole run's p90 has 50 beyond it.
    pub min_ops: usize,
    /// Where the run writes tree files and its trace.
    pub work_dir: PathBuf,
}

impl Params {
    /// The shipped sizing of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: Duration, work_dir: &Path) -> Params {
        Params {
            workload,
            seed,
            seconds,
            scale: workload.default_scale(),
            setup_reps: 5,
            min_ops: report::CHUNKS * 100,
            work_dir: work_dir.to_path_buf(),
        }
    }
}

/// Worker threads, server workers and client connections: `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
