//! Scheduler stress battery for the morsel scheduler both join engines
//! share.
//!
//! Every test pins the executor's output *byte for byte* (Vec equality,
//! not set equality): the deterministic merge of worker-local morsel
//! outputs must make thread count, assignment, steal policy, and steal
//! interleaving invisible in the output. The R-tree engine must equal the
//! sequential oracle; the partition engine, whose cell order differs from
//! the oracle's plane-sweep order, must equal its own single-threaded
//! dynamic run and the oracle after sorting. On top of that, each run's
//! `TaskTrace` ledger must account for every morsel exactly once and
//! reconcile the steal counter with per-morsel origins.

use psj_core::{
    join_candidates, try_run_join, Assignment, CancelToken, JoinEngine, NativeConfig, NativeError,
    NativeResult, RunControl, StealPolicy, TaskOrigin,
};
use psj_desim::splitmix64;
use psj_integration::harness::JoinScenario;
use std::time::{Duration, Instant};

/// Invariants every completed run must satisfy, regardless of schedule:
/// morsels executed exactly once (no losses, no duplicates), the morsel
/// task counts cover at least every phase-1 task, and the steal counter
/// equals the number of morsels whose trace records a steal origin.
fn assert_ledger(res: &NativeResult, ctx: &str) {
    let mut ids: Vec<u32> = res.task_traces.iter().map(|t| t.morsel).collect();
    ids.sort_unstable();
    let want: Vec<u32> = (0..res.morsels as u32).collect();
    assert_eq!(ids, want, "{ctx}: morsels lost or executed twice");

    let covered: u64 = res.task_traces.iter().map(|t| u64::from(t.tasks)).sum();
    assert!(
        covered as usize >= res.tasks,
        "{ctx}: morsel task counts ({covered}) do not cover phase 1 ({})",
        res.tasks
    );

    let stolen = res
        .task_traces
        .iter()
        .filter(|t| t.origin == TaskOrigin::Steal)
        .count() as u64;
    assert_eq!(
        res.steals, stolen,
        "{ctx}: steal counter disagrees with trace origins"
    );
}

fn run(scenario: &JoinScenario, cfg: &NativeConfig) -> NativeResult {
    try_run_join(&scenario.a, &scenario.b, cfg, &RunControl::default())
        .expect("uncancelled run completes")
}

fn sorted(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    pairs
}

/// The byte sequence `engine` must reproduce on every schedule: the oracle
/// for the R-tree engine, the single-threaded dynamic run for the
/// partition engine (checked sorted-equal to the oracle here).
fn reference(
    scenario: &JoinScenario,
    engine: JoinEngine,
    oracle: &[(u64, u64)],
) -> Vec<(u64, u64)> {
    if engine == JoinEngine::RTree {
        return oracle.to_vec();
    }
    let mut cfg = NativeConfig::new(1);
    cfg.engine = engine;
    cfg.refine = false;
    let want = run(scenario, &cfg).pairs;
    assert_eq!(
        sorted(want.clone()),
        sorted(oracle.to_vec()),
        "{engine:?}: diverged from oracle"
    );
    want
}

/// Engine × threads × assignment × workload: the full matrix must be
/// byte-identical to each engine's reference with a clean morsel ledger.
/// Covers both a roughly uniform workload and a clustered one whose skew
/// forces uneven morsel costs.
#[test]
fn stress_matrix_is_byte_identical_with_exact_morsel_accounting() {
    let workloads = [
        JoinScenario::paper_maps("stress-uniform", 29, 0.015),
        JoinScenario::clustered("stress-skewed", 31, 1200),
    ];
    for scenario in &workloads {
        let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
        assert!(!oracle.is_empty(), "degenerate workload");
        for engine in [JoinEngine::RTree, JoinEngine::Partition] {
            let want = reference(scenario, engine, &oracle);
            for assignment in [
                Assignment::Dynamic,
                Assignment::StaticRange,
                Assignment::StaticRoundRobin,
            ] {
                for threads in [1, 2, 4, 8] {
                    let mut cfg = NativeConfig::new(threads);
                    cfg.assignment = assignment;
                    cfg.engine = engine;
                    cfg.refine = false;
                    let res = run(scenario, &cfg);
                    let ctx = format!("{engine:?} {assignment:?} t={threads}");
                    assert_eq!(res.engine, engine, "{ctx}: engine tag");
                    assert_eq!(res.pairs, want, "{ctx}: output diverged from reference");
                    assert_ledger(&res, &ctx);
                }
            }
        }
    }
}

/// Seeded randomized sweep over the whole configuration space: thread
/// count, assignment, steal policy, morsel budget, and phase-1 granularity
/// all derived from a deterministic stream. Every draw must reproduce the
/// oracle byte for byte with a clean ledger.
#[test]
fn randomized_configurations_never_change_the_output() {
    let scenario = JoinScenario::paper_maps("stress-random", 37, 0.015);
    let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
    let assignments = [
        Assignment::Dynamic,
        Assignment::StaticRange,
        Assignment::StaticRoundRobin,
    ];
    let policies = [
        StealPolicy::Busiest,
        StealPolicy::RoundRobin,
        StealPolicy::Seeded,
    ];
    for round in 0..24u64 {
        let draw = |salt: u64| splitmix64(round ^ (salt << 32));
        let threads = [1, 2, 4, 8][(draw(1) % 4) as usize];
        let mut cfg = NativeConfig::new(threads);
        cfg.assignment = assignments[(draw(2) % 3) as usize];
        cfg.steal = policies[(draw(3) % 3) as usize];
        cfg.steal_seed = draw(4);
        cfg.morsel_candidates = [0, 16, 64, 256][(draw(5) % 4) as usize];
        cfg.min_tasks_factor = [1, 4, 16][(draw(6) % 3) as usize];
        cfg.refine = false;
        let res = run(&scenario, &cfg);
        let ctx = format!(
            "round {round}: t={threads} {:?} {} budget={} mtf={}",
            cfg.assignment,
            cfg.steal.short(),
            cfg.morsel_candidates,
            cfg.min_tasks_factor
        );
        assert_eq!(res.pairs, oracle, "{ctx}: output diverged from oracle");
        assert_ledger(&res, &ctx);
    }
}

/// Satellite 4 — merge determinism under adversarial steal interleavings:
/// the seeded `StealOrder` shim perturbs victim selection per seed, and a
/// static round-robin deal at 4 threads forces the steal path. Every seed
/// must yield the identical byte sequence.
#[test]
fn seeded_steal_interleavings_preserve_byte_identical_output() {
    let scenario = JoinScenario::clustered("stress-seeded", 41, 1500);
    let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
    let mut any_steals = 0u64;
    for seed in 0..12u64 {
        let mut cfg = NativeConfig::new(4);
        cfg.assignment = Assignment::StaticRoundRobin;
        cfg.steal = StealPolicy::Seeded;
        cfg.steal_seed = splitmix64(seed);
        cfg.refine = false;
        let res = run(&scenario, &cfg);
        assert_eq!(res.pairs, oracle, "seed {seed}: output diverged");
        assert_ledger(&res, &format!("seed {seed}"));
        any_steals += res.steals;
    }
    assert!(
        any_steals > 0,
        "the skewed round-robin deal must force at least one steal across seeds"
    );
}

/// The refined join (exact geometry step) is byte-identical too — the
/// merge argument does not depend on refinement being off.
#[test]
fn refined_output_is_byte_identical_across_schedules() {
    let scenario = JoinScenario::paper_maps("stress-refined", 43, 0.012);
    let want = {
        let cfg = NativeConfig::new(1);
        run(&scenario, &cfg).pairs
    };
    assert!(!want.is_empty());
    for threads in [2, 8] {
        for assignment in [Assignment::Dynamic, Assignment::StaticRoundRobin] {
            let mut cfg = NativeConfig::new(threads);
            cfg.assignment = assignment;
            let res = run(&scenario, &cfg);
            assert_eq!(
                res.pairs, want,
                "refined {assignment:?} t={threads} diverged"
            );
        }
    }
}

/// Clean drain under cancellation, on both engines: a deadline placed
/// anywhere inside the run must produce either a complete result identical
/// to the engine's reference or a clean `Cancelled` error — never a hang,
/// panic, or partial output. After each cancelled attempt the same inputs
/// must still join to completion.
#[test]
fn cancellation_drains_cleanly_at_random_deadlines() {
    let scenario = JoinScenario::paper_maps("stress-cancel", 47, 0.02);
    let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
    for engine in [JoinEngine::RTree, JoinEngine::Partition] {
        let want = reference(&scenario, engine, &oracle);
        let mut cfg = NativeConfig::new(4);
        cfg.engine = engine;
        cfg.refine = false;

        // Calibrate: a full run's duration bounds the deadline draw range.
        let full = run(&scenario, &cfg);
        assert_eq!(full.pairs, want, "{engine:?}");
        let budget = full.elapsed.max(Duration::from_millis(1));

        let mut cancelled = 0u32;
        for round in 0..12u64 {
            // Deadlines spread over [0, ~budget): early draws cancel before
            // workers spawn, late draws land mid-drain.
            let frac = (splitmix64(round) % 1000) as f64 / 1000.0;
            let deadline = Instant::now() + budget.mul_f64(frac);
            let token = CancelToken::with_deadline(deadline);
            let ctl = RunControl::default().with_cancel(&token);
            let ctx = format!("{engine:?} round {round}");
            match try_run_join(&scenario.a, &scenario.b, &cfg, &ctl) {
                Ok(res) => {
                    assert_eq!(res.pairs, want, "{ctx}: completed run diverged");
                    assert_ledger(&res, &ctx);
                }
                Err(NativeError::Cancelled) => cancelled += 1,
                Err(e) => panic!("{ctx}: unexpected error {e}"),
            }
            // The executor must be reusable immediately after a cancellation.
            let again = run(&scenario, &cfg);
            assert_eq!(again.pairs, want, "{ctx}: post-cancel run diverged");
        }
        println!("{engine:?}: cancelled {cancelled}/12 attempts");
    }
}
