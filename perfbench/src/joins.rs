//! The join workloads.
//!
//! `join_file`: each op loads both persisted R\*-insert trees with
//! `PagedTree::load_from` and joins them with `try_run_join` (refined, no
//! page budget), exactly as `psj join` does; the op spans the open of the
//! files to the final pair vector.
//!
//! `join_paged`: the same trees, loaded once during set-up. Each op joins
//! them through one fresh global `SharedPageCache` whose budget is 1.8% of
//! the trees' pages (256 of 14,080 at scale 1.0), via
//! `try_run_native_join_with_cache`; the op is that call.

use crate::check;
use crate::input::{Maps, Relation};
use crate::report::{self, Outcome, Timed};
use crate::spans::{Spans, MAIN};
use crate::{nproc, Params, Workload};
use psj_buffer::SharedPageCache;
use psj_core::{
    join_refined, try_run_join, try_run_native_join_with_cache, BufferConfig, NativeConfig,
    NativeResult, RunControl,
};
use psj_rtree::{Node, PagedTree, RTree};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Attribute bytes stored per object, as `psj build` stores by default.
pub const ATTR_BYTES: u64 = 1365;

/// Page budget of the `join_paged` cache for trees of `pages` pages in
/// total: the share 256 / 14,080 of scale 1.0, rounded up.
pub fn paged_budget(pages: usize) -> usize {
    (pages * 256).div_ceil(14_080)
}

/// Builds a relation's R\*-tree by repeated insertion and freezes it with
/// its geometry, as `psj build` does.
pub fn build_rstar(rel: &Relation) -> PagedTree {
    let mut tree = RTree::new();
    for &(mbr, oid) in &rel.items {
        tree.insert(mbr, oid);
    }
    PagedTree::freeze_with_attrs(&tree, |oid| rel.geoms.get(&oid).cloned(), ATTR_BYTES)
}

/// The join configuration of every op: `nproc` threads, refinement on,
/// the shipped defaults otherwise.
pub fn join_config() -> NativeConfig {
    NativeConfig::new(nproc())
}

/// A fresh global cache of `budget` pages, organised as `psj join --cache`
/// organises it.
pub fn fresh_cache(budget: usize) -> SharedPageCache<Node> {
    let b = BufferConfig::global(budget);
    SharedPageCache::new(nproc(), b.capacity_pages, b.shards, b.policy)
}

/// The state one set-up leaves behind.
pub struct JoinSetup {
    /// Tree files of map 1 and map 2.
    pub paths: [PathBuf; 2],
    /// The trees in memory: as frozen (`join_file`, used for the oracle
    /// only) or as loaded from the files (`join_paged`).
    pub trees: [PagedTree; 2],
    /// Time spent building and freezing both trees.
    pub build: Duration,
}

/// One complete set-up: build, freeze and save both trees; `join_paged`
/// also loads them back.
pub fn setup(
    workload: Workload,
    maps: &Maps,
    dir: &Path,
    spans: &Spans,
) -> Result<JoinSetup, String> {
    let t0 = Instant::now();
    let a = spans.span(MAIN, "setup.rtree.build", 0, || build_rstar(&maps.a));
    let b = spans.span(MAIN, "setup.rtree.build", 0, || build_rstar(&maps.b));
    let build = t0.elapsed();
    let paths = [dir.join("map1.psjt"), dir.join("map2.psjt")];
    for (tree, path) in [(&a, &paths[0]), (&b, &paths[1])] {
        spans
            .span(MAIN, "setup.rtree.save_to", 0, || tree.save_to(path))
            .map_err(|e| format!("save {}: {e}", path.display()))?;
    }
    let trees = if workload == Workload::JoinPaged {
        [load(&paths[0], spans, 0)?, load(&paths[1], spans, 0)?]
    } else {
        [a, b]
    };
    Ok(JoinSetup {
        paths,
        trees,
        build,
    })
}

fn load(path: &Path, spans: &Spans, op: u64) -> Result<PagedTree, String> {
    spans
        .span(MAIN, "rtree.load_from", op, || PagedTree::load_from(path))
        .map_err(|e| format!("load {}: {e}", path.display()))
}

/// One op of `workload`, its wall time, and its result.
fn op(
    workload: Workload,
    s: &JoinSetup,
    budget: usize,
    spans: &Spans,
    id: u64,
) -> (Duration, Result<NativeResult, String>) {
    let cfg = join_config();
    let ctl = RunControl::default();
    match workload {
        Workload::JoinFile => {
            let t0 = Instant::now();
            let res = spans.span(MAIN, "op.join_file", id, || {
                let a = load(&s.paths[0], spans, id)?;
                let b = load(&s.paths[1], spans, id)?;
                spans
                    .span(MAIN, "core.try_run_join", id, || {
                        try_run_join(&a, &b, &cfg, &ctl)
                    })
                    .map_err(|e| e.to_string())
            });
            (t0.elapsed(), res)
        }
        _ => {
            let cache = fresh_cache(budget);
            let t0 = Instant::now();
            let res = spans.span(MAIN, "op.join_paged", id, || {
                try_run_native_join_with_cache(&s.trees[0], &s.trees[1], &cfg, &cache, &ctl)
                    .map_err(|e| e.to_string())
            });
            (t0.elapsed(), res)
        }
    }
}

/// Ops of one closed loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Each successful op, untraced.
    pub plain: Vec<Timed>,
    /// Each successful op run with spans (traced runs only).
    pub traced: Vec<Timed>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or returned a wrong answer.
    pub failed: u64,
    /// The first failure, for the run's output.
    pub first_failure: Option<String>,
}

/// Runs the closed loop: one caller, op after op, for `seconds` and at
/// least `min_ops` successful ops. With spans on, every other op is
/// traced, so both kinds sample the same stretch of time.
pub fn run_loop(
    workload: Workload,
    s: &JoinSetup,
    oracle: &[(u64, u64)],
    seconds: Duration,
    min_ops: usize,
    spans: &Spans,
) -> LoopStats {
    let budget = paged_budget(s.trees[0].num_pages() + s.trees[1].num_pages());
    let mut st = LoopStats::default();
    let start = Instant::now();
    // A hard cap keeps a slow host from running past the time limit.
    while (start.elapsed() < seconds || st.plain.len() + st.traced.len() < min_ops)
        && start.elapsed() < seconds * 4
    {
        st.attempted += 1;
        let traced = spans.enabled() && st.attempted % 2 == 0;
        let (took, res) = op(workload, s, budget, &spans.only_if(traced), st.attempted);
        match res {
            Ok(r) if check::join_ok(&r.pairs, oracle) => {
                let done = start.elapsed();
                if traced {
                    st.traced.push(Timed { done, took })
                } else {
                    st.plain.push(Timed { done, took })
                }
            }
            other => {
                st.failed += 1;
                if st.first_failure.is_none() {
                    st.first_failure = Some(match other {
                        Ok(r) => format!(
                            "op {}: {} pairs differ from the oracle's {}",
                            st.attempted,
                            r.pairs.len(),
                            oracle.len()
                        ),
                        Err(e) => format!("op {}: {e}", st.attempted),
                    });
                }
            }
        }
    }
    st
}

/// An untraced run of a join workload: `setup_reps` set-ups, the oracle,
/// then the measured loop.
pub fn run(params: &Params, maps: &Maps) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(params.setup_reps);
    let mut last = None;
    for _ in 0..params.setup_reps {
        drop(last.take());
        let t0 = Instant::now();
        let s = setup(params.workload, maps, &params.work_dir, &Spans::off())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    let s = last.ok_or("no set-up ran")?;
    let oracle = join_refined(&s.trees[0], &s.trees[1]);
    let st = run_loop(
        params.workload,
        &s,
        &oracle,
        params.seconds,
        params.min_ops,
        &Spans::off(),
    );
    if st.plain.is_empty() {
        return Err(format!("no join succeeded: {:?}", st.first_failure));
    }
    let took: Vec<Duration> = st.plain.iter().map(|o| o.took).collect();
    let ms = report::sorted_ms(&took);
    let c = report::chunked(&st.plain);
    out.attempted = st.attempted;
    out.failed = st.failed;
    out.set("setup_s", report::median(&mut setup_s));
    out.set("op_ms.p50", c.p50);
    out.set("op_ms.p75", c.p75);
    out.set("req_per_s", c.per_s);
    out.note(format!(
        "input: scale {} | {} + {} objects | {} + {} pages | oracle {} pairs{}",
        params.scale,
        maps.a.items.len(),
        maps.b.items.len(),
        s.trees[0].num_pages(),
        s.trees[1].num_pages(),
        oracle.len(),
        if params.workload == Workload::JoinPaged {
            format!(
                " | cache budget {} pages",
                paged_budget(s.trees[0].num_pages() + s.trees[1].num_pages())
            )
        } else {
            String::new()
        }
    ));
    out.note(report::latency_note("join_ms", &ms, 0.9));
    out.note(report::chunk_note(&c));
    out.note(format!(
        "fail_ratio = {} ratio ({} of {} ops)",
        st.failed as f64 / st.attempted.max(1) as f64,
        st.failed,
        st.attempted
    ));
    if let Some(f) = st.first_failure {
        out.errors.push(f);
    }
    // An empty join would make the equality check vacuous.
    if oracle.is_empty() {
        out.errors.push("the oracle join is empty".into());
    }
    Ok(out)
}
