//! The traced run: per-layer metrics, timed from outside by wrapping calls
//! into each crate's public functions, with the benchmark's own spans
//! around every call (op 0 is set-up and this suite; loop ops count up
//! from 1, every other one traced).
//!
//! Every layer is measured on the workload's own inputs: its maps, its
//! primary trees (the R\*-trees of the join workloads, the STR trees of the
//! serving ones) and its query stream. Which end-to-end metric each layer
//! metric should move, and on which workload, is in `perfbench/README.md`.

use crate::check::{self, Expected};
use crate::input::{query_stream, Maps, Query};
use crate::joins::{self, fresh_cache, join_config, paged_budget};
use crate::report::{self, Outcome, Timed};
use crate::serving::{self, connect, send, Oracle};
use crate::spans::{Spans, MAIN};
use crate::{Params, Workload};
use psj_core::{
    create_tasks, expand_pair, join_candidates, join_refined, morselize, try_run_join,
    try_run_native_join_with_cache, CandidateEstimator, KernelScratch, MorselOptions, NativeResult,
    RunControl, TaskPair,
};
use psj_geom::sweep::{sweep_pairs_soa, SweepScratch};
use psj_geom::Rect;
use psj_rtree::{Node, PagedTree};
use psj_store::{verify_record, PageId, PAGE_RECORD_SIZE};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each timed layer call; the metric is their median.
const REPS: usize = 3;
/// Queries of the stream the suite answers directly and serves.
const SUITE_STREAM: usize = 4096;
/// Length of the suite's serve and cluster loops.
const SUITE_LOOP: Duration = Duration::from_millis(1500);
/// Requests of the sequential router-versus-shard probe.
const PROBE: usize = 300;
/// Byte offset of the first page record in a tree file (the header).
const TREE_HEADER: usize = 30;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time (ms) of `REPS` calls of `f`, and the last result.
fn timed<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = black_box(f());
        times.push(ms(t0.elapsed()));
        last = Some(r);
    }
    (report::median(&mut times), last.expect("REPS > 0"))
}

/// Median `NativeResult::elapsed` (ms) of `REPS` joins, and the last one.
fn timed_join(
    mut f: impl FnMut() -> Result<NativeResult, String>,
) -> Result<(f64, NativeResult), String> {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let r = f()?;
        times.push(ms(r.elapsed));
        last = Some(r);
    }
    Ok((report::median(&mut times), last.expect("REPS > 0")))
}

/// What the workload's own loop, traced on every other op, leaves for
/// the suite.
struct OwnLoop {
    /// Trees the suite measures the layers on.
    trees: Vec<Arc<PagedTree>>,
    /// Tree build time of the set-up.
    build: Duration,
    /// Traced ÷ untraced op p50.
    overhead: f64,
    attempted: u64,
    failed: u64,
    failure: Option<String>,
}

fn workload_loop(params: &Params, maps: &Maps, spans: &Spans) -> Result<OwnLoop, String> {
    let seconds = (params.seconds / 2).max(Duration::from_secs(1));
    let p50 = |v: &[Timed]| {
        let took: Vec<Duration> = v.iter().map(|o| o.took).collect();
        report::percentile(&report::sorted_ms(&took), 0.5)
    };
    match params.workload {
        Workload::JoinFile | Workload::JoinPaged => {
            let s = joins::setup(params.workload, maps, &params.work_dir, spans)?;
            let oracle = join_refined(&s.trees[0], &s.trees[1]);
            let st = joins::run_loop(params.workload, &s, &oracle, seconds, 2, spans);
            if st.plain.is_empty() || st.traced.is_empty() {
                return Err(format!("no join succeeded: {:?}", st.first_failure));
            }
            let overhead = p50(&st.traced) / p50(&st.plain);
            let [a, b] = s.trees;
            Ok(OwnLoop {
                trees: vec![Arc::new(a), Arc::new(b)],
                build: s.build,
                overhead,
                attempted: st.attempted,
                failed: st.failed,
                failure: st.first_failure,
            })
        }
        Workload::ServeMix | Workload::ClusterMix => {
            let stream = query_stream(maps, params.seed, serving::STREAM_LEN);
            let s = serving::setup(params.workload, maps, &stream, spans)?;
            let trees = serving::oracle_trees(&s, maps);
            let refs: Vec<&PagedTree> = trees.iter().map(|t| t.as_ref()).collect();
            let oracle = Oracle::new(&refs, maps, &stream);
            let log = serving::run_loop(s.addr, &stream, &oracle, seconds, 2, spans);
            let build = s.build;
            s.stop();
            let log = log?;
            let traced = serving::rtt_ms(&log, |x| x.traced);
            let plain = serving::rtt_ms(&log, |x| !x.traced);
            if traced.is_empty() || plain.is_empty() {
                return Err(format!("no request succeeded: {:?}", log.first_failure));
            }
            let ok = log.samples.iter().filter(|x| x.ok).count();
            Ok(OwnLoop {
                trees,
                build,
                overhead: report::percentile(&traced, 0.5) / report::percentile(&plain, 0.5),
                attempted: log.samples.len() as u64,
                failed: (log.samples.len() - ok) as u64,
                failure: log.first_failure,
            })
        }
    }
}

/// A traced run: the workload's loop, then every layer on its inputs,
/// then the trace written to `trace_file` and validated.
pub fn run(params: &Params, maps: &Maps, trace_file: &Path) -> Result<Outcome, String> {
    let spans = Spans::on(1 << 21);
    let mut out = Outcome::default();
    let w = workload_loop(params, maps, &spans)?;
    out.attempted += w.attempted;
    out.failed += w.failed;
    out.errors.extend(w.failure);
    out.set("obs.trace_overhead", w.overhead);
    out.set("rtree.build_ms", ms(w.build));

    let trees = persistence(params, &w.trees, &spans, &mut out)?;
    drop(w.trees);
    let (a, b) = (&trees[0], &trees[1]);
    core_and_geom(a, b, maps, &spans, &mut out)?;
    buffer(a, b, &spans, &mut out)?;

    let stream = query_stream(maps, params.seed, SUITE_STREAM);
    let oracle = spans.span(MAIN, "rtree.direct_queries", 0, || {
        Oracle::new(&[a, b], maps, &stream)
    });
    direct_queries(&stream, &oracle, &mut out);
    drop(trees);
    serve_and_cluster(maps, &stream, &spans, &mut out)?;

    let spans_written = spans.write_validated(trace_file)?;
    out.note(format!(
        "trace: {spans_written} spans -> {} (validated)",
        trace_file.display()
    ));
    out.note(format!(
        "checks: {} of {} ops failed",
        out.failed, out.attempted
    ));
    Ok(out)
}

/// `psj-rtree` save/load/verify and `psj-store` CRC over the files;
/// returns the trees as loaded.
fn persistence(
    params: &Params,
    trees: &[Arc<PagedTree>],
    spans: &Spans,
    out: &mut Outcome,
) -> Result<Vec<PagedTree>, String> {
    let paths = [
        params.work_dir.join("suite-map1.psjt"),
        params.work_dir.join("suite-map2.psjt"),
    ];
    let (save_ms, saved) = timed(|| {
        trees.iter().zip(&paths).try_for_each(|(t, p)| {
            spans
                .span(MAIN, "rtree.save_to", 0, || t.save_to(p))
                .map_err(|e| format!("save {}: {e}", p.display()))
        })
    });
    saved?;
    let (load_ms, loaded) = timed(|| {
        paths
            .iter()
            .map(|p| {
                spans
                    .span(MAIN, "rtree.load_from", 0, || PagedTree::load_from(p))
                    .map_err(|e| format!("load {}: {e}", p.display()))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let loaded = loaded?;
    let (verify_ms, verified) = timed(|| {
        spans.span(MAIN, "rtree.verify", 0, || {
            loaded.iter().try_for_each(|t| t.verify())
        })
    });
    verified.map_err(|e| format!("verify: {e}"))?;

    let files = paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display())))
        .collect::<Result<Vec<_>, _>>()?;
    let file_mb = files.iter().map(|f| f.len() as f64).sum::<f64>() / (1 << 20) as f64;
    let (crc_ms, crc) = timed(|| {
        spans.span(MAIN, "store.verify_record", 0, || {
            files.iter().zip(&loaded).try_for_each(|(f, t)| {
                (0..t.num_pages()).try_for_each(|i| {
                    let at = TREE_HEADER + i * PAGE_RECORD_SIZE;
                    let record = f
                        .get(at..at + PAGE_RECORD_SIZE)
                        .and_then(|r| r.try_into().ok())
                        .ok_or_else(|| format!("page record {i} past the end of the file"))?;
                    verify_record(record, PageId(i as u32), "suite").map_err(|e| e.to_string())
                })
            })
        })
    });
    crc?;
    out.set("rtree.save_ms", save_ms);
    out.set("rtree.load_ms", load_ms);
    out.set("rtree.load_mb_per_s", file_mb / (load_ms / 1e3));
    out.set("rtree.verify_ms", verify_ms);
    out.set("store.crc_ms", crc_ms);
    out.set("store.file_mb", file_mb);
    Ok(loaded)
}

/// Every node pair the join sweeps (equal levels), with its restriction
/// window, in the order the sequential join visits them.
fn node_pair_stream<'t>(a: &'t PagedTree, b: &'t PagedTree) -> Vec<(&'t Node, &'t Node, Rect)> {
    let tc = create_tasks(a, b, 1);
    let mut scratch = KernelScratch::default();
    let mut stack: Vec<TaskPair> = tc.tasks.iter().rev().copied().collect();
    let (mut children, mut cands) = (Vec::new(), Vec::new());
    let mut pairs = Vec::new();
    while let Some(p) = stack.pop() {
        let (na, nb) = (a.node(p.a), b.node(p.b));
        if p.la == p.lb {
            pairs.push((na, nb, p.window));
        }
        children.clear();
        cands.clear();
        expand_pair(na, nb, &p, &mut scratch, &mut children, &mut cands);
        stack.extend(children.drain(..).rev());
    }
    pairs
}

/// `psj-core` phases and counts, `psj-geom` sweep and refinement.
fn core_and_geom(
    a: &PagedTree,
    b: &PagedTree,
    maps: &Maps,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let ctl = RunControl::default();
    let cfg = join_config();
    let oracle = join_refined(a, b);
    let (join_ms, res) = timed_join(|| {
        spans
            .span(MAIN, "core.try_run_join", 0, || {
                try_run_join(a, b, &cfg, &ctl)
            })
            .map_err(|e| e.to_string())
    })?;
    out.attempted += 1;
    if !check::join_ok(&res.pairs, &oracle) {
        out.failed += 1;
        out.errors
            .push("suite join differs from join_refined".into());
    }
    let mut filter_cfg = join_config();
    filter_cfg.refine = false;
    let (filter_ms, _) = timed_join(|| {
        spans
            .span(MAIN, "core.try_run_join.filter", 0, || {
                try_run_join(a, b, &filter_cfg, &ctl)
            })
            .map_err(|e| e.to_string())
    })?;
    let min_tasks = cfg.min_tasks_factor * cfg.num_threads;
    let (create_ms, tc) = timed(|| {
        spans.span(MAIN, "core.create_tasks", 0, || {
            create_tasks(a, b, min_tasks)
        })
    });
    let (morsel_ms, _) = timed(|| {
        spans.span(MAIN, "core.morselize", 0, || {
            let est = CandidateEstimator::new(a, b);
            morselize(a, b, &tc.tasks, &est, &MorselOptions::new(cfg.num_threads))
        })
    });
    let mut per_worker = vec![0.0f64; cfg.num_threads];
    for t in &res.task_traces {
        per_worker[t.worker] += t.wall.as_secs_f64();
    }
    let busiest = per_worker.iter().copied().fold(0.0, f64::max);
    let mean = report::mean(&per_worker);
    out.set("core.join_ms", join_ms);
    out.set("core.filter_ms", filter_ms);
    out.set("core.create_tasks_ms", create_ms);
    out.set("core.morselize_ms", morsel_ms);
    out.set("core.tasks", res.tasks as f64);
    out.set("core.morsels", res.morsels as f64);
    out.set("core.steals", res.steals as f64);
    out.set("core.node_pairs", res.node_pairs as f64);
    out.set("core.candidates", res.candidates as f64);
    out.set("core.pairs", res.pairs.len() as f64);
    out.set(
        "core.refine_yield",
        res.pairs.len() as f64 / res.candidates.max(1) as f64,
    );
    out.set(
        "core.worker_imbalance",
        if mean > 0.0 { busiest / mean } else { 1.0 },
    );

    let stream = node_pair_stream(a, b);
    let (sweep_ms, swept) = timed(|| {
        spans.span(MAIN, "geom.sweep_pairs_soa", 0, || {
            let mut scratch = SweepScratch::default();
            let mut pairs = Vec::new();
            let mut total = 0usize;
            for (na, nb, window) in &stream {
                pairs.clear();
                sweep_pairs_soa(
                    na.soa_mbrs(),
                    nb.soa_mbrs(),
                    window,
                    &mut scratch,
                    &mut pairs,
                );
                total += pairs.len();
            }
            total
        })
    });
    out.set("geom.sweep_ms", sweep_ms);

    let cands = join_candidates(a, b).candidates;
    let geoms: Vec<_> = cands
        .iter()
        .filter_map(|(x, y)| Some((maps.a.geoms.get(x)?, maps.b.geoms.get(y)?)))
        .collect();
    let (refine_ms, hits) = timed(|| {
        spans.span(MAIN, "geom.intersects", 0, || {
            geoms.iter().filter(|(g, h)| g.intersects(h)).count()
        })
    });
    out.set("geom.refine_ms", refine_ms);
    // The kernel and refinement, run apart from the executor, must still
    // reproduce its counts.
    if geoms.len() != cands.len() || hits != oracle.len() || cands.len() as u64 != res.candidates {
        out.errors.push(format!(
            "geom counts ({} candidates, {} hits) differ from the join's ({}, {})",
            cands.len(),
            hits,
            res.candidates,
            oracle.len()
        ));
    }
    black_box(swept);
    Ok(())
}

/// `psj-buffer`: a join through a fresh cache of the `join_paged` budget,
/// against the unbuffered `core.join_ms` measured before it.
fn buffer(a: &PagedTree, b: &PagedTree, spans: &Spans, out: &mut Outcome) -> Result<(), String> {
    let cfg = join_config();
    let ctl = RunControl::default();
    let pages = a.num_pages() + b.num_pages();
    let budget = paged_budget(pages);
    let mut last_cache = None;
    let (budgeted_ms, res) = timed_join(|| {
        let cache = fresh_cache(budget);
        let r = spans.span(MAIN, "buffer.join_with_cache", 0, || {
            try_run_native_join_with_cache(a, b, &cfg, &cache, &ctl)
        });
        last_cache = Some(cache);
        r.map_err(|e| e.to_string())
    })?;
    let opt = last_cache.expect("REPS > 0").snapshot().opt;
    let unbuffered_ms = out.values["core.join_ms"];
    // A cache holding every page misses each page once: the compulsory
    // misses the budgeted run is compared against.
    let whole = fresh_cache(pages);
    let compulsory = spans
        .span(MAIN, "buffer.join_with_cache.unbounded", 0, || {
            try_run_native_join_with_cache(a, b, &cfg, &whole, &ctl)
        })
        .map_err(|e| e.to_string())?;
    drop(whole);
    let stats = res.buffer.ok_or("a cached join reported no buffer stats")?;
    let compulsory = compulsory
        .buffer
        .ok_or("a cached join reported no buffer stats")?
        .misses;
    let overhead_ms = budgeted_ms - unbuffered_ms;
    out.set("buffer.requests", stats.requests() as f64);
    out.set("buffer.hits_l1", stats.hits_l1 as f64);
    out.set("buffer.hits_local", stats.hits_local as f64);
    out.set("buffer.hits_remote", stats.hits_remote as f64);
    out.set("buffer.misses", stats.misses as f64);
    out.set("buffer.evictions", stats.evictions as f64);
    out.set("buffer.hit_ratio", stats.hit_ratio());
    out.set(
        "buffer.misses_per_page",
        stats.misses as f64 / compulsory.max(1) as f64,
    );
    out.set("buffer.opt_hits", opt.hits as f64);
    out.set("buffer.guard_hits", opt.guard_hits as f64);
    out.set("buffer.opt_retries", opt.retries as f64);
    out.set("buffer.opt_fallbacks", opt.fallbacks as f64);
    out.set("buffer.overhead_ms", overhead_ms);
    out.set(
        "buffer.miss_us",
        overhead_ms * 1e3 / stats.misses.max(1) as f64,
    );
    out.note(format!(
        "buffer: budget {budget} of {pages} pages | budgeted join {budgeted_ms:.3} ms vs \
         unbuffered {unbuffered_ms:.3} ms | {compulsory} compulsory misses"
    ));
    Ok(())
}

/// `psj-rtree` direct queries of the stream, no server.
fn direct_queries(stream: &[Query], oracle: &Oracle, out: &mut Outcome) {
    let us = |window: bool| {
        let mut v: Vec<f64> = stream
            .iter()
            .zip(&oracle.direct)
            .filter(|(q, _)| q.is_window() == window)
            .map(|(_, d)| d.as_secs_f64() * 1e6)
            .collect();
        report::median(&mut v)
    };
    let entries: Vec<f64> = oracle
        .expected
        .iter()
        .filter_map(|e| match e {
            Expected::Window { len, .. } => Some(*len as f64),
            Expected::Nearest(_) => None,
        })
        .collect();
    out.set("rtree.window_us.p50", us(true));
    out.set("rtree.nearest_us.p50", us(false));
    out.set("rtree.window_entries.mean", report::mean(&entries));
}

/// Sum of every sample of metric family `name` in Prometheus text.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (metric, value) = l.rsplit_once(' ')?;
            let family = metric.split('{').next()?;
            (family == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .sum()
}

/// `psj-serve` and `psj-cluster`, each with the serving workloads'
/// configuration over this workload's maps.
fn serve_and_cluster(
    maps: &Maps,
    stream: &[Query],
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    // serve: round trip minus the same query's direct time on the served
    // trees, plus the server's own stats.
    let s = spans.span(MAIN, "serve.setup", 0, || {
        serving::setup(Workload::ServeMix, maps, stream, &Spans::off())
    })?;
    let refs: Vec<&PagedTree> = s.trees.iter().map(|t| t.as_ref()).collect();
    let oracle = Oracle::new(&refs, maps, stream);
    let log = spans.span(MAIN, "serve.closed_loop", 0, || {
        serving::run_loop(s.addr, stream, &oracle, SUITE_LOOP, 0, &Spans::off())
    });
    let stats = connect(s.addr).and_then(|mut c| c.stats().map_err(|e| e.to_string()));
    s.stop();
    let (log, stats) = (log?, stats?);
    count_loop(&log, "serve", out);
    let mut added: Vec<f64> = log
        .samples
        .iter()
        .filter(|x| x.ok)
        .map(|x| ms(x.rtt) - ms(oracle.direct[x.idx as usize]))
        .collect();
    added.sort_by(f64::total_cmp);
    if added.is_empty() {
        return Err("the suite's serve loop answered nothing".into());
    }
    out.set("serve.added_ms.p50", report::percentile(&added, 0.5));
    out.set("serve.added_ms.p99", report::percentile(&added, 0.99));
    out.set("serve.server_ms.p50", stats.p50_ms);
    out.set("serve.server_ms.p99", stats.p99_ms);
    out.set(
        "serve.batch_size.mean",
        stats.batched_queries as f64 / stats.batches.max(1) as f64,
    );
    out.set(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / stats.cache_requests.max(1) as f64,
    );
    out.set("serve.cache_misses", stats.cache_misses as f64);
    out.set("serve.cache_evictions", stats.cache_evictions as f64);
    out.set("serve.shed", stats.shed as f64);
    out.set("serve.timeouts", stats.timeouts as f64);

    // cluster: the closed loop through the router, then a sequential probe
    // timing each request through the router and straight at every shard
    // it touches.
    let c = spans.span(MAIN, "cluster.setup", 0, || {
        serving::setup(Workload::ClusterMix, maps, stream, &Spans::off())
    })?;
    let result = cluster_measure(&c, stream, &oracle, spans, out);
    let metrics = c
        .router
        .as_ref()
        .map(|r| r.metrics_text())
        .unwrap_or_default();
    c.stop();
    result?;
    out.set(
        "cluster.retries",
        scrape(&metrics, "psj_router_shard_retries_total"),
    );
    out.set(
        "cluster.hedges",
        scrape(&metrics, "psj_router_shard_hedges_total"),
    );
    out.set(
        "cluster.failures",
        scrape(&metrics, "psj_router_shard_failures_total"),
    );
    out.set(
        "cluster.partials",
        scrape(&metrics, "psj_router_partial_responses_total"),
    );
    Ok(())
}

fn count_loop(log: &serving::LoopLog, what: &str, out: &mut Outcome) {
    let ok = log.samples.iter().filter(|x| x.ok).count();
    out.attempted += log.samples.len() as u64;
    out.failed += (log.samples.len() - ok) as u64;
    if let Some(f) = &log.first_failure {
        out.errors.push(format!("{what}: {f}"));
    }
}

fn cluster_measure(
    c: &serving::ServeSetup,
    stream: &[Query],
    oracle: &Oracle,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let log = spans.span(MAIN, "cluster.closed_loop", 0, || {
        serving::run_loop(c.addr, stream, oracle, SUITE_LOOP, 0, &Spans::off())
    })?;
    count_loop(&log, "cluster", out);
    let (plan, shards) = c.plan.as_ref().ok_or("cluster set-up without a plan")?;
    let mut router = connect(c.addr)?;
    let mut direct = shards
        .iter()
        .map(|s| connect(s.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut added = Vec::with_capacity(PROBE);
    let mut fanout = Vec::with_capacity(PROBE);
    spans.span(MAIN, "cluster.probe", 0, || -> Result<(), String> {
        for (i, q) in stream.iter().enumerate().take(PROBE) {
            let touched: Vec<usize> = match q {
                Query::Window { rect, .. } => plan
                    .overlapping(rect.xl, rect.xu)
                    .into_iter()
                    .map(usize::from)
                    .collect(),
                Query::Nearest { .. } => (0..shards.len()).collect(),
            };
            let t0 = Instant::now();
            let got = send(&mut router, q);
            let through = t0.elapsed();
            out.attempted += 1;
            if !got.is_ok_and(|a| oracle.ok(stream, i, &a)) {
                out.failed += 1;
                out.errors.push(format!("cluster probe: query {i} failed"));
            }
            let mut slowest = Duration::ZERO;
            for &s in &touched {
                let t0 = Instant::now();
                send(&mut direct[s], q).map_err(|e| format!("shard {s}: {e}"))?;
                slowest = slowest.max(t0.elapsed());
            }
            added.push(ms(through) - ms(slowest));
            fanout.push(touched.len() as f64);
        }
        Ok(())
    })?;
    out.set("cluster.added_ms.p50", report::median(&mut added));
    out.set("cluster.fanout.mean", report::mean(&fanout));
    Ok(())
}
