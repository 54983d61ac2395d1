//! The serving workloads.
//!
//! `serve_mix`: an in-process `psj_serve::Server` with the shipped
//! `ServeConfig` defaults (2 ms batch window, 4,096-node cache) except
//! `workers = nproc`, serving the STR-packed trees of both maps. `nproc`
//! client connections run a closed loop without think time over the
//! query stream (70% windows, 30% 10-NN).
//!
//! `cluster_mix`: the same stream and client count through a
//! `psj_cluster::Router` (defaults) over two x-slab shards planned by
//! `plan_shards`, each shard an in-process server configured as above.

use crate::check::{self, Expected};
use crate::input::{query_stream, Maps, Query, NEAREST_K};
use crate::joins::ATTR_BYTES;
use crate::report::{self, Outcome, Timed};
use crate::spans::{client_row, Spans, MAIN};
use crate::{nproc, Params, Workload};
use psj_cluster::{plan_shards, Router, RouterConfig, ShardAddr, ShardPlan};
use psj_geom::Rect;
use psj_rtree::bulk::bulk_load_str;
use psj_rtree::{PagedTree, RTree};
use psj_serve::{Client, ServeConfig, Server};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of `cluster_mix`.
pub const SHARDS: usize = 2;
/// Requests each client sends during set-up to warm the server.
pub const WARMUP_PER_CLIENT: usize = 100;
/// Queries in the stream; clients cycle through it if they exhaust it.
pub const STREAM_LEN: usize = 16_384;

/// Builds an STR-packed tree over `items` with geometry attached, as
/// `psj build --str` and `psj shard-plan` do.
pub fn build_str(items: &[(Rect, u64)], geoms: &HashMap<u64, psj_geom::Polyline>) -> PagedTree {
    let tree = if items.is_empty() {
        RTree::new()
    } else {
        bulk_load_str(items)
    };
    PagedTree::freeze_with_attrs(&tree, |oid| geoms.get(&oid).cloned(), ATTR_BYTES)
}

/// The server configuration of both serving workloads.
pub fn serve_config(shard_id: u16) -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        shard_id,
        ..ServeConfig::default()
    }
}

/// What one set-up leaves running.
pub struct ServeSetup {
    /// The servers: one, or one per shard.
    pub servers: Vec<Server>,
    /// The router in front of the shards (`cluster_mix`).
    pub router: Option<Router>,
    /// Where clients connect.
    pub addr: SocketAddr,
    /// The shard plan and each shard's address (`cluster_mix`).
    pub plan: Option<(ShardPlan, Vec<ShardAddr>)>,
    /// The served trees (`serve_mix`), shared with the oracle.
    pub trees: Vec<Arc<PagedTree>>,
    /// Time spent building and freezing the trees.
    pub build: Duration,
}

impl ServeSetup {
    /// Stops the router, then every server, waiting for their threads.
    pub fn stop(self) {
        if let Some(r) = self.router {
            r.stop();
        }
        for s in self.servers {
            s.stop();
        }
    }
}

fn io<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One complete set-up: trees, server(s), router, and a warm-up of
/// [`WARMUP_PER_CLIENT`] requests per client from the end of `stream`.
pub fn setup(
    workload: Workload,
    maps: &Maps,
    stream: &[Query],
    spans: &Spans,
) -> Result<ServeSetup, String> {
    let s = if workload == Workload::ClusterMix {
        let plan = plan_shards(&maps.a.items, &maps.b.items, SHARDS);
        let (buckets_a, buckets_b) = (plan.assign(&maps.a.items), plan.assign(&maps.b.items));
        let mut build = Duration::ZERO;
        let mut servers = Vec::with_capacity(plan.len());
        let mut shards = Vec::with_capacity(plan.len());
        for (i, spec) in plan.shards.iter().enumerate() {
            let t0 = Instant::now();
            let trees = spans.span(MAIN, "setup.rtree.build", 0, || {
                vec![
                    Arc::new(build_str(&buckets_a[i], &maps.a.geoms)),
                    Arc::new(build_str(&buckets_b[i], &maps.b.geoms)),
                ]
            });
            build += t0.elapsed();
            let server = spans
                .span(MAIN, "setup.serve.start", 0, || {
                    Server::start(serve_config(spec.id), trees)
                })
                .map_err(io("start shard server"))?;
            shards.push(ShardAddr {
                id: spec.id,
                addr: server.local_addr(),
                x_lo: spec.x_lo,
                x_hi: spec.x_hi,
            });
            servers.push(server);
        }
        let router = spans.span(MAIN, "setup.cluster.start", 0, || {
            Router::start(RouterConfig {
                shards: shards.clone(),
                ..RouterConfig::default()
            })
        });
        let router = match router {
            Ok(r) => r,
            Err(e) => {
                for s in servers {
                    s.stop();
                }
                return Err(format!("start router: {e}"));
            }
        };
        ServeSetup {
            addr: router.local_addr(),
            servers,
            router: Some(router),
            plan: Some((plan, shards)),
            trees: Vec::new(),
            build,
        }
    } else {
        let t0 = Instant::now();
        let trees = spans.span(MAIN, "setup.rtree.build", 0, || {
            vec![
                Arc::new(build_str(&maps.a.items, &maps.a.geoms)),
                Arc::new(build_str(&maps.b.items, &maps.b.geoms)),
            ]
        });
        let build = t0.elapsed();
        let server = spans
            .span(MAIN, "setup.serve.start", 0, || {
                Server::start(serve_config(0), trees.clone())
            })
            .map_err(io("start server"))?;
        ServeSetup {
            addr: server.local_addr(),
            servers: vec![server],
            router: None,
            plan: None,
            trees,
            build,
        }
    };
    let warm = &stream[stream.len().saturating_sub(WARMUP_PER_CLIENT * nproc())..];
    let res = spans.span(MAIN, "setup.warmup", 0, || warm_up(s.addr, warm));
    if let Err(e) = res {
        s.stop();
        return Err(e);
    }
    Ok(s)
}

fn warm_up(addr: SocketAddr, queries: &[Query]) -> Result<(), String> {
    let chunk = queries.len().div_ceil(nproc()).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                scope.spawn(move || -> Result<(), String> {
                    let mut c = connect(addr)?;
                    for q in qs {
                        send(&mut c, q).map_err(|e| format!("warm-up request: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "warm-up client panicked".to_string())?
        })
    })
}

/// A client whose reads give up after 10 s, so a stuck server fails the
/// run instead of hanging it.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_timeout(&addr, Duration::from_secs(10)).map_err(io("connect"))
}

/// A served answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Window oids.
    Window(Vec<u64>),
    /// `(distance, oid)` neighbours.
    Nearest(Vec<(f64, u64)>),
}

/// Sends `q`; any response but the full answer is an error (shed,
/// deadline, storage or typed error, partial answer, transport failure).
pub fn send(c: &mut Client, q: &Query) -> Result<Answer, String> {
    match *q {
        Query::Window { tree, rect } => c.window(tree, rect, 0).map(Answer::Window),
        Query::Nearest { tree, point } => c
            .nearest(tree, point.x, point.y, NEAREST_K as u32, 0)
            .map(Answer::Nearest),
    }
    .map_err(|e| e.to_string())
}

/// The expected answers and direct call times of `stream` on `trees`.
pub struct Oracle {
    /// Expected answer per stream position.
    pub expected: Vec<Expected>,
    /// Direct in-process call time per stream position.
    pub direct: Vec<Duration>,
    /// MBR by oid of each tree, for the nearest check.
    pub mbrs: [HashMap<u64, Rect>; 2],
}

impl Oracle {
    /// Answers every query of `stream` directly on `trees`.
    pub fn new(trees: &[&PagedTree], maps: &Maps, stream: &[Query]) -> Oracle {
        let (expected, direct) = stream.iter().map(|q| check::direct(trees, q)).unzip();
        let mbrs = |items: &[(Rect, u64)]| items.iter().map(|&(r, oid)| (oid, r)).collect();
        Oracle {
            expected,
            direct,
            mbrs: [mbrs(&maps.a.items), mbrs(&maps.b.items)],
        }
    }

    /// Whether `got` is a correct answer to stream position `i`.
    pub fn ok(&self, stream: &[Query], i: usize, got: &Answer) -> bool {
        match (&stream[i], &self.expected[i], got) {
            (Query::Window { .. }, Expected::Window { len, digest }, Answer::Window(oids)) => {
                check::window_ok(oids, *len, *digest)
            }
            (Query::Nearest { tree, point }, Expected::Nearest(want), Answer::Nearest(nn)) => {
                check::nearest_ok(nn, want, point, &self.mbrs[usize::from(*tree)])
            }
            _ => false,
        }
    }
}

/// One request of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Stream position.
    pub idx: u32,
    /// When the answer arrived, from the start of the loop.
    pub done: Duration,
    /// Client round trip.
    pub rtt: Duration,
    /// Whether the request ran inside a span.
    pub traced: bool,
    /// Whether the answer was complete and correct.
    pub ok: bool,
}

/// The closed loop's record.
pub struct LoopLog {
    /// Every request, all clients.
    pub samples: Vec<Sample>,
    /// The first failure, for the run's output.
    pub first_failure: Option<String>,
}

/// One client's samples and its first failure.
type ClientLog = (Vec<Sample>, Option<String>);

/// Runs `nproc` clients in a closed loop, no think time, for `seconds`
/// and until `min_ok` correct answers arrived. Client `c` sends stream
/// positions `c, c + nproc, ...`, cycling. With spans on, every other
/// request of a client is traced.
pub fn run_loop(
    addr: SocketAddr,
    stream: &[Query],
    oracle: &Oracle,
    seconds: Duration,
    min_ok: usize,
    spans: &Spans,
) -> Result<LoopLog, String> {
    let clients = nproc();
    let ok_total = AtomicU64::new(0);
    let start = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ok_total = &ok_total;
                let spans = spans.clone();
                scope.spawn(move || {
                    spans.name_row(client_row(c), &format!("client {c}"));
                    let mut client = connect(addr)?;
                    let mut samples = Vec::new();
                    let mut first_failure = None;
                    let mut k = 0u64;
                    while (start.elapsed() < seconds
                        || ok_total.load(Ordering::Relaxed) < min_ok as u64)
                        && start.elapsed() < seconds * 4
                    {
                        let idx = (c + k as usize * clients) % stream.len();
                        let traced = spans.enabled() && k % 2 == 1;
                        let op = ((c as u64) << 32) | (k + 1);
                        let name = if stream[idx].is_window() {
                            "op.window"
                        } else {
                            "op.nearest"
                        };
                        let t0 = Instant::now();
                        let res = spans
                            .only_if(traced)
                            .span(client_row(c), name, op, || send(&mut client, &stream[idx]));
                        let rtt = t0.elapsed();
                        let ok = match &res {
                            Ok(a) => oracle.ok(stream, idx, a),
                            Err(_) => false,
                        };
                        if ok {
                            ok_total.fetch_add(1, Ordering::Relaxed);
                        } else if first_failure.is_none() {
                            first_failure = Some(match res {
                                Ok(_) => format!("client {c}: wrong answer to query {idx}"),
                                Err(e) => format!("client {c}: query {idx}: {e}"),
                            });
                        }
                        samples.push(Sample {
                            idx: idx as u32,
                            done: start.elapsed(),
                            rtt,
                            traced,
                            ok,
                        });
                        k += 1;
                    }
                    Ok((samples, first_failure))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    });
    let mut samples = Vec::new();
    let mut first_failure = None;
    for log in logs {
        let (s, f) = log?;
        samples.extend(s);
        first_failure = first_failure.or(f);
    }
    Ok(LoopLog {
        samples,
        first_failure,
    })
}

/// Sorted round trips (ms) of the correct samples that `keep` selects.
pub fn rtt_ms(log: &LoopLog, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    let kept: Vec<Duration> = log
        .samples
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(|s| s.rtt)
        .collect();
    report::sorted_ms(&kept)
}

/// The trees the oracle answers on: the served trees for `serve_mix`,
/// whole (unsharded) STR trees over the same maps for `cluster_mix`.
pub fn oracle_trees(s: &ServeSetup, maps: &Maps) -> Vec<Arc<PagedTree>> {
    if s.trees.is_empty() {
        vec![
            Arc::new(build_str(&maps.a.items, &maps.a.geoms)),
            Arc::new(build_str(&maps.b.items, &maps.b.geoms)),
        ]
    } else {
        s.trees.clone()
    }
}

/// An untraced run of a serving workload: `setup_reps` set-ups, the
/// oracle, then the measured loop.
pub fn run(params: &Params, maps: &Maps) -> Result<Outcome, String> {
    let stream = query_stream(maps, params.seed, STREAM_LEN);
    let mut setup_s = Vec::with_capacity(params.setup_reps);
    let mut last: Option<ServeSetup> = None;
    for _ in 0..params.setup_reps {
        if let Some(prev) = last.take() {
            prev.stop();
        }
        let t0 = Instant::now();
        let s = setup(params.workload, maps, &stream, &Spans::off())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    let s = last.ok_or("no set-up ran")?;
    let trees = oracle_trees(&s, maps);
    let refs: Vec<&PagedTree> = trees.iter().map(|t| t.as_ref()).collect();
    let oracle = Oracle::new(&refs, maps, &stream);
    let pages: usize = refs.iter().map(|t| t.num_pages()).sum();
    drop(trees);
    let log = run_loop(
        s.addr,
        &stream,
        &oracle,
        params.seconds,
        params.min_ops,
        &Spans::off(),
    );
    s.stop();
    let log = log?;

    let mut out = Outcome::default();
    let windows = rtt_ms(&log, |x| stream[x.idx as usize].is_window());
    let nearests = rtt_ms(&log, |x| !stream[x.idx as usize].is_window());
    let ok = log.samples.iter().filter(|x| x.ok).count();
    out.attempted = log.samples.len() as u64;
    out.failed = (log.samples.len() - ok) as u64;
    let timed: Vec<Timed> = log
        .samples
        .iter()
        .filter(|x| x.ok)
        .map(|x| Timed {
            done: x.done,
            took: x.rtt,
        })
        .collect();
    if timed.is_empty() {
        return Err(format!(
            "no request succeeded: {}",
            log.first_failure.unwrap_or_default()
        ));
    }
    let c = report::chunked(&timed);
    out.set("setup_s", report::median(&mut setup_s));
    out.set("op_ms.p50", c.p50);
    out.set("op_ms.p75", c.p75);
    out.set("req_per_s", c.per_s);
    out.note(format!(
        "input: scale {} | {} + {} objects | {} clients, closed loop, no think time | \
         stream of {} queries ({:.0}% windows) | {} pages against a {}-node cache",
        params.scale,
        maps.a.items.len(),
        maps.b.items.len(),
        nproc(),
        stream.len(),
        100.0 * stream.iter().filter(|q| q.is_window()).count() as f64 / stream.len() as f64,
        pages,
        serve_config(0).cache_pages
    ));
    out.note(report::chunk_note(&c));
    out.note(report::latency_note("window_ms", &windows, 0.99));
    out.note(report::latency_note("nearest_ms", &nearests, 0.99));
    out.note(format!(
        "fail_ratio = {} ratio ({} of {} requests)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    if let Some(f) = log.first_failure {
        out.errors.push(f);
    }
    Ok(out)
}
