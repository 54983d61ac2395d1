//! The server: acceptor, per-connection threads, and a work-stealing
//! worker pool sharing one page cache, with batching that never waits.
//!
//! ```text
//! acceptor ──► connection threads ──► pending groups ──► workers
//!                    ▲                (per tree & kind)      ▲  │
//!                    │                      └── token ──► injector
//!                    └────────────── mpsc reply ◄──────────────┘
//! ```
//!
//! * **Admission control** — a request is *admitted* by incrementing the
//!   `queued` counter; if that pushes past `queue_bound` (or the server is
//!   draining) it is immediately un-admitted and answered
//!   [`Response::Overloaded`]. `queued` counts admitted-but-unanswered
//!   requests, so the bound covers the pending groups, the injector, and
//!   in-flight execution alike.
//! * **Batching** — a window or nearest query is appended to the pending
//!   group for its (tree, kind), and a token naming that group goes to
//!   the injector. A worker that pops a token takes everything queued in
//!   the group, up to [`MAX_BATCH`], and runs it as one batch; a token
//!   whose group a batch-mate's worker already emptied is skipped. A lone
//!   query on an idle server therefore runs at once, and batches form
//!   only when queries pile up behind busy workers. There is no knob: a
//!   worker never waits, so there is nothing to tune.
//! * **Deadlines** — `deadline_ms` is converted to an absolute instant at
//!   arrival; executors check it cooperatively and expired requests get
//!   [`Response::DeadlineExceeded`] with partial work discarded.
//! * **Shutdown** — admission closes first, the workers drain until
//!   `queued` reaches zero, then workers and the acceptor are halted and
//!   joined. Connection threads notice the halt flag at their next read
//!   timeout.

use crate::exec::{self, Outcome, TreeSet, WindowQuery};
use crate::protocol::{
    read_frame, write_frame, Request, Response, ServerStats, StorageErrorKind, TreeInfo,
    MAX_REQUEST_FRAME,
};
use crate::telemetry::{GaugeSnapshot, Telemetry};
use psj_buffer::{Policy, SharedPageCache};
use psj_core::deque::{Injector, Steal};
use psj_core::StealPolicy;
use psj_geom::Point;
use psj_obs::trace::TID_SERVE;
use psj_obs::TraceSink;
use psj_rtree::{Node, PagedTree};
use psj_store::{FaultPlan, PageError, RetryPolicy};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// A worker that panicked while holding (or racing for) one of the server's
// locks must not wedge every later request and the shutdown drain — the
// protected state (batch maps, join-handle lists, condvar companions) stays
// structurally valid across a panic, so `lock_clean` recovers the guard and
// the panic is surfaced through the `worker_panics` counter instead.
use psj_store::lock_clean;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Query worker threads (each also indexes per-worker cache stats).
    pub workers: usize,
    /// Admission bound: maximum admitted-but-unanswered requests.
    pub queue_bound: usize,
    /// Shared page-cache capacity, in decoded nodes.
    pub cache_pages: usize,
    /// Page-cache lock shards.
    pub cache_shards: usize,
    /// Threads per join request.
    pub join_threads: usize,
    /// Target estimated candidates per join morsel (`0` = auto-sized).
    pub join_morsel_candidates: u64,
    /// Victim selection when an idle join worker reassigns a morsel.
    pub join_steal: StealPolicy,
    /// Seed of the seeded join steal policy (ignored by the others).
    pub join_steal_seed: u64,
    /// Join engine answering join requests: the R-tree traversal, the
    /// in-memory grid partition, or a per-request automatic choice.
    pub join_engine: psj_core::JoinEngine,
    /// Socket read timeout; also the cadence at which idle connection
    /// threads re-check the halt flag.
    pub read_timeout: Duration,
    /// Injected fault plan applied to query-cache fills (chaos testing;
    /// joins are unaffected, see [`exec::join`]).
    pub fault: Option<Arc<FaultPlan>>,
    /// Retry policy for failed page-cache fills.
    pub retry: RetryPolicy,
    /// Structured-trace sink: when set, admissions, sheds, and batches
    /// emit instants on the server's trace row and the query
    /// cache emits page events. `None` (the default) costs one pointer
    /// check per admission.
    pub trace: Option<Arc<TraceSink>>,
    /// This server's shard id, echoed in [`Response::Info`] so cluster
    /// routers can verify a dialed address is the shard their topology
    /// says it is. Standalone servers keep the default 0.
    pub shard_id: u16,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_bound: 256,
            cache_pages: 4096,
            cache_shards: 16,
            join_threads: 4,
            join_morsel_candidates: 0,
            join_steal: StealPolicy::Busiest,
            join_steal_seed: 0,
            join_engine: psj_core::JoinEngine::RTree,
            read_timeout: Duration::from_millis(250),
            fault: None,
            retry: RetryPolicy::default(),
            trace: None,
            shard_id: 0,
        }
    }
}

/// Most queries one worker takes from a pending group at once.
pub const MAX_BATCH: usize = 32;

/// Reply routing for one admitted request.
struct ReqCtx {
    arrival: Instant,
    reply: mpsc::Sender<Response>,
}

struct NearestQuery {
    point: Point,
    k: usize,
    deadline: Option<Instant>,
}

enum WorkItem {
    /// A token: take and run the pending window group of this tree.
    Windows(u16),
    /// A token: take and run the pending nearest group of this tree.
    Nearests(u16),
    Join {
        tree_a: u16,
        tree_b: u16,
        refine: bool,
        deadline: Option<Instant>,
        owner: Option<(f64, f64)>,
        ctx: ReqCtx,
    },
    /// Test-only: a work item whose handler panics, for exercising the
    /// pool's panic containment.
    #[cfg(test)]
    Panic,
}

/// Queries waiting for a free worker, grouped per tree and kind.
#[derive(Default)]
struct BatchState {
    windows: HashMap<u16, Vec<(WindowQuery, ReqCtx)>>,
    nearests: HashMap<u16, Vec<(NearestQuery, ReqCtx)>>,
}

/// A query kind that waits in a pending group.
trait Batched: Sized {
    /// This kind's groups, keyed by tree.
    fn groups(st: &mut BatchState) -> &mut HashMap<u16, Vec<(Self, ReqCtx)>>;
    /// The token that sends a worker to `tree`'s group.
    fn token(tree: u16) -> WorkItem;
}

impl Batched for WindowQuery {
    fn groups(st: &mut BatchState) -> &mut HashMap<u16, Vec<(Self, ReqCtx)>> {
        &mut st.windows
    }
    fn token(tree: u16) -> WorkItem {
        WorkItem::Windows(tree)
    }
}

impl Batched for NearestQuery {
    fn groups(st: &mut BatchState) -> &mut HashMap<u16, Vec<(Self, ReqCtx)>> {
        &mut st.nearests
    }
    fn token(tree: u16) -> WorkItem {
        WorkItem::Nearests(tree)
    }
}

struct Shared {
    cfg: ServeConfig,
    trees: TreeSet,
    cache: SharedPageCache<Node>,
    telemetry: Telemetry,
    /// Admitted-but-unanswered requests.
    queued: AtomicUsize,
    /// Admission closed (drain in progress).
    shutting_down: AtomicBool,
    /// Workers / connection threads must exit.
    halt: AtomicBool,
    injector: Injector<WorkItem>,
    work_mutex: Mutex<()>,
    work_signal: Condvar,
    batch: Mutex<BatchState>,
    /// Signalled by a client [`Request::Shutdown`]; `Server::wait` listens.
    shutdown_tx: Mutex<Option<mpsc::Sender<()>>>,
}

impl Shared {
    fn notify_workers(&self) {
        let _g = lock_clean(&self.work_mutex);
        self.work_signal.notify_all();
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::Acquire)
    }

    /// A point-in-time stats report.
    fn stats(&self) -> ServerStats {
        let t = &self.telemetry;
        let snap = self.cache.snapshot();
        let requests = snap.stats.requests();
        ServerStats {
            completed: t.completed.get(),
            shed: t.shed.get(),
            timeouts: t.timeouts.get(),
            proto_errors: t.proto_errors.get(),
            queue_depth: self.queued.load(Ordering::Relaxed) as u32,
            batches: t.batches.get(),
            batched_queries: t.batched_queries.get(),
            p50_ms: t.latency.quantile_ms(0.50),
            p95_ms: t.latency.quantile_ms(0.95),
            p99_ms: t.latency.quantile_ms(0.99),
            cache_requests: requests,
            cache_hits: requests - snap.stats.misses,
            cache_misses: snap.stats.misses,
            cache_evictions: snap.stats.evictions,
            resident_pages: snap.resident_pages as u32,
            capacity_pages: snap.capacity_pages as u32,
            storage_corrupt: t.storage_corrupt.get(),
            storage_unavailable: t.storage_unavailable.get(),
            corrupt_pages_detected: snap.corrupt_detected + self.trees.poisoned_total(),
            quarantined_pages: snap.quarantined_pages as u64,
            page_retries: snap.stats.retries,
            worker_panics: t.worker_panics.get(),
        }
    }

    /// Prometheus-text exposition of every counter plus point-in-time
    /// gauges; by construction the counters match [`Shared::stats`].
    fn metrics_text(&self) -> String {
        let snap = self.cache.snapshot();
        self.telemetry.render_prometheus(&GaugeSnapshot {
            queue_depth: self.queued.load(Ordering::Relaxed) as u64,
            cache_requests: snap.stats.requests(),
            cache_hits: snap.stats.requests() - snap.stats.misses,
            cache_misses: snap.stats.misses,
            cache_evictions: snap.stats.evictions,
            resident_pages: snap.resident_pages as u64,
            capacity_pages: snap.capacity_pages as u64,
            corrupt_pages: snap.corrupt_detected + self.trees.poisoned_total(),
            quarantined_pages: snap.quarantined_pages as u64,
            page_retries: snap.stats.retries,
            cache_opt_hits: snap.opt.hits,
            cache_opt_retries: snap.opt.retries,
            cache_opt_fallbacks: snap.opt.fallbacks,
            cache_guard_hits: snap.opt.guard_hits,
        })
    }

    /// Emits a trace instant on the server's row, if tracing is on.
    fn trace_instant(&self, name: &'static str, args: &[(&'static str, u64)]) {
        if let Some(t) = &self.cfg.trace {
            t.instant(TID_SERVE, name, "serve", args);
        }
    }

    fn info(&self) -> Vec<TreeInfo> {
        self.trees
            .iter()
            .map(|t| TreeInfo {
                mbr: t.mbr(),
                len: t.len(),
                pages: t.num_pages() as u32,
            })
            .collect()
    }
}

/// A running server. Dropping the handle without calling [`Server::stop`]
/// or [`Server::wait`] leaks the listener threads; tests and the CLI
/// always stop explicitly.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shutdown_rx: mpsc::Receiver<()>,
}

/// What [`Server::stop`] returns: the final stats report.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Counters and percentiles at shutdown.
    pub stats: ServerStats,
}

impl std::fmt::Display for ServerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.stats.fmt(f)
    }
}

impl Server {
    /// Binds `cfg.addr`, loads `trees` behind a fresh shared cache, and
    /// starts the acceptor and worker threads.
    pub fn start(cfg: ServeConfig, trees: Vec<Arc<PagedTree>>) -> io::Result<Server> {
        let mut trees =
            TreeSet::new(trees).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if let Some(plan) = cfg.fault.clone() {
            trees = trees.with_fault(plan);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let mut cache = SharedPageCache::new(
            workers,
            cfg.cache_pages.max(workers),
            cfg.cache_shards.max(1),
            Policy::Lru,
        )
        .with_retry(cfg.retry);
        if let Some(trace) = &cfg.trace {
            trace.set_thread_name(TID_SERVE, "psj-serve");
            cache = cache.with_trace(Arc::clone(trace));
        }
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            trees,
            cache,
            telemetry: Telemetry::new(),
            queued: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            injector: Injector::new(),
            work_mutex: Mutex::new(()),
            work_signal: Condvar::new(),
            batch: Mutex::new(BatchState::default()),
            shutdown_tx: Mutex::new(Some(shutdown_tx)),
            cfg,
        });

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psj-serve-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("psj-serve-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.halted() {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = Arc::clone(&shared);
                        let h = std::thread::Builder::new()
                            .name("psj-serve-conn".into())
                            .spawn(move || handle_conn(&shared, stream))
                            .expect("spawn connection thread");
                        lock_clean(&conns).push(h);
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
            conns,
            shutdown_rx,
        })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client sends [`Request::Shutdown`], then drains and
    /// stops.
    pub fn wait(self) -> ServerReport {
        let _ = self.shutdown_rx.recv();
        self.stop()
    }

    /// Drains admitted requests, stops every thread, and returns the final
    /// report.
    pub fn stop(mut self) -> ServerReport {
        let shared = &self.shared;
        // 1. Close admission; new requests get Overloaded.
        shared.shutting_down.store(true, Ordering::SeqCst);
        // 2. Drain: wait until the still-running workers have answered
        //    every admitted request.
        while shared.queued.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // 3. Halt the workers.
        shared.halt.store(true, Ordering::SeqCst);
        shared.notify_workers();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // 4. Unblock the acceptor with a dummy connection and join it.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // 5. Connection threads exit at their next read timeout (or when
        //    their client hangs up).
        let conns: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_clean(&self.conns));
        for c in conns {
            let _ = c.join();
        }
        ServerReport {
            stats: shared.stats(),
        }
    }
}

/// Takes one item at a time from the shared injector, so no worker holds
/// tokens that an idle worker could have started on.
fn worker_loop(shared: &Shared, idx: usize) {
    loop {
        if let Steal::Success(item) = shared.injector.steal() {
            // A panicking handler must not take the worker (or the pool)
            // down: contain it, count it, keep serving. The request's reply
            // sender is dropped with its batch, so its connection thread
            // gets a typed error, not a hang.
            if catch_unwind(AssertUnwindSafe(|| execute(shared, idx, item))).is_err() {
                shared.telemetry.worker_panics.inc();
            }
            continue;
        }
        if shared.halted() {
            return;
        }
        let g = lock_clean(&shared.work_mutex);
        // Re-check under the lock: producers push before they take it to
        // notify, so a push after this check cannot miss the wait.
        if shared.injector.is_empty() {
            let _ = shared
                .work_signal
                .wait_timeout(g, Duration::from_millis(20))
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Maps an execution outcome to the wire response, bumping the matching
/// telemetry counter. `ok` builds the success payload.
fn respond<T>(
    t: &Telemetry,
    latency: Duration,
    outcome: Outcome<T>,
    ok: impl FnOnce(T) -> Response,
) -> Response {
    match outcome {
        Outcome::Ok(v) => {
            t.complete(latency);
            ok(v)
        }
        Outcome::DeadlineExceeded => {
            t.timeout(latency);
            Response::DeadlineExceeded
        }
        Outcome::Storage(e) => {
            t.storage(latency, e.is_corrupt());
            storage_response(&e)
        }
    }
}

/// The wire reply for a storage-layer failure.
fn storage_response(e: &PageError) -> Response {
    Response::Storage {
        kind: if e.is_corrupt() {
            StorageErrorKind::Corrupt
        } else {
            StorageErrorKind::Unavailable
        },
        msg: e.to_string(),
    }
}

fn execute(shared: &Shared, worker: usize, item: WorkItem) {
    let t = &shared.telemetry;
    match item {
        WorkItem::Windows(tree) => {
            let members = take_batch::<WindowQuery>(shared, tree);
            let queries: Vec<WindowQuery> = members.iter().map(|(q, _)| *q).collect();
            let results = exec::window_batch(&shared.trees, &shared.cache, worker, tree, &queries);
            for ((_, ctx), result) in members.into_iter().zip(results) {
                let latency = ctx.arrival.elapsed();
                let resp = respond(t, latency, result, Response::Entries);
                let _ = ctx.reply.send(resp);
            }
        }
        WorkItem::Nearests(tree) => {
            for (q, ctx) in take_batch::<NearestQuery>(shared, tree) {
                let result = exec::nearest(
                    &shared.trees,
                    &shared.cache,
                    worker,
                    tree,
                    q.point,
                    q.k,
                    q.deadline,
                );
                let latency = ctx.arrival.elapsed();
                let resp = respond(t, latency, result, Response::Neighbors);
                let _ = ctx.reply.send(resp);
            }
        }
        WorkItem::Join {
            tree_a,
            tree_b,
            refine,
            deadline,
            owner,
            ctx,
        } => {
            let result = exec::join(
                &shared.trees,
                tree_a,
                tree_b,
                refine,
                owner,
                exec::JoinTuning {
                    threads: shared.cfg.join_threads,
                    morsel_candidates: shared.cfg.join_morsel_candidates,
                    steal: shared.cfg.join_steal,
                    steal_seed: shared.cfg.join_steal_seed,
                    engine: shared.cfg.join_engine,
                },
                deadline,
            );
            if let Outcome::Ok(run) = &result {
                t.join_tasks.add(run.tasks);
                t.join_steals.add(run.steals);
            }
            let latency = ctx.arrival.elapsed();
            let resp = respond(t, latency, result, |run| Response::Pairs(run.pairs));
            let _ = ctx.reply.send(resp);
        }
        #[cfg(test)]
        WorkItem::Panic => panic!("injected worker panic (test)"),
    }
}

/// Converts a wire deadline to an absolute instant.
fn abs_deadline(arrival: Instant, deadline_ms: u32) -> Option<Instant> {
    (deadline_ms > 0).then(|| arrival + Duration::from_millis(u64::from(deadline_ms)))
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    loop {
        let payload = match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(Some(p)) => p,
            Ok(None) => return, // client closed cleanly
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.halted() {
                    return;
                }
                continue;
            }
            Err(e) => {
                // Oversized prefix or mid-frame EOF: the stream cannot be
                // resynchronized — report (best effort) and hang up.
                shared.telemetry.proto_errors.inc();
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ = write_frame(
                        &mut writer,
                        &Response::Error(e.to_string()).encode_or_error(),
                    );
                }
                return;
            }
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Framing was sound, the payload was not: the stream is
                // still in sync, so answer and keep serving.
                shared.telemetry.proto_errors.inc();
                if write_frame(
                    &mut writer,
                    &Response::Error(e.to_string()).encode_or_error(),
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };

        let resp = match req {
            Request::Stats => shared.stats_response(),
            Request::Metrics => Response::Metrics(shared.metrics_text()),
            Request::Info => Response::Info {
                shard: shared.cfg.shard_id,
                trees: shared.info(),
            },
            Request::Shutdown => {
                let _ = write_frame(&mut writer, &Response::ShutdownAck.encode_or_error());
                if let Some(tx) = lock_clean(&shared.shutdown_tx).take() {
                    let _ = tx.send(());
                }
                return;
            }
            Request::Window {
                tree,
                rect,
                deadline_ms,
            } => {
                if shared.trees.get(tree).is_none() {
                    bad_tree(shared, tree)
                } else {
                    match admit(shared) {
                        Err(resp) => *resp,
                        Ok(arrival) => {
                            let deadline = abs_deadline(arrival, deadline_ms);
                            submit(shared, tree, arrival, WindowQuery { rect, deadline })
                        }
                    }
                }
            }
            Request::Nearest {
                tree,
                x,
                y,
                k,
                deadline_ms,
            } => {
                if shared.trees.get(tree).is_none() {
                    bad_tree(shared, tree)
                } else {
                    match admit(shared) {
                        Err(resp) => *resp,
                        Ok(arrival) => {
                            let q = NearestQuery {
                                point: Point::new(x, y),
                                k: k as usize,
                                deadline: abs_deadline(arrival, deadline_ms),
                            };
                            submit(shared, tree, arrival, q)
                        }
                    }
                }
            }
            Request::Join {
                tree_a,
                tree_b,
                refine,
                deadline_ms,
                owner,
            } => {
                if shared.trees.get(tree_a).is_none() {
                    bad_tree(shared, tree_a)
                } else if shared.trees.get(tree_b).is_none() {
                    bad_tree(shared, tree_b)
                } else {
                    match admit(shared) {
                        Err(resp) => *resp,
                        Ok(arrival) => {
                            let deadline = abs_deadline(arrival, deadline_ms);
                            let (tx, rx) = mpsc::channel();
                            shared.injector.push(WorkItem::Join {
                                tree_a,
                                tree_b,
                                refine,
                                deadline,
                                owner,
                                ctx: ReqCtx { arrival, reply: tx },
                            });
                            shared.notify_workers();
                            finish(shared, &rx)
                        }
                    }
                }
            }
        };
        if write_frame(&mut writer, &resp.encode_or_error()).is_err() {
            return;
        }
    }
}

impl Shared {
    fn stats_response(&self) -> Response {
        Response::Stats(self.stats())
    }
}

fn bad_tree(shared: &Shared, tree: u16) -> Response {
    shared.telemetry.proto_errors.inc();
    Response::Error(format!(
        "unknown tree {tree} ({} loaded)",
        shared.trees.len()
    ))
}

/// Admission control: returns the arrival instant, or the shed response.
/// Increment-then-check closes the race against concurrent admitters — the
/// counter can transiently overshoot the bound but admitted requests never
/// exceed it.
fn admit(shared: &Shared) -> Result<Instant, Box<Response>> {
    let q = shared.queued.fetch_add(1, Ordering::SeqCst) + 1;
    if shared.shutting_down.load(Ordering::SeqCst) || q > shared.cfg.queue_bound {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        shared.telemetry.shed.inc();
        shared.trace_instant("shed", &[("queued", q as u64)]);
        return Err(Box::new(Response::Overloaded));
    }
    shared.trace_instant("admit", &[("queued", q as u64)]);
    Ok(Instant::now())
}

/// Waits for the worker's reply and releases the admission slot.
fn finish(shared: &Shared, rx: &mpsc::Receiver<Response>) -> Response {
    let resp = rx
        .recv()
        .unwrap_or_else(|_| Response::Error("server dropped the request".into()));
    shared.queued.fetch_sub(1, Ordering::SeqCst);
    resp
}

/// Appends an admitted query to its pending group, queues one token for
/// the group, and waits for the answer. One token per query means a group
/// never holds a member without a token still queued behind it.
fn submit<Q: Batched>(shared: &Shared, tree: u16, arrival: Instant, q: Q) -> Response {
    let (tx, rx) = mpsc::channel();
    let ctx = ReqCtx { arrival, reply: tx };
    Q::groups(&mut lock_clean(&shared.batch))
        .entry(tree)
        .or_default()
        .push((q, ctx));
    shared.injector.push(Q::token(tree));
    shared.notify_workers();
    finish(shared, &rx)
}

/// Takes up to [`MAX_BATCH`] of the oldest queries in `tree`'s group and
/// counts them as one batch. Empty, and not counted, when a batch-mate's
/// worker has already emptied the group.
fn take_batch<Q: Batched>(shared: &Shared, tree: u16) -> Vec<(Q, ReqCtx)> {
    let members = {
        let mut st = lock_clean(&shared.batch);
        let groups = Q::groups(&mut st);
        match groups.get_mut(&tree) {
            Some(group) if group.len() > MAX_BATCH => group.drain(..MAX_BATCH).collect(),
            _ => groups.remove(&tree).unwrap_or_default(),
        }
    };
    if !members.is_empty() {
        let t = &shared.telemetry;
        t.batches.inc();
        t.batched_queries.add(members.len() as u64);
        shared.trace_instant("batch", &[("size", members.len() as u64)]);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use psj_geom::Rect;
    use psj_rtree::RTree;

    fn tree(n: usize) -> Arc<PagedTree> {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 30) as f64;
            let y = (i / 30) as f64;
            t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
        }
        Arc::new(PagedTree::freeze(&t, |_| None))
    }

    fn start() -> Server {
        let cfg = ServeConfig {
            workers: 2,
            read_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        Server::start(cfg, vec![tree(900)]).expect("bind loopback")
    }

    #[test]
    fn panicking_handler_leaves_the_server_serving() {
        let server = start();
        let addr = server.local_addr();
        let mut c = Client::connect(addr).unwrap();
        let rect = Rect::new(0.0, 0.0, 10.0, 10.0);
        let before = c.window(0, rect, 0).unwrap();

        // Inject work whose handler panics — repeatedly, so with two
        // workers both absorb at least one panic with high likelihood.
        for _ in 0..8 {
            server.shared.injector.push(WorkItem::Panic);
        }
        server.shared.notify_workers();
        // A panic is counted once it has unwound, which can take longer
        // than answering a query on the other worker: wait for all eight.
        let start = Instant::now();
        while c.stats().unwrap().worker_panics < 8 {
            assert!(start.elapsed() < Duration::from_secs(30), "panics lost");
            std::thread::sleep(Duration::from_millis(1));
        }

        // Every later request is still answered, by the same pool.
        for _ in 0..10 {
            let got = c.window(0, rect, 0).unwrap();
            assert_eq!(got.len(), before.len());
        }
        let stats = c.stats().unwrap();
        assert_eq!(
            stats.worker_panics, 8,
            "each injected panic is counted, none kills a worker"
        );
        let report = server.stop();
        assert_eq!(report.stats.worker_panics, 8);
        assert_eq!(report.stats.queue_depth, 0, "shutdown drain unaffected");
    }

    #[test]
    fn poisoned_batch_lock_does_not_wedge_requests_or_shutdown() {
        let server = start();
        let addr = server.local_addr();

        // Poison the batch mutex deliberately: a thread panics while
        // holding it. Pre-fix, every subsequent lock().unwrap() on the
        // enqueue/take path would propagate the poison and wedge
        // admission and the shutdown drain.
        {
            let shared = Arc::clone(&server.shared);
            let _ = std::thread::spawn(move || {
                let _g = shared.batch.lock().unwrap();
                panic!("poison the batch lock (test)");
            })
            .join();
        }
        assert!(server.shared.batch.is_poisoned(), "lock really is poisoned");

        let mut c = Client::connect(addr).unwrap();
        let rect = Rect::new(0.0, 0.0, 8.0, 8.0);
        // Batched queries route through the poisoned lock and must still
        // be answered.
        for _ in 0..5 {
            assert!(!c.window(0, rect, 0).unwrap().is_empty());
        }
        let report = server.stop();
        assert!(report.stats.completed >= 5);
        assert_eq!(report.stats.queue_depth, 0, "drain completes");
    }

    #[test]
    fn metrics_exposition_matches_stats_counters() {
        let server = start();
        let addr = server.local_addr();
        let mut c = Client::connect(addr).unwrap();
        for _ in 0..4 {
            c.window(0, Rect::new(0.0, 0.0, 6.0, 6.0), 0).unwrap();
        }
        let stats = c.stats().unwrap();
        let text = c.metrics().unwrap();
        for (name, value) in [
            ("psj_requests_completed_total", stats.completed),
            ("psj_requests_shed_total", stats.shed),
            ("psj_batches_total", stats.batches),
            ("psj_batched_queries_total", stats.batched_queries),
            ("psj_worker_panics_total", stats.worker_panics),
            ("psj_cache_requests", stats.cache_requests),
        ] {
            assert!(
                text.lines().any(|l| l == format!("{name} {value}")),
                "{name} {value} missing from exposition:\n{text}"
            );
        }
        assert!(
            text.contains("psj_request_latency_seconds_bucket"),
            "{text}"
        );
        server.stop();
    }
}
