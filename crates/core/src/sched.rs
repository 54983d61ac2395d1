//! The morsel scheduler both join engines run on: the paper's phases 2–3
//! (task assignment, then dynamic reassignment to idle workers) and the
//! deterministic merge.
//!
//! An engine plans its morsels — anything with a merge key and a cost
//! estimate, see [`Schedulable`] — and hands them to [`execute`] together
//! with a factory for its per-worker [`MorselBody`]. The engine keeps only
//! its own work (node fetching and the DFS kernel for the R-tree engine,
//! cell sweeps and owner-cell dedup for the partition engine); everything
//! else lives here:
//!
//! * **Dealing** per [`Assignment`]: dynamic → one shared FIFO injector;
//!   static range / round-robin → per-worker FIFOs whose live
//!   [`WorkerLoad`] stats are published for victim selection.
//! * **Acquisition**: own queue front (plan order), then the injector,
//!   then — with work stealing on — exactly one morsel from the victim the
//!   [`StealPolicy`] picks, recorded as a `steal` trace instant.
//! * **The worker loop**: cancellation and storage-abort checks before
//!   every morsel; each morsel runs under `catch_unwind`, so a panic is
//!   contained to the morsel that hit it and the run reports
//!   [`NativeError::WorkerPanic`]; every acquired morsel — completed,
//!   halted or panicked — closes with exactly one [`TaskTrace`] and one
//!   `task` span.
//! * **The merge**: each completed morsel's output lands in its id slot
//!   exactly once and the slots concatenate in id order, so the output
//!   never depends on thread count, assignment or steal interleaving.

use crate::assign::{static_range, static_round_robin, Assignment};
use crate::cancel::CancelToken;
use crate::deque::MorselQueue;
use crate::metrics::{TaskOrigin, TaskTrace};
use crate::morsel::StealPolicy;
use crate::native::{JoinError, NativeConfig, NativeError, NativeResult, RunControl};
use crate::partition::JoinEngine;
use psj_desim::StealOrder;
use psj_obs::trace::worker_tid;
use psj_obs::ThreadTracer;
use psj_store::{lock_clean, PageError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A unit of work the scheduler deals, steals and merges.
pub(crate) trait Schedulable: Clone + Send {
    /// Merge key: a plan's ids are `0..n` in output order.
    fn id(&self) -> u32;
    /// Estimated cost, the load busiest-victim selection weighs.
    fn est(&self) -> u64;
}

/// Why a morsel stopped before completing.
pub(crate) enum Halt {
    /// Cancellation, or another worker's storage failure
    /// ([`Status::stopped`]).
    Stopped,
    /// This morsel hit an unrecoverable storage error.
    Storage(PageError),
}

impl From<PageError> for Halt {
    fn from(e: PageError) -> Self {
        Halt::Storage(e)
    }
}

/// The scheduler's facts about one acquired morsel.
pub(crate) struct Segment {
    pub(crate) worker: usize,
    pub(crate) morsel: u32,
    pub(crate) origin: TaskOrigin,
    /// When the morsel was acquired.
    pub(crate) start: Instant,
}

/// One engine's per-worker execution state.
pub(crate) trait MorselBody<M> {
    /// Runs `morsel` and returns its result pairs. The body polls
    /// [`Status::stopped`] at its own granularity and returns
    /// [`Halt::Stopped`] once it fires.
    fn run(&mut self, morsel: M, status: &Status<'_>) -> Result<Vec<(u64, u64)>, Halt>;

    /// Attribution of the morsel the last `run` started. Called after
    /// every `run`, including one that halted or panicked.
    fn close(&mut self, seg: &Segment) -> TaskTrace;

    /// Args of the `task` trace span recorded for `tt`.
    fn span_args(tt: &TaskTrace) -> Vec<(&'static str, u64)>;
}

/// Live load stats one worker's queue publishes for busiest-victim
/// selection — the paper's `(hl, ns)`: remaining estimated cost and
/// remaining morsels. Decremented by whoever removes a morsel (owner or
/// thief), so reads are at worst momentarily stale, never wrong in sum.
#[derive(Default)]
struct WorkerLoad {
    est: AtomicU64,
    morsels: AtomicU64,
}

/// The shared injector plus one queue and load record per worker.
struct Queues<M> {
    injector: MorselQueue<M>,
    own: Vec<MorselQueue<M>>,
    loads: Vec<WorkerLoad>,
}

impl<M: Schedulable> Queues<M> {
    fn deal(assignment: Assignment, morsels: Vec<M>, workers: usize) -> Self {
        let q = Queues {
            injector: MorselQueue::new(),
            own: (0..workers).map(|_| MorselQueue::new()).collect(),
            loads: (0..workers).map(|_| WorkerLoad::default()).collect(),
        };
        let dealt = match assignment {
            Assignment::Dynamic => {
                for m in morsels {
                    q.injector.push_back(m);
                }
                return q;
            }
            Assignment::StaticRange => static_range(&morsels, workers),
            Assignment::StaticRoundRobin => static_round_robin(&morsels, workers),
        };
        for (w, load) in dealt.into_iter().enumerate() {
            for m in load {
                q.loads[w].est.fetch_add(m.est(), Ordering::Relaxed);
                q.loads[w].morsels.fetch_add(1, Ordering::Relaxed);
                q.own[w].push_back(m);
            }
        }
        q
    }

    fn steal_from(&self, victim: usize) -> Option<M> {
        let m = self.own[victim].steal_back()?;
        self.loads[victim].est.fetch_sub(m.est(), Ordering::Relaxed);
        self.loads[victim].morsels.fetch_sub(1, Ordering::Relaxed);
        Some(m)
    }

    /// Acquires the next morsel for worker `id`: own queue front (plan
    /// order), then the shared queue, then — with stealing on — exactly one
    /// morsel from the victim picked by the configured [`StealPolicy`].
    /// Returns `None` when every queue was observed empty — queues only
    /// drain after setup, so that worker is done for good.
    fn acquire_morsel(
        &self,
        id: usize,
        cfg: &NativeConfig,
        shim: &StealOrder,
        attempts: &mut u64,
        tracer: Option<&mut ThreadTracer>,
    ) -> Option<(M, TaskOrigin)> {
        if let Some(m) = self.own[id].pop_front() {
            self.loads[id].est.fetch_sub(m.est(), Ordering::Relaxed);
            self.loads[id].morsels.fetch_sub(1, Ordering::Relaxed);
            return Some((m, TaskOrigin::Assigned));
        }
        if let Some(m) = self.injector.pop_front() {
            return Some((m, TaskOrigin::Injector));
        }
        let n = self.own.len();
        if !cfg.work_stealing || n < 2 {
            return None;
        }
        let stolen = match cfg.steal {
            StealPolicy::Busiest => {
                // Snapshot the live (remaining est, remaining morsels) stats and
                // probe victims busiest-first; ties break toward the lower id.
                let mut victims: Vec<(u64, u64, usize)> = (0..n)
                    .filter(|&w| w != id)
                    .map(|w| {
                        (
                            self.loads[w].est.load(Ordering::Relaxed),
                            self.loads[w].morsels.load(Ordering::Relaxed),
                            w,
                        )
                    })
                    .collect();
                victims
                    .sort_unstable_by(|x, y| y.0.cmp(&x.0).then(y.1.cmp(&x.1)).then(x.2.cmp(&y.2)));
                victims
                    .into_iter()
                    .find_map(|(_, _, w)| self.steal_from(w).map(|m| (m, w)))
            }
            StealPolicy::RoundRobin => (1..n).find_map(|k| {
                let w = (id + k) % n;
                self.steal_from(w).map(|m| (m, w))
            }),
            StealPolicy::Seeded => {
                *attempts += 1;
                let start = shim.first_victim(id, *attempts, n);
                (0..n).find_map(|k| {
                    let w = (start + k) % n;
                    if w == id {
                        return None;
                    }
                    self.steal_from(w).map(|m| (m, w))
                })
            }
        };
        stolen.map(|(m, v)| {
            if let Some(tr) = tracer {
                tr.instant(
                    "steal",
                    "join",
                    &[("victim", v as u64), ("morsel", u64::from(m.id()))],
                );
            }
            (m, TaskOrigin::Steal)
        })
    }
}

/// Run-wide state every worker shares: the caller's cancel token, the
/// first unrecoverable storage error (which raises `abort`, stopping every
/// worker at its next check) and contained morsel panics — which
/// deliberately do NOT raise `abort`: the point of catching them is that
/// the rest of the plan still runs.
pub(crate) struct Status<'c> {
    cancel: Option<&'c CancelToken>,
    abort: AtomicBool,
    failed_tasks: AtomicU64,
    first_error: Mutex<Option<PageError>>,
    panics: AtomicU64,
    first_panic: Mutex<Option<String>>,
}

impl<'c> Status<'c> {
    fn new(cancel: Option<&'c CancelToken>) -> Self {
        Status {
            cancel,
            abort: AtomicBool::new(false),
            failed_tasks: AtomicU64::new(0),
            first_error: Mutex::new(None),
            panics: AtomicU64::new(0),
            first_panic: Mutex::new(None),
        }
    }

    /// Whether workers should unwind: the token fired or a storage error
    /// aborted the run.
    #[inline]
    pub(crate) fn stopped(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled) || self.abort.load(Ordering::Relaxed)
    }

    fn record(&self, error: PageError) {
        self.failed_tasks.fetch_add(1, Ordering::Relaxed);
        let mut slot = lock_clean(&self.first_error);
        if slot.is_none() {
            *slot = Some(error);
        }
        drop(slot);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut slot = lock_clean(&self.first_panic);
        if slot.is_none() {
            *slot = Some(msg);
        }
    }
}

/// One worker's run output: completed morsels' result pairs keyed by
/// morsel id, and one trace per acquired morsel.
type WorkerOutput = (Vec<(u32, Vec<(u64, u64)>)>, Vec<TaskTrace>);

/// A finished run, before the merge: what the workers returned plus the
/// shared failure state.
pub(crate) struct Joined<'c> {
    outputs: Vec<(u32, Vec<(u64, u64)>)>,
    traces: Vec<TaskTrace>,
    status: Status<'c>,
    morsels: usize,
}

/// Deals `morsels` per `cfg.assignment` and runs them on `cfg.num_threads`
/// scoped workers, each executing through the body `worker(id)` builds on
/// its own thread. Returns once every worker has retired.
pub(crate) fn execute<'c, M, W>(
    cfg: &NativeConfig,
    ctl: &RunControl<'c>,
    morsels: Vec<M>,
    worker: impl Fn(usize) -> W + Sync,
) -> Joined<'c>
where
    M: Schedulable,
    W: MorselBody<M>,
{
    let num_morsels = morsels.len();
    let queues = Queues::deal(cfg.assignment, morsels, cfg.num_threads);
    let status = Status::new(ctl.cancel);
    let mut outputs = Vec::with_capacity(num_morsels);
    let mut traces = Vec::with_capacity(num_morsels);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.num_threads)
            .map(|id| {
                let (queues, status, worker) = (&queues, &status, &worker);
                let tracer = ctl.trace.as_ref().map(|t| t.tracer(worker_tid(id)));
                scope.spawn(move || work(id, cfg, queues, status, &mut worker(id), tracer))
            })
            .collect();
        for h in handles {
            let (mut o, mut t) = h.join().expect("worker panicked outside a morsel");
            outputs.append(&mut o);
            traces.append(&mut t);
        }
    });
    Joined {
        outputs,
        traces,
        status,
        morsels: num_morsels,
    }
}

fn work<M: Schedulable, W: MorselBody<M>>(
    id: usize,
    cfg: &NativeConfig,
    queues: &Queues<M>,
    status: &Status<'_>,
    body: &mut W,
    mut tracer: Option<ThreadTracer>,
) -> WorkerOutput {
    let shim = StealOrder::new(cfg.steal_seed);
    let mut attempts = 0u64;
    let mut outputs = Vec::new();
    let mut traces = Vec::new();
    // Cancellation / failure abort: each worker bails out on its own; the
    // merge discards partial results once every worker has unwound.
    while !status.stopped() {
        let Some((morsel, origin)) =
            queues.acquire_morsel(id, cfg, &shim, &mut attempts, tracer.as_mut())
        else {
            // Every queue observed empty. Queues only drain after setup
            // (bodies never requeue work), so nothing can appear later:
            // retire without a termination barrier.
            break;
        };
        let seg = Segment {
            worker: id,
            morsel: morsel.id(),
            origin,
            start: Instant::now(),
        };
        let start_ns = tracer.as_ref().map_or(0, ThreadTracer::now_ns);
        // A panic (a kernel bug, an injected fault) is contained to the
        // morsel that hit it: the worker records it, keeps its thread, and
        // moves on. Shared structures stay usable across the unwind because
        // every lock on a worker's path recovers from poisoning
        // (`lock_clean`) and in-flight cache fills are cleaned up by a drop
        // guard.
        let run =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body.run(morsel, status)));
        let (out, halted) = match run {
            Ok(Ok(out)) => (Some(out), false),
            Ok(Err(halt)) => {
                if let Halt::Storage(e) = halt {
                    status.record(e);
                }
                (None, true)
            }
            Err(payload) => {
                status.record_panic(payload.as_ref());
                (None, false)
            }
        };
        let tt = body.close(&seg);
        if let Some(tr) = tracer.as_mut() {
            tr.span("task", "join", start_ns, &W::span_args(&tt));
        }
        traces.push(tt);
        if halted {
            break;
        }
        if let Some(out) = out {
            outputs.push((seg.morsel, out));
        }
    }
    (outputs, traces)
}

impl Joined<'_> {
    /// Morsels acquired by reassignment.
    pub(crate) fn steals(&self) -> u64 {
        self.traces
            .iter()
            .filter(|t| t.origin == TaskOrigin::Steal)
            .count() as u64
    }

    /// Merges the run into a result, or reports why there is none: a
    /// storage abort first, then cancellation (a token that fired mid-run
    /// means workers unwound early), then a contained panic. The counters
    /// of the result are the sums of its per-morsel traces.
    ///
    /// # Panics
    ///
    /// On a morsel executed twice or lost without a recorded panic — an
    /// executor bug, not a data error.
    pub(crate) fn finish(
        self,
        elapsed: Duration,
        tasks: usize,
        engine: JoinEngine,
    ) -> Result<NativeResult, NativeError> {
        let steals = self.steals();
        let Joined {
            outputs,
            traces,
            status,
            morsels,
        } = self;
        if status.abort.load(Ordering::SeqCst) {
            let error = lock_clean(&status.first_error)
                .take()
                .expect("abort flag implies a recorded error");
            return Err(NativeError::Storage(JoinError {
                error,
                failed_tasks: status.failed_tasks.load(Ordering::Relaxed),
            }));
        }
        if let Some(token) = status.cancel {
            token.check().map_err(|_| NativeError::Cancelled)?;
        }

        // Every completed morsel's output lands in its id slot exactly
        // once; concatenating slots in id order reproduces the plan order.
        // A hole is an executor bug unless a contained panic explains it, in
        // which case the run reports a typed error (a partial merge would
        // be a silently wrong answer).
        let mut slots: Vec<Option<Vec<(u64, u64)>>> = Vec::new();
        slots.resize_with(morsels, || None);
        for (mid, out) in outputs {
            let slot = &mut slots[mid as usize];
            assert!(slot.is_none(), "morsel {mid} executed twice");
            *slot = Some(out);
        }
        if status.panics.load(Ordering::Relaxed) > 0 {
            let message = lock_clean(&status.first_panic)
                .take()
                .unwrap_or_else(|| "panic recorded without a message".to_string());
            return Err(NativeError::WorkerPanic {
                message,
                completed_morsels: slots.iter().filter(|s| s.is_some()).count(),
                morsels,
            });
        }
        let mut pairs = Vec::with_capacity(slots.iter().flatten().map(Vec::len).sum());
        for (mid, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(mut v) => pairs.append(&mut v),
                None => panic!("morsel {mid} lost"),
            }
        }
        let sum = |f: fn(&TaskTrace) -> u64| traces.iter().map(f).sum();
        Ok(NativeResult {
            pairs,
            candidates: sum(|t| t.candidates),
            node_pairs: sum(|t| t.node_pairs),
            elapsed,
            tasks,
            morsels,
            steals,
            buffer: None,
            buffer_per_worker: Vec::new(),
            replicated: sum(|t| t.replicated),
            deduped: sum(|t| t.deduped),
            task_traces: traces,
            engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[derive(Clone)]
    struct Unit(u32);

    impl Schedulable for Unit {
        fn id(&self) -> u32 {
            self.0
        }
        fn est(&self) -> u64 {
            u64::from(self.0 % 3) + 1
        }
    }

    /// Emits `(id, id)` per morsel, panics on morsel `poison`, and logs
    /// every morsel it starts.
    struct Synthetic {
        poison: u32,
        ran: Arc<Mutex<Vec<u32>>>,
    }

    impl MorselBody<Unit> for Synthetic {
        fn run(&mut self, m: Unit, _: &Status<'_>) -> Result<Vec<(u64, u64)>, Halt> {
            lock_clean(&self.ran).push(m.0);
            assert!(m.0 != self.poison, "synthetic panic in morsel {}", m.0);
            Ok(vec![(u64::from(m.0), u64::from(m.0))])
        }

        fn close(&mut self, seg: &Segment) -> TaskTrace {
            TaskTrace {
                worker: seg.worker,
                morsel: seg.morsel,
                tasks: 1,
                origin: seg.origin,
                node_pairs: 0,
                candidates: 1,
                pages: 0,
                hits_local: 0,
                hits_l1: 0,
                hits_remote: 0,
                misses: 0,
                retries: 0,
                wall: seg.start.elapsed(),
                engine: JoinEngine::RTree,
                replicated: 0,
                deduped: 0,
            }
        }

        fn span_args(_: &TaskTrace) -> Vec<(&'static str, u64)> {
            Vec::new()
        }
    }

    fn run_synthetic(cfg: &NativeConfig, n: u32, poison: u32) -> (Joined<'static>, Vec<u32>) {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let joined = execute(
            cfg,
            &RunControl::default(),
            (0..n).map(Unit).collect(),
            |_| Synthetic {
                poison,
                ran: Arc::clone(&ran),
            },
        );
        let ran = lock_clean(&ran).clone();
        (joined, ran)
    }

    /// A panic in one morsel is contained: every other morsel still runs,
    /// every morsel (the panicked one too) records exactly one trace, and
    /// the merge reports a typed error instead of a partial result.
    #[test]
    fn panicking_morsel_is_contained_and_reported() {
        let n = 24u32;
        for threads in [1, 3] {
            for assignment in [
                Assignment::Dynamic,
                Assignment::StaticRange,
                Assignment::StaticRoundRobin,
            ] {
                let mut cfg = NativeConfig::new(threads);
                cfg.assignment = assignment;
                let ctx = format!("{assignment:?} t={threads}");
                let (joined, ran) = run_synthetic(&cfg, n, 7);
                let ran: BTreeSet<u32> = ran.into_iter().collect();
                assert_eq!(ran, (0..n).collect(), "{ctx}: every morsel ran once");
                let mut traced: Vec<u32> = joined.traces.iter().map(|t| t.morsel).collect();
                traced.sort_unstable();
                assert_eq!(traced, (0..n).collect::<Vec<_>>(), "{ctx}: one trace each");
                match joined.finish(Duration::ZERO, n as usize, JoinEngine::RTree) {
                    Err(NativeError::WorkerPanic {
                        message,
                        completed_morsels,
                        morsels,
                    }) => {
                        assert!(message.contains("synthetic panic in morsel 7"), "{message}");
                        assert_eq!(completed_morsels, n as usize - 1, "{ctx}");
                        assert_eq!(morsels, n as usize, "{ctx}");
                    }
                    other => panic!("{ctx}: expected WorkerPanic, got {other:?}"),
                }
            }
        }
    }
}
