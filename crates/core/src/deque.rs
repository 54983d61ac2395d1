//! Work-stealing task queues for the morsel scheduler both join engines
//! share.
//!
//! A std-only replacement for `crossbeam::deque` (unavailable in offline
//! builds): a shared FIFO [`Injector`] and per-worker [`MorselQueue`]s
//! whose thieves reassign one morsel at a time.
//!
//! Implementation is a `Mutex<VecDeque>` per queue. Locks are never
//! nested, so cyclic steals cannot deadlock. Every lock goes through
//! [`psj_store::lock_clean`]: a worker that panics mid-morsel must not
//! poison the queues and abort the sibling workers — the queues are structurally valid across a panic (a morsel is
//! either still queued or already handed out), so the survivors drain the
//! rest and the panic is surfaced as a typed error by the driver. For the
//! join workloads measured here, queue operations are a negligible fraction
//! of kernel time (plane sweeps dominate); lock-free deques are a drop-in
//! upgrade if that ever changes.

use psj_store::lock_clean;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Outcome of a steal attempt (mirrors `crossbeam::deque::Steal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// A task was stolen.
    Success(T),
    /// The queue was observed empty.
    Empty,
    /// The attempt raced with another operation; try again.
    Retry,
}

/// The shared FIFO queue tasks start in under dynamic assignment.
#[derive(Debug)]
pub struct Injector<T> {
    q: Mutex<VecDeque<T>>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// An empty injector.
    pub fn new() -> Self {
        Injector {
            q: Mutex::new(VecDeque::new()),
        }
    }

    /// Adds a task to the back of the queue.
    pub fn push(&self, task: T) {
        lock_clean(&self.q).push_back(task);
    }

    /// Takes one task from the front of the queue.
    pub fn steal(&self) -> Steal<T> {
        match lock_clean(&self.q).pop_front() {
            Some(t) => Steal::Success(t),
            None => Steal::Empty,
        }
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        lock_clean(&self.q).is_empty()
    }
}

/// A worker's morsel queue: the owner consumes from the front (plane-sweep
/// order), a thief reassigns exactly **one** morsel from the back — the far
/// end of the owner's sweep, which both minimizes contention and matches
/// the paper's "reassign one task" granularity. Exact-one-steal semantics
/// are what make steal accounting reconcile: every acquisition is either an
/// owner pop, a shared-queue pop, or one recorded steal.
///
/// Nothing is ever pushed after execution starts (workers keep task
/// descendants on a private stack), so queue lengths only shrink — a
/// worker observing every queue empty can retire without a termination
/// barrier.
#[derive(Debug)]
pub struct MorselQueue<T> {
    q: Mutex<VecDeque<T>>,
}

impl<T> Default for MorselQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MorselQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        MorselQueue {
            q: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends a morsel (setup phase only).
    pub fn push_back(&self, m: T) {
        lock_clean(&self.q).push_back(m);
    }

    /// Owner acquisition: next morsel in plane-sweep order.
    pub fn pop_front(&self) -> Option<T> {
        lock_clean(&self.q).pop_front()
    }

    /// Thief acquisition: exactly one morsel from the far end.
    pub fn steal_back(&self) -> Option<T> {
        lock_clean(&self.q).pop_back()
    }

    /// Morsels currently queued.
    pub fn len(&self) -> usize {
        lock_clean(&self.q).len()
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        lock_clean(&self.q).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        inj.push('a');
        inj.push('b');
        assert_eq!(inj.steal(), Steal::Success('a'));
        assert_eq!(inj.steal(), Steal::Success('b'));
        assert_eq!(inj.steal(), Steal::Empty);
        assert!(inj.is_empty());
    }

    #[test]
    fn morsel_queue_owner_front_thief_back() {
        let q = MorselQueue::new();
        for i in 0..4 {
            q.push_back(i);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_front(), Some(0), "owner follows sweep order");
        assert_eq!(q.steal_back(), Some(3), "thief takes the far end");
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.steal_back(), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.steal_back(), None);
    }

    #[test]
    fn morsel_queue_drains_exactly_once_under_contention() {
        const MORSELS: usize = 5_000;
        let q: MorselQueue<usize> = MorselQueue::new();
        for i in 0..MORSELS {
            q.push_back(i);
        }
        let seen: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let q = &q;
                let seen = &seen;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        // Half the threads act as owners, half as thieves.
                        let got = if t % 2 == 0 {
                            q.pop_front()
                        } else {
                            q.steal_back()
                        };
                        match got {
                            Some(m) => local.push(m),
                            None => break,
                        }
                    }
                    let mut set = seen.lock().unwrap();
                    for m in local {
                        assert!(set.insert(m), "morsel {m} acquired twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), MORSELS);
    }

    #[test]
    fn no_task_lost_or_duplicated_under_contention() {
        const TASKS: usize = 10_000;
        const THREADS: usize = 4;
        let inj: Injector<usize> = Injector::new();
        for i in 0..TASKS {
            inj.push(i);
        }
        let seen: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let inj = &inj;
                let seen = &seen;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match inj.steal() {
                            Steal::Success(t) => local.push(t),
                            Steal::Empty => break,
                            Steal::Retry => continue,
                        }
                    }
                    let mut set = seen.lock().unwrap();
                    for t in local {
                        assert!(set.insert(t), "task {t} executed twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), TASKS);
    }
}
