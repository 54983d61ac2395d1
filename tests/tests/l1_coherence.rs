//! Coherence tests for the per-worker L1 front over the shared page cache.
//!
//! The L1 front may only serve a slot whose shard generation still matches
//! the shard: any eviction or quarantine in the shard must invalidate every
//! front slot mapped to it. These tests drive staleness directly — a page
//! source whose values change between fetches, evictions forced by a tiny
//! shard, and corruption-induced quarantine — and assert the front never
//! serves a value the shared cache would no longer serve. They also pin the
//! stats contract: after a flush, front hits land in `hits_l1` and every
//! access is accounted for in `requests()`.

use psj_buffer::{FaultSource, L1Front, PageSource, Policy, SharedAccess, SharedPageCache};
use psj_core::native::{run_native_join, BufferConfig, NativeConfig};
use psj_core::{join_candidates, BufferOrg};
use psj_integration::harness::JoinScenario;
use psj_store::{FaultPlan, PageError, PageId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A source whose pages carry a version stamp: fetch number `k` of page `p`
/// returns `p * 1000 + k`. If the L1 front ever serves a pinned value after
/// the shared cache refetched the page, the version mismatch exposes it.
struct Versioned {
    fetches: Mutex<std::collections::HashMap<u32, u32>>,
    total: AtomicU64,
}

impl Versioned {
    fn new() -> Self {
        Versioned {
            fetches: Mutex::new(std::collections::HashMap::new()),
            total: AtomicU64::new(0),
        }
    }

    /// The latest version fetched for `page` (0 if never fetched).
    fn version(&self, page: PageId) -> u32 {
        *self.fetches.lock().unwrap().get(&page.0).unwrap_or(&0)
    }
}

impl PageSource for Versioned {
    type Item = u32;

    fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
        let mut m = self.fetches.lock().unwrap();
        let k = m.entry(page.0).or_insert(0);
        *k += 1;
        self.total.fetch_add(1, Ordering::Relaxed);
        Ok(page.0 * 1000 + *k)
    }

    fn page_count(&self) -> usize {
        1 << 20
    }
}

/// A source that serves a page cleanly `clean_fetches` times, then reports
/// it corrupt forever after — the shared cache quarantines it.
struct TurnsCorrupt {
    bad_page: PageId,
    clean_fetches: u32,
    seen: AtomicU64,
}

impl PageSource for TurnsCorrupt {
    type Item = u32;

    fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
        if page == self.bad_page {
            let n = self.seen.fetch_add(1, Ordering::Relaxed);
            if n >= self.clean_fetches as u64 {
                return Err(PageError::Corrupt {
                    page,
                    context: "l1-coherence test: page turned corrupt".into(),
                });
            }
        }
        Ok(page.0)
    }

    fn page_count(&self) -> usize {
        1 << 20
    }
}

#[test]
fn eviction_invalidates_front_slots() {
    // One shard of capacity 2: touching a third page evicts one of the
    // first two and bumps the shard generation.
    let cache: SharedPageCache<u32> = SharedPageCache::new(1, 2, 1, Policy::Lru);
    let src = Versioned::new();
    let mut l1 = L1Front::new(64);

    let (v, a) = l1.read(&cache, 0, PageId(1), &src).unwrap();
    assert_eq!((*v, a), (1001, SharedAccess::Miss));
    let (v, a) = l1.read(&cache, 0, PageId(1), &src).unwrap();
    assert_eq!(
        (*v, a),
        (1001, SharedAccess::HitLocal),
        "front absorbs repeat"
    );

    // Evict page 1 by filling the shard with pages 2 and 3.
    l1.read(&cache, 0, PageId(2), &src).unwrap();
    l1.read(&cache, 0, PageId(3), &src).unwrap();
    assert!(!cache.contains(PageId(1)), "page 1 must have been evicted");

    // The front still pins version 1001, but the generation bumped: the
    // probe must fall through to the shared cache and refetch version 1002.
    let (v, a) = l1.read(&cache, 0, PageId(1), &src).unwrap();
    assert_eq!(*v, 1002, "stale pinned value served after eviction");
    assert_eq!(a, SharedAccess::Miss);

    // Stats reconcile exactly: every read above is either a shared-cache
    // access or a pending front hit; after flush, requests() covers all.
    let shared_before_flush = cache.stats(0).requests();
    let pending = l1.pending_hits();
    l1.flush(&cache, 0);
    let stats = cache.stats(0);
    assert_eq!(stats.hits_l1, pending);
    assert_eq!(stats.requests(), shared_before_flush + pending);
    assert_eq!(stats.requests(), 5, "five reads, five accesses");
}

#[test]
fn quarantine_invalidates_front_slots() {
    let bad = PageId(7);
    let src = TurnsCorrupt {
        bad_page: bad,
        clean_fetches: 1,
        seen: AtomicU64::new(0),
    };
    // Generous capacity: only the quarantine, not eviction, can bump the
    // generation here.
    let cache: SharedPageCache<u32> = SharedPageCache::new(1, 64, 1, Policy::Lru);
    let mut l1 = L1Front::new(16);

    let (v, _) = l1.read(&cache, 0, bad, &src).unwrap();
    assert_eq!(*v, 7);
    assert_eq!(
        l1.read(&cache, 0, bad, &src).unwrap().1,
        SharedAccess::HitLocal
    );

    // A fresh cache over the same source sees the now-corrupt fetch and
    // quarantines the page (the first cache never refetches a resident
    // page, so the corruption can only surface on a cold fill).
    let cache2: SharedPageCache<u32> = SharedPageCache::new(1, 64, 1, Policy::Lru);
    let mut l1b = L1Front::new(16);
    let err = l1b.read(&cache2, 0, bad, &src).unwrap_err();
    assert!(err.is_corrupt(), "expected corrupt, got {err:?}");
    assert!(cache2.is_quarantined(bad));

    // The front never cached the failed fill, and subsequent probes keep
    // reporting the quarantine rather than fabricating a value.
    let err = l1b.read(&cache2, 0, bad, &src).unwrap_err();
    assert!(err.is_corrupt());
    assert_eq!(
        l1b.pending_hits(),
        0,
        "no front hit may come from a failed fill"
    );
}

#[test]
fn generation_bump_from_quarantine_expires_sibling_slots() {
    // Page 3 turns corrupt after its first fetch; page 5 stays clean. Both
    // live in the single shard, so quarantining 3 must also expire the
    // front's slot for 5 (conservative per-shard invalidation).
    let src = TurnsCorrupt {
        bad_page: PageId(3),
        clean_fetches: 0,
        seen: AtomicU64::new(0),
    };
    let cache: SharedPageCache<u32> = SharedPageCache::new(1, 64, 1, Policy::Lru);
    let mut l1 = L1Front::new(16);

    l1.read(&cache, 0, PageId(5), &src).unwrap();
    assert_eq!(
        l1.read(&cache, 0, PageId(5), &src).unwrap().1,
        SharedAccess::HitLocal
    );
    let generation_before = cache.shard_generation(PageId(5));

    assert!(l1.read(&cache, 0, PageId(3), &src).is_err());
    assert!(cache.is_quarantined(PageId(3)));
    assert!(
        cache.shard_generation(PageId(5)) > generation_before,
        "quarantine must bump the shard generation"
    );

    // The slot for 5 is now stale-by-generation: the probe must fall
    // through to the shared cache instead of serving from the front.
    let pending_before = l1.pending_hits();
    let (v, _) = l1.read(&cache, 0, PageId(5), &src).unwrap();
    assert_eq!(*v, 5);
    assert_eq!(
        l1.pending_hits(),
        pending_before,
        "stale slot must not count a front hit"
    );
    // ...and the fall-through refilled the slot, so the next probe is a
    // front hit again.
    l1.read(&cache, 0, PageId(5), &src).unwrap();
    assert_eq!(l1.pending_hits(), pending_before + 1);
}

#[test]
fn native_join_l1_hits_reconcile_exactly() {
    // End-to-end: a buffered out-of-core join with the L1 front enabled must
    // produce the oracle pair set, and worker-level hits_l1 must equal the
    // sum over task traces — no front hit lost, none double counted.
    let s = JoinScenario::paper_maps("l1-reconcile", 3, 0.02);
    let oracle: BTreeSet<(u64, u64)> = join_candidates(&s.a, &s.b).candidates.into_iter().collect();
    for (org, capacity) in [
        (BufferOrg::Global, 8usize),
        (BufferOrg::Global, 256),
        (BufferOrg::Local, 32),
    ] {
        let buffer = BufferConfig {
            org,
            capacity_pages: capacity,
            shards: 4,
            policy: Policy::Lru,
        };
        let mut cfg = NativeConfig::buffered(3, buffer);
        cfg.refine = false;
        let res = run_native_join(&s.a, &s.b, &cfg);
        let got: BTreeSet<(u64, u64)> = res.pairs.iter().copied().collect();
        assert_eq!(got, oracle, "{org:?}/{capacity}: wrong pairs");
        let stats = res.buffer.expect("buffered run reports stats");
        let traced_l1: u64 = res.task_traces.iter().map(|t| t.hits_l1).sum();
        assert_eq!(
            traced_l1, stats.hits_l1,
            "{org:?}/{capacity}: task-trace L1 hits diverge from worker stats"
        );
        let traced_hits: u64 = res
            .task_traces
            .iter()
            .map(|t| t.hits_local + t.hits_l1 + t.hits_remote)
            .sum();
        assert_eq!(
            traced_hits,
            stats.hits_local + stats.hits_l1 + stats.hits_remote,
            "{org:?}/{capacity}: hit accounting diverges"
        );
    }
}

#[test]
fn fault_plan_churn_never_serves_stale_or_corrupt_values() {
    // A small cache (evictions every few accesses) over a version-stamped
    // source wrapped in a FaultPlan that marks some pages permanently
    // corrupt. Under a long pseudo-random access stream, every successful
    // lookup — L1 front hit or shared-cache fill — must return the page's
    // *latest* fetched version: a front hit is only legal while no eviction
    // or quarantine touched the shard, which is exactly when no refetch can
    // have happened. Corrupt pages must fail every time and quarantine.
    let plan = Arc::new(FaultPlan::new(42).with_flip(0.08));
    let src = FaultSource::new(Versioned::new(), Arc::clone(&plan));
    let cache: SharedPageCache<u32> = SharedPageCache::new(1, 8, 2, Policy::Lru);
    let mut l1 = L1Front::new(16);

    let mut state = 0x2545F491u64;
    let (mut oks, mut corrupts) = (0u64, 0u64);
    for _ in 0..4000 {
        // xorshift64: deterministic, clumpy enough to produce front hits.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let page = PageId((state % 48) as u32);
        match l1.read(&cache, 0, page, &src) {
            Ok((v, _)) => {
                oks += 1;
                let latest = src.inner().version(page);
                assert_eq!(
                    *v,
                    page.0 * 1000 + latest,
                    "stale or fabricated value for page {page:?}"
                );
            }
            Err(e) => {
                assert!(e.is_corrupt(), "only injected corruption may fail: {e:?}");
                assert!(cache.is_quarantined(page));
                corrupts += 1;
            }
        }
    }
    assert!(
        oks > 0 && corrupts > 0,
        "stream must exercise both outcomes"
    );
    assert!(plan.corrupt_injected() > 0);

    // Accounting closes: flushed front hits plus shared-cache accesses
    // cover exactly the successful lookups (failed fills surface the error
    // and are not counted as buffer-layer accesses — and never as L1 hits).
    let pending = l1.pending_hits();
    l1.flush(&cache, 0);
    let stats = cache.stats(0);
    assert_eq!(stats.hits_l1, pending);
    assert!(
        stats.hits_l1 > 0,
        "churn stream must still produce front hits"
    );
    assert_eq!(stats.requests(), oks);
    cache.check_invariants().expect("cache invariants hold");
}
