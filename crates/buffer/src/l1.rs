//! A per-worker L1 front over the [`SharedPageCache`].
//!
//! The in-memory echo of the paper's local-buffer design (§3.2): each worker
//! owns a small direct-mapped table of `(page, shard generation, Arc)` slots
//! consulted *before* the shared cache. A slot hit returns the pinned value
//! without touching the shard mutex or any stat atomic — the repeat hits a
//! join's depth-first descent produces (the same parent pages over and over)
//! collapse to an array probe and a generation compare. [`L1Front::read`]
//! is the front's one lookup: slot, then [`SharedPageCache::read`] (guard,
//! else pessimistic) with a refill.
//!
//! ## Coherence
//!
//! A slot is filled with the shard's generation as read **before** the
//! underlying [`SharedPageCache::read`]. The shared cache bumps a shard's
//! generation whenever a page leaves it (eviction or quarantine), so:
//!
//! * slot generation == current generation ⟹ no page has left the shard
//!   since the fill ⟹ the slot's page is still resident and still clean —
//!   serving it from the front is observably identical to a shard probe,
//!   minus the LRU recency touch (see below);
//! * any eviction or quarantine in the shard invalidates every front slot
//!   for that shard (conservative: generations are per shard, not per page),
//!   after which the front falls through to the shared cache and refills —
//!   via a borrowing [`PageGuard`](crate::PageGuard) read when the page is
//!   still resident (no shard mutex; the slot's `Arc` is minted from the
//!   guard and the guard itself is returned to the caller),
//!   pessimistically only when the pin fails.
//!
//! Reading the generation *before* the fill only errs toward a stale (too
//! old) value, which makes slots expire sooner — never later — than a
//! per-fill-exact scheme would. A stale page can therefore never be served.
//!
//! ## What an L1 hit skips
//!
//! An L1 hit does not promote the page in the shard's replacement order.
//! This is deliberate and bounded: the page *is* still resident (the
//! generation proves it), and the worker will touch it again through the
//! shared path the moment the front misses. The divergence only shifts
//! replacement recency, never correctness, and only while nothing in the
//! shard is evicted — the first eviction resets all fronts for the shard.
//!
//! ## Statistics
//!
//! L1 hits accumulate in the front and are flushed to the owning worker's
//! [`BufferStats::hits_l1`](crate::BufferStats::hits_l1) counter via
//! [`L1Front::flush`]. Callers flush before every stats read so segment
//! deltas and aggregates reconcile exactly; the executor's per-task traces
//! assert this.

use crate::shared::{PageRef, PageSource, SharedAccess, SharedPageCache};
use psj_store::{PageError, PageId};
use std::sync::Arc;

/// One direct-mapped slot: the page, the owning shard's generation at fill
/// time, and the pinned value.
struct Slot<T> {
    page: PageId,
    generation: u64,
    value: Arc<T>,
}

/// A small direct-mapped per-worker front for a [`SharedPageCache`]; see the
/// module docs for the coherence argument.
pub struct L1Front<T> {
    slots: Vec<Option<Slot<T>>>,
    mask: usize,
    /// Hits served from the front since the last [`L1Front::flush`].
    pending_hits: u64,
}

impl<T> L1Front<T> {
    /// Creates a front with `slots` direct-mapped entries (rounded up to a
    /// power of two, minimum 1).
    pub fn new(slots: usize) -> Self {
        let n = slots.max(1).next_power_of_two();
        L1Front {
            slots: (0..n).map(|_| None).collect(),
            mask: n - 1,
            pending_hits: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the front has zero capacity (never true; `new` enforces ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Hits accumulated since the last flush.
    pub fn pending_hits(&self) -> u64 {
        self.pending_hits
    }

    #[inline]
    fn slot_of(&self, page: PageId) -> usize {
        // Same Fibonacci spread as the shared cache's shard hash, folded to
        // the slot count.
        let h = (page.0 as u64).wrapping_mul(0x9E3779B97F4A7C15);
        (h >> 32) as usize & self.mask
    }

    /// Looks up `page`, probing the front first and falling back to
    /// [`SharedPageCache::read`] on a front miss (refilling the slot on
    /// success). A front hit hands out the slot's `Arc`; a refill hands out
    /// the shared cache's guard borrow when the pin validated, so the
    /// caller's read costs no refcount traffic beyond the slot's own.
    ///
    /// Returns the page and how the request was satisfied;
    /// [`SharedAccess::HitLocal`] is reported for front hits (the hit is
    /// counted separately in `hits_l1` at [`L1Front::flush`] time, not in
    /// `hits_local`).
    pub fn read<'c, S>(
        &mut self,
        cache: &'c SharedPageCache<T>,
        worker: usize,
        page: PageId,
        source: &S,
    ) -> Result<(PageRef<'c, T>, SharedAccess), PageError>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        let idx = self.slot_of(page);
        // Read the generation once; it serves both the probe compare and —
        // because it was read *before* the fill — the refill stamp.
        let generation = cache.shard_generation(page);
        if let Some(slot) = &self.slots[idx] {
            if slot.page == page && slot.generation == generation {
                self.pending_hits += 1;
                return Ok((
                    PageRef::Owned(Arc::clone(&slot.value)),
                    SharedAccess::HitLocal,
                ));
            }
        }
        let (read, access) = cache.read(worker, page, source)?;
        self.slots[idx] = Some(Slot {
            page,
            generation,
            value: read.to_arc(),
        });
        Ok((read, access))
    }

    /// Flushes accumulated front hits into `worker`'s
    /// [`BufferStats::hits_l1`](crate::BufferStats::hits_l1) counter.
    /// Call before reading stats that must include this front's activity.
    pub fn flush(&mut self, cache: &SharedPageCache<T>, worker: usize) {
        if self.pending_hits > 0 {
            cache.add_l1_hits(worker, self.pending_hits);
            self.pending_hits = 0;
        }
    }

    /// Drops every cached slot (the pins, not the shared cache's contents).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
    }
}

impl<T> std::fmt::Debug for L1Front<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L1Front")
            .field("slots", &self.slots.len())
            .field("filled", &self.slots.iter().filter(|s| s.is_some()).count())
            .field("pending_hits", &self.pending_hits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting {
        fetches: AtomicU64,
    }

    impl PageSource for Counting {
        type Item = u32;

        fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            Ok(page.0)
        }

        fn page_count(&self) -> usize {
            1000
        }
    }

    fn counting() -> Counting {
        Counting {
            fetches: AtomicU64::new(0),
        }
    }

    fn p(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn repeat_hits_skip_the_shared_cache() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 64, 2, Policy::Lru);
        let src = counting();
        let mut l1 = L1Front::new(16);
        let (v, a) = l1.read(&cache, 0, p(3), &src).unwrap();
        assert_eq!((*v, a), (3, SharedAccess::Miss));
        for _ in 0..5 {
            let (v, a) = l1.read(&cache, 0, p(3), &src).unwrap();
            assert_eq!((*v, a), (3, SharedAccess::HitLocal));
        }
        // The shared cache saw exactly one request (the miss): the repeats
        // were absorbed by the front.
        assert_eq!(cache.stats(0).requests(), 1);
        assert_eq!(l1.pending_hits(), 5);
        l1.flush(&cache, 0);
        let stats = cache.stats(0);
        assert_eq!(stats.hits_l1, 5);
        assert_eq!(stats.requests(), 6, "after flush, every access counted");
        l1.flush(&cache, 0);
        assert_eq!(
            cache.stats(0).hits_l1,
            5,
            "flush is idempotent when drained"
        );
    }

    #[test]
    fn eviction_invalidates_front_slots() {
        // Single shard, capacity 1: every new page evicts the previous one.
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 1, 1, Policy::Lru);
        let src = counting();
        let mut l1 = L1Front::new(16);
        l1.read(&cache, 0, p(1), &src).unwrap();
        // p2 evicts p1 and bumps the shard generation.
        l1.read(&cache, 0, p(2), &src).unwrap();
        assert!(!cache.contains(p(1)));
        // The front must NOT serve its stale p1 slot: the access goes to the
        // shared cache and re-fetches.
        let (_, a) = l1.read(&cache, 0, p(1), &src).unwrap();
        assert_eq!(a, SharedAccess::Miss);
        assert_eq!(src.fetches.load(Ordering::Relaxed), 3);
        assert_eq!(l1.pending_hits(), 0, "no front hit was ever served");
    }

    #[test]
    fn colliding_slots_overwrite_and_stay_correct() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 64, 1, Policy::Lru);
        let src = counting();
        // One slot: every distinct page collides.
        let mut l1 = L1Front::new(1);
        assert_eq!(l1.len(), 1);
        for n in 0..8 {
            let (v, _) = l1.read(&cache, 0, p(n), &src).unwrap();
            assert_eq!(*v, n);
        }
        // Values stay correct under constant collision; no front hits accrue.
        assert_eq!(l1.pending_hits(), 0);
        // But a repeat of the most recent page hits.
        let (_, a) = l1.read(&cache, 0, p(7), &src).unwrap();
        assert_eq!(a, SharedAccess::HitLocal);
    }

    #[test]
    fn lookup_front_guard_and_fallback() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 64, 2, Policy::Lru);
        let src = counting();
        let mut l1 = L1Front::new(16);
        // Cold: nothing mirrored yet → the pin fails and the pessimistic
        // path fills.
        let (r, a) = l1.read(&cache, 0, p(5), &src).unwrap();
        assert!(matches!(r, PageRef::Owned(_)));
        assert_eq!((*r, a), (5, SharedAccess::Miss));
        // Repeat: the refilled slot serves it.
        let (r, _) = l1.read(&cache, 0, p(5), &src).unwrap();
        assert!(matches!(r, PageRef::Owned(_)));
        assert_eq!(l1.pending_hits(), 1);
        // Front invalidated but the page is still resident: the guard
        // read serves the borrow and refills the slot.
        l1.clear();
        let (r, a) = l1.read(&cache, 0, p(5), &src).unwrap();
        assert!(matches!(r, PageRef::Guard(_)));
        assert_eq!((*r, a), (5, SharedAccess::HitLocal));
        assert_eq!(cache.opt_stats().guard_hits, 1);
        drop(r);
        // ... and the refill means the next read is a front hit again.
        let (r, _) = l1.read(&cache, 0, p(5), &src).unwrap();
        assert!(matches!(r, PageRef::Owned(_)));
        assert_eq!(l1.pending_hits(), 2);
        assert_eq!(src.fetches.load(Ordering::Relaxed), 1, "one disk read");
        cache.check_invariants().unwrap();
    }

    #[test]
    fn clear_drops_pins() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 64, 1, Policy::Lru);
        let src = counting();
        let mut l1 = L1Front::new(4);
        l1.read(&cache, 0, p(1), &src).unwrap();
        l1.clear();
        let (_, a) = l1.read(&cache, 0, p(1), &src).unwrap();
        assert_eq!(a, SharedAccess::HitLocal, "shared cache still holds it");
    }
}
