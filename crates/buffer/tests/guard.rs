//! Stress and property tests for the borrowing guard read path of
//! [`SharedPageCache`]: [`PageGuard`] hands out `&T` with no Arc clone and
//! no shard mutex, pinning the page's mirror slot so concurrent evictions
//! defer (never block on) the payload free. Every payload carries a
//! checksum, so a torn or stale read — a guard observing a freed or
//! replaced page — cannot go unnoticed.

use proptest::prelude::*;
use psj_buffer::{PageSource, Policy, SharedPageCache};
use psj_store::{PageError, PageId};

/// A page payload whose consistency is checkable on every read (same
/// construction as `tests/optimistic.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Checked {
    vals: [u64; 4],
    sum: u64,
}

/// Deterministic per-(page, slot) filler (SplitMix64-style finalizer).
fn mix(page: u32, slot: u64) -> u64 {
    let mut x = (page as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(slot.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 31;
    x.wrapping_mul(0x94D0_49BB_1331_11EB)
}

fn expect_page(page: u32) -> Checked {
    let vals = [mix(page, 0), mix(page, 1), mix(page, 2), mix(page, 3)];
    let sum = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    Checked { vals, sum }
}

/// Panics if `got` is internally inconsistent (torn) or belongs to a
/// different page (stale slot reuse / use-after-free).
fn verify(page: u32, got: &Checked) {
    let recomputed = got.vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    assert_eq!(got.sum, recomputed, "torn payload on page {page}: {got:?}");
    assert_eq!(got, &expect_page(page), "wrong payload on page {page}");
}

struct CheckedSource {
    pages: usize,
}

impl PageSource for CheckedSource {
    type Item = Checked;

    fn fetch_page(&self, page: PageId) -> Result<Checked, PageError> {
        Ok(expect_page(page.0))
    }

    fn page_count(&self) -> usize {
        self.pages
    }
}

/// The tentpole's acceptance shape, stated directly: once a page is
/// resident, a guard read serves it with neither mutex nor Arc clone, and
/// the counters say so.
#[test]
fn resident_pages_serve_guard_reads() {
    let cache: SharedPageCache<Checked> = SharedPageCache::new(2, 64, 4, Policy::Lru);
    let src = CheckedSource { pages: 16 };
    for p in 0..16 {
        let (v, _) = cache.get(0, PageId(p), &src);
        verify(p, &v);
    }
    for round in 0..5 {
        for p in 0..16u32 {
            let g = cache
                .guard_get(1, PageId(p))
                .unwrap_or_else(|| panic!("resident page {p} must guard-hit (round {round})"));
            verify(p, &g);
        }
    }
    let opt = cache.opt_stats();
    assert_eq!(opt.guard_hits, 80, "every resident read was a guard hit");
    assert_eq!(opt.hits, 0, "no read took the Arc-clone path");
    assert_eq!(opt.retries, 0, "uncontended reads never fail validation");
    let stats = cache.stats(1);
    assert_eq!(
        stats.hits_remote, 80,
        "guard hits keep BufferStats exact (worker 0 owns the fills)"
    );
    cache.check_invariants().expect("invariants");
}

/// A guard held on a page keeps its payload readable across the page's own
/// eviction — including when the *holder itself* performs the evicting
/// fill. Before the graveyard protocol this exact sequence deadlocked: the
/// remover span on the holder's own pin under the shard mutex.
#[test]
fn holding_a_guard_while_evicting_its_page_neither_blocks_nor_tears() {
    // Single shard, capacity 2: cold fills evict deterministically.
    let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 2, 1, Policy::Lru);
    let src = CheckedSource { pages: 64 };
    cache.get(0, PageId(7), &src);
    let guard = cache.guard_get(0, PageId(7)).expect("resident page pins");
    verify(7, &guard);
    // Fill cold pages until page 7 is gone; the guard is held throughout.
    for p in 20..28 {
        let (v, _) = cache.get(0, PageId(p), &src);
        verify(p, &v);
    }
    assert!(!cache.contains(PageId(7)), "page 7 was evicted");
    verify(7, &guard);
    let arc = guard.to_arc();
    drop(guard);
    verify(7, &arc);
    drop(arc);
    cache
        .check_invariants()
        .expect("graveyard drains once pins drop");
}

/// Satellite: optimistic hits skip LRU promotion, so without the sampled
/// touch a hammered page looks idle and cold fills evict it. Every
/// `TOUCH_SAMPLE`-th optimistic hit re-touches under the mutex; a page
/// hammered past one sample interval must survive a cold sweep that
/// evicts everything else.
#[test]
fn hammered_page_survives_cold_churn_via_sampled_touch() {
    // Single shard, capacity 4, LRU: fill order 0,1,2,3 leaves page 0 as
    // the LRU victim-elect.
    let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 4, 1, Policy::Lru);
    let src = CheckedSource { pages: 64 };
    for p in 0..4 {
        cache.get(0, PageId(p), &src);
    }
    // Hammer page 0 through the optimistic path. The first sampled hit
    // re-touches it, moving it to the MRU end without taking the mutex on
    // the other 64 hits.
    for _ in 0..65 {
        let (v, _) = cache.get(0, PageId(0), &src);
        verify(0, &v);
    }
    let before = cache.opt_stats();
    assert_eq!(before.hits, 65, "the hammer ran optimistically");
    // Three cold fills evict three pages — the untouched 1, 2, 3.
    for p in 10..13 {
        cache.get(0, PageId(p), &src);
    }
    assert_eq!(cache.total_stats().evictions, 3);
    assert!(
        cache.contains(PageId(0)),
        "the hammered page must survive the cold sweep"
    );
    let (_, access) = cache.get(0, PageId(0), &src);
    assert_ne!(
        access,
        psj_buffer::SharedAccess::Miss,
        "surviving means no refill"
    );
    cache.check_invariants().expect("invariants");
}

/// Readers hold guards on hot pages — keeping them pinned across yields —
/// while churn threads sweep a cold range through a small cache, evicting
/// hot pages out from under the pins. Checks: a held guard never observes
/// a torn or stale payload (the graveyard defers frees past the last
/// deref), guard hits happen under churn, and the
/// structural invariants (including an empty graveyard) hold at rest.
#[test]
fn guards_survive_concurrent_eviction_churn() {
    const READERS: usize = 4;
    const CHURNERS: usize = 2;
    const HOT: u32 = 8;
    const COLD_LO: u32 = 64;
    const COLD_HI: u32 = 512;

    let cache: SharedPageCache<Checked> =
        SharedPageCache::new(READERS + CHURNERS, 24, 2, Policy::Lru);
    let src = CheckedSource {
        pages: COLD_HI as usize,
    };

    std::thread::scope(|s| {
        for r in 0..READERS {
            let (cache, src) = (&cache, &src);
            s.spawn(move || {
                for i in 0..4000usize {
                    let p = ((i + r) % HOT as usize) as u32;
                    match cache.guard_get(r, PageId(p)) {
                        Some(guard) => {
                            verify(p, &guard);
                            // Hold the pin across a reschedule so churners
                            // get a chance to evict the page under us,
                            // then read again through the same guard.
                            if i % 16 == 0 {
                                std::thread::yield_now();
                            }
                            verify(p, &guard);
                            // Occasionally perform a fill *while holding
                            // the guard* — the self-eviction shape that
                            // must never deadlock.
                            if i % 64 == 0 {
                                let cold = COLD_LO + (i as u32 * 31 + r as u32) % 64;
                                let (v, _) = cache.get(r, PageId(cold), src);
                                verify(cold, &v);
                                verify(p, &guard);
                            }
                        }
                        None => {
                            // Not resident (or churned): pessimistic path.
                            let (v, _) = cache.get(r, PageId(p), src);
                            verify(p, &v);
                        }
                    }
                }
            });
        }
        for c in 0..CHURNERS {
            let (cache, src) = (&cache, &src);
            s.spawn(move || {
                let w = READERS + c;
                let span = COLD_HI - COLD_LO;
                for i in 0..3000u32 {
                    let p = COLD_LO + (i.wrapping_mul(17).wrapping_add(c as u32 * 131)) % span;
                    let (v, _) = cache.get(w, PageId(p), src);
                    verify(p, &v);
                }
            });
        }
    });

    cache.check_invariants().expect("invariants after churn");
    let opt = cache.opt_stats();
    assert!(opt.guard_hits > 0, "hot pages must serve guard hits");
    assert!(cache.total_stats().evictions > 0, "cold sweep must evict");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every access sequence, the guard path and the Arc path observe
    /// the same bytes: each step reads one page both ways (guard first,
    /// then the pessimistic-capable Arc path) and requires the results to
    /// be identical and checksum-clean, while up to four older guards are
    /// kept pinned to exercise retirement. Ends at rest with invariants
    /// (including an empty graveyard).
    #[test]
    fn guard_reads_equal_arc_reads(
        ops in prop::collection::vec((0u32..48, 0u32..2), 1..120)
    ) {
        let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 8, 2, Policy::Lru);
        let src = CheckedSource { pages: 48 };
        let mut held = Vec::new();
        for (page, hold) in ops {
            let hold = hold == 1;
            let p = PageId(page);
            let via_guard = match cache.guard_get(0, p) {
                Some(g) => {
                    verify(page, &g);
                    let arc = g.to_arc();
                    if hold {
                        held.push((page, g));
                        if held.len() > 4 {
                            held.remove(0);
                        }
                    }
                    arc
                }
                None => cache.try_get(0, p, &src).unwrap().0,
            };
            let (via_arc, _) = cache.try_get(0, p, &src).unwrap();
            prop_assert_eq!(&*via_guard, &*via_arc, "paths diverge on page {}", page);
            verify(page, &via_arc);
            for (hp, hg) in &held {
                verify(*hp, hg);
            }
        }
        drop(held);
        cache.check_invariants().map_err(TestCaseError::fail)?;
    }
}
