//! Oracles and answer checks. A join must equal the sequential
//! `join_refined` result as a `Vec`; a served window must equal the direct
//! `window_query` as a sorted oid set; a served nearest must be a correct
//! 10-NN answer by `(total_cmp dist, oid)` order.

use crate::input::{Query, NEAREST_K};
use psj_geom::{Point, Rect};
use psj_rtree::nn::min_dist;
use psj_rtree::PagedTree;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The right answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// A window answer, kept as the size and digest of its sorted oid set
    /// (a full copy of every answer would dominate the run's memory).
    Window {
        /// Number of oids.
        len: usize,
        /// [`oid_digest`] of the sorted oids.
        digest: u64,
    },
    /// The direct nearest-neighbour answer, `(distance, oid)` sorted by
    /// `(total_cmp distance, oid)`.
    Nearest(Vec<(f64, u64)>),
}

/// FNV-1a over the oids in order.
fn oid_digest(oids: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for oid in oids {
        for b in oid.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

fn by_dist_then_oid(x: &(f64, u64), y: &(f64, u64)) -> Ordering {
    x.0.total_cmp(&y.0).then(x.1.cmp(&y.1))
}

/// Answers `q` with a direct in-process call on `trees`, timing the call.
pub fn direct(trees: &[&PagedTree], q: &Query) -> (Expected, Duration) {
    match *q {
        Query::Window { tree, rect } => {
            let t0 = Instant::now();
            let entries = trees[usize::from(tree)].window_query(&rect);
            let dt = t0.elapsed();
            let mut oids: Vec<u64> = entries.iter().map(|e| e.oid).collect();
            oids.sort_unstable();
            let expected = Expected::Window {
                len: oids.len(),
                digest: oid_digest(&oids),
            };
            (expected, dt)
        }
        Query::Nearest { tree, point } => {
            let t0 = Instant::now();
            let nn = trees[usize::from(tree)].nearest_neighbors(&point, NEAREST_K);
            let dt = t0.elapsed();
            let mut list: Vec<(f64, u64)> = nn.iter().map(|(d, e)| (*d, e.oid)).collect();
            list.sort_by(by_dist_then_oid);
            (Expected::Nearest(list), dt)
        }
    }
}

/// Whether a join result is the oracle's, pair for pair and in order: the
/// executors are byte-identical to the sequential join.
pub fn join_ok(got: &[(u64, u64)], oracle: &[(u64, u64)]) -> bool {
    got == oracle
}

/// Whether a served window answer has exactly the expected oid set.
pub fn window_ok(got: &[u64], len: usize, digest: u64) -> bool {
    if got.len() != len {
        return false;
    }
    let mut sorted = got.to_vec();
    sorted.sort_unstable();
    oid_digest(&sorted) == digest
}

/// Whether a served nearest answer is a correct answer.
///
/// The distances must equal the direct call's bit for bit, and every oid
/// nearer than the k-th distance must be the direct call's. Objects tied
/// at exactly the k-th distance are interchangeable: a router merging
/// per-shard lists may keep other tied oids than one tree traversal does,
/// so for those the check recomputes each returned oid's distance from its
/// MBR (`mbrs`) instead of requiring the same pick.
pub fn nearest_ok(
    got: &[(f64, u64)],
    want: &[(f64, u64)],
    point: &Point,
    mbrs: &HashMap<u64, Rect>,
) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let mut got = got.to_vec();
    got.sort_by(by_dist_then_oid);
    if got.windows(2).any(|w| w[0].1 == w[1].1) {
        return false;
    }
    let Some(&(kth, _)) = want.last() else {
        return true;
    };
    got.iter().zip(want).all(|(g, w)| {
        g.0.to_bits() == w.0.to_bits()
            && if w.0.total_cmp(&kth) == Ordering::Less {
                g.1 == w.1
            } else {
                mbrs.get(&g.1)
                    .is_some_and(|r| min_dist(point, r).to_bits() == g.0.to_bits())
            }
    })
}
