//! Seeded inputs: the two maps of the `psj-datagen` scenario and the
//! query stream of the serving workloads. The program under test receives
//! only what is generated here.

use psj_datagen::{MapObject, Scenario};
use psj_geom::{Point, Polyline, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Share of window queries in the serving mix; the rest are 10-NN.
pub const WINDOW_SHARE: f64 = 0.7;
/// Window side per axis, as a share of the data's extent on that axis.
pub const WINDOW_EXTENT: f64 = 0.05;
/// `k` of the nearest-neighbour queries.
pub const NEAREST_K: usize = 10;

/// One relation of the scenario.
pub struct Relation {
    /// The generated objects.
    pub objects: Vec<MapObject>,
    /// `(mbr, oid)` per object, the input of tree construction.
    pub items: Vec<(Rect, u64)>,
    /// Exact geometry by oid, stored in the trees' clusters.
    pub geoms: HashMap<u64, Polyline>,
}

impl Relation {
    fn new(objects: Vec<MapObject>) -> Relation {
        let items = objects.iter().map(|o| (o.mbr(), o.oid)).collect();
        let geoms = objects.iter().map(|o| (o.oid, o.geom.clone())).collect();
        Relation {
            objects,
            items,
            geoms,
        }
    }
}

/// Both relations of one seeded scenario.
pub struct Maps {
    /// Map 1 (streets).
    pub a: Relation,
    /// Map 2 (boundaries, rivers, railways).
    pub b: Relation,
}

impl Maps {
    /// The scenario at `scale` (1.0 = the paper's Table 1 size).
    pub fn generate(seed: u64, scale: f64) -> Maps {
        let scenario = if scale == 1.0 {
            Scenario::paper(seed)
        } else {
            Scenario::scaled(seed, scale)
        };
        let (a, b) = scenario.generate();
        Maps {
            a: Relation::new(a),
            b: Relation::new(b),
        }
    }

    /// The relation behind tree id `tree` (0 = map 1, 1 = map 2).
    pub fn relation(&self, tree: u16) -> &Relation {
        if tree == 0 {
            &self.a
        } else {
            &self.b
        }
    }
}

/// One request of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Oids of `tree`'s entries whose MBR intersects `rect`.
    Window {
        /// Tree id.
        tree: u16,
        /// Query window.
        rect: Rect,
    },
    /// The [`NEAREST_K`] entries of `tree` nearest to `point`.
    Nearest {
        /// Tree id.
        tree: u16,
        /// Query point.
        point: Point,
    },
}

impl Query {
    /// Whether this is a window query.
    pub fn is_window(&self) -> bool {
        matches!(self, Query::Window { .. })
    }
}

/// `n` queries drawn with `seed`. Each query picks a tree and one of its
/// objects, and centres on a point of that object's polyline, so the load
/// follows the data's density.
pub fn query_stream(maps: &Maps, seed: u64, n: usize) -> Vec<Query> {
    let world = maps
        .a
        .items
        .iter()
        .chain(&maps.b.items)
        .fold(None::<Rect>, |acc, (r, _)| {
            Some(acc.map_or(*r, |a| a.union(r)))
        })
        .expect("the scenario has objects");
    let half_w = 0.5 * WINDOW_EXTENT * (world.xu - world.xl);
    let half_h = 0.5 * WINDOW_EXTENT * (world.yu - world.yl);
    // A stream of its own, apart from the scenario's, so the maps do not
    // depend on how many queries are drawn.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            let tree = rng.random_range(0..2u16);
            let objects = &maps.relation(tree).objects;
            let pts = objects[rng.random_range(0..objects.len())].geom.points();
            let p = pts[rng.random_range(0..pts.len())];
            if rng.random::<f64>() < WINDOW_SHARE {
                Query::Window {
                    tree,
                    rect: Rect::new(p.x - half_w, p.y - half_h, p.x + half_w, p.y + half_h),
                }
            } else {
                Query::Nearest { tree, point: p }
            }
        })
        .collect()
}
