//! Borrow-generic node access for paged-tree traversals.
//!
//! The window and nearest-neighbor descents only need to *look at* one node
//! at a time. [`NodeAccess`] abstracts where that look comes from: an
//! in-memory [`PagedTree`] hands out plain `&Node` borrows, while a
//! cache-backed reader (the serve executor) hands out pin-guarded borrows
//! from a shared page cache — same traversal, zero Arc clones either way.
//! The associated `Ref` type only has to deref to [`Node`]; each borrow is
//! dropped before the next page is read, so guard-style accessors never hold
//! more than one pin per traversal step.

use crate::entry::DataEntry;
use crate::node::{Node, NodeKind};
use crate::paged::PagedTree;
use psj_geom::Rect;
use psj_store::{PageError, PageId};
use std::ops::Deref;

/// A source of read-only node borrows, keyed by page number.
///
/// `read` takes `&mut self` so implementations can carry per-traversal state
/// (a read counter, say) without interior mutability.
pub trait NodeAccess {
    /// The borrowed form a node read returns; dropped before the traversal
    /// reads its next page.
    type Ref<'a>: Deref<Target = Node>
    where
        Self: 'a;

    /// Reads the node stored at `page`.
    fn read(&mut self, page: PageId) -> Result<Self::Ref<'_>, PageError>;
}

/// Direct in-memory access: infallible borrows out of the decoded node
/// array.
impl NodeAccess for &PagedTree {
    type Ref<'a>
        = &'a Node
    where
        Self: 'a;

    fn read(&mut self, page: PageId) -> Result<&Node, PageError> {
        Ok(self.node(page))
    }
}

/// Window query over any [`NodeAccess`]: depth-first, children pushed in
/// entry order — byte-identical output to [`PagedTree::window_query`]
/// (which delegates here).
pub fn window_query_via<A: NodeAccess>(
    access: &mut A,
    root: PageId,
    window: &Rect,
) -> Result<Vec<DataEntry>, PageError> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(page) = stack.pop() {
        let node = access.read(page)?;
        match &node.kind {
            NodeKind::Dir(entries) => {
                for e in entries {
                    if e.mbr.intersects(window) {
                        stack.push(PageId(e.child));
                    }
                }
            }
            NodeKind::Leaf(entries) => {
                for e in entries {
                    if e.mbr.intersects(window) {
                        out.push(*e);
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTree;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn build(n: usize) -> PagedTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 25) as f64;
            let y = (i / 25) as f64;
            t.insert(Rect::new(x, y, x + 0.8, y + 0.8), i as u64);
        }
        PagedTree::freeze(&t, |_| None)
    }

    /// Counts reads and delegates to the tree, proving the traversal goes
    /// through the accessor — and that output order matches the direct path.
    struct Counting<'t> {
        tree: &'t PagedTree,
        reads: AtomicUsize,
    }

    impl NodeAccess for Counting<'_> {
        type Ref<'a>
            = &'a Node
        where
            Self: 'a;

        fn read(&mut self, page: PageId) -> Result<&Node, PageError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            Ok(self.tree.node(page))
        }
    }

    #[test]
    fn custom_access_matches_direct_window_query() {
        let p = build(300);
        let w = Rect::new(3.0, 2.0, 14.5, 9.5);
        let direct = p.window_query(&w);
        let mut acc = Counting {
            tree: &p,
            reads: AtomicUsize::new(0),
        };
        let via = window_query_via(&mut acc, p.root(), &w).unwrap();
        assert_eq!(via, direct, "accessor path must be byte-identical");
        assert!(acc.reads.load(Ordering::Relaxed) > 0, "reads went through");
    }

    #[test]
    fn error_from_access_propagates() {
        struct Failing;
        impl NodeAccess for Failing {
            type Ref<'a> = &'a Node;
            fn read(&mut self, page: PageId) -> Result<&'static Node, PageError> {
                Err(PageError::OutOfRange {
                    page,
                    num_pages: 0,
                    context: "test".into(),
                })
            }
        }
        let err = window_query_via(&mut Failing, PageId(7), &Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(matches!(err, Err(PageError::OutOfRange { .. })));
    }
}
