//! A from-scratch R-tree over point data (STR bulk loading).
//!
//! Used to resolve spatial query regions against large state spaces (road
//! networks with ~175k nodes) and to prefilter candidate objects by their
//! reachability cone. Built with the Sort-Tile-Recursive packing algorithm:
//! entries are tiled into `√P × √P` slabs so sibling boxes overlap little,
//! then upper levels are packed recursively from the leaf bounding boxes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::point::Point2;
use crate::rect::Rect;

/// Maximum entries per node.
const NODE_CAPACITY: usize = 16;

/// A point payload stored in the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RTreeEntry {
    /// Location of the entry.
    pub point: Point2,
    /// Caller-supplied identifier (state id, object id, …).
    pub id: usize,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { bbox: Rect, entries: Vec<RTreeEntry> },
    Internal { bbox: Rect, children: Vec<Node> },
}

impl Node {
    fn bbox(&self) -> &Rect {
        match self {
            Node::Leaf { bbox, .. } | Node::Internal { bbox, .. } => bbox,
        }
    }
}

/// A static (bulk-loaded) R-tree over points.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    len: usize,
    height: usize,
}

impl RTree {
    /// Bulk-loads the tree from `entries` using STR packing.
    pub fn bulk_load(mut entries: Vec<RTreeEntry>) -> Self {
        let len = entries.len();
        if len == 0 {
            return RTree { root: None, len: 0, height: 0 };
        }
        // Tile into vertical slabs by x, then pack leaves by y within slabs.
        let leaf_count = len.div_ceil(NODE_CAPACITY);
        let slab_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slab_size = len.div_ceil(slab_count);
        entries.sort_unstable_by(|a, b| a.point.x.total_cmp(&b.point.x));
        let mut leaves: Vec<Node> = Vec::with_capacity(leaf_count);
        for slab in entries.chunks_mut(slab_size.max(1)) {
            slab.sort_unstable_by(|a, b| a.point.y.total_cmp(&b.point.y));
            for chunk in slab.chunks(NODE_CAPACITY) {
                let mut bbox = Rect::empty();
                for e in chunk {
                    bbox = bbox.union(&Rect::point(e.point));
                }
                leaves.push(Node::Leaf { bbox, entries: chunk.to_vec() });
            }
        }
        let mut height = 1;
        let mut level = leaves;
        while level.len() > 1 {
            level = Self::pack_level(level);
            height += 1;
        }
        RTree { root: level.pop(), len, height }
    }

    /// Packs one level of nodes into parents using STR on the box centers.
    fn pack_level(mut nodes: Vec<Node>) -> Vec<Node> {
        let parent_count = nodes.len().div_ceil(NODE_CAPACITY);
        let slab_count = (parent_count as f64).sqrt().ceil() as usize;
        let slab_size = nodes.len().div_ceil(slab_count);
        nodes.sort_unstable_by(|a, b| a.bbox().center().x.total_cmp(&b.bbox().center().x));
        let mut parents = Vec::with_capacity(parent_count);
        let mut rest = nodes.as_mut_slice();
        while !rest.is_empty() {
            let take = slab_size.max(1).min(rest.len());
            let (slab, tail) = rest.split_at_mut(take);
            slab.sort_unstable_by(|a, b| a.bbox().center().y.total_cmp(&b.bbox().center().y));
            for chunk in slab.chunks(NODE_CAPACITY) {
                let mut bbox = Rect::empty();
                for n in chunk {
                    bbox = bbox.union(n.bbox());
                }
                parents.push(Node::Internal { bbox, children: chunk.to_vec() });
            }
            rest = tail;
        }
        parents
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (0 for an empty tree).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Ids of all entries whose point lies inside `rect` (unsorted).
    pub fn query_rect(&self, rect: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit_rect(rect, &mut |e| out.push(e.id));
        out
    }

    /// Calls `f` for every entry inside `rect`.
    pub fn visit_rect(&self, rect: &Rect, f: &mut impl FnMut(&RTreeEntry)) {
        let Some(root) = &self.root else {
            return;
        };
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf { bbox, entries } => {
                    if rect.intersects(bbox) {
                        for e in entries {
                            if rect.contains(&e.point) {
                                f(e);
                            }
                        }
                    }
                }
                Node::Internal { bbox, children } => {
                    if rect.intersects(bbox) {
                        for c in children {
                            stack.push(c);
                        }
                    }
                }
            }
        }
    }

    /// Calls `f` once per leaf whose bounding box intersects `rect`, with
    /// the leaf's box and its *complete* entry slice — including entries
    /// outside `rect`. Callers that batch-accept whole leaves (e.g. when
    /// the leaf box is provably inside the match region) avoid the
    /// per-entry containment tests [`RTree::visit_rect`] performs; callers
    /// that need exact semantics must filter the slice themselves.
    pub fn visit_leaves(&self, rect: &Rect, f: &mut impl FnMut(&Rect, &[RTreeEntry])) {
        let Some(root) = &self.root else {
            return;
        };
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf { bbox, entries } => {
                    if rect.intersects(bbox) {
                        f(bbox, entries);
                    }
                }
                Node::Internal { bbox, children } => {
                    if rect.intersects(bbox) {
                        for c in children {
                            stack.push(c);
                        }
                    }
                }
            }
        }
    }

    /// The entry nearest to `p` (best-first branch-and-bound), or `None`
    /// for an empty tree.
    pub fn nearest(&self, p: &Point2) -> Option<RTreeEntry> {
        struct Candidate<'a> {
            dist: f64,
            node: Option<&'a Node>,
            entry: Option<RTreeEntry>,
        }
        impl PartialEq for Candidate<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl Eq for Candidate<'_> {}
        impl PartialOrd for Candidate<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Candidate<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.dist.total_cmp(&other.dist)
            }
        }

        let root = self.root.as_ref()?;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Candidate {
            dist: root.bbox().distance_to_point(p),
            node: Some(root),
            entry: None,
        }));
        while let Some(Reverse(cand)) = heap.pop() {
            if let Some(entry) = cand.entry {
                return Some(entry); // closest possible candidate reached
            }
            #[expect(
                clippy::expect_used,
                reason = "entry candidates return early above; every candidate left on the \
                          heap was pushed with a node."
            )]
            match cand.node.expect("non-entry candidates carry a node") {
                Node::Leaf { entries, .. } => {
                    for e in entries {
                        heap.push(Reverse(Candidate {
                            dist: e.point.distance(p),
                            node: None,
                            entry: Some(*e),
                        }));
                    }
                }
                Node::Internal { children, .. } => {
                    for c in children {
                        heap.push(Reverse(Candidate {
                            dist: c.bbox().distance_to_point(p),
                            node: Some(c),
                            entry: None,
                        }));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(seed: u64, n: usize) -> Vec<RTreeEntry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|id| RTreeEntry {
                point: Point2::new(rng.random::<f64>() * 100.0, rng.random::<f64>() * 100.0),
                id,
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.query_rect(&Rect::from_bounds(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(t.nearest(&Point2::origin()).is_none());
    }

    #[test]
    fn rect_queries_match_linear_scan() {
        for n in [1usize, 15, 16, 17, 100, 1000] {
            let entries = random_entries(7 + n as u64, n);
            let tree = RTree::bulk_load(entries.clone());
            assert_eq!(tree.len(), n);
            let rects = [
                Rect::from_bounds(10.0, 10.0, 40.0, 60.0),
                Rect::from_bounds(0.0, 0.0, 100.0, 100.0),
                Rect::from_bounds(99.5, 99.5, 100.0, 100.0),
                Rect::from_bounds(-10.0, -10.0, -1.0, -1.0),
            ];
            for rect in rects {
                let mut got = tree.query_rect(&rect);
                got.sort_unstable();
                let expected: Vec<usize> =
                    entries.iter().filter(|e| rect.contains(&e.point)).map(|e| e.id).collect();
                assert_eq!(got, expected, "n={n}, rect={rect:?}");
            }
        }
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let entries = random_entries(3, 800);
        let tree = RTree::bulk_load(entries.clone());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let p =
                Point2::new(rng.random::<f64>() * 120.0 - 10.0, rng.random::<f64>() * 120.0 - 10.0);
            let got = tree.nearest(&p).unwrap();
            let best = entries
                .iter()
                .min_by(|a, b| a.point.distance_sq(&p).total_cmp(&b.point.distance_sq(&p)))
                .unwrap();
            assert!(
                (got.point.distance(&p) - best.point.distance(&p)).abs() < 1e-12,
                "nearest mismatch at {p:?}"
            );
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        let t16 = RTree::bulk_load(random_entries(1, 16));
        assert_eq!(t16.height(), 1);
        let t5000 = RTree::bulk_load(random_entries(2, 5000));
        assert!(t5000.height() >= 3, "height {}", t5000.height());
        assert!(t5000.height() <= 5, "height {}", t5000.height());
    }

    #[test]
    fn duplicate_points_are_all_reported() {
        let entries = vec![
            RTreeEntry { point: Point2::new(1.0, 1.0), id: 0 },
            RTreeEntry { point: Point2::new(1.0, 1.0), id: 1 },
            RTreeEntry { point: Point2::new(2.0, 2.0), id: 2 },
        ];
        let tree = RTree::bulk_load(entries);
        let mut got = tree.query_rect(&Rect::from_bounds(0.5, 0.5, 1.5, 1.5));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }
}
