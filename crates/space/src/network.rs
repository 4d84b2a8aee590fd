//! Road networks as state spaces.
//!
//! The paper's real-data experiments treat road-network nodes as states and
//! edges as the allowed transitions: "each node is treated as a state and
//! each edge corresponds to two non-zero entries in the transition matrix".
//! [`RoadNetwork`] stores an undirected graph in CSR adjacency form (compact
//! enough for the paper's 175,813-node North-America graph) with planar node
//! coordinates, and implements [`StateSpace`] backed by a lazily built
//! R-tree for region resolution.

use std::sync::OnceLock;

use crate::point::Point2;
use crate::rect::Rect;
use crate::rtree::{RTree, RTreeEntry};
use crate::state_space::StateSpace;

/// An undirected road network with embedded nodes.
#[derive(Debug)]
pub struct RoadNetwork {
    coords: Vec<Point2>,
    offsets: Vec<usize>,
    adjacency: Vec<u32>,
    index: OnceLock<RTree>,
}

impl Clone for RoadNetwork {
    fn clone(&self) -> Self {
        RoadNetwork {
            coords: self.coords.clone(),
            offsets: self.offsets.clone(),
            adjacency: self.adjacency.clone(),
            index: OnceLock::new(),
        }
    }
}

impl RoadNetwork {
    /// Builds a network from node coordinates and undirected edges.
    /// Self-loops and duplicate edges are dropped; edges referencing
    /// out-of-range nodes are ignored.
    pub fn from_edges(coords: Vec<Point2>, edges: &[(usize, usize)]) -> Self {
        let n = coords.len();
        // Count valid directed arcs.
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u < n && v < n && u != v {
                pairs.push((u as u32, v as u32));
                pairs.push((v as u32, u as u32));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &pairs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let adjacency: Vec<u32> = pairs.into_iter().map(|(_, v)| v).collect();
        RoadNetwork { coords, offsets, adjacency, index: OnceLock::new() }
    }

    /// Number of nodes (= states).
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Neighbors of node `id`.
    pub fn neighbors(&self, id: usize) -> &[u32] {
        &self.adjacency[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Degree of node `id`.
    pub fn degree(&self, id: usize) -> usize {
        self.offsets[id + 1] - self.offsets[id]
    }

    /// Average node degree (`2·|E| / |V|`).
    pub fn mean_degree(&self) -> f64 {
        if self.coords.is_empty() {
            0.0
        } else {
            self.adjacency.len() as f64 / self.coords.len() as f64
        }
    }

    /// Iterates all undirected edges once (`u < v`).
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| (v as usize) > u)
                .map(move |&v| (u, v as usize))
        })
    }

    /// Breadth-first search from `start`, returning the visited node set.
    pub fn bfs(&self, start: usize) -> Vec<bool> {
        let mut visited = vec![false; self.num_nodes()];
        if start >= self.num_nodes() {
            return visited;
        }
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                let v = v as usize;
                if !visited[v] {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        visited
    }

    /// True when the graph is connected (vacuously true when empty).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        self.bfs(0).iter().all(|&v| v)
    }

    /// The lazily built spatial index over node locations.
    pub fn spatial_index(&self) -> &RTree {
        self.index.get_or_init(|| {
            RTree::bulk_load(
                self.coords
                    .iter()
                    .enumerate()
                    .map(|(id, &point)| RTreeEntry { point, id })
                    .collect(),
            )
        })
    }
}

impl StateSpace for RoadNetwork {
    fn num_states(&self) -> usize {
        self.num_nodes()
    }

    fn location(&self, id: usize) -> Point2 {
        self.coords[id]
    }

    fn nearest_state(&self, p: &Point2) -> Option<usize> {
        self.spatial_index().nearest(p).map(|e| e.id)
    }

    fn states_in_rect(&self, rect: &Rect) -> Vec<usize> {
        let mut ids = self.spatial_index().query_rect(rect);
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node square with one diagonal:  0 — 1
    ///                                     | \ |
    ///                                     3 — 2
    fn square() -> RoadNetwork {
        RoadNetwork::from_edges(
            vec![
                Point2::new(0.0, 1.0),
                Point2::new(1.0, 1.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.0, 0.0),
            ],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
    }

    #[test]
    fn construction_counts() {
        let g = square();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert!((g.mean_degree() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn self_loops_duplicates_and_bad_edges_are_dropped() {
        let g = RoadNetwork::from_edges(
            vec![Point2::origin(), Point2::new(1.0, 0.0)],
            &[(0, 0), (0, 1), (1, 0), (0, 1), (0, 9)],
        );
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = square();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn connectivity() {
        assert!(square().is_connected());
        let disconnected = RoadNetwork::from_edges(
            vec![Point2::origin(), Point2::new(1.0, 0.0), Point2::new(2.0, 0.0)],
            &[(0, 1)],
        );
        assert!(!disconnected.is_connected());
        let empty = RoadNetwork::from_edges(vec![], &[]);
        assert!(empty.is_connected());
    }

    #[test]
    fn state_space_queries_use_index() {
        let g = square();
        assert_eq!(g.nearest_state(&Point2::new(0.1, 0.9)), Some(0));
        assert_eq!(g.states_in_rect(&Rect::from_bounds(0.5, -0.5, 1.5, 1.5)), vec![1, 2]);
        assert_eq!(g.num_states(), 4);
        assert_eq!(g.location(3), Point2::new(0.0, 0.0));
    }

    #[test]
    fn bfs_marks_reachable_nodes() {
        let g = RoadNetwork::from_edges(
            vec![Point2::origin(), Point2::new(1.0, 0.0), Point2::new(2.0, 0.0)],
            &[(1, 2)],
        );
        let from0 = g.bfs(0);
        assert_eq!(from0, vec![true, false, false]);
        let from1 = g.bfs(1);
        assert_eq!(from1, vec![false, true, true]);
        assert!(g.bfs(99).iter().all(|&v| !v));
    }

    #[test]
    fn clone_rebuilds_index_lazily() {
        let g = square();
        let _ = g.spatial_index();
        let c = g.clone();
        assert_eq!(c.nearest_state(&Point2::new(1.0, 0.0)), Some(2));
    }
}
