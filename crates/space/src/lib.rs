//! # ust-space — discrete spatial domains for uncertain spatio-temporal data
//!
//! The spatial substrate of the ICDE 2012 reproduction: the finite state
//! spaces `S ⊆ R^d` over which uncertain trajectories move, the query
//! regions `S▫` and time sets `T▫` that form query windows, road-network
//! graphs standing in for the paper's real datasets, and a from-scratch
//! R-tree for spatial resolution.
//!
//! * [`state_space::StateSpace`] — the state-space abstraction, implemented
//!   by [`grid::GridSpace`] (the raster of Fig. 2), [`line::LineSpace`]
//!   (the 1-D synthetic domain of the evaluation) and
//!   [`network::RoadNetwork`] (road graphs);
//! * [`region::Region`] — rectangle / circle / id-set / union query regions
//!   resolved against any state space;
//! * [`temporal::TimeSet`] — discrete, not-necessarily-contiguous query
//!   time sets;
//! * [`network_gen`] — generators for connected sparse road-like graphs
//!   with the exact node/edge counts of the paper's North America and
//!   Munich datasets (a documented substitution for the paper's real
//!   datasets — see the [`network_gen`] module docs);
//! * [`rtree::RTree`] — STR bulk-loaded point R-tree.

#![deny(missing_docs)]
// Library code does not panic; a panic that an invariant rules out carries
// an `#[expect]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod grid;
pub mod line;
pub mod network;
pub mod network_gen;
pub mod point;
pub mod rect;
pub mod region;
pub mod rtree;
pub mod state_space;
pub mod temporal;

pub use grid::GridSpace;
pub use line::LineSpace;
pub use network::RoadNetwork;
pub use network_gen::NetworkConfig;
pub use point::Point2;
pub use rect::Rect;
pub use region::Region;
pub use rtree::{RTree, RTreeEntry};
pub use state_space::StateSpace;
pub use temporal::TimeSet;
