//! # ust-data — datasets, scenarios and workloads
//!
//! Generators for everything the ICDE 2012 evaluation runs on:
//!
//! * [`synthetic`] — the Table I synthetic generator (`|D|`, `|S|`,
//!   `object_spread`, `state_spread`, `max_step`);
//! * [`network_data`] — road-network chains ("transition matrix =
//!   adjacency matrix with random row-normalized weights") over the
//!   NA-like / Munich-like graphs from `ust_space::network_gen`;
//! * [`iceberg`] — the introduction's iceberg-drift scenario on a 2-D
//!   raster with a current-biased chain and sparse re-sightings;
//! * [`traffic`] — the road-traffic motivation (expected congestion
//!   queries, hotspot ranking);
//! * [`workload`] — query-window workloads, including the paper's default
//!   window (states `[100, 120]` × times `[20, 25]`);
//! * [`csv`] — the result-table writer used by the benchmark harness;
//! * [`io`] — plain-text persistence for chains and databases.

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

pub mod csv;
pub mod iceberg;
pub mod index_workload;
pub mod io;
pub mod network_data;
pub mod streaming_feed;
pub mod synthetic;
pub mod traffic;
pub mod workload;

pub use csv::ResultTable;
pub use index_workload::{generate_index_workload, IndexWorkload, IndexWorkloadConfig};
pub use streaming_feed::{generate_streaming_feed, FeedConfig, FeedEvent, StreamingFeed};
pub use synthetic::{SyntheticConfig, SyntheticDataset};
