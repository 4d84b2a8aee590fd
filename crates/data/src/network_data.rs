//! Road-network datasets (the paper's "real data" experiments).
//!
//! The paper derives the transition matrix directly from the road graph:
//! "each node is treated as a state and each edge corresponds to two
//! non-zero entries in the transition matrix. The value of the non-zero
//! entries of one line in the matrix are set randomly and sum up to one."
//! This module does exactly that over any [`RoadNetwork`] (including the
//! NA-like and Munich-like synthetic substitutes from
//! `ust_space::network_gen`) and populates a database of objects anchored
//! at random nodes.

#![expect(
    clippy::expect_used,
    reason = "synthetic dataset generator: node ids come from iterating the road-graph \
              adjacency lists, so every `expect` guards an invariant the generator itself \
              establishes; a failure is a bug in this file, not recoverable caller input."
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_core::{Observation, TrajectoryDatabase, UncertainObject};
use ust_markov::{CooBuilder, MarkovChain, SparseVector};
use ust_space::{network_gen, NetworkConfig, RoadNetwork};

/// Builds the chain of a road network: random row-normalized weights over
/// the adjacency structure. Isolated nodes receive a self-loop.
pub fn chain_from_network(network: &RoadNetwork, seed: u64) -> MarkovChain {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = network.num_nodes();
    let mut builder = CooBuilder::with_capacity(n, n, network.num_edges() * 2 + n);
    for u in 0..n {
        let neighbors = network.neighbors(u);
        if neighbors.is_empty() {
            builder.push(u, u, 1.0).expect("in range");
            continue;
        }
        let mut weights: Vec<f64> = neighbors.iter().map(|_| rng.random::<f64>() + 1e-3).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        for (&v, &w) in neighbors.iter().zip(&weights) {
            builder.push(u, v as usize, w).expect("in range");
        }
    }
    MarkovChain::from_csr(builder.build()).expect("rows normalized by construction")
}

/// A road-network dataset: database + the generating network.
#[derive(Debug)]
pub struct NetworkDataset {
    /// Database with the network-derived chain and random objects.
    pub db: TrajectoryDatabase,
    /// The underlying road network (the state-space embedding).
    pub network: RoadNetwork,
}

/// Parameters for object placement on a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkObjectConfig {
    /// Number of objects.
    pub num_objects: usize,
    /// Number of start nodes per object (uncertainty of the anchor fix):
    /// the anchor node plus up to `object_spread − 1` of its neighbors.
    pub object_spread: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetworkObjectConfig {
    fn default() -> Self {
        NetworkObjectConfig { num_objects: 10_000, object_spread: 5, seed: 0x0BD5 }
    }
}

/// Populates a database over `network`.
pub fn generate_on_network(network: RoadNetwork, objects: &NetworkObjectConfig) -> NetworkDataset {
    let chain = chain_from_network(&network, objects.seed ^ 0xC0DE);
    let mut rng = StdRng::seed_from_u64(objects.seed);
    let n = network.num_nodes();
    let mut db = TrajectoryDatabase::new(chain);
    for id in 0..objects.num_objects {
        let anchor_node = rng.random_range(0..n);
        let mut pairs = vec![(anchor_node, rng.random::<f64>() + 1e-3)];
        for &nb in
            network.neighbors(anchor_node).iter().take(objects.object_spread.saturating_sub(1))
        {
            pairs.push((nb as usize, rng.random::<f64>() + 1e-3));
        }
        let dist = SparseVector::from_pairs(n, pairs).expect("nodes in range");
        db.insert(UncertainObject::with_single_observation(
            id as u64,
            Observation::uncertain(0, dist).expect("positive weights"),
        ))
        .expect("valid object");
    }
    NetworkDataset { db, network }
}

/// Generates a dataset over a synthetic network described by `config`.
pub fn generate(config: &NetworkConfig, objects: &NetworkObjectConfig) -> NetworkDataset {
    generate_on_network(network_gen::generate(config), objects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_space::StateSpace;

    #[test]
    fn chain_uses_adjacency_structure() {
        let network = network_gen::generate(&network_gen::small_city(3));
        let chain = chain_from_network(&network, 7);
        assert_eq!(chain.num_states(), network.num_nodes());
        // Non-zero entries mirror the adjacency lists exactly.
        for u in 0..network.num_nodes() {
            let (cols, vals) = chain.matrix().row(u);
            assert_eq!(
                cols.iter().map(|&c| c as usize).collect::<Vec<_>>(),
                network.neighbors(u).iter().map(|&v| v as usize).collect::<Vec<_>>()
            );
            let sum: f64 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn isolated_nodes_get_self_loops() {
        let network = RoadNetwork::from_edges(
            vec![
                ust_space::Point2::new(0.0, 0.0),
                ust_space::Point2::new(1.0, 0.0),
                ust_space::Point2::new(2.0, 0.0),
            ],
            &[(0, 1)],
        );
        let chain = chain_from_network(&network, 1);
        assert_eq!(chain.matrix().get(2, 2), 1.0);
    }

    #[test]
    fn objects_are_anchored_on_nodes_with_spread() {
        let dataset = generate(
            &network_gen::small_city(5),
            &NetworkObjectConfig { num_objects: 50, object_spread: 4, seed: 9 },
        );
        assert_eq!(dataset.db.len(), 50);
        assert_eq!(dataset.db.num_states(), dataset.network.num_states());
        for o in dataset.db.objects() {
            let nnz = o.initial_distribution().nnz();
            assert!((1..=4).contains(&nnz), "spread {nnz}");
            assert!((o.initial_distribution().sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = network_gen::small_city(2);
        let objs = NetworkObjectConfig { num_objects: 10, object_spread: 3, seed: 4 };
        let a = generate(&cfg, &objs);
        let b = generate(&cfg, &objs);
        assert!(a.db.models()[0].matrix().approx_eq(b.db.models()[0].matrix(), 0.0));
        assert_eq!(
            a.db.object(3).unwrap().initial_distribution(),
            b.db.object(3).unwrap().initial_distribution()
        );
    }
}
