//! The iceberg-monitoring scenario from the paper's introduction.
//!
//! The International Ice Patrol tracks icebergs drifting with the Labrador
//! Current near the Grand Banks; sightings are sparse and uncertain, and a
//! stochastic drift model infers positions between (and after)
//! observations. We model the ocean patch as a 2-D raster
//! ([`ust_space::GridSpace`]) and build a drift-biased Markov chain: each
//! cell transitions to its Moore neighborhood (and itself) with weights
//! favouring the prevailing current direction, plus isotropic turbulence.
//! Icebergs are observed with positional uncertainty (a cell neighborhood),
//! optionally re-sighted later — exercising the multiple-observation
//! machinery of Section VI.

#![expect(
    clippy::expect_used,
    reason = "synthetic dataset generator: grid ids and neighbor cells come from iterating the \
              grid itself, so every `expect` guards an invariant the generator itself \
              establishes; a failure is a bug in this file, not recoverable caller input."
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_core::{Observation, TrajectoryDatabase, UncertainObject};
use ust_markov::{CooBuilder, MarkovChain, SparseVector};
use ust_space::{GridSpace, StateSpace};

/// Configuration of the iceberg drift scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcebergConfig {
    /// Grid rows (latitude bands).
    pub rows: usize,
    /// Grid columns (longitude bands).
    pub cols: usize,
    /// Number of tracked icebergs.
    pub num_icebergs: usize,
    /// Prevailing current as a `(d_col, d_row)` drift vector per step.
    pub current: (f64, f64),
    /// Isotropic turbulence strength (0 = deterministic drift).
    pub turbulence: f64,
    /// Probability that an iceberg has a second, later sighting.
    pub resight_probability: f64,
    /// Time of the optional second sighting.
    pub resight_time: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IcebergConfig {
    fn default() -> Self {
        IcebergConfig {
            rows: 40,
            cols: 40,
            num_icebergs: 200,
            current: (0.8, 0.4),
            turbulence: 0.5,
            resight_probability: 0.3,
            resight_time: 8,
            seed: 0x1CE,
        }
    }
}

/// A generated iceberg scenario.
#[derive(Debug)]
pub struct IcebergScenario {
    /// Database of icebergs over the drift chain.
    pub db: TrajectoryDatabase,
    /// The ocean raster.
    pub grid: GridSpace,
    /// The generating configuration.
    pub config: IcebergConfig,
}

/// Builds the drift-biased transition chain over the raster.
///
/// Each cell's successors are itself and its Moore neighborhood; the weight
/// of moving by `(dc, dr)` is `turbulence + max(0, ⟨(dc,dr), current⟩)`,
/// row-normalized — cells drift along the current but can loiter or wander.
/// Border cells simply lose their outside options (mass renormalizes), so
/// icebergs "beach" probabilistically at the domain edge.
pub fn drift_chain(grid: &GridSpace, current: (f64, f64), turbulence: f64) -> MarkovChain {
    let n = grid.num_states();
    let mut builder = CooBuilder::with_capacity(n, n, n * 9);
    for id in 0..n {
        let (r, c) = grid.id_to_cell(id).expect("id in range");
        let mut weights: Vec<(usize, f64)> = Vec::with_capacity(9);
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                let nr = r as i64 + dr;
                let nc = c as i64 + dc;
                if nr < 0 || nc < 0 {
                    continue;
                }
                let Some(nid) = grid.cell_to_id(nr as usize, nc as usize) else {
                    continue;
                };
                let along = dc as f64 * current.0 + dr as f64 * current.1;
                let w = turbulence.max(1e-6) + along.max(0.0);
                weights.push((nid, w));
            }
        }
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        for (nid, w) in weights {
            builder.push(id, nid, w / total).expect("neighbor ids in range");
        }
    }
    MarkovChain::from_csr(builder.build()).expect("rows normalized by construction")
}

/// Generates the scenario: chain, icebergs, observations.
pub fn generate(config: &IcebergConfig) -> IcebergScenario {
    let grid = GridSpace::new(config.rows, config.cols);
    let chain = drift_chain(&grid, config.current, config.turbulence);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = TrajectoryDatabase::new(chain);
    let n = grid.num_states();
    for id in 0..config.num_icebergs {
        // Initial sighting: a cell plus its 4-neighborhood (sighting from a
        // ship or aircraft carries positional uncertainty).
        let cell = rng.random_range(0..n);
        let mut pairs = vec![(cell, 2.0)];
        for nb in grid.neighbors4(cell) {
            pairs.push((nb, 1.0));
        }
        let first =
            Observation::uncertain(0, SparseVector::from_pairs(n, pairs).expect("cells in range"))
                .expect("positive weights");

        let mut observations = vec![first];
        if rng.random::<f64>() < config.resight_probability {
            // Re-sighting somewhere downstream of the current.
            let (r, c) = grid.id_to_cell(cell).expect("in range");
            let drift_cells = config.resight_time as f64;
            let nr = ((r as f64 + config.current.1 * drift_cells).round().max(0.0) as usize)
                .min(config.rows - 1);
            let nc = ((c as f64 + config.current.0 * drift_cells).round().max(0.0) as usize)
                .min(config.cols - 1);
            let resight_cell = grid.cell_to_id(nr, nc).expect("clamped to grid");
            let mut pairs = vec![(resight_cell, 2.0)];
            for nb in grid.neighbors8(resight_cell) {
                pairs.push((nb, 1.0));
            }
            observations.push(
                Observation::uncertain(
                    config.resight_time,
                    SparseVector::from_pairs(n, pairs).expect("cells in range"),
                )
                .expect("positive weights"),
            );
        }
        let iceberg = UncertainObject::new(id as u64, observations).expect("valid");
        db.insert(iceberg).expect("dimensions agree");
    }
    IcebergScenario { db, grid, config: *config }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_chain_is_biased_along_current() {
        let grid = GridSpace::new(10, 10);
        let chain = drift_chain(&grid, (1.0, 0.0), 0.1);
        // From an interior cell, moving east must be more likely than west.
        let id = grid.cell_to_id(5, 5).unwrap();
        let east = grid.cell_to_id(5, 6).unwrap();
        let west = grid.cell_to_id(5, 4).unwrap();
        assert!(chain.matrix().get(id, east) > chain.matrix().get(id, west));
        // All rows stochastic (validated by construction) and local.
        let (cols, _) = chain.matrix().row(id);
        assert_eq!(cols.len(), 9);
    }

    #[test]
    fn corner_cells_renormalize() {
        let grid = GridSpace::new(5, 5);
        let chain = drift_chain(&grid, (0.5, 0.5), 0.3);
        let corner = grid.cell_to_id(4, 4).unwrap();
        let (cols, vals) = chain.matrix().row(corner);
        assert_eq!(cols.len(), 4); // self + 3 in-grid neighbors
        assert!((vals.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scenario_has_single_and_multi_observation_icebergs() {
        let scenario = generate(&IcebergConfig {
            num_icebergs: 100,
            resight_probability: 0.5,
            ..IcebergConfig::default()
        });
        assert_eq!(scenario.db.len(), 100);
        let multi = scenario.db.objects().iter().filter(|o| o.has_multiple_observations()).count();
        assert!(multi > 10, "expected a healthy share of re-sighted icebergs, got {multi}");
        assert!(multi < 100);
        for o in scenario.db.objects() {
            assert!((o.initial_distribution().sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = IcebergConfig { num_icebergs: 20, ..IcebergConfig::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(
            a.db.object(5).unwrap().initial_distribution(),
            b.db.object(5).unwrap().initial_distribution()
        );
    }
}
