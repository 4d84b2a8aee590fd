//! A live monitoring dashboard — a standing query over an observation
//! stream, built directly on the backward field.
//!
//! The Ice Patrol scenario as a *continuous* workload: the danger-region
//! field is swept once over every anchor time in `[0, t_end]`, then
//! sightings stream in and each costs only a sparse dot product — the
//! operational payoff of the paper's query-based evaluation. A fix that
//! arrives while the window is already open scores the *remaining* query
//! times, which is what a dashboard wants (the database-backed
//! `QueryProcessor::watch` instead rejects such anchors, as the batch
//! engines do). Simulates a stream of noisy fixes from drifting icebergs
//! and prints the evolving risk board.
//!
//! Run with: `cargo run --release --example streaming_dashboard`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

use ust::prelude::*;
use ust_core::engine::query_based::BackwardField;
use ust_data::iceberg::{self, IcebergConfig};

fn main() -> Result<()> {
    // Ocean + drift model from the iceberg scenario (chain reused for the
    // simulation itself, as the paper's model assumes).
    let config = IcebergConfig { rows: 30, cols: 30, num_icebergs: 0, ..IcebergConfig::default() };
    let scenario = iceberg::generate(&config);
    let grid = scenario.grid.clone();
    let chain = Arc::clone(&scenario.db.models()[0]);
    let n = chain.num_states();

    // Register the standing query: a shipping lane, relevant for t ∈ [2, 14].
    let lane = Region::rect(8.0, 12.0, 22.0, 16.0);
    let window = QueryWindow::from_region(&grid, &lane, TimeSet::interval(2, 14))?;
    println!(
        "Standing query registered: {} lane cells × times [2, 14] (one backward sweep).",
        window.states().count()
    );
    let anchors: Vec<u32> = (0..=window.t_end()).collect();
    let field = BackwardField::compute(&chain, &window, &anchors, &mut EvalStats::new())?;
    // The board: each iceberg's lane risk as of its latest fix, and the
    // icebergs at or above `tau`, most at risk first.
    let mut latest: BTreeMap<u64, f64> = BTreeMap::new();
    let above = |latest: &BTreeMap<u64, f64>, tau: f64| {
        let mut board: Vec<(u64, f64)> =
            latest.iter().map(|(&id, &p)| (id, p)).filter(|&(_, p)| p >= tau).collect();
        board.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        board
    };

    // Simulate 12 icebergs drifting along the chain, reporting noisy fixes
    // at irregular times. They spawn upstream of the lane (the prevailing
    // current runs toward larger rows/columns), so some will drift in.
    let mut rng = StdRng::seed_from_u64(0xD45B);
    let mut positions: Vec<usize> = (0..12)
        .map(|_| {
            let row = rng.random_range(5..14);
            let col = rng.random_range(0..10);
            grid.cell_to_id(row, col).expect("cell within the raster")
        })
        .collect();
    for t in 0..8u32 {
        for (berg, pos) in positions.iter_mut().enumerate() {
            // Advance the true position one drift step.
            if t > 0 {
                let (cols, vals) = chain.matrix().row(*pos);
                let u: f64 = rng.random();
                let mut acc = 0.0;
                for (&c, &p) in cols.iter().zip(vals) {
                    acc += p;
                    if u < acc {
                        *pos = c as usize;
                        break;
                    }
                }
            }
            // Report a fix only sometimes (sparse observations).
            if rng.random::<f64>() < 0.5 {
                let mut pairs = vec![(*pos, 2.0)];
                for nb in grid.neighbors4(*pos) {
                    pairs.push((nb, 0.5));
                }
                let obs =
                    Observation::uncertain(t, ust_markov::SparseVector::from_pairs(n, pairs)?)?;
                // Fixes arrive in time order, so the newest always wins.
                let fix = UncertainObject::with_single_observation(berg as u64, obs);
                let risk = field
                    .object_probability(&fix, &window)
                    .expect("every fix time up to t_end is snapshotted");
                latest.insert(berg as u64, risk);
            }
        }
        let board = above(&latest, 0.25);
        println!(
            "t={t}: {} fixes on board, {} icebergs above 25% lane risk{}",
            latest.len(),
            board.len(),
            if board.is_empty() {
                String::new()
            } else {
                format!(" — top: #{} at {:.0}%", board[0].0, board[0].1 * 100.0)
            }
        );
    }

    println!("\nFinal risk board (≥ 10%):");
    for (id, p) in above(&latest, 0.10) {
        println!("  iceberg #{id}: {:.1}%", p * 100.0);
    }
    Ok(())
}
