//! Cluster pruning with interval Markov chains — Section V-C of the paper.
//!
//! The query-based approach amortizes one backward pass per transition
//! model. When every vehicle class (or even every object) has its own
//! chain, the paper proposes clustering similar chains into an
//! *approximated Markov chain with probability intervals* and deciding
//! whole clusters against a probability threshold; only undecided objects
//! fall back to exact evaluation.
//!
//! This example builds 12 perturbed variants of a base chain (three
//! families × four perturbations), clusters them greedily by envelope
//! width, and runs a thresholded PST∃Q: `cluster::decide_by_bounds` settles
//! what the interval bounds can, one exact query answers the undecided
//! rest.
//!
//! Run with: `cargo run --release --example cluster_pruning`

use rand::Rng;
use ust::prelude::*;
use ust_core::cluster;
use ust_markov::{testutil, CooBuilder};

/// Perturbs a banded chain's weights by ±`strength`, keeping the support.
fn perturb(base: &MarkovChain, strength: f64, seed: u64) -> Result<MarkovChain> {
    let mut rng = testutil::rng(seed);
    let n = base.num_states();
    let mut builder = CooBuilder::new(n, n);
    for i in 0..n {
        let (cols, vals) = base.matrix().row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            let factor = 1.0 + strength * (rng.random::<f64>() * 2.0 - 1.0);
            builder
                .push(i, c as usize, (v * factor).max(1e-6))
                .expect("indices from a valid matrix");
        }
    }
    Ok(MarkovChain::from_weights(builder.build())?)
}

fn main() -> Result<()> {
    let n = 2_000;
    // Three distinct base behaviours ("cars", "bikes", "trucks"), each with
    // four mildly perturbed variants — 12 models overall.
    let mut models = Vec::new();
    for family in 0..3u64 {
        let mut rng = testutil::rng(1000 + family);
        let base = MarkovChain::from_csr(testutil::random_banded_stochastic(&mut rng, n, 5, 40))?;
        for variant in 0..4u64 {
            models.push(perturb(&base, 0.05, family * 10 + variant)?);
        }
    }
    let mut db = TrajectoryDatabase::with_models(models)?;

    // 600 objects spread across the 12 models, anchored near the window.
    let mut rng = testutil::rng(7);
    for id in 0..600u64 {
        let state = rng.random_range(0..n);
        db.insert(
            UncertainObject::with_single_observation(id, Observation::exact(0, n, state)?)
                .with_model((id % 12) as usize),
        )?;
    }

    let window = QueryWindow::from_states(n, 100usize..=140, TimeSet::interval(10, 15))?;
    let tau = 0.10;

    // Greedy clustering by interval-envelope width.
    let clusters = cluster::greedy_clusters(&db, 250.0)?;
    println!("Clustered 12 transition models into {} clusters:", clusters.len());
    for (i, c) in clusters.iter().enumerate() {
        println!("  cluster {i}: models {:?} (envelope width {:.1})", c.models, c.envelope_width());
    }

    let indices: Vec<usize> = (0..db.len()).collect();
    let decisions =
        cluster::decide_by_bounds(&db, &indices, &window, tau, &clusters, &mut EvalStats::new())?;
    let id_of = |idx: usize| db.objects()[idx].id();
    let mut accepted: Vec<u64> = Vec::new();
    let mut undecided: Vec<u64> = Vec::new();
    for (&idx, decision) in indices.iter().zip(&decisions) {
        match decision {
            Some(true) => accepted.push(id_of(idx)),
            Some(false) => {}
            None => undecided.push(id_of(idx)),
        }
    }
    // Exact fallback for what the bounds left open: one query-based run
    // restricted to those objects.
    let processor = QueryProcessor::new(&db);
    let exists = Query::exists().window(window).threshold(tau);
    if !undecided.is_empty() {
        let fallback = exists.clone().strategy(Strategy::QueryBased).objects(undecided.clone());
        accepted.extend(processor.execute(&fallback.build()?)?.ids().unwrap_or_default());
    }
    accepted.sort_unstable();
    let decided = db.len() - undecided.len();
    println!("\nThreshold query (τ = {tau}): {} of {} objects qualify.", accepted.len(), db.len());
    println!("  decided by cluster bounds alone: {decided} ({}%)", decided * 100 / db.len());
    println!("  exact fallback evaluations     : {}", undecided.len());

    // Exact reference: the decision set must be identical.
    let exact = processor.execute(&exists.strategy(Strategy::ObjectBased).build()?)?;
    assert_eq!(Some(accepted.as_slice()), exact.ids(), "cluster pruning must be exact");
    println!("\nVerified: identical answer set to the exact per-object evaluation.");
    Ok(())
}
