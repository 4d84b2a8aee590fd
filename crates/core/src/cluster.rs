//! Cluster pruning over heterogeneous transition models — Section V-C.
//!
//! The query-based approach amortizes one backward pass over all objects
//! *sharing a chain*. With many distinct chains the paper proposes
//! clustering similar chains, representing each cluster by an approximated
//! Markov chain "where each entry is a probability interval instead of a
//! singular probability", and using it "to perform pruning by detecting
//! clusters of objects which must have (or cannot possibly have) a
//! sufficiently high probability to satisfy the query predicate. Only
//! clusters which cannot be decided as a whole need their objects to be
//! considered individually."
//!
//! [`decide_by_bounds`] is the deciding half of that protocol, on top of
//! [`ust_markov::IntervalMatrix`]; the planner's thresholded-`∃` dispatch
//! calls it with the spatial index's envelope clusters and hands the
//! undecided rest to its own strategy's exact driver.

// Bound decisions are answers: no clock reads, no hashed containers.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::BTreeMap;

use ust_markov::{CsrMatrix, IntervalMatrix};

use crate::database::TrajectoryDatabase;
use crate::error::{QueryError, Result};
use crate::query::QueryWindow;
use crate::stats::EvalStats;

/// A cluster of transition-model indices with its interval envelope.
#[derive(Debug, Clone)]
pub struct ModelCluster {
    /// Model indices (into the database model table) in this cluster.
    pub models: Vec<usize>,
    envelope: IntervalMatrix,
}

impl ModelCluster {
    /// Builds a cluster over the given model indices of `db`.
    pub fn build(db: &TrajectoryDatabase, models: Vec<usize>) -> Result<ModelCluster> {
        let matrices: Vec<&CsrMatrix> = models
            .iter()
            .map(|&m| {
                db.models().get(m).map(|c| c.matrix()).ok_or(QueryError::UnknownModel { model: m })
            })
            .collect::<Result<_>>()?;
        let envelope = IntervalMatrix::envelope(&matrices)?;
        Ok(ModelCluster { models, envelope })
    }

    /// Width of the interval envelope (Σ |hi − lo|), a measure of cluster
    /// coherence usable to drive clustering decisions.
    pub fn envelope_width(&self) -> f64 {
        let lo = self.envelope.lower();
        let hi = self.envelope.upper();
        let mut width = 0.0;
        for i in 0..hi.nrows() {
            let (cols, vals) = hi.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                width += v - lo.get(i, c as usize);
            }
        }
        width
    }
}

/// Greedy coherence clustering: models are added to the first cluster whose
/// envelope stays below `max_width` after insertion, else start a new
/// cluster. Simple but effective when models form natural classes.
pub fn greedy_clusters(db: &TrajectoryDatabase, max_width: f64) -> Result<Vec<ModelCluster>> {
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for m in 0..db.models().len() {
        let mut placed = false;
        for members in clusters.iter_mut() {
            let mut attempt = members.clone();
            attempt.push(m);
            let cluster = ModelCluster::build(db, attempt.clone())?;
            if cluster.envelope_width() <= max_width {
                *members = attempt;
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push(vec![m]);
        }
    }
    clusters.into_iter().map(|models| ModelCluster::build(db, models)).collect()
}

/// Per-object envelope-bound decisions over `indices` (database indices,
/// evaluated in the given order): `Some(true)` — the cluster's lower bound
/// already certifies `P∃ ≥ τ`; `Some(false)` — the upper bound rules it
/// out; `None` — the interval straddles `τ` and the object needs exact
/// evaluation. Decided objects count into [`EvalStats::objects_pruned`].
/// An object `window` is not valid for is left undecided: the exact driver
/// that evaluates the undecided rest then fails with the first offender in
/// index order — the error every strategy reports, with or without bounds.
pub fn decide_by_bounds(
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
    tau: f64,
    clusters: &[ModelCluster],
    stats: &mut EvalStats,
) -> Result<Vec<Option<bool>>> {
    let mut cluster_of_model: BTreeMap<usize, usize> = BTreeMap::new();
    for (ci, cluster) in clusters.iter().enumerate() {
        for &m in &cluster.models {
            cluster_of_model.insert(m, ci);
        }
    }

    // Bounds are anchored per (cluster, anchor time): homogeneity lets us
    // shift the window instead of re-anchoring the chain.
    let mut bound_cache: BTreeMap<
        (usize, u32),
        (ust_markov::DenseVector, ust_markov::DenseVector),
    > = BTreeMap::new();

    let mut decisions = Vec::with_capacity(indices.len());
    for &idx in indices {
        let object = db
            .object(idx)
            .ok_or(QueryError::internal("bound decisions received an unresolved object index"))?;
        let model = object.model();
        let ci = match cluster_of_model.get(&model) {
            Some(&ci) => ci,
            None => return Err(QueryError::UnknownModel { model }),
        };
        let anchor = object.anchor();
        let a = anchor.time();
        if crate::engine::object_based::validate(db.model_of(object), object, window).is_err() {
            decisions.push(None);
            continue;
        }
        let (lo_vec, hi_vec) = match bound_cache.get(&(ci, a)) {
            Some(bounds) => bounds.clone(),
            None => {
                let rel_end = window.t_end() - a;
                let bounds = clusters[ci].envelope.backward_exists_bounds(
                    window.states(),
                    rel_end,
                    |t| window.time_in_window(t + a),
                )?;
                stats.backward_steps += u64::from(rel_end);
                bound_cache.insert((ci, a), bounds.clone());
                bounds
            }
        };
        let anchor_in = window.time_in_window(a);
        let mut lb = 0.0;
        let mut ub = 0.0;
        for (s, p) in anchor.distribution().iter() {
            if anchor_in && window.states().contains(s) {
                lb += p;
                ub += p;
            } else {
                lb += p * lo_vec.get(s);
                ub += p * hi_vec.get(s);
            }
        }
        if lb >= tau {
            stats.objects_pruned += 1;
            decisions.push(Some(true));
        } else if ub < tau {
            stats.objects_pruned += 1;
            decisions.push(Some(false));
        } else {
            decisions.push(None);
        }
    }
    Ok(decisions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{query_based, EngineConfig, QueryProcessor};
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::{Query, Strategy};
    use ust_markov::{CsrMatrix, MarkovChain};
    use ust_space::TimeSet;

    fn chain(rows: &[Vec<f64>]) -> MarkovChain {
        MarkovChain::from_csr(CsrMatrix::from_dense(rows).unwrap()).unwrap()
    }

    fn paper_chain() -> MarkovChain {
        chain(&[vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]])
    }

    /// A chain similar to the paper's (slightly perturbed rows).
    fn similar_chain() -> MarkovChain {
        chain(&[vec![0.0, 0.0, 1.0], vec![0.55, 0.0, 0.45], vec![0.0, 0.85, 0.15]])
    }

    /// A very different chain (drifts to s3 and stays).
    fn divergent_chain() -> MarkovChain {
        chain(&[vec![0.0, 0.0, 1.0], vec![0.0, 0.0, 1.0], vec![0.0, 0.05, 0.95]])
    }

    fn window() -> QueryWindow {
        QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap()
    }

    fn make_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::with_models(vec![
            paper_chain(),
            similar_chain(),
            divergent_chain(),
        ])
        .unwrap();
        for (i, (state, model)) in
            [(1usize, 0usize), (1, 1), (1, 2), (2, 0), (2, 2)].into_iter().enumerate()
        {
            db.insert(
                UncertainObject::with_single_observation(
                    i as u64,
                    Observation::exact(0, 3, state).unwrap(),
                )
                .with_model(model),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn envelope_width_orders_cluster_quality() {
        let db = make_db();
        let tight = ModelCluster::build(&db, vec![0, 1]).unwrap();
        let loose = ModelCluster::build(&db, vec![0, 2]).unwrap();
        assert!(tight.envelope_width() < loose.envelope_width());
        assert_eq!(ModelCluster::build(&db, vec![0]).unwrap().envelope_width(), 0.0);
        assert!(ModelCluster::build(&db, vec![9]).is_err());
    }

    #[test]
    fn greedy_clustering_separates_divergent_models() {
        let db = make_db();
        let clusters = greedy_clusters(&db, 0.5).unwrap();
        // The paper chain and its perturbation cluster together; the
        // divergent chain stands alone.
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].models, vec![0, 1]);
        assert_eq!(clusters[1].models, vec![2]);
    }

    /// The Section V-C protocol: bounds decide what they can, the exact
    /// engine answers the undecided rest.
    #[test]
    fn clustered_query_matches_exact_threshold_query() {
        let db = make_db();
        let clusters = greedy_clusters(&db, 0.5).unwrap();
        let processor = QueryProcessor::new(&db);
        let indices: Vec<usize> = (0..db.len()).collect();
        for tau in [0.05, 0.3, 0.5, 0.85, 0.9, 0.99] {
            let exists = Query::exists().window(window()).strategy(Strategy::ObjectBased);
            let decisions =
                decide_by_bounds(&db, &indices, &window(), tau, &clusters, &mut EvalStats::new())
                    .unwrap();
            let mut accepted = Vec::new();
            for (object, decision) in db.objects().iter().zip(decisions) {
                let qualifies = decision.unwrap_or_else(|| {
                    let one = exists.clone().objects([object.id()]).build().unwrap();
                    processor.execute(&one).unwrap().probabilities().unwrap()[0].probability >= tau
                });
                if qualifies {
                    accepted.push(object.id());
                }
            }
            let exact = processor.execute(&exists.threshold(tau).build().unwrap()).unwrap();
            assert_eq!(accepted, exact.ids().unwrap(), "τ = {tau}");
        }
    }

    #[test]
    fn singleton_clusters_decide_everything_by_bounds() {
        // With one model per cluster the interval is degenerate (lo = hi),
        // so every object is decided by bounds alone.
        let db = make_db();
        let clusters: Vec<ModelCluster> =
            (0..3).map(|m| ModelCluster::build(&db, vec![m]).unwrap()).collect();
        let indices: Vec<usize> = (0..db.len()).collect();
        let mut stats = EvalStats::new();
        let decisions = decide_by_bounds(&db, &indices, &window(), 0.5, &clusters, &mut stats);
        assert!(decisions.unwrap().iter().all(Option::is_some));
        // "Without touching members": no object was exactly evaluated and
        // every one was pruned by the envelope.
        assert_eq!(stats.objects_evaluated, 0);
        assert_eq!(stats.objects_pruned, db.len() as u64);
    }

    #[test]
    fn subset_variant_matches_full_query_on_subset() {
        // The planner hands `decide_by_bounds` whatever candidate subset
        // survived the index: per-object decisions must not depend on who
        // else was asked.
        let db = make_db();
        let clusters = greedy_clusters(&db, 0.5).unwrap();
        let everyone: Vec<usize> = (0..db.len()).collect();
        let subset = [0usize, 2, 4];
        for tau in [0.05, 0.5, 0.9] {
            let decide = |indices: &[usize]| {
                decide_by_bounds(&db, indices, &window(), tau, &clusters, &mut EvalStats::new())
                    .unwrap()
            };
            let full = decide(&everyone);
            let expect: Vec<Option<bool>> = subset.iter().map(|&i| full[i]).collect();
            assert_eq!(decide(&subset), expect, "τ = {tau}");
        }
    }

    #[test]
    fn decide_by_bounds_is_conservative() {
        // Whenever the envelope decides an object, the exact probability
        // must agree with the decision.
        let db = make_db();
        let clusters = greedy_clusters(&db, 0.5).unwrap();
        let config = EngineConfig::default();
        let indices: Vec<usize> = (0..db.len()).collect();
        for tau in [0.05, 0.3, 0.5, 0.85, 0.9, 0.99] {
            let decisions =
                decide_by_bounds(&db, &indices, &window(), tau, &clusters, &mut EvalStats::new())
                    .unwrap();
            for (&idx, decision) in indices.iter().zip(&decisions) {
                let object = db.object(idx).unwrap();
                let p = query_based::exists_probability(
                    db.model_of(object),
                    object,
                    &window(),
                    &config,
                )
                .unwrap();
                if let Some(accept) = decision {
                    assert_eq!(*accept, p >= tau, "object {idx}, τ = {tau}, p = {p}");
                }
            }
        }
    }

    #[test]
    fn missing_cluster_for_model_errors() {
        let db = make_db();
        let clusters = vec![ModelCluster::build(&db, vec![0, 1]).unwrap()];
        let decide = |indices: &[usize]| {
            decide_by_bounds(&db, indices, &window(), 0.5, &clusters, &mut EvalStats::new())
        };
        assert_eq!(decide(&[0, 1, 2]), Err(QueryError::UnknownModel { model: 2 }));
        // An index that resolves to no object is the caller's bug, not an
        // unknown object *id*.
        assert!(matches!(decide(&[99]), Err(QueryError::Internal { .. })));
    }
}
