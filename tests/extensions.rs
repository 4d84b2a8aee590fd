//! Integration tests for the engineering extensions layered on the paper's
//! framework: persistence, top-k ranking and thresholds on a heterogeneous
//! store behind the index probe, exercised together through the public
//! facade.

mod common;

use common::{probs, reference};
use ust::prelude::*;
use ust_core::Strategy::{Auto, ObjectBased, QueryBased};
use ust_data::{io, synthetic, workload, SyntheticConfig};

fn dataset() -> ust_data::SyntheticDataset {
    synthetic::generate(&SyntheticConfig {
        num_objects: 120,
        num_states: 3_000,
        ..SyntheticConfig::default()
    })
}

#[test]
fn persisted_dataset_answers_identically() {
    let data = dataset();
    let window = workload::paper_default_window(3_000).unwrap();

    // Save → load → re-query.
    let dir = std::env::temp_dir().join("ust_ext_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("synthetic.ust");
    io::save_database(&data.db, &path).unwrap();
    let loaded = io::load_database(&path).unwrap();

    let exists_qb = Query::exists().window(window).strategy(QueryBased);
    let a = probs(&QueryProcessor::new(&data.db), exists_qb.clone());
    let b = probs(&QueryProcessor::new(&loaded), exists_qb);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.object_id, y.object_id);
        assert!((x.probability - y.probability).abs() < 1e-12);
    }
}

#[test]
fn topk_matches_threshold_and_exact_order() {
    let data = dataset();
    let window = workload::paper_default_window(3_000).unwrap();
    let processor = QueryProcessor::new(&data.db);
    let exists = Query::exists().window(window);
    let top10 = |strategy| {
        let spec = exists.clone().top_k(10).strategy(strategy).build().unwrap();
        processor.execute(&spec).unwrap().ranked().unwrap().to_vec()
    };
    let (qb, ob) = (top10(QueryBased), top10(ObjectBased));
    assert_eq!(qb.len(), ob.len());
    for (a, b) in qb.iter().zip(&ob) {
        assert_eq!(a.object_id, b.object_id);
        assert!((a.probability - b.probability).abs() < 1e-12);
    }
    // Every member of the top-k passes a threshold query at its own score.
    if let Some(last) = qb.last() {
        if last.probability > 0.0 {
            let at_last_score =
                exists.threshold(last.probability).strategy(ObjectBased).build().unwrap();
            let accepted = processor.execute(&at_last_score).unwrap();
            for r in &qb {
                assert!(accepted.ids().unwrap().contains(&r.object_id));
            }
        }
    }
}

/// Thresholded ∃ on a heterogeneous database *with* an attached space, so
/// `execute` runs the index probe in front of the planner: three
/// near-identical models and a divergent fourth. The planner decides every
/// threshold by exact evaluation, and nothing about the answer — ids or
/// first error — moves between strategies, scopes or prefilter modes.
#[test]
fn planner_envelopes_decide_thresholds_without_changing_answers() {
    let base = dataset();
    let n = base.db.num_states();
    let weights = base.db.models()[0].matrix();
    // Non-linear reweighting, so that row normalisation does not undo it.
    let mut models: Vec<_> = (0..3)
        .map(|i| weights.map_values(|v| v.powf(1.0 + 0.01 * i as f64)))
        .map(|m| ust_markov::MarkovChain::from_weights(m).unwrap())
        .collect();
    models.push(ust_markov::MarkovChain::from_weights(weights.map_values(|v| v.powi(8))).unwrap());
    let mut db = TrajectoryDatabase::with_models(models).unwrap();
    for (i, o) in base.db.objects().iter().take(80).enumerate() {
        db.insert(o.clone().with_model(i % 4)).unwrap();
    }
    db.attach_space(std::sync::Arc::new(base.space)).unwrap();

    let window = workload::paper_default_window(n).unwrap();
    let reference = reference(&db, Query::exists().window(window.clone()).strategy(ObjectBased));
    let reference = reference.unwrap().probabilities().unwrap().to_vec();
    let subset: Vec<u64> = db.objects().iter().map(|o| o.id()).filter(|id| id % 3 != 1).collect();
    let run = |db: &TrajectoryDatabase, mode, spec: &ust_core::QuerySpec| {
        let config = EngineConfig::default().with_prefilter(mode);
        let result = QueryProcessor::with_config(db, config).execute(spec);
        result.map(|answer| answer.ids().unwrap().to_vec())
    };
    let tau = 0.05;
    for strategy in [ObjectBased, QueryBased, Auto] {
        for scope in [None, Some(&subset)] {
            let mut query =
                Query::exists().window(window.clone()).threshold(tau).strategy(strategy);
            if let Some(ids) = scope {
                query = query.objects(ids.iter().copied());
            }
            let spec = query.build().unwrap();
            let expected: Vec<u64> = reference
                .iter()
                .filter(|r| r.probability >= tau && scope.is_none_or(|s| s.contains(&r.object_id)))
                .map(|r| r.object_id)
                .collect();
            assert!(!expected.is_empty(), "the window is reachable");
            for mode in [PrefilterMode::On, PrefilterMode::Off] {
                let cell = format!("{strategy:?} {mode:?} subset: {}", scope.is_some());
                assert_eq!(run(&db, mode, &spec).as_ref(), Ok(&expected), "{cell}");
            }
        }
    }

    // A window that starts before two objects' (different) latest fixes:
    // object 7 (model 3) and object 30 (model 2). Every strategy reports
    // the first offender in index order — object 7 — over the whole
    // database and over a subset holding both, in either prefilter mode.
    let fix = |t: u32| Observation::exact(t, n, 110).unwrap();
    db.ingest(db.object(7).unwrap().id(), fix(23)).unwrap();
    db.ingest(db.object(30).unwrap().id(), fix(24)).unwrap();
    let both: Vec<u64> =
        db.objects().iter().enumerate().filter(|(i, _)| i % 5 != 4).map(|(_, o)| o.id()).collect();
    let first =
        Err(ust_core::QueryError::WindowBeforeObservation { window_start: 20, observation: 23 });
    for strategy in [ObjectBased, QueryBased, Auto] {
        for scope in [None, Some(&both)] {
            let mut query =
                Query::exists().window(window.clone()).threshold(tau).strategy(strategy);
            if let Some(ids) = scope {
                query = query.objects(ids.iter().copied());
            }
            let spec = query.build().unwrap();
            for mode in [PrefilterMode::On, PrefilterMode::Off] {
                let cell = format!("{strategy:?} {mode:?} subset: {}", scope.is_some());
                assert_eq!(run(&db, mode, &spec), first, "{cell}");
            }
        }
    }
}
