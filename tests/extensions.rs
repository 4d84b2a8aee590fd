//! Integration tests for the engineering extensions layered on the paper's
//! framework: persistence, top-k ranking and cluster pruning — all
//! exercised together through the public facade.

mod common;

use common::probs;
use ust::prelude::*;
use ust_core::cluster;
use ust_core::Strategy::{ObjectBased, QueryBased};
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

#[test]
fn cluster_bounds_respect_exact_results_on_perturbed_models() {
    // Build a 4-model database by perturbing the synthetic chain's weights.
    let base = dataset();
    let n = base.db.num_states();
    let models: Vec<_> = (0..4u64)
        .map(|i| {
            let m = base.db.models()[0].matrix().map_values(|v| v * (1.0 + i as f64 * 0.01));
            ust_markov::MarkovChain::from_weights(m).unwrap()
        })
        .collect();
    let mut db = TrajectoryDatabase::with_models(models).unwrap();
    for (i, o) in base.db.objects().iter().take(60).enumerate() {
        db.insert(o.clone().with_model(i % 4)).unwrap();
    }
    let window = workload::paper_default_window(n).unwrap();
    let clusters = vec![cluster::ModelCluster::build(&db, vec![0, 1, 2, 3]).unwrap()];
    let tau = 0.05;
    let indices: Vec<usize> = (0..db.len()).collect();
    let decisions =
        cluster::decide_by_bounds(&db, &indices, &window, tau, &clusters, &mut EvalStats::new())
            .unwrap();
    // The oracle evaluates every object exactly: no bounds, no index.
    let exact = QueryProcessor::with_config(
        &db,
        EngineConfig::default().with_prefilter(PrefilterMode::Off),
    )
    .execute(&Query::exists().window(window).threshold(tau).strategy(ObjectBased).build().unwrap())
    .unwrap();
    let accepted = exact.ids().unwrap();
    assert!(decisions.iter().any(Option::is_some), "the envelope decides something");
    for (object, decision) in db.objects().iter().zip(decisions) {
        if let Some(accept) = decision {
            assert_eq!(accept, accepted.contains(&object.id()), "object {}", object.id());
        }
    }
}
