//! End-to-end pipelines over generated datasets: synthetic (Table I),
//! road networks, icebergs — exercising the full public API surface the
//! way the examples and the benchmark harness do.

mod common;

use common::{dists, probs, reference};
use ust::prelude::*;
use ust_bench::baselines::independent;
use ust_core::Strategy::{ObjectBased, QueryBased};
use ust_data::network_data::{self, NetworkObjectConfig};
use ust_data::{iceberg, synthetic, traffic, workload, SyntheticConfig};
use ust_space::network_gen;

#[test]
fn synthetic_pipeline_all_queries() {
    let data = synthetic::generate(&SyntheticConfig {
        num_objects: 200,
        num_states: 5_000,
        ..SyntheticConfig::default()
    });
    let window = workload::paper_default_window(5_000).unwrap();
    let processor = QueryProcessor::new(&data.db);

    let exists = probs(&processor, Query::exists().window(window.clone()).strategy(QueryBased));
    assert_eq!(exists.len(), 200);
    for r in &exists {
        assert!((0.0..=1.0).contains(&r.probability), "p = {}", r.probability);
    }
    let nonzero = exists.iter().filter(|r| r.probability > 0.0).count();
    // The window sits at states [100, 120]; only objects anchored nearby
    // can reach it within 25 steps (cone ≤ 20·25 states wide).
    assert!(nonzero < 200, "window must not be reachable by everyone");

    let forall = probs(&processor, Query::forall().window(window.clone()).strategy(QueryBased));
    let kdist = dists(&processor, Query::ktimes(1).window(window.clone()).strategy(QueryBased));
    for ((e, f), k) in exists.iter().zip(&forall).zip(&kdist) {
        assert!(f.probability <= e.probability + 1e-9, "∀ ≤ ∃");
        assert!((e.probability - k.prob_at_least_once()).abs() < 1e-9);
        assert!((f.probability - k.prob_always()).abs() < 1e-9);
    }
}

#[test]
fn parallel_threshold_and_prefilter_consistency() {
    let data = synthetic::generate(&SyntheticConfig {
        num_objects: 300,
        num_states: 4_000,
        ..SyntheticConfig::default()
    });
    let window = workload::paper_default_window(4_000).unwrap();
    let config = EngineConfig::default();

    // Parallel == the reference configuration.
    let exists_ob = Query::exists().window(window.clone()).strategy(ObjectBased);
    let sequential = reference(&data.db, exists_ob.clone()).unwrap();
    let sequential = sequential.probabilities().unwrap();
    let pooled = QueryProcessor::with_config(&data.db, config.with_num_threads(4));
    assert_eq!(probs(&pooled, exists_ob.clone()), sequential);

    // Threshold query == filtering the exact results.
    for tau in [0.01, 0.2, 0.7] {
        let accepted = pooled.execute(&exists_ob.clone().threshold(tau).build().unwrap()).unwrap();
        let expected: Vec<u64> =
            sequential.iter().filter(|r| r.probability >= tau).map(|r| r.object_id).collect();
        assert_eq!(accepted.ids().unwrap(), expected, "τ = {tau}");
    }

    // The index keeps every object with non-zero probability.
    let mut indexed = data.db.clone();
    indexed.attach_space(std::sync::Arc::new(data.space)).unwrap();
    let candidates = indexed.spatial_index().unwrap().candidates(&window);
    for (idx, r) in sequential.iter().enumerate() {
        if r.probability > 0.0 {
            assert!(candidates.contains(&idx), "object {idx} wrongly pruned");
        }
    }
    assert!(candidates.len() < data.db.len(), "prefilter should prune something");
}

/// Batched object-based evaluation streams a transition-matrix row once
/// per batch instead of once per object: the same answers from the same
/// transitions and matrix entries, with fewer row reads.
#[test]
fn batching_shares_matrix_rows_without_changing_the_work() {
    let cfg = SyntheticConfig::small();
    let data = synthetic::generate(&cfg);
    let window = workload::paper_default_window(cfg.num_states).unwrap();
    let spec = Query::exists().window(window).strategy(ObjectBased).build().unwrap();
    let run = |batch_size: usize| {
        let config = EngineConfig::default().with_batch_size(batch_size);
        let mut stats = EvalStats::new();
        let answer = QueryProcessor::with_config(&data.db, config)
            .execute_with_stats(&spec, &mut stats)
            .unwrap();
        (answer, stats)
    };
    let (per_object, base) = run(1);
    for batch_size in [8usize, 32, 128] {
        let (batched, stats) = run(batch_size);
        assert_eq!(batched, per_object, "batch={batch_size}");
        assert_eq!(stats.transitions, base.transitions, "batch={batch_size}");
        assert_eq!(stats.entries_touched, base.entries_touched, "batch={batch_size}");
        assert!(stats.rows_traversed < base.rows_traversed, "batch={batch_size}");
    }
}

#[test]
fn road_network_pipeline() {
    let dataset = network_data::generate(
        &network_gen::small_city(42),
        &NetworkObjectConfig { num_objects: 150, object_spread: 4, seed: 42 },
    );
    assert!(dataset.network.is_connected());
    let n = dataset.network.num_nodes();
    let window = QueryWindow::from_states(n, 100usize..=140, TimeSet::interval(10, 15)).unwrap();
    let processor = QueryProcessor::new(&dataset.db);
    let ob = probs(&processor, Query::exists().window(window.clone()).strategy(ObjectBased));
    let qb = probs(&processor, Query::exists().window(window.clone()).strategy(QueryBased));
    for (a, b) in ob.iter().zip(&qb) {
        assert!((a.probability - b.probability).abs() < 1e-9);
    }
    // Expected occupancy behaves like a measure.
    let expected = traffic::expected_objects_in_window(&dataset.db, &window).unwrap();
    assert!(expected >= 0.0 && expected <= dataset.db.len() as f64);
}

#[test]
fn iceberg_pipeline_with_multi_observations() {
    let scenario = iceberg::generate(&iceberg::IcebergConfig {
        rows: 20,
        cols: 20,
        num_icebergs: 60,
        resight_probability: 0.5,
        ..iceberg::IcebergConfig::default()
    });
    let n = scenario.db.num_states();
    let window = QueryWindow::from_region(
        &scenario.grid,
        &Region::rect(5.0, 8.0, 15.0, 12.0),
        TimeSet::interval(1, 6),
    )
    .unwrap();
    assert!(window.states().dim() == n);

    // Multi-observation evaluation handles the whole fleet (re-sighted or
    // not) and stays in [0, 1].
    let results = ust_core::multi_obs::evaluate_exists_multi(
        &scenario.db,
        &window,
        &EngineConfig::default(),
        &mut EvalStats::new(),
    )
    .unwrap();
    assert_eq!(results.len(), 60);
    for r in &results {
        assert!((0.0..=1.0).contains(&r.probability));
    }
}

#[test]
fn accuracy_experiment_shape_holds() {
    // The Fig. 9(d) claim at test scale: the independence model's deviation
    // from the exact model grows with the window length.
    let data = synthetic::generate(&SyntheticConfig {
        num_objects: 80,
        num_states: 2_000,
        ..SyntheticConfig::default()
    });
    let base = workload::paper_default_window(2_000).unwrap();
    let mut deviations = Vec::new();
    for len in [1u32, 5, 10] {
        let window = workload::with_duration(&base, len).unwrap();
        let exact = probs(
            &QueryProcessor::new(&data.db),
            Query::exists().window(window.clone()).strategy(QueryBased),
        );
        let indep = independent::evaluate_exists_independent(&data.db, &window).unwrap();
        let dev: f64 =
            exact.iter().zip(&indep).map(|(a, b)| (a.probability - b.probability).abs()).sum();
        deviations.push(dev);
    }
    assert!(deviations[0] < 1e-9, "length-1 windows are unbiased");
    assert!(
        deviations[2] > deviations[1] * 0.5 && deviations[2] > deviations[0],
        "bias must grow with window length: {deviations:?}"
    );
}

#[test]
fn ktimes_expected_visits_equals_marginal_sum_on_dataset() {
    let data = synthetic::generate(&SyntheticConfig {
        num_objects: 30,
        num_states: 2_000,
        ..SyntheticConfig::default()
    });
    let window = workload::paper_default_window(2_000).unwrap();
    let kdist = dists(
        &QueryProcessor::new(&data.db),
        Query::ktimes(1).window(window.clone()).strategy(QueryBased),
    );
    for (object, k) in data.db.objects().iter().zip(&kdist) {
        let marginals =
            independent::window_marginals(data.db.model_of(object), object, &window).unwrap();
        let marginal_sum: f64 = marginals.iter().sum();
        assert!(
            (k.expected_visits() - marginal_sum).abs() < 1e-9,
            "linearity of expectation violated: {} vs {marginal_sum}",
            k.expected_visits()
        );
    }
}
