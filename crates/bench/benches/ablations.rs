//! Criterion benches for the design-choice ablations:
//! virtual vs materialized augmented matrices, hybrid vector representation,
//! ε-pruning, and threshold early termination.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ust_core::engine::{object_based, EngineConfig};
use ust_core::{EvalStats, Query, QueryProcessor, Strategy};
use ust_data::workload;
use ust_data::{synthetic, SyntheticConfig};
use ust_markov::{augmented, DenseVector};

fn dataset() -> ust_data::SyntheticDataset {
    synthetic::generate(&SyntheticConfig {
        num_objects: 100,
        num_states: 4_000,
        ..SyntheticConfig::default()
    })
}

fn bench_augmented(c: &mut Criterion) {
    let data = dataset();
    let window = workload::paper_default_window(4_000).unwrap();
    let config = EngineConfig::default();
    let chain = data.db.models()[0].clone();

    let mut group = c.benchmark_group("ablation_augmented_operator");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("virtual_operator", |b| {
        b.iter(|| {
            object_based::evaluate(&data.db, &window, &config, &mut EvalStats::new()).unwrap()
        })
    });
    group.bench_function("materialized_matrices", |b| {
        b.iter(|| {
            let minus = augmented::exists_minus(chain.matrix());
            let plus = augmented::exists_plus(chain.matrix(), window.states());
            let top = augmented::top_index(4_000);
            let mut out = Vec::with_capacity(data.db.len());
            for object in data.db.objects() {
                let mut v = DenseVector::zeros(4_001);
                for (s, p) in object.anchor().distribution().iter() {
                    v.set(s, p).unwrap();
                }
                for t in 0..window.t_end() {
                    let m = if window.time_in_window(t + 1) { &plus } else { &minus };
                    v = m.vecmat_dense(&v).unwrap();
                }
                out.push(v.get(top));
            }
            out
        })
    });
    group.finish();
}

fn bench_hybrid(c: &mut Criterion) {
    let data = dataset();
    let window = workload::paper_default_window(4_000).unwrap();

    let mut group = c.benchmark_group("ablation_hybrid_representation");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for (label, threshold) in
        [("always_dense", 0.0), ("hybrid_default", 0.25), ("always_sparse", 1.0)]
    {
        let config = EngineConfig::default().with_densify_threshold(threshold);
        group.bench_with_input(BenchmarkId::new("OB", label), &label, |b, _| {
            b.iter(|| {
                object_based::evaluate(&data.db, &window, &config, &mut EvalStats::new()).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_epsilon(c: &mut Criterion) {
    let data = dataset();
    let window = workload::paper_default_window(4_000).unwrap();

    let mut group = c.benchmark_group("ablation_epsilon_pruning");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for (label, eps) in [("exact", 0.0), ("eps_1e-6", 1e-6), ("eps_1e-4", 1e-4)] {
        let config = EngineConfig::default().with_epsilon(eps);
        group.bench_with_input(BenchmarkId::new("OB", label), &label, |b, _| {
            b.iter(|| {
                object_based::evaluate(&data.db, &window, &config, &mut EvalStats::new()).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_threshold(c: &mut Criterion) {
    let data = dataset();
    let window = workload::paper_default_window(4_000).unwrap();
    let config = EngineConfig::default();

    let mut group = c.benchmark_group("ablation_threshold_early_termination");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("exact_then_compare", |b| {
        b.iter(|| {
            object_based::evaluate(&data.db, &window, &config, &mut EvalStats::new())
                .unwrap()
                .iter()
                .filter(|r| r.probability >= 0.5)
                .count()
        })
    });
    let processor = QueryProcessor::new(&data.db);
    let spec = Query::exists()
        .window(window.clone())
        .threshold(0.5)
        .strategy(Strategy::ObjectBased)
        .build()
        .unwrap();
    group.bench_function("bounded_early_termination", |b| {
        b.iter(|| processor.execute(&spec).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, bench_augmented, bench_hybrid, bench_epsilon, bench_threshold);
criterion_main!(benches);
