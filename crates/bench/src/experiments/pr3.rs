//! PR 3 trajectory experiment: the long-lived worker pool and the
//! shared-field plan on the sharded query-based workload, measured in
//! operation counts (deterministic across machines) plus wall clock.
//!
//! Three claims are made observable:
//!
//! 1. **Shared-field dedup** — each `(model, window)` backward field is
//!    swept at most once per query regardless of `num_threads`
//!    (`backward steps` stays flat across the thread sweep), whereas a
//!    per-worker re-sweep — the duplication ROADMAP.md flagged under
//!    "worker-aware QB sharding" — pays `threads ×` that count (the
//!    `naive re-sweep` column).
//! 2. **Cache-backed plans** — routing the plan through a lock-guarded
//!    `BackwardFieldCache` drops the backward steps of repeated windows to
//!    zero (the `*_cached_*` metrics).
//! 3. **Pool reuse** — running a query burst on one long-lived
//!    [`WorkerPool`] avoids the per-query thread spawn/join of the old
//!    scoped-thread executor (the `pooled_burst_wall_secs` vs
//!    `respawn_burst_wall_secs` metrics).

use std::sync::{Arc, Mutex};

use ust_core::engine::cache::BackwardFieldCache;
use ust_core::engine::query_based::{self, FieldRule, SharedFieldPlan};
use ust_core::engine::EngineConfig;
use ust_core::parallel::{
    evaluate_exists_qb_cached_on, evaluate_exists_qb_on, ShardedExecutor, WorkerPool,
};
use ust_core::EvalStats;
use ust_data::csv::fmt_secs;
use ust_data::workload;
use ust_data::{synthetic, ResultTable, SyntheticConfig};

use crate::{time, ExperimentOutput, Scale};

/// The fig11 locality workload — the same dataset the `pr2_*` experiments
/// use, so the trajectory files stay comparable.
fn locality_config(scale: Scale) -> SyntheticConfig {
    super::fig11::base_config(scale)
}

/// Worker-pool + shared-field-plan experiment on the sharded QB workload.
pub fn pr3_pool(scale: Scale) -> ExperimentOutput {
    pool_experiment(&locality_config(scale))
}

fn pool_experiment(cfg: &SyntheticConfig) -> ExperimentOutput {
    let data = synthetic::generate(cfg);
    let window = workload::paper_default_window(cfg.num_states).expect("window fits");

    // Sequential reference: the bits every pooled run must reproduce.
    let mut seq_stats = EvalStats::new();
    let baseline =
        query_based::evaluate(&data.db, &window, &EngineConfig::default(), &mut seq_stats).unwrap();

    let mut table = ResultTable::new([
        "threads",
        "wall (s)",
        "backward steps",
        "naive re-sweep steps",
        "fields shared",
    ]);
    let mut out = ExperimentOutput {
        metrics: Vec::new(),
        id: "pr3_pool".into(),
        title: "PR 3 — worker pool + shared-field plan on the sharded QB workload \
                (fig11 locality dataset)"
            .into(),
        table: ResultTable::new([""]),
        expectation: "Backward steps stay flat across the thread sweep (each (model, window) \
                      field is swept exactly once per query and shared read-only across the \
                      workers), while a naive per-worker re-sweep pays threads × that count. \
                      Results are bit-identical to sequential at every thread count; the \
                      cached plan serves the repeated-window burst with zero backward steps \
                      after the first query; reusing one long-lived pool beats respawning a \
                      pool per query on the same burst."
            .into(),
    }
    .with_stats_metrics("sequential", &seq_stats);

    for threads in [1usize, 2, 4, 8] {
        let config = EngineConfig::default().with_num_threads(threads);
        // The 1-thread row is the inline no-pool baseline (a 1-worker pool
        // would idle: the executor runs single shards on the caller).
        let executor = if threads == 1 {
            ShardedExecutor::sequential()
        } else {
            ShardedExecutor::on_pool(Arc::new(WorkerPool::new(threads)))
        };
        let mut stats = EvalStats::new();
        let (wall, results) = time(|| {
            evaluate_exists_qb_on(&executor, &data.db, &window, &config, &mut stats).unwrap()
        });
        assert!(
            baseline
                .iter()
                .zip(&results)
                .all(|(a, b)| a.probability.to_bits() == b.probability.to_bits()),
            "pooled QB must be bit-identical to sequential"
        );
        // What a per-worker re-sweep would cost: every worker whose shard
        // touches the model pays the full field sweep again.
        let mut naive = EvalStats::new();
        let everyone: Vec<usize> = (0..data.db.len()).collect();
        for _ in 0..threads {
            SharedFieldPlan::prepare_on(
                &data.db,
                &everyone,
                &window,
                FieldRule::Exists,
                &config,
                &mut naive,
            )
            .unwrap();
        }
        table.push_row([
            if threads == 1 { "1 (inline)".to_string() } else { threads.to_string() },
            fmt_secs(wall),
            stats.backward_steps.to_string(),
            naive.backward_steps.to_string(),
            stats.fields_shared.to_string(),
        ]);
        out = out
            .with_stats_metrics(&format!("threads{threads}"), &stats)
            .with_metric(format!("threads{threads}_wall_secs"), wall)
            .with_metric(
                format!("threads{threads}_naive_backward_steps"),
                naive.backward_steps as f64,
            );
    }

    // A repeated-window burst through the cache-backed plan: the first
    // query sweeps and caches, the rest are pure hits (zero backward work).
    const BURST: usize = 8;
    let config = EngineConfig::default().with_num_threads(4);
    let pool = Arc::new(WorkerPool::new(4));
    let executor = ShardedExecutor::on_pool(Arc::clone(&pool));
    let cache = Mutex::new(BackwardFieldCache::new(8));
    let mut cached_stats = EvalStats::new();
    let (pooled_wall, _) = time(|| {
        for _ in 0..BURST {
            evaluate_exists_qb_cached_on(
                &executor,
                &data.db,
                &window,
                &config,
                &cache,
                &mut cached_stats,
            )
            .unwrap();
        }
    });
    // The same burst with a pool spawned and joined per query — the
    // per-query scoped-thread architecture this PR replaces.
    let (respawn_wall, _) = time(|| {
        for _ in 0..BURST {
            let pool = Arc::new(WorkerPool::new(4));
            let executor = ShardedExecutor::on_pool(pool);
            evaluate_exists_qb_cached_on(
                &executor,
                &data.db,
                &window,
                &config,
                &cache,
                &mut EvalStats::new(),
            )
            .unwrap();
        }
    });

    out.table = table;
    out.with_stats_metrics("cached_burst", &cached_stats)
        .with_metric("burst_queries", BURST as f64)
        .with_metric("pooled_burst_wall_secs", pooled_wall)
        .with_metric("respawn_burst_wall_secs", respawn_wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pr3_metrics_present_and_consistent() {
        // Tiny instances so the test stays fast; the metric names are the
        // contract BENCH_pr3.json consumers rely on.
        let cfg = SyntheticConfig::small();
        let out = pool_experiment(&cfg);
        let get = |name: &str| {
            out.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        let base = get("threads1_backward_steps");
        assert!(base > 0.0);
        for threads in [2, 4, 8] {
            assert_eq!(
                get(&format!("threads{threads}_backward_steps")),
                base,
                "each field must be swept at most once per query at {threads} threads"
            );
            assert_eq!(
                get(&format!("threads{threads}_naive_backward_steps")),
                base * threads as f64,
                "the naive per-worker re-sweep pays threads × the shared sweep"
            );
            assert!(get(&format!("threads{threads}_fields_shared")) >= 1.0);
        }
        // One miss, BURST-1 pure hits: exactly one sweep for the burst.
        assert_eq!(get("cached_burst_backward_steps"), base);
        assert_eq!(get("cached_burst_cache_misses"), 1.0);
        assert_eq!(get("cached_burst_cache_hits"), get("burst_queries") - 1.0);
    }
}
