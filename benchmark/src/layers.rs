//! The traced pass (`--trace 1`): one traced round of the workload plus
//! probes of single layers, all through the public API.
//!
//! Every probe runs on the workload's own chain and objects, so a layer
//! metric read on workload X is that layer's cost *on X's data*; each
//! names the end-to-end metric it should move in the README's table, and
//! is predicted flat elsewhere. Times are floors of repeated calls; counts
//! repeat exactly for a given seed.

use std::collections::BTreeMap;
use std::time::Instant;

use ust_core::engine::query_based::BackwardField;
use ust_core::{
    EvalStats, IngestOutcome, PrefilterMode, Query, QueryBuilder, QueryProcessor, QuerySpec,
    QueryWindow, Strategy, TrajectoryDatabase,
};
use ust_markov::{PropagationVector, SpmvScratch};

use crate::inputs::{Digest, Rng};
use crate::run::{finish, measure, result_line, round_spread, Metric, RunArgs};
use crate::stats::{floors, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    build_database, lookup_window, run_round, stream_probe, Action, Kind, Live, Lookup, Round,
    Unobserved, Workload,
};

/// Objects the forward (object-based) probes evaluate: forward cost is
/// linear in the object count, and 10⁵ objects would take minutes.
const FORWARD_OBJECTS: usize = 80;

/// Fastest of `reps` calls, with the last call's value.
fn floor_ns<T>(reps: usize, mut call: impl FnMut() -> T) -> (f64, T) {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = std::hint::black_box(call());
        best = best.min(start.elapsed().as_nanos() as u64);
        last = Some(value);
    }
    (best as f64, last.expect("at least one repetition"))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Floor p50 of the ops of one kind in a round, in ns (0 when absent).
fn kind_p50(w: &Workload, round: &Round, kind: Kind) -> f64 {
    let sample: Vec<u64> = w
        .ops
        .iter()
        .zip(&round.latency_ns)
        .filter(|(op, _)| op.kind == kind)
        .map(|(_, &ns)| ns)
        .collect();
    percentile(&sample, 50.0) as f64
}

fn sum_counters(round: &Round, kinds: impl Fn(Kind) -> bool) -> EvalStats {
    let mut total = EvalStats::new();
    for (_, stats) in round.counters.iter().filter(|(k, _)| kinds(**k)) {
        total.merge(stats);
    }
    total
}

/// The probe fixture: the workload's database with a space attached
/// whether or not the workload attaches one, index built.
struct Fixture {
    db: TrajectoryDatabase,
    build_ns: f64,
    index_ns: f64,
}

fn fixture(w: &Workload, tracer: &mut Tracer) -> Fixture {
    let mut build = || {
        let inputs = (w.chain.clone(), w.objects.clone());
        let start = Instant::now();
        let db = tracer.span("database.build", || build_database(inputs, true));
        let build_ns = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        tracer.span("index.build", || db.spatial_index().expect("a space is attached"));
        Fixture { db, build_ns, index_ns: start.elapsed().as_nanos() as f64 }
    };
    let (first, second) = (build(), build());
    Fixture {
        db: second.db,
        build_ns: first.build_ns.min(second.build_ns),
        index_ns: first.index_ns.min(second.index_ns),
    }
}

fn spec(query: QueryBuilder, window: &QueryWindow, strategy: Strategy) -> QuerySpec {
    query.window(window.clone()).strategy(strategy).build().expect("probe specs are valid")
}

/// `index` and `engine.plan`: candidate probe and `explain`, on selective
/// and broad windows.
fn filter_probes(w: &Workload, f: &Fixture, seed: u64, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let mut rng = Rng::fork(seed, "probe");
    let windows: Vec<QueryWindow> = (0..10)
        .map(|i| {
            let shape = if i < 8 { Lookup::Selective } else { Lookup::Broad };
            lookup_window(w.n_states, shape, &mut rng, &mut Digest::new())
        })
        .collect();
    let index = f.db.spatial_index().expect("the fixture has a space");
    let processor = QueryProcessor::with_config(&f.db, w.config);
    let (mut probe, mut explain) = (Vec::new(), Vec::new());
    tracer.span("probe.filter", || {
        for window in &windows {
            probe.push(floor_ns(15, || index.candidates(window)).0);
            let auto = spec(Query::exists(), window, Strategy::Auto);
            explain.push(floor_ns(15, || processor.explain(&auto).expect("explain succeeds")).0);
        }
    });
    out.push(("index.probe_selective_us", median(&probe[..8]) / 1e3, "us"));
    out.push(("index.probe_broad_us", median(&probe[8..]) / 1e3, "us"));
    out.push(("plan.explain_selective_us", median(&explain[..8]) / 1e3, "us"));
    out.push(("plan.explain_broad_us", median(&explain[8..]) / 1e3, "us"));
}

/// `engine.query_based`, `engine.forall`, `engine.ktimes` backward: bare
/// sweeps, cold forced-QB evaluations and the warm per-object dot product,
/// over the workload's own first windows.
fn backward_probes(w: &Workload, f: &Fixture, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let windows: Vec<&QueryWindow> = w.specs.iter().take(6).map(QuerySpec::window).collect();
    let sweeps: Vec<f64> = tracer.span("probe.sweep", || {
        windows
            .iter()
            .map(|window| {
                floor_ns(3, || {
                    BackwardField::compute(&w.chain, window, &[0], &mut EvalStats::new())
                        .expect("anchor 0 precedes every window")
                })
                .0
            })
            .collect()
    });
    out.push(("query_based.sweep_ms", median(&sweeps) / 1e6, "ms"));

    // A fresh processor per repetition: its caches are the cold state.
    let cold = |query: fn() -> QueryBuilder, tracer: &mut Tracer| {
        let forced = spec(query(), windows[0], Strategy::QueryBased);
        tracer.span("probe.cold", || {
            floor_ns(3, || {
                let processor = QueryProcessor::with_config(&f.db, w.config);
                processor.execute(&forced).expect("cold query succeeds")
            })
            .0
        })
    };
    out.push(("exists.cold_ms", cold(Query::exists, tracer) / 1e6, "ms"));
    out.push(("forall.cold_ms", cold(Query::forall, tracer) / 1e6, "ms"));
    out.push(("ktimes.cold_ms", cold(|| Query::ktimes(2), tracer) / 1e6, "ms"));

    // Prefilter off, so every object pays its dot product and nothing else.
    let unpruned = w.config.with_prefilter(PrefilterMode::Off);
    let processor = QueryProcessor::with_config(&f.db, unpruned);
    let forced = spec(Query::exists(), windows[0], Strategy::QueryBased);
    let mut stats = EvalStats::new();
    processor.execute_with_stats(&forced, &mut stats).expect("warming query succeeds");
    let warm_ns = tracer.span("probe.dot", || {
        floor_ns(5, || processor.execute(&forced).expect("warm query succeeds")).0
    });
    out.push((
        "query_based.dot_ns_per_object",
        ratio(warm_ns, stats.objects_evaluated as f64),
        "ns",
    ));
}

/// `pipeline`, `threshold`, `ranking`, `forall`, `ktimes` forward and the
/// `markov.kernels` throughput: forced object-based evaluation of the
/// first [`FORWARD_OBJECTS`] objects, then `step_batch` driven directly.
fn forward_probes(w: &Workload, f: &Fixture, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let window = w.specs[0].window();
    let subset = (0..w.objects.len().min(FORWARD_OBJECTS) as u64).collect::<Vec<_>>();
    let forward = |query: QueryBuilder, threads: usize, tracer: &mut Tracer| {
        let forced = spec(query.objects(subset.iter().copied()), window, Strategy::ObjectBased);
        let processor = QueryProcessor::with_config(&f.db, w.config.with_num_threads(threads));
        let mut stats = EvalStats::new();
        let ns = tracer.span("probe.forward", || {
            floor_ns(3, || {
                stats = EvalStats::new();
                processor.execute_with_stats(&forced, &mut stats).expect("forward query succeeds")
            })
            .0
        });
        (ns, stats)
    };
    let (exists_ns, exists) = forward(Query::exists(), 1, tracer);
    out.push(("exists.forward_ms", exists_ns / 1e6, "ms"));
    out.push((
        "kernels.entries_per_s",
        ratio(exists.entries_touched as f64, exists_ns / 1e9),
        "1/s",
    ));
    out.push((
        "threshold.forward_ms",
        forward(Query::exists().threshold(0.3), 1, tracer).0 / 1e6,
        "ms",
    ));
    out.push((
        "ranking.topk_forward_ms",
        forward(Query::exists().top_k(10), 1, tracer).0 / 1e6,
        "ms",
    ));
    out.push(("forall.forward_ms", forward(Query::forall(), 1, tracer).0 / 1e6, "ms"));
    out.push(("ktimes.forward_ms", forward(Query::ktimes(2), 1, tracer).0 / 1e6, "ms"));
    // Diagnostic only: two busy threads do not repeat on this box (README).
    let two_threads = forward(Query::exists(), 2, tracer).0;
    out.push(("parallel.scan_speedup_t2", ratio(exists_ns, two_threads), "ratio"));

    let matrix = w.chain.matrix();
    let anchors: Vec<PropagationVector> = w
        .objects
        .iter()
        .take(128)
        .map(|o| PropagationVector::from_sparse(o.initial_distribution().clone()))
        .collect();
    for (name, batch) in [
        ("kernels.step_batch_entries_per_s.b1", 1),
        ("kernels.step_batch_entries_per_s.b32", 32),
        ("kernels.step_batch_entries_per_s.b128", 128),
    ] {
        let mut entries = 0;
        let ns = tracer.span("probe.step_batch", || {
            floor_ns(2, || {
                let mut scratch = SpmvScratch::new();
                entries = 0;
                for chunk in anchors.chunks(batch) {
                    let mut rows = chunk.to_vec();
                    for _ in 0..20 {
                        entries += matrix
                            .step_batch(&mut rows, &[], &mut scratch)
                            .expect("anchors match the chain")
                            .entries_touched;
                    }
                }
            })
            .0
        });
        out.push((name, ratio(entries as f64, ns / 1e9), "1/s"));
    }
}

/// `database` and `index` under writes: the stream's arrivals applied with
/// the bare `TrajectoryDatabase::ingest` on an indexed handle.
fn ingest_probe(stream: &Workload, tracer: &mut Tracer, out: &mut Vec<Metric>) -> f64 {
    let mut applied = Vec::new();
    let mut overlay = 0;
    tracer.span("probe.ingest", || {
        for _ in 0..2 {
            let mut db = build_database((stream.chain.clone(), stream.objects.clone()), true);
            db.spatial_index().expect("a space is attached");
            let mut latencies = Vec::with_capacity(stream.events.len());
            for event in &stream.events {
                let observation = event.observation.clone();
                let start = Instant::now();
                let outcome = db.ingest(event.object_id, observation).expect("events are valid");
                if outcome == IngestOutcome::Applied {
                    latencies.push(start.elapsed().as_nanos() as u64);
                }
            }
            applied.push(latencies);
            overlay = db.spatial_index().expect("a space is attached").overlay_len();
        }
    });
    let ingest_ns = percentile(&floors(&applied), 50.0) as f64;
    out.push(("database.ingest_us", ingest_ns / 1e3, "us"));
    out.push(("index.overlay_len_end", overlay as f64, "count"));
    ingest_ns
}

/// `streaming`: refresh, stale and read-after-write costs and the
/// per-subscription ledger of a stream round.
fn streaming_metrics(
    stream: &Workload,
    round: &Round,
    watch_ns: f64,
    bare_ingest_ns: f64,
    out: &mut Vec<Metric>,
) {
    out.push(("streaming.watch_ms", watch_ns / 1e6, "ms"));
    let refresh = kind_p50(stream, round, Kind::Applied) - bare_ingest_ns;
    out.push(("streaming.refresh_us", refresh / 1e3, "us"));
    out.push(("streaming.stale_ingest_us", kind_p50(stream, round, Kind::Stale) / 1e3, "us"));
    out.push(("streaming.read_after_write_us", kind_p50(stream, round, Kind::Read) / 1e3, "us"));
    let applied = stream.events.iter().filter(|e| !e.stale).count() as f64;
    let sum = |field: fn(&ust_core::StreamMetrics) -> u64| {
        round.ledger.streams.iter().map(field).sum::<u64>() as f64
    };
    out.push((
        "streaming.notifications_per_applied",
        ratio(sum(|s| s.notifications), applied),
        "count",
    ));
    out.push(("streaming.full_recomputes", sum(|s| s.full_recomputes), "count"));
    out.push(("streaming.sheds", sum(|s| s.sheds), "count"));
    out.push(("streaming.incremental_steps", sum(|s| s.incremental_steps), "count"));
    out.push(("streaming.recompute_steps", sum(|s| s.recompute_steps), "count"));
}

/// `serving`: what `submit` → `wait` adds to `execute` on warm specs.
/// Diagnostic only: the hand-off wakes a second thread (README).
fn serving_probe(w: &Workload, f: &Fixture, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let processor = QueryProcessor::with_config(&f.db, w.config);
    let mut overheads = Vec::new();
    let mut budget_ns = 400e6;
    tracer.span("probe.serving", || {
        for spec in w.specs.iter().take(32) {
            if budget_ns <= 0.0 {
                break;
            }
            processor.execute(spec).expect("warming query succeeds");
            let execute = floor_ns(3, || processor.execute(spec).expect("query succeeds")).0;
            let submit = floor_ns(3, || {
                processor.submit(spec).and_then(|ticket| ticket.wait()).expect("query succeeds")
            })
            .0;
            overheads.push(submit - execute);
            budget_ns -= 4.0 * (execute + submit);
        }
    });
    let ledger = processor.metrics();
    let queue_wait: f64 = ledger.plans.iter().map(|p| p.queue_wait_secs).sum();
    out.push(("serving.submit_overhead_us", median(&overheads) / 1e3, "us"));
    out.push(("serving.queue_wait_us", ratio(queue_wait * 1e6, ledger.accepted as f64), "us"));
}

/// Noise covariates: a 64 MiB triad (memory bandwidth, the roofline for
/// `kernels.*`) and a fixed integer loop (core speed).
fn machine_probes(tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let n = 64 * 1024 * 1024 / 8 / 3;
    let (b, c) = (vec![1.5f64; n], vec![0.5f64; n]);
    let mut a = vec![0.0f64; n];
    let triad_ns = tracer.span("probe.membw", || {
        floor_ns(3, || {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = *b + 3.0 * *c;
            }
            std::hint::black_box(&mut a);
        })
        .0
    });
    out.push(("machine.membw_gb_s", (3 * n * 8) as f64 / triad_ns, "GB/s"));
    let spin_ns = tracer.span("probe.spin", || {
        floor_ns(3, || {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000_000u64 {
                x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
            }
            x
        })
        .0
    });
    out.push(("machine.ref_spin_ms", spin_ns / 1e6, "ms"));
}

/// Share of the query ops the planner resolved query-based, by `explain`
/// on the processor the traced round left behind.
fn auto_qb_share(w: &Workload, live: &Live) -> f64 {
    let mut per_spec: BTreeMap<usize, usize> = BTreeMap::new();
    for op in &w.ops {
        if let Action::Query(s) = op.action {
            *per_spec.entry(s).or_default() += 1;
        }
    }
    let total: usize = per_spec.values().sum();
    let qb: usize = per_spec
        .iter()
        .filter(|(&s, _)| {
            live.processor.explain(&w.specs[s]).is_ok_and(|p| p.strategy == Strategy::QueryBased)
        })
        .map(|(_, &count)| count)
        .sum();
    ratio(qb as f64, total as f64)
}

/// The counts that prove the workload isolates its layers (ISSUE 12's
/// fourth acceptance criterion). A miss means the workload is wrong.
fn isolation(w: &Workload, round: &Round) -> Vec<String> {
    let all = sum_counters(round, |_| true);
    let plan_share = plan_share(round);
    let mut misses = Vec::new();
    let mut require = |holds: bool, what: String| {
        if !holds {
            misses.push(format!("{}: {what}", w.name));
        }
    };
    match w.name {
        "forward_scan" => {
            let lookups = all.cache_hits + all.cache_misses;
            require(lookups == 0, format!("{lookups} field-cache lookups, expected none"));
            require(
                all.candidates_pruned == 0,
                format!("{} candidates pruned", all.candidates_pruned),
            );
            require(plan_share < 0.05, format!("plan share {plan_share:.3}, expected < 0.05"));
            require(all.backward_steps == 0, format!("{} backward steps", all.backward_steps));
        }
        "backward_cold" => {
            require(
                all.cache_hits == 0,
                format!("{} field-cache hits, expected none", all.cache_hits),
            );
            let exists =
                sum_counters(round, |k| matches!(k, Kind::Exists | Kind::Threshold | Kind::TopK));
            require(
                exists.entries_touched == 0,
                format!("∃ ops touched {} entries", exists.entries_touched),
            );
            require(all.backward_steps > 0, "no backward steps".into());
        }
        "lookup_hot" => {
            let hit = ratio(all.cache_hits as f64, (all.cache_hits + all.cache_misses) as f64);
            require(hit >= 0.99, format!("cache hit ratio {hit:.4}, expected ≥ 0.99"));
            require(
                all.backward_steps == 0,
                format!("{} backward steps after warm-up", all.backward_steps),
            );
            require(
                all.entries_touched == 0,
                format!("{} entries touched after warm-up", all.entries_touched),
            );
            let s = sum_counters(round, |k| k == Kind::Selective);
            let survivors = ratio(
                s.candidates_examined as f64,
                (s.candidates_examined + s.candidates_pruned) as f64,
            );
            require(
                survivors < 0.01,
                format!("selective survivor ratio {survivors:.4}, expected < 0.01"),
            );
        }
        "stream_mixed" => {
            let streams = &round.ledger.streams;
            let applied = w.events.iter().filter(|e| !e.stale).count() as u64;
            require(streams.len() == w.watches.len(), format!("{} stream ledgers", streams.len()));
            require(streams.iter().all(|s| s.sheds == 0), "a refresh was shed".into());
            require(
                streams.iter().all(|s| s.full_recomputes == 1),
                "a subscription recomputed in full after registration".into(),
            );
            require(
                streams.iter().all(|s| s.notifications == applied),
                format!("not every subscription saw all {applied} applied arrivals"),
            );
        }
        _ => {}
    }
    misses
}

fn plan_share(round: &Round) -> f64 {
    let plan: f64 = round.ledger.plans.iter().map(|p| p.plan_secs).sum();
    let execute: f64 = round.ledger.plans.iter().map(|p| p.execute_secs).sum();
    ratio(plan, plan + execute)
}

/// What the traced pass of one workload found.
pub struct Traced {
    /// Every per-layer metric, in BENCHMARK.json's order.
    pub metrics: Vec<Metric>,
    /// Isolation checks that failed, and rounds that disagreed.
    pub failures: Vec<String>,
    /// Timed ops run.
    pub attempted: usize,
}

/// The traced pass of one workload: prints the span table and the
/// per-layer metrics, writes the trace.
pub fn traced_pass(args: &RunArgs, w: &Workload) -> Result<Traced, String> {
    // Untraced rounds first: the base `harness.trace_overhead` is read
    // against, and the round spread that says how noisy the box is now.
    let untraced = measure(w, 0.0, 2);
    let mut tracer = Tracer::new(true);
    let (traced, live) = run_round(w, &mut tracer, &mut Unobserved);
    let mut failures = isolation(w, &traced);
    for round in untraced.rounds.iter().chain([&traced]) {
        if round.answers != traced.answers {
            failures.push(format!("{}: answers differ between rounds", w.name));
        }
        if !round.failed_ops.is_empty() {
            failures.push(format!("{}: ops {:?} failed", w.name, round.failed_ops));
        }
    }

    let mut out: Vec<Metric> = Vec::new();
    let all = sum_counters(&traced, |_| true);
    let queries = w.ops.iter().filter(|op| matches!(op.action, Action::Query(_))).count() as f64;
    let lookups = (all.cache_hits + all.cache_misses) as f64;
    let candidates = (all.candidates_examined + all.candidates_pruned) as f64;
    out.push(("cache.hit_ratio", ratio(all.cache_hits as f64, lookups), "share"));
    out.push(("cache.lookups_per_op", ratio(lookups, queries), "count"));
    out.push(("index.survivor_ratio", ratio(all.candidates_examined as f64, candidates), "share"));
    out.push(("index.pruned_per_op", ratio(all.candidates_pruned as f64, queries), "count"));
    out.push(("plan.plan_share", plan_share(&traced), "ratio"));
    out.push(("plan.auto_qb_share", auto_qb_share(w, &live), "share"));
    out.push((
        "query_based.backward_steps_per_op",
        ratio(all.backward_steps as f64, queries),
        "count",
    ));
    out.push(("kernels.entries_per_op", ratio(all.entries_touched as f64, queries), "count"));
    out.push((
        "kernels.rows_per_entry",
        ratio(all.rows_traversed as f64, all.entries_touched as f64),
        "share",
    ));
    out.push((
        "pipeline.early_exit_ratio",
        ratio(all.early_terminations as f64, all.objects_evaluated as f64),
        "share",
    ));
    drop(live);

    let probes = tracer.enter("probes", None);
    let f = fixture(w, &mut tracer);
    out.push(("database.build_s", f.build_ns / 1e9, "s"));
    out.push(("index.build_s", f.index_ns / 1e9, "s"));
    filter_probes(w, &f, args.seed, &mut tracer, &mut out);
    backward_probes(w, &f, &mut tracer, &mut out);
    forward_probes(w, &f, &mut tracer, &mut out);
    serving_probe(w, &f, &mut tracer, &mut out);
    drop(f);
    // The streaming layer: this workload's own round when it has a feed,
    // else the same op mix replayed briefly on this workload's database.
    let watch_ns = |t: &Tracer| {
        let watch = t.layer_times().get("streaming.watch").copied().unwrap_or_default();
        ratio(watch.total_ns as f64, watch.count as f64)
    };
    if w.events.is_empty() {
        let mini = stream_probe(w, args.seed);
        let mut mini_tracer = Tracer::new(true);
        let (round, _) = run_round(&mini, &mut mini_tracer, &mut Unobserved);
        let bare = ingest_probe(&mini, &mut tracer, &mut out);
        streaming_metrics(&mini, &round, watch_ns(&mini_tracer), bare, &mut out);
    } else {
        let bare = ingest_probe(w, &mut tracer, &mut out);
        streaming_metrics(w, &traced, watch_ns(&tracer), bare, &mut out);
    }
    machine_probes(&mut tracer, &mut out);
    tracer.exit(probes);

    let fastest = untraced.rounds.iter().map(Round::timed_ns).min().unwrap_or(0);
    out.push(("harness.trace_overhead", ratio(traced.timed_ns() as f64, fastest as f64), "ratio"));
    out.push(("harness.round_spread", round_spread(&untraced.rounds), "ratio"));
    out.push(("harness.peak_rss_mb", crate::clock::peak_rss_mib(), "MiB"));
    out.push(("inputs.digest", w.digest.low48(), "hash48"));
    let mut answers = Digest::new();
    traced.answers.iter().for_each(|&a| answers.u64(a));
    out.push(("answers.digest", answers.low48(), "hash48"));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", w.name));
    tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} spans written to {}", tracer.spans().len(), path.display());
    println!("  {:<28} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, t) in tracer.layer_times() {
        println!(
            "  {name:<28} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    for (name, value, unit) in &out {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    for failure in &failures {
        println!("isolation check failed: {failure}");
    }
    let attempted = w.ops.len() * (untraced.rounds.len() + 1);
    Ok(Traced { metrics: out, failures, attempted })
}

/// `--trace 1`: the traced pass, then the result line.
pub fn traced_run(args: &RunArgs, w: &Workload) -> Result<bool, String> {
    let t = traced_pass(args, w)?;
    finish(args, 1, result_line(t.failures.is_empty(), t.attempted, t.failures.len(), &t.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::run::END_TO_END;
    use crate::workloads::{Scale, NAMES};

    /// BENCHMARK.json at the repo root declares what this program prints;
    /// the driver refuses a run whose metrics differ from the declaration.
    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let declared = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let Some(Value::Arr(items)) = declared.get(key) else { panic!("no `{key}` list") };
            items
                .iter()
                .map(|item| {
                    assert_eq!(item.members().len(), fields.len(), "{key}: {item}");
                    fields.iter().map(|f| item.get(f).unwrap().to_string()).collect()
                })
                .collect()
        };
        let quoted = |s: &str| format!("\"{s}\"");
        let names: Vec<Vec<String>> = NAMES.iter().map(|n| vec![quoted(n)]).collect();
        assert_eq!(
            list("workloads", &["name", "why"])
                .iter()
                .map(|w| vec![w[0].clone()])
                .collect::<Vec<_>>(),
            names
        );
        let gates: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|g| {
                let better = if g.higher_is_better { "higher" } else { "lower" };
                vec![quoted(g.name), quoted(g.unit), quoted(better), g.bound.to_string()]
            })
            .collect();
        assert_eq!(list("end_to_end", &["name", "unit", "better", "bound"]), gates);
        assert!(END_TO_END.iter().all(|g| g.bound <= 0.25));
        let setup = END_TO_END.iter().find(|g| g.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|g| g.bound <= setup.bound), "setup_s has the largest bound");

        let layers = list("per_layer", &["name", "unit", "better"]);
        for name in NAMES {
            let w = Workload::generate(name, 4, Scale::Smoke).unwrap();
            let args = RunArgs {
                workload: name.into(),
                seed: 4,
                seconds: 0.0,
                trace: true,
                scale: Scale::Smoke,
                out: None,
            };
            let t = traced_pass(&args, &w).unwrap();
            assert!(t.failures.is_empty(), "{name}: {:?}", t.failures);
            let printed: Vec<Vec<String>> =
                t.metrics.iter().map(|m| vec![quoted(m.0), quoted(m.2)]).collect();
            let expected: Vec<Vec<String>> = layers.iter().map(|l| l[..2].to_vec()).collect();
            assert_eq!(printed, expected, "{name}");
            assert!(t.metrics.iter().all(|m| m.1.is_finite()), "{name}: {:?}", t.metrics);
            let trace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{name}.jsonl"));
            let first = std::fs::read_to_string(trace).unwrap();
            assert!(first.starts_with("{\"name\":\"setup\",\"start_ns\":"), "{name}");
        }
    }
}
