//! Failure-injection tests: every error path reachable through the public
//! API must surface as a typed error, never a panic or a silent wrong
//! answer.

mod common;

use std::sync::Arc;

use common::{gate_workers, oracle, reference_config, solo_probability};
use ust::prelude::*;
use ust_core::engine::object_based;
use ust_core::{multi_obs, smoothing, QueryError};
use ust_markov::{MarkovError, StochasticMatrix};
use ust_oracle::testutil::paper_chain;
use ust_oracle::OracleError;

#[test]
fn non_stochastic_matrices_are_rejected() {
    let bad_sum = CsrMatrix::from_dense(&[vec![0.5, 0.4], vec![1.0, 0.0]]).unwrap();
    assert!(matches!(
        StochasticMatrix::new(bad_sum),
        Err(MarkovError::NotStochastic { row: 0, .. })
    ));
    let negative = CsrMatrix::from_dense(&[vec![1.5, -0.5], vec![0.0, 1.0]]).unwrap();
    assert!(matches!(StochasticMatrix::new(negative), Err(MarkovError::InvalidProbability { .. })));
    let empty_row = CsrMatrix::from_dense(&[vec![0.0, 0.0], vec![0.0, 1.0]]).unwrap();
    assert!(StochasticMatrix::new(empty_row).is_err());
    let non_square = CsrMatrix::from_dense(&[vec![0.5, 0.5, 0.0]]).unwrap();
    assert!(StochasticMatrix::new(non_square).is_err());
}

#[test]
fn empty_windows_are_rejected() {
    assert_eq!(
        QueryWindow::from_states(5, Vec::<usize>::new(), TimeSet::at(1)),
        Err(QueryError::EmptySpatialWindow)
    );
    assert_eq!(
        QueryWindow::from_states(5, [1usize], TimeSet::empty()),
        Err(QueryError::EmptyTemporalWindow)
    );
    // Out-of-range window states.
    assert!(matches!(
        QueryWindow::from_states(5, [5usize], TimeSet::at(1)),
        Err(QueryError::Markov(MarkovError::IndexOutOfBounds { .. }))
    ));
}

#[test]
fn full_space_forall_is_rejected_by_every_exact_route() {
    // The object-based reduction cannot answer a ∀ window covering all of
    // S (its complement selects no states); the direct query-based field
    // could, and must not. ∃ and k-times have no complement to lose: the
    // same window answers.
    let mut db = TrajectoryDatabase::new(paper_chain());
    db.insert(UncertainObject::with_single_observation(7, Observation::exact(0, 3, 1).unwrap()))
        .unwrap();
    let full = QueryWindow::from_states(3, [0usize, 1, 2], TimeSet::interval(1, 2)).unwrap();
    let processor = QueryProcessor::new(&db);
    for query in [Query::exists(), Query::ktimes(1)] {
        let spec = query.window(full.clone()).strategy(Strategy::QueryBased).build().unwrap();
        assert!(processor.execute(&spec).is_ok());
    }

    // One query life for every strategy and entry point: with an object
    // anchored after the window's start, the window check still comes
    // first, and an ∃ top-0 query — which object-based refinement answers
    // without propagating — is validated like any other.
    db.insert(UncertainObject::with_single_observation(8, Observation::exact(5, 3, 0).unwrap()))
        .unwrap();
    let processor = QueryProcessor::new(&db);
    let late = QueryError::WindowBeforeObservation { window_start: 1, observation: 5 };
    let cases = [
        (Query::forall().window(full.clone()), QueryError::EmptySpatialWindow),
        (Query::exists().window(full.clone()).top_k(0), late),
    ];
    for (query, expected) in cases {
        for strategy in [Strategy::ObjectBased, Strategy::QueryBased, Strategy::Auto] {
            let spec = query.clone().strategy(strategy).build().unwrap();
            let cells = [
                ("execute", processor.execute(&spec).map(drop)),
                ("explain", processor.explain(&spec).map(drop)),
                ("submit + wait", processor.submit(&spec).and_then(|t| t.wait()).map(drop)),
                ("watch", processor.watch(&spec).and_then(|s| s.answer()).map(drop)),
            ];
            for (entry, outcome) in cells {
                let cell = format!("{:?} × {strategy:?} × {entry}", spec.predicate());
                assert_eq!(outcome, Err(expected.clone()), "{cell}");
            }
        }
    }

    // The reference configuration checks the window first too.
    let reference = QueryProcessor::with_config(&db, reference_config());
    let mut stats = EvalStats::new();
    for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
        let spec = Query::forall().window(full.clone()).strategy(strategy).build().unwrap();
        let answer = reference.execute_with_stats(&spec, &mut stats).map(drop);
        assert_eq!(answer, Err(QueryError::EmptySpatialWindow), "{strategy:?}");
    }
    assert_eq!(stats.backward_steps, 0, "no route swept a field before rejecting");
}

/// The grouping pass checks a window's dimension once per model and the
/// anchor time per object. Every first error must still be the one
/// `object_based::validate` reports applied to each object in index order
/// — over the whole store and over a subset, for probabilities and for a
/// threshold, under every strategy and entry point, and with a line
/// embedding attached, whose index probe runs in front of the planner
/// under `PrefilterMode::On` and stays out of it under `Off`.
#[test]
fn grouping_keeps_every_first_error() {
    // Two models; object `id` follows model `id % 2` and is anchored at
    // `times[id]`.
    let store = |times: &[u32]| {
        let mut db = TrajectoryDatabase::with_models(vec![paper_chain(), paper_chain()]).unwrap();
        for (id, &t) in times.iter().enumerate() {
            let fix = Observation::exact(t, 3, id % 3).unwrap();
            let object = UncertainObject::with_single_observation(id as u64, fix);
            db.insert(object.with_model(id % 2)).unwrap();
        }
        db
    };
    let wide = QueryWindow::from_states(4, [1usize], TimeSet::interval(2, 3)).unwrap();
    let fits = QueryWindow::from_states(3, [1usize], TimeSet::interval(2, 3)).unwrap();
    let dimension = Err(QueryError::ModelDimensionMismatch { model_states: 3, object_states: 4 });
    let late = Err(QueryError::WindowBeforeObservation { window_start: 2, observation: 5 });
    let rows = [
        ("wrong dimension, no candidate", store(&[]), &wide, Ok(())),
        ("wrong dimension, one candidate", store(&[0]), &wide, dimension.clone()),
        ("wrong dimension, many candidates", store(&[0, 1, 5, 2, 0, 7]), &wide, dimension),
        ("late at candidate 0", store(&[5, 7, 0, 1, 2, 0]), &fits, late.clone()),
        ("late at candidate 1", store(&[0, 5, 7, 1, 2, 0]), &fits, late.clone()),
        ("late at candidate 4", store(&[0, 1, 2, 0, 5, 7]), &fits, late),
    ];
    for (row, db, window, pinned) in rows {
        let first_error = |ids: Option<&[u64]>| {
            db.objects()
                .iter()
                .filter(|o| ids.is_none_or(|ids| ids.contains(&o.id())))
                .try_for_each(|o| object_based::validate(db.model_of(o), o, window))
        };
        assert_eq!(first_error(None), pinned, "{row}: validate in index order");
        let mut spaced = db.clone();
        spaced.attach_space(Arc::new(LineSpace::new(3))).unwrap();
        let prefiltered = |mode| {
            QueryProcessor::with_config(&spaced, EngineConfig::default().with_prefilter(mode))
        };
        let processors = [
            ("no space", QueryProcessor::new(&db)),
            ("space, On", prefiltered(PrefilterMode::On)),
            ("space, Off", prefiltered(PrefilterMode::Off)),
        ];
        // Every third object left out: the subset's first offender is its own.
        let subset: Vec<u64> =
            db.objects().iter().map(|o| o.id()).filter(|id| id % 3 != 1).collect();
        let spec = |ids: Option<&[u64]>, strategy, tau: Option<f64>| {
            let mut query = Query::exists().window(window.clone()).strategy(strategy);
            if let Some(ids) = ids {
                query = query.objects(ids.iter().copied());
            }
            if let Some(tau) = tau {
                query = query.threshold(tau);
            }
            query.build().unwrap()
        };
        for ids in [None, Some(subset.as_slice())] {
            let expected = first_error(ids);
            for strategy in [Strategy::ObjectBased, Strategy::QueryBased, Strategy::Auto] {
                for tau in [None, Some(0.05)] {
                    let spec = spec(ids, strategy, tau);
                    for (store, processor) in &processors {
                        let cells = [
                            ("execute", processor.execute(&spec).map(drop)),
                            ("explain", processor.explain(&spec).map(drop)),
                        ];
                        for (entry, outcome) in cells {
                            assert_eq!(outcome, expected, "{row} × {store} × {spec:?} × {entry}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn malformed_objects_are_rejected() {
    assert_eq!(UncertainObject::new(1, vec![]), Err(QueryError::NoObservations));
    let a = Observation::exact(3, 4, 0).unwrap();
    let b = Observation::exact(3, 4, 1).unwrap();
    assert_eq!(
        UncertainObject::new(1, vec![a, b]),
        Err(QueryError::DuplicateObservation { time: 3 })
    );
    assert!(Observation::exact(0, 4, 9).is_err());
    assert!(Observation::uncertain(0, SparseVector::zeros(4)).is_err());
}

#[test]
fn database_insert_validation() {
    let mut db = TrajectoryDatabase::new(paper_chain());
    // Wrong dimension.
    let wrong_dim =
        UncertainObject::with_single_observation(1, Observation::exact(0, 7, 0).unwrap());
    assert!(matches!(db.insert(wrong_dim), Err(QueryError::ModelDimensionMismatch { .. })));
    // Unknown model index.
    let unknown_model =
        UncertainObject::with_single_observation(2, Observation::exact(0, 3, 0).unwrap())
            .with_model(3);
    assert_eq!(db.insert(unknown_model), Err(QueryError::UnknownModel { model: 3 }));
}

#[test]
fn window_before_observation_is_rejected_by_all_engines() {
    let chain = paper_chain();
    let late_object =
        UncertainObject::with_single_observation(1, Observation::exact(10, 3, 0).unwrap());
    let window = QueryWindow::from_states(3, [0usize], TimeSet::interval(2, 4)).unwrap();
    let config = EngineConfig::default();
    for strategy in [Strategy::ObjectBased, Strategy::QueryBased, Strategy::Auto] {
        let exists = Query::exists().window(window.clone()).strategy(strategy);
        assert!(matches!(
            solo_probability(&chain, &late_object, exists),
            Err(QueryError::WindowBeforeObservation { .. })
        ));
    }
    assert!(matches!(
        oracle(&chain, &late_object, &window, 1 << 20),
        Err(OracleError::WindowBeforeObservation { window_start: 2, observation: 10 })
    ));
    assert!(matches!(
        multi_obs::exists_probability_multi(&chain, &late_object, &window, &config),
        Err(QueryError::WindowBeforeObservation { .. })
    ));
    assert!(matches!(
        smoothing::smoothed_distribution(&chain, &late_object, 2),
        Err(QueryError::WindowBeforeObservation { .. })
    ));
}

/// The last representable time: objects anchored at `u32::MAX` (alone, and
/// beside one anchored earlier) under a window at `u32::MAX` answer under
/// every strategy and predicate, object- and query-based bit-identically.
#[test]
fn anchors_at_the_last_timestamp_answer_under_every_strategy() {
    let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::at(u32::MAX)).unwrap();
    for anchors in [vec![u32::MAX], vec![u32::MAX, u32::MAX - 3]] {
        let mut db = TrajectoryDatabase::new(paper_chain());
        for (id, &t) in anchors.iter().enumerate() {
            let anchor = Observation::exact(t, 3, 1).unwrap();
            db.insert(UncertainObject::with_single_observation(id as u64, anchor)).unwrap();
        }
        let processor = QueryProcessor::new(&db);
        for predicate in [Query::exists(), Query::forall(), Query::ktimes(1)] {
            let [ob, qb, auto] =
                [Strategy::ObjectBased, Strategy::QueryBased, Strategy::Auto].map(|strategy| {
                    let spec = predicate.clone().window(window.clone()).strategy(strategy);
                    processor.execute(&spec.build().unwrap()).unwrap()
                });
            let at = format!("anchors {anchors:?}, {predicate:?}");
            common::assert_bit_eq(&ob, &qb, &at);
            common::assert_bit_eq(&auto, &ob, &at);
        }
        // The object anchored at `s₂ ∈ S▫` inside the window is a sure hit.
        let exists = Query::exists().window(window.clone()).strategy(Strategy::ObjectBased);
        assert_eq!(common::probs(&processor, exists)[0].probability, 1.0);
    }
}

#[test]
fn impossible_evidence_is_consistent_across_engines() {
    let chain = paper_chain();
    // From s2 the object cannot be at s2 one step later.
    let contradictory = UncertainObject::new(
        1,
        vec![Observation::exact(0, 3, 1).unwrap(), Observation::exact(1, 3, 1).unwrap()],
    )
    .unwrap();
    let window = QueryWindow::from_states(3, [0usize], TimeSet::at(1)).unwrap();
    let config = EngineConfig::default();
    assert_eq!(
        multi_obs::exists_probability_multi(&chain, &contradictory, &window, &config),
        Err(QueryError::ImpossibleEvidence)
    );
    assert_eq!(
        oracle(&chain, &contradictory, &window, 1 << 20).map(|r| r.exists()),
        Err(OracleError::ImpossibleEvidence)
    );
    assert_eq!(
        smoothing::smoothed_distribution(&chain, &contradictory, 1).map(|_| ()),
        Err(QueryError::ImpossibleEvidence)
    );
}

/// Every input `object_based::validate` rejects is rejected by the front
/// door (at `insert` or at `execute`, under every strategy) and by the
/// oracle's own checks, which share no code with it.
#[test]
fn the_oracle_and_execute_reject_what_validate_rejects() {
    let chain = paper_chain();
    let at_s2 = UncertainObject::with_single_observation(1, Observation::exact(2, 3, 1).unwrap());
    let fits = QueryWindow::from_states(3, [0usize], TimeSet::interval(2, 3)).unwrap();
    let cases = [
        // A window state ≥ |S|: the mask is one state wider than the chain.
        ("window state ≥ |S|", QueryWindow::from_states(4, [3usize], TimeSet::at(3)).unwrap()),
        ("window before the first observation", {
            QueryWindow::from_states(3, [0usize], TimeSet::interval(1, 3)).unwrap()
        }),
    ];
    for (case, window) in cases {
        assert!(object_based::validate(&chain, &at_s2, &window).is_err(), "{case}");
        for strategy in [Strategy::ObjectBased, Strategy::QueryBased, Strategy::Auto] {
            let exists = Query::exists().window(window.clone()).strategy(strategy);
            let engine = solo_probability(&chain, &at_s2, exists);
            assert_eq!(engine.map(drop), object_based::validate(&chain, &at_s2, &window), "{case}");
        }
        assert!(oracle(&chain, &at_s2, &window, 1 << 20).is_err(), "{case}");
    }
    assert!(matches!(
        oracle(&chain, &at_s2, &QueryWindow::from_states(4, [3usize], TimeSet::at(3)).unwrap(), 9),
        Err(OracleError::WindowDimension { num_states: 3, found: 4 })
    ));

    // An object over another state space: `insert` refuses it, and so does
    // the oracle.
    let wide = UncertainObject::with_single_observation(2, Observation::exact(2, 4, 3).unwrap());
    assert!(object_based::validate(&chain, &wide, &fits).is_err());
    let mut db = TrajectoryDatabase::new(chain.clone());
    assert!(matches!(db.insert(wide.clone()), Err(QueryError::ModelDimensionMismatch { .. })));
    assert_eq!(
        oracle(&chain, &wide, &fits, 1 << 20),
        Err(OracleError::ObservationDimension { num_states: 3, found: 4 })
    );
}

#[test]
fn exhaustive_budget_guard() {
    // A 20-state dense-ish chain over 20 steps overflows a tiny budget.
    let mut rng = ust_oracle::testutil::rng(5);
    let chain =
        MarkovChain::from_csr(ust_oracle::testutil::random_stochastic(&mut rng, 20, 4)).unwrap();
    let object = UncertainObject::with_single_observation(1, Observation::exact(0, 20, 0).unwrap());
    let window = QueryWindow::from_states(20, [5usize], TimeSet::interval(15, 20)).unwrap();
    assert_eq!(
        oracle(&chain, &object, &window, 1_000),
        Err(OracleError::BudgetExceeded { budget: 1_000 })
    );
}

#[test]
fn error_messages_are_human_readable() {
    let e = QueryError::WindowBeforeObservation { window_start: 1, observation: 5 };
    let s = format!("{e}");
    assert!(s.contains('1') && s.contains('5'));
    let e: QueryError = MarkovError::ZeroMass.into();
    assert!(format!("{e}").contains("zero"));
}

#[test]
fn degenerate_chain_sizes() {
    // A single absorbing state still answers queries.
    let chain = MarkovChain::from_csr(CsrMatrix::identity(1)).unwrap();
    let object = UncertainObject::with_single_observation(1, Observation::exact(0, 1, 0).unwrap());
    let window = QueryWindow::from_states(1, [0usize], TimeSet::interval(1, 3)).unwrap();
    for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
        let exists = Query::exists().window(window.clone()).strategy(strategy);
        assert_eq!(solo_probability(&chain, &object, exists).unwrap(), 1.0, "{strategy:?}");
    }
}

// --- Streaming ingest failure modes -------------------------------------

fn streaming_db() -> TrajectoryDatabase {
    let mut db = TrajectoryDatabase::new(paper_chain());
    for id in 0..4u64 {
        db.insert(UncertainObject::with_single_observation(
            id,
            Observation::exact(0, 3, (id % 3) as usize).unwrap(),
        ))
        .unwrap();
    }
    db
}

fn streaming_spec(db: &TrajectoryDatabase) -> QuerySpec {
    let window =
        QueryWindow::from_states(db.num_states(), [1usize, 2], TimeSet::interval(2, 4)).unwrap();
    Query::exists().window(window).build().unwrap()
}

#[test]
fn ingest_validation_errors_are_typed() {
    let db = streaming_db();
    let processor = QueryProcessor::new(&db);
    // Unknown object: nothing to supersede.
    assert_eq!(
        processor.ingest(99, Observation::exact(1, 3, 0).unwrap()),
        Err(QueryError::UnknownObject { id: 99 })
    );
    // Dimension mismatch: a 4-state fix against a 3-state model.
    assert_eq!(
        processor.ingest(0, Observation::exact(1, 4, 0).unwrap()),
        Err(QueryError::ModelDimensionMismatch { model_states: 3, object_states: 4 })
    );
    // Neither failed ingest mutated the database.
    assert_eq!(processor.snapshot().object(0).unwrap().anchor().time(), 0);
}

/// A refresh rides the same admission bound as submitted queries: with the
/// only slot held by a gated in-flight submit, an arrival's refresh is
/// shed with `QueueFull`, the subscription goes stale (still answering its
/// last committed state), and the next admitted arrival resynchronizes.
#[test]
fn refresh_sheds_queue_full_then_resynchronizes() {
    let db = streaming_db();
    let spec = streaming_spec(&db);
    let processor = QueryProcessor::with_config(
        &db,
        EngineConfig::default().with_num_threads(2).with_max_queue_depth(1),
    );
    let sub = processor.watch(&spec).unwrap();
    let before = sub.answer();

    let release = gate_workers(&processor);
    let ticket = processor.submit(&spec).unwrap();
    // The submit holds the only admission slot, so the refresh is shed.
    assert_eq!(
        processor.ingest(1, Observation::exact(1, 3, 2).unwrap()),
        Ok(IngestOutcome::Applied)
    );
    assert!(sub.is_stale(), "the shed refresh marked the subscription stale");
    assert_eq!(sub.last_shed(), Some(QueryError::QueueFull { limit: 1 }));
    assert_eq!(sub.notifications(), 0, "a shed refresh never commits");
    assert_eq!(sub.answer(), before, "the stale answer is the last committed one");

    release();
    ticket.wait().unwrap();
    // The next admitted arrival heals with a full resynchronization that
    // also folds in the arrival missed while stale.
    assert_eq!(
        processor.ingest(2, Observation::exact(1, 3, 1).unwrap()),
        Ok(IngestOutcome::Applied)
    );
    assert!(!sub.is_stale());
    assert_eq!(sub.notifications(), 1);
    let expected = QueryProcessor::new(&processor.snapshot()).execute(sub.spec());
    assert_eq!(sub.answer(), expected);
    let metrics = processor.metrics();
    let stream = metrics.stream(sub.id()).unwrap();
    assert_eq!(stream.sheds, 1);
    assert_eq!(stream.full_recomputes, 2, "registration + resync");
    assert_eq!(stream.reevaluations, 0, "no incremental refresh ever committed");
    assert_eq!(metrics.in_flight, 0, "shed refreshes never leak admission slots");
}

/// Deterministic four-thread stress under a bounded pool: submissions,
/// arrivals, cache-eviction pressure and metrics snapshots interleave
/// against one processor for a fixed number of rounds. Every snapshot
/// must satisfy the metrics ledger identities, every admitted ticket
/// must answer, and once quiescent the subscription must agree with a
/// fresh batch execution over the final database state.
#[test]
fn concurrent_submit_ingest_eviction_and_metrics_stress() {
    use std::sync::atomic::{AtomicU64, Ordering};

    const ROUNDS: u32 = 40;
    let db = streaming_db();
    let spec = streaming_spec(&db);
    let processor = QueryProcessor::with_config(
        &db,
        EngineConfig::default().with_num_threads(2).with_max_queue_depth(2).with_cache_capacity(2),
    );
    let sub = processor.watch(&spec).unwrap();
    let admitted = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Submissions: QueueFull rejections are expected under the bounded
        // queue, but every admitted ticket must complete with an answer.
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                match processor.submit(&spec) {
                    Ok(ticket) => {
                        ticket.wait().unwrap();
                        admitted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(QueryError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(other) => panic!("unexpected submit error: {other}"),
                }
            }
        });
        // Arrivals: repeated fixes for one object at a fixed time that
        // stays at/before every window start, cycling through states. An
        // at-or-after fix always replaces, so every ingest is `Applied`
        // regardless of interleaving, and its refreshes contend with the
        // submissions for the two admission slots.
        scope.spawn(|| {
            for round in 0..ROUNDS {
                assert_eq!(
                    processor.ingest(1, Observation::exact(1, 3, (round % 3) as usize).unwrap()),
                    Ok(IngestOutcome::Applied)
                );
            }
        });
        // Cache churn: rotate distinct windows through the two-entry field
        // cache so backward fields are evicted and recomputed mid-flight.
        scope.spawn(|| {
            for round in 0..ROUNDS {
                let start = 1 + (round % 4);
                let window = QueryWindow::from_states(
                    3,
                    [(round % 3) as usize],
                    TimeSet::interval(start, start + 2),
                )
                .unwrap();
                let churn = Query::exists().window(window).build().unwrap();
                processor.execute(&churn).unwrap();
            }
        });
        // Observer: the ledger identities must hold in *every* snapshot,
        // no matter where the other three threads are.
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                let m = processor.metrics();
                assert_eq!(m.submitted, m.accepted + m.rejected, "{m}");
                assert_eq!(m.finished() + m.in_flight, m.accepted, "{m}");
                assert_eq!(m.failed + m.cancelled + m.dropped + m.panicked, 0, "{m}");
                std::thread::yield_now();
            }
        });
    });

    // Quiescent: every admission slot was returned and every admitted
    // submission completed.
    let metrics = processor.metrics();
    assert_eq!(metrics.in_flight, 0, "{metrics}");
    assert_eq!(metrics.submitted, metrics.accepted + metrics.rejected, "{metrics}");
    assert!(metrics.completed >= admitted.load(Ordering::Relaxed), "{metrics}");

    // Refreshes shed under contention leave the subscription stale but
    // answering; one admitted arrival resynchronizes it. Either way the
    // standing answer must equal a fresh batch execution over the final
    // database state.
    if sub.is_stale() {
        assert_eq!(
            processor.ingest(1, Observation::exact(1, 3, 0).unwrap()),
            Ok(IngestOutcome::Applied)
        );
    }
    assert!(!sub.is_stale());
    let expected = QueryProcessor::new(&processor.snapshot()).execute(sub.spec());
    assert_eq!(sub.answer(), expected);
}

/// Deadline shedding applies to refreshes too: under a zero deadline
/// every arrival's refresh is shed with `DeadlineExceeded` and accounted
/// as a deadline expiry, and the subscription keeps serving its
/// registration-time answer.
#[test]
fn refresh_sheds_on_expired_deadline() {
    let db = streaming_db();
    let spec = streaming_spec(&db);
    let processor = QueryProcessor::with_config(
        &db,
        EngineConfig::default().with_default_deadline(std::time::Duration::ZERO),
    );
    let sub = processor.watch(&spec).unwrap();
    let before = sub.answer();
    for t in 1..=3u32 {
        assert_eq!(
            processor.ingest(0, Observation::exact(t, 3, 0).unwrap()),
            Ok(IngestOutcome::Applied)
        );
    }
    assert!(sub.is_stale());
    assert_eq!(sub.last_shed(), Some(QueryError::DeadlineExceeded));
    assert_eq!(sub.notifications(), 0);
    assert_eq!(sub.answer(), before);
    let metrics = processor.metrics();
    assert_eq!(metrics.stream(sub.id()).unwrap().sheds, 3);
    assert_eq!(metrics.deadline_expired, 3);
    assert_eq!(metrics.in_flight, 0);
}
