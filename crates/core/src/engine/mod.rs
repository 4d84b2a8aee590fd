//! Query evaluation engines.
//!
//! Implements the paper's two exact strategies — the **object-based (OB)**
//! forward approach (Section V-A) and the **query-based (QB)** backward
//! approach (Section V-B) — for all three predicates (∃, ∀, k-times):
//!
//! * [`object_based`] / [`query_based`] — exact possible-worlds evaluation
//!   using the virtual `M−`/`M+` operators;
//! * [`forall`] — PST∀Q (Section VII): complement reduction object-based,
//!   the direct keep-`S▫` backward field query-based;
//! * [`ktimes`] — the memory-efficient `C(t)` algorithm (Section VII) and
//!   its QB counterpart.
//!
//! Every query reaches them through one front door,
//! [`QueryProcessor::execute`] (or `submit` / `watch`), with an explicit
//! [`crate::query::Strategy`] or the planner's choice; these modules keep
//! their rules and drivers crate-private. The references they are checked
//! against — possible-worlds enumeration, the explicit augmented matrices
//! — live in the `ust-oracle` crate, which shares no code with them.
//!
//! The engines drive the shared propagation core in [`pipeline`]: they
//! supply direction, start state and the accumulation rule applied
//! at query timestamps, while the step loop, ε-pruning, sparse↔dense
//! switching and statistics accounting exist exactly once.
//!
//! In front of them sits the serving tier, one job per file: `config`
//! ([`EngineConfig`]), `processor` ([`QueryProcessor`] and the one serving
//! function every query's life runs through), `ticket` ([`QueryTicket`],
//! the completion latch of `submit`) and `refresh` (`watch` / `ingest` /
//! `insert` and the serialized commit into standing queries). [`plan`] —
//! prepare and refine, the two halves of that life — stays clock-free.

// Plans and engines are pure functions of their inputs, and iteration
// order never reaches an answer: no clock reads and no hashed containers
// (clippy.toml lists both). `processor`, `refresh` and `ticket` re-allow
// the clock to stamp stage boundaries around that code.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod cache;
mod config;
pub mod forall;
pub mod ktimes;
pub mod object_based;
pub mod pipeline;
pub mod plan;
mod processor;
pub mod query_based;
pub mod reach;
mod refresh;
mod shadow;
mod ticket;

pub use config::{EngineConfig, PrefilterMode};
pub use plan::{CostEstimate, QueryPlan};
pub use processor::QueryProcessor;
pub use ticket::QueryTicket;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::database::{IngestOutcome, TrajectoryDatabase};
    use crate::error::{QueryError, Result};
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::{Query, QueryAnswer, QuerySpec, QueryWindow, Strategy};
    use crate::testkit::gate_workers;
    use ust_oracle::testutil;
    use ust_space::TimeSet;

    fn small_db(seed: u64, n_states: usize, n_objects: usize) -> TrajectoryDatabase {
        let chain = testutil::random_chain(seed, n_states, 3);
        let mut rng = testutil::rng(seed + 1);
        let mut db = TrajectoryDatabase::new(chain);
        for i in 0..n_objects {
            let dist = testutil::random_distribution(&mut rng, n_states, 2);
            db.insert(UncertainObject::with_single_observation(
                i as u64,
                Observation::uncertain(0, dist).unwrap(),
            ))
            .unwrap();
        }
        db
    }

    fn exists_spec(db: &TrajectoryDatabase) -> QuerySpec {
        let window =
            QueryWindow::from_states(db.num_states(), [1usize, 2], TimeSet::interval(2, 4))
                .unwrap();
        Query::exists().window(window).build().unwrap()
    }

    /// A panicking job leaves the shared field-cache mutex poisoned; the
    /// ranked lock recovers it on every acquisition, so the processor
    /// keeps serving.
    #[test]
    fn poisoned_cache_mutex_recovers_after_panicking_job() {
        let db = small_db(41, 12, 6);
        let processor =
            QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
        let spec = exists_spec(&db);
        // Baseline through the cache so a QB sweep is resident.
        let forced = Query::exists()
            .window(spec.window().clone())
            .strategy(Strategy::QueryBased)
            .build()
            .unwrap();
        let baseline = processor.execute(&forced).unwrap();

        // Poison the cache mutex: a scoped thread panics while holding it.
        let cache = &processor.core.cache;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _guard = cache.lock();
                    panic!("poison the cache lock");
                });
            });
        }));
        assert!(caught.is_err(), "the panic re-raises on the spawner");
        assert!(cache.is_poisoned(), "the mutex really is poisoned");

        // Both the synchronous and the asynchronous paths must still
        // serve — and bit-identically to the pre-poison answer.
        let again = processor.execute(&forced).unwrap();
        assert_eq!(again, baseline);
        let ticket = processor.submit(&forced).unwrap();
        assert_eq!(ticket.wait().unwrap(), baseline);
    }

    /// An inline processor's submit must not funnel a burst through a
    /// single worker: the submit pool it spawns on the first submission is
    /// sized from the host's available parallelism. A sharding processor's
    /// pool has `num_threads` workers. Construction spawns neither.
    #[test]
    fn inline_submit_fallback_pool_is_sized_from_available_parallelism() {
        let db = small_db(43, 10, 4);
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (threads, expected) in [(1, host), (3, 3)] {
            let config = EngineConfig::default().with_num_threads(threads);
            let processor = QueryProcessor::with_config(&db, config);
            assert!(processor.submit_pool.get().is_none(), "spawned on the first submission");
            let ticket = processor.submit(&exists_spec(&db)).unwrap();
            ticket.wait().unwrap();
            let size = processor.submit_pool.get().map(|pool| pool.num_threads());
            assert_eq!(size, Some(expected), "num_threads = {threads}");
        }
    }

    /// Dropping an inline processor mid-burst sheds its submit pool's
    /// backlog like any processor-owned pool: the job running at the drop
    /// finishes, every queued ticket completes with `AsyncQueryDropped`, and
    /// no `wait` blocks.
    #[test]
    fn dropping_an_inline_processor_mid_burst_completes_every_ticket() {
        use std::time::Duration;

        let db = small_db(37, 10, 4);
        let spec = exists_spec(&db);
        let processor = QueryProcessor::new(&db);
        // The first submission spawns the pool. Then every worker runs a
        // job that returns only once the drop has closed the queues, so
        // the burst is still queued when the drop begins.
        processor.submit(&spec).unwrap().wait().unwrap();
        let pool = processor.submit_pool.get().unwrap();
        let closed = pool.closed_probe();
        for shard in 0..pool.num_threads() {
            let closed = closed.clone();
            pool.spawn(
                shard,
                Box::new(move || {
                    while !closed() {
                        std::thread::yield_now();
                    }
                }),
            );
        }
        while pool.stats().queued_jobs > 0 {
            std::thread::yield_now();
        }
        let burst: Vec<QueryTicket> = (0..8).map(|_| processor.submit(&spec).unwrap()).collect();
        drop(processor);
        for ticket in burst {
            let outcome = ticket.wait_timeout(Duration::from_secs(30)).expect("no wait blocks");
            assert_eq!(outcome, Err(QueryError::AsyncQueryDropped));
        }
    }

    /// Satellite bugfix: a job discarded without running must still
    /// complete its ticket (with `AsyncQueryDropped`), not strand `wait`.
    #[test]
    fn dropped_job_completes_its_ticket() {
        let db = small_db(47, 10, 4);
        let spec = exists_spec(&db);
        let processor = QueryProcessor::with_config(
            &db,
            EngineConfig::default().with_num_threads(2).with_max_queue_depth(8),
        );
        let pool = processor.pool();
        // Gate both workers so the submitted job stays queued.
        let release = gate_workers(pool);
        let ticket = processor.submit(&spec).unwrap();
        assert!(!ticket.is_done());
        assert_eq!(processor.metrics().in_flight, 1);
        // Begin shutdown while the job is still queued, then release the
        // gates: the discard-mode workers shed the backlog instead of
        // running it — pool shut down mid-burst.
        pool.close_queues();
        release();
        assert_eq!(ticket.wait(), Err(QueryError::AsyncQueryDropped));
        let metrics = processor.metrics();
        assert_eq!(metrics.dropped, 1);
        assert_eq!(metrics.in_flight, 0);
    }

    /// Deadline admission: a job that starts after its deadline is shed
    /// with `DeadlineExceeded` instead of executing stale work.
    #[test]
    fn expired_deadline_sheds_the_query() {
        let db = small_db(53, 10, 4);
        let spec = exists_spec(&db);
        let processor = QueryProcessor::with_config(
            &db,
            EngineConfig::default()
                .with_num_threads(2)
                .with_default_deadline(std::time::Duration::ZERO),
        );
        // A zero deadline has always expired by the time a job starts:
        // every admitted submission of the burst is shed and counted.
        let tickets: Vec<_> = (0..4).map(|_| processor.submit(&spec).unwrap()).collect();
        for ticket in tickets {
            assert_eq!(ticket.wait(), Err(QueryError::DeadlineExceeded));
        }
        let metrics = processor.metrics();
        assert_eq!(metrics.deadline_expired, 4);
        assert_eq!(metrics.executions, 0, "shed jobs never execute");
        assert_eq!(metrics.in_flight, 0);
    }

    /// The serving registry accounts for every submission and execution.
    #[test]
    fn metrics_account_for_sync_and_async_queries() {
        let db = small_db(59, 12, 5);
        let spec = exists_spec(&db);
        let processor =
            QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
        processor.execute(&spec).unwrap();
        let tickets: Vec<_> = (0..3).map(|_| processor.submit(&spec).unwrap()).collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let metrics = processor.metrics();
        assert_eq!(metrics.submitted, 3);
        assert_eq!(metrics.accepted, 3);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.completed, 3);
        assert_eq!(metrics.in_flight, 0);
        assert_eq!(metrics.finished() + metrics.in_flight, metrics.accepted);
        assert_eq!(metrics.executions, 4, "one sync + three async executions");
        let total_plan_execs: u64 = metrics.plans.iter().map(|p| p.executions).sum();
        assert_eq!(total_plan_execs, 4);
        let entry = metrics
            .plans
            .iter()
            .find(|p| p.predicate == crate::query::Predicate::Exists)
            .expect("the exists plan shape was recorded");
        assert!(entry.execute_secs > 0.0);
        assert!(entry.queue_wait_secs >= 0.0);
        assert!(!metrics.to_string().is_empty());
    }

    /// A bound decorator halves the object-based step estimate, and
    /// nothing an execution measures feeds back into the next plan.
    #[test]
    fn bound_discount_is_flat_across_executions() {
        let db = small_db(61, 12, 6);
        let window =
            QueryWindow::from_states(db.num_states(), [1usize, 2], TimeSet::interval(2, 4))
                .unwrap();
        let plain = Query::exists().window(window.clone()).build().unwrap();
        let bounded = Query::exists().window(window).threshold(0.4).build().unwrap();
        let processor = QueryProcessor::new(&db);
        let unbounded = processor.explain(&plain).unwrap().object_based;
        let cold = processor.explain(&bounded).unwrap().object_based;
        assert_eq!(cold.step_ops, 0.5 * unbounded.step_ops);
        assert_eq!(cold.object_ops, unbounded.object_ops);
        processor.execute(&bounded).unwrap();
        assert_eq!(processor.explain(&bounded).unwrap().object_based, cold);
    }

    fn fresh_answer(processor: &QueryProcessor, spec: &QuerySpec) -> Result<QueryAnswer> {
        QueryProcessor::new(&processor.snapshot()).execute(spec)
    }

    /// The tentpole contract in miniature: after ingests, a stale
    /// rejection and an insert, the maintained answer is bit-for-bit what
    /// a from-scratch execution over the current snapshot returns.
    #[test]
    fn watch_maintains_batch_identical_answers() {
        let db = small_db(67, 12, 6);
        let processor = QueryProcessor::new(&db);
        let sub = processor.watch(&exists_spec(&db)).unwrap();
        assert_ne!(sub.spec().strategy(), Strategy::Auto, "Auto resolves at registration");
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));

        let mut rng = testutil::rng(97);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        let applied = processor.ingest(2, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(applied, IngestOutcome::Applied);
        assert_eq!(sub.notifications(), 1);
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));

        // An out-of-order fix is ignored and triggers no notification.
        let stale_dist = testutil::random_distribution(&mut rng, 12, 2);
        let stale = processor.ingest(2, Observation::uncertain(0, stale_dist).unwrap()).unwrap();
        assert_eq!(stale, IngestOutcome::IgnoredStale);
        assert_eq!(sub.notifications(), 1);

        // A newly inserted object joins the maintained answer exactly
        // where a full re-evaluation lists it: last, in database order.
        let new_dist = testutil::random_distribution(&mut rng, 12, 2);
        processor
            .insert(UncertainObject::with_single_observation(
                99,
                Observation::uncertain(0, new_dist).unwrap(),
            ))
            .unwrap();
        assert_eq!(sub.notifications(), 2);
        let answer = sub.answer().unwrap();
        assert_eq!(answer.probabilities().unwrap().last().unwrap().object_id, 99);
        assert_eq!(Ok(answer), fresh_answer(&processor, sub.spec()));
    }

    /// The streaming economics: a query-based subscription pre-sweeps its
    /// backward fields at registration, so an in-scope arrival costs zero
    /// propagation steps — the maintained entry is invalidated and
    /// recomputed as a cached-field dot product.
    #[test]
    fn warm_query_based_refresh_costs_zero_propagation_steps() {
        let db = small_db(71, 12, 6);
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists()
            .window(exists_spec(&db).window().clone())
            .strategy(Strategy::QueryBased)
            .build()
            .unwrap();
        let sub = processor.watch(&spec).unwrap();

        let mut rng = testutil::rng(101);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(0, Observation::uncertain(2, dist).unwrap()).unwrap();

        let metrics = processor.metrics();
        let stream = metrics.stream(sub.id()).expect("watch registered the stream");
        assert!(stream.recompute_steps > 0, "registration paid the dense sweep");
        assert_eq!(stream.reevaluations, 1, "exactly one maintained entry re-evaluated");
        assert_eq!(stream.incremental_steps, 0, "the refresh was pure cache hits");
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
    }

    /// Scoped subscriptions ignore out-of-scope arrivals entirely — no
    /// invalidation, no re-evaluation, no notification.
    #[test]
    fn out_of_scope_arrivals_do_not_touch_scoped_subscriptions() {
        let db = small_db(73, 12, 6);
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists()
            .window(exists_spec(&db).window().clone())
            .objects([1u64, 3])
            .build()
            .unwrap();
        let sub = processor.watch(&spec).unwrap();
        let before = sub.answer();

        let mut rng = testutil::rng(103);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(0, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(sub.notifications(), 0);
        assert_eq!(sub.answer(), before);
        let metrics = processor.metrics();
        assert_eq!(metrics.stream(sub.id()).unwrap().reevaluations, 0);

        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(3, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(sub.notifications(), 1);
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
    }

    /// Cancelling (or dropping) a subscription unregisters it: the next
    /// arrival prunes it from the registry without refreshing it.
    #[test]
    fn cancelled_subscriptions_are_pruned_on_the_next_arrival() {
        let db = small_db(79, 12, 5);
        let processor = QueryProcessor::new(&db);
        let sub = processor.watch(&exists_spec(&db)).unwrap();
        drop(processor.watch(&exists_spec(&db)).unwrap());
        sub.cancel();
        assert!(sub.is_cancelled());

        let mut rng = testutil::rng(107);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(1, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(sub.notifications(), 0, "cancelled subscriptions never refresh");
        let registry = processor.subscriptions.lock();
        assert!(registry.is_empty(), "the arrival pruned both dead subscriptions");
        // The cancelled subscription still answers from its last state.
        assert!(sub.answer().is_ok());
    }

    /// `∃` top-k pinned object-based would inherit the OB ranking's
    /// omission contract (provably unreachable objects are left off the
    /// zero tail), which cannot be maintained incrementally — watch
    /// re-pins it query-based, where ranked values are identical.
    #[test]
    fn exists_topk_subscriptions_pin_query_based() {
        let db = small_db(83, 12, 6);
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists()
            .window(exists_spec(&db).window().clone())
            .top_k(3)
            .strategy(Strategy::ObjectBased)
            .build()
            .unwrap();
        let sub = processor.watch(&spec).unwrap();
        assert_eq!(sub.spec().strategy(), Strategy::QueryBased);
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
        let mut rng = testutil::rng(109);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(4, Observation::uncertain(2, dist).unwrap()).unwrap();
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
    }

    /// A line embedding whose `location` panics for one state while armed:
    /// how the table below injects a panic into the prepare half of a
    /// query (the index prefilter asks for the window states' locations).
    struct ArmedSpace {
        line: ust_space::LineSpace,
        poisoned: usize,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl ust_space::StateSpace for ArmedSpace {
        fn num_states(&self) -> usize {
            self.line.num_states()
        }

        fn location(&self, id: usize) -> ust_space::Point2 {
            let armed = self.armed.load(std::sync::atomic::Ordering::SeqCst);
            assert!(!(armed && id == self.poisoned), "injected fault: state {id} is poisoned");
            self.line.location(id)
        }
    }

    /// The path that now exists once, cell by cell: {`submit`, refresh} ×
    /// {admitted, `QueueFull`, `DeadlineExceeded`, cancelled while queued,
    /// panicking, pool dropped mid-burst}. A refresh is synchronous — it is
    /// never queued on the pool — so its last two columns cannot occur. The
    /// panicking refresh runs twice, for an object-based subscription and
    /// for a stale query-based one: the two ways a refresh still reaches
    /// the injected fault.
    /// Every cell asserts the same four things: the admission slot is
    /// released (at `max_queue_depth = 1` a leaked slot would reject the
    /// following submission), `submitted == accepted + rejected`,
    /// `accepted == finished + in_flight`, and the ticket / subscription
    /// observed exactly one outcome.
    #[test]
    fn every_exit_of_the_serving_path_releases_its_slot_and_tallies_once() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Exit {
            Admitted,
            QueueFull,
            DeadlineExceeded,
            CancelledWhileQueued,
            Panicking,
            PoolDroppedMidBurst,
        }
        const N: usize = 12;
        const POISONED: usize = 2;

        for refresh in [false, true] {
            // A subscription watches the spec under its own strategy, or
            // pinned: a panicking refresh reaches the space through an
            // object-based subscription's served probe and through a stale
            // query-based one's resync, never through a fresh query-based
            // one's dot.
            for (exit, pin) in [
                (Exit::Admitted, None),
                (Exit::QueueFull, None),
                (Exit::DeadlineExceeded, None),
                (Exit::CancelledWhileQueued, None),
                (Exit::Panicking, Some(Strategy::ObjectBased)),
                (Exit::Panicking, Some(Strategy::QueryBased)),
                (Exit::PoolDroppedMidBurst, None),
            ] {
                let queued = matches!(exit, Exit::CancelledWhileQueued | Exit::PoolDroppedMidBurst);
                if (refresh && queued) || (!refresh && pin == Some(Strategy::QueryBased)) {
                    continue;
                }
                let route = match (refresh, pin) {
                    (false, _) => "submit".to_string(),
                    (true, None) => "refresh".to_string(),
                    (true, Some(pin)) => format!("refresh pinned {pin:?}"),
                };
                let cell = format!("{route} × {exit:?}");

                // Anchors avoid the poisoned state; the window contains it.
                let armed = Arc::new(AtomicBool::new(false));
                let mut db = TrajectoryDatabase::new(testutil::random_chain(89, N, 3));
                for id in 0..4u64 {
                    let anchor = Observation::exact(0, N, 3 + id as usize).unwrap();
                    db.insert(UncertainObject::with_single_observation(id, anchor)).unwrap();
                }
                db.attach_space(Arc::new(ArmedSpace {
                    line: ust_space::LineSpace::new(N),
                    poisoned: POISONED,
                    armed: Arc::clone(&armed),
                }))
                .unwrap();
                let window =
                    QueryWindow::from_states(N, [1usize, POISONED], TimeSet::interval(2, 4))
                        .unwrap();
                let spec = Query::exists().window(window).build().unwrap();
                let mut config = EngineConfig::default()
                    .with_num_threads(2)
                    .with_max_queue_depth(1)
                    .with_prefilter(PrefilterMode::On);
                if exit == Exit::DeadlineExceeded {
                    config = config.with_default_deadline(Duration::ZERO);
                }
                let processor = QueryProcessor::with_config(&db, config);
                // Builds the index while the space is still harmless.
                processor.execute(&spec).unwrap();
                let watched = pin.map_or(spec.clone(), |pin| spec.clone().with_strategy(pin));
                let sub = refresh.then(|| processor.watch(&watched).unwrap());
                let arrival = || processor.ingest(1, Observation::exact(1, N, 5).unwrap());

                match (&sub, exit) {
                    (None, Exit::Admitted) => {
                        let answer = processor.submit(&spec).unwrap().wait();
                        assert_eq!(answer, processor.execute(&spec), "{cell}");
                        assert_eq!(processor.metrics().completed, 1, "{cell}");
                    }
                    (Some(sub), Exit::Admitted) => {
                        assert_eq!(arrival(), Ok(IngestOutcome::Applied), "{cell}");
                        assert_eq!((sub.notifications(), sub.is_stale()), (1, false), "{cell}");
                        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()), "{cell}");
                        assert_eq!(processor.metrics().completed, 1, "{cell}");
                    }
                    (_, Exit::QueueFull) => {
                        let release = gate_workers(processor.pool());
                        let holder = processor.submit(&spec).unwrap();
                        let full = QueryError::QueueFull { limit: 1 };
                        match &sub {
                            None => assert_eq!(processor.submit(&spec).err(), Some(full), "{cell}"),
                            Some(sub) => {
                                assert_eq!(arrival(), Ok(IngestOutcome::Applied), "{cell}");
                                assert_eq!(sub.last_shed(), Some(full), "{cell}");
                                assert_eq!((sub.notifications(), sub.is_stale()), (0, true));
                            }
                        }
                        release();
                        holder.wait().unwrap();
                        assert_eq!(processor.metrics().rejected, 1, "{cell}");
                    }
                    (_, Exit::DeadlineExceeded) => {
                        match &sub {
                            None => {
                                let shed = processor.submit(&spec).unwrap().wait();
                                assert_eq!(shed, Err(QueryError::DeadlineExceeded), "{cell}");
                            }
                            Some(sub) => {
                                assert_eq!(arrival(), Ok(IngestOutcome::Applied), "{cell}");
                                assert_eq!(sub.last_shed(), Some(QueryError::DeadlineExceeded));
                                assert_eq!((sub.notifications(), sub.is_stale()), (0, true));
                            }
                        }
                        assert_eq!(processor.metrics().deadline_expired, 1, "{cell}");
                    }
                    (_, Exit::CancelledWhileQueued) => {
                        let release = gate_workers(processor.pool());
                        let ticket = processor.submit(&spec).unwrap();
                        assert!(ticket.cancel(), "{cell}");
                        assert_eq!(ticket.wait(), Err(QueryError::Cancelled), "{cell}");
                        release();
                        assert_eq!(processor.metrics().cancelled, 1, "{cell}");
                    }
                    (_, Exit::Panicking) => {
                        armed.store(true, Ordering::SeqCst);
                        match &sub {
                            None => {
                                let panicked = processor.submit(&spec).unwrap().wait();
                                assert_eq!(panicked, Err(QueryError::AsyncQueryPanicked), "{cell}");
                            }
                            Some(sub) => {
                                // Staled first, by a refresh shed at the
                                // admission bound: the query-based arrival
                                // below then resyncs through a served
                                // evaluation, whose prepare runs the index
                                // prefilter.
                                if sub.spec().strategy() == Strategy::QueryBased {
                                    armed.store(false, Ordering::SeqCst);
                                    let release = gate_workers(processor.pool());
                                    let holder = processor.submit(&spec).unwrap();
                                    assert_eq!(arrival(), Ok(IngestOutcome::Applied), "{cell}");
                                    assert!(sub.is_stale(), "{cell}");
                                    release();
                                    holder.wait().unwrap();
                                    armed.store(true, Ordering::SeqCst);
                                }
                                // The panic is the ingest caller's; the
                                // arrival itself was applied.
                                let unwound =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        arrival()
                                    }));
                                assert!(unwound.is_err(), "{cell}");
                                assert_eq!((sub.notifications(), sub.is_stale()), (0, true));
                            }
                        }
                        armed.store(false, Ordering::SeqCst);
                        assert_eq!(processor.metrics().panicked, 1, "{cell}");
                        if let Some(sub) = &sub {
                            // The next admitted arrival resynchronizes.
                            processor.ingest(2, Observation::exact(1, N, 6).unwrap()).unwrap();
                            assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
                            assert!(!sub.is_stale(), "{cell}");
                        }
                    }
                    (_, Exit::PoolDroppedMidBurst) => {
                        let release = gate_workers(processor.pool());
                        let ticket = processor.submit(&spec).unwrap();
                        processor.pool().close_queues();
                        release();
                        assert_eq!(ticket.wait(), Err(QueryError::AsyncQueryDropped), "{cell}");
                        assert_eq!(processor.metrics().dropped, 1, "{cell}");
                    }
                }

                let metrics = processor.metrics();
                assert_eq!(metrics.in_flight, 0, "{cell}: the slot is released");
                assert_eq!(metrics.submitted, metrics.accepted + metrics.rejected, "{cell}");
                assert_eq!(metrics.accepted, metrics.finished() + metrics.in_flight, "{cell}");
                assert!(processor.submit(&spec).is_ok(), "{cell}: the next submission is admitted");
            }
        }
    }
}
