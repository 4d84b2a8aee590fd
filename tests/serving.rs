//! Serving-layer tests: admission control (`QueueFull` backpressure),
//! ticket liveness (`wait_timeout`, `cancel`, dropped jobs), and the
//! metrics registry's accounting identities.
//!
//! The pinned invariants:
//!
//! * **Bounded bursts reject exactly the overflow** — with
//!   `max_queue_depth = D` and the workers gated, a burst of `2·D`
//!   submissions accepts `D` tickets and returns `QueryError::QueueFull`
//!   for the other `D`, without ever blocking the submitter; the accepted
//!   tickets then resolve bit-identically to `execute`.
//! * **Tickets stay live** — `wait_timeout` expiry leaves the ticket
//!   usable and races completion safely; `cancel` either dequeues the job
//!   or interrupts it between plan and execute; every path completes the
//!   ticket, so `wait` can never block forever.
//! * **Accounting identities** — `submitted == accepted + rejected` and
//!   `accepted == finished + in_flight`, with every rejected and
//!   cancelled submission leaving the processor's caches bit-for-bit
//!   consistent with a fresh processor.

use std::time::Duration;

mod common;

use proptest::prelude::*;

use common::{assert_bit_eq, bit_diff, gate_workers};
use ust::prelude::*;
use ust_core::Strategy;
use ust_oracle::testutil;
use ust_space::TimeSet;

fn random_db(seed: u64, n: usize, objects: usize) -> TrajectoryDatabase {
    let chain = MarkovChain::from_csr({
        let mut rng = testutil::rng(seed);
        testutil::random_stochastic(&mut rng, n, 3)
    })
    .unwrap();
    let mut rng = testutil::rng(seed ^ 0xA11CE);
    let mut db = TrajectoryDatabase::new(chain);
    for i in 0..objects {
        let dist = testutil::random_distribution(&mut rng, n, 2);
        db.insert(UncertainObject::with_single_observation(
            i as u64,
            Observation::uncertain(0, dist).unwrap(),
        ))
        .unwrap();
    }
    db
}

fn window(n: usize) -> QueryWindow {
    QueryWindow::from_states(n, [1usize, 2], TimeSet::interval(3, 5)).unwrap()
}

/// The acceptance scenario: a burst of `2 × max_queue_depth` submissions
/// rejects exactly the overflow without blocking, and every accepted
/// ticket resolves bit-identically to `execute`.
#[test]
fn burst_rejects_exactly_the_overflow() {
    const DEPTH: usize = 4;
    let db = random_db(71, 12, 9);
    let w = window(12);
    let processor = QueryProcessor::with_config(
        &db,
        EngineConfig::default().with_num_threads(2).with_max_queue_depth(DEPTH),
    );
    let spec = Query::exists().window(w.clone()).strategy(Strategy::QueryBased).build().unwrap();

    let release = gate_workers(&processor);
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..2 * DEPTH {
        match processor.submit(&spec) {
            Ok(ticket) => tickets.push(ticket),
            Err(QueryError::QueueFull { limit }) => {
                assert_eq!(limit, DEPTH);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(tickets.len(), DEPTH, "exactly the depth bound is admitted");
    assert_eq!(rejected, DEPTH, "exactly the overflow is rejected");

    release();
    let reference = processor.execute(&spec).unwrap();
    for ticket in tickets {
        assert_bit_eq(&ticket.wait().unwrap(), &reference, "accepted ticket vs execute");
    }
    let metrics = processor.metrics();
    assert_eq!(metrics.submitted, 2 * DEPTH as u64);
    assert_eq!(metrics.accepted, DEPTH as u64);
    assert_eq!(metrics.rejected, DEPTH as u64);
    assert_eq!(metrics.completed, DEPTH as u64);
    assert_eq!(metrics.in_flight, 0);
    assert_eq!(metrics.finished(), metrics.accepted);
    let rejections: u64 = metrics.plans.iter().map(|p| p.rejections).sum();
    assert_eq!(rejections, DEPTH as u64, "rejections are attributed per plan shape");
    // Backpressure clears with the backlog: the next submission is
    // admitted again.
    processor.submit(&spec).unwrap().wait().unwrap();
}

/// `wait_timeout` expiry leaves the ticket usable; completion and expiry
/// can race freely and a later wait sees the same outcome.
#[test]
fn wait_timeout_expiry_races_completion_safely() {
    let db = random_db(73, 10, 5);
    let w = window(10);
    let processor = QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
    let spec = Query::exists().window(w).strategy(Strategy::QueryBased).build().unwrap();

    let release = gate_workers(&processor);
    let ticket = processor.submit(&spec).unwrap();
    // The workers are gated, so the job cannot have run yet: a short
    // timeout must expire and leave the ticket pending.
    assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
    assert!(!ticket.is_done());
    release();
    // Now the completion side wins (eventually). The outcome stays in
    // place, so repeated timed waits and the final consuming wait all see
    // the same answer.
    let timed = loop {
        if let Some(outcome) = ticket.wait_timeout(Duration::from_millis(50)) {
            break outcome;
        }
    };
    let timed = timed.unwrap();
    let again = ticket.wait_timeout(Duration::ZERO).unwrap().unwrap();
    assert_bit_eq(&timed, &again, "repeated timed waits");
    assert_bit_eq(&ticket.wait().unwrap(), &timed, "consuming wait");
}

/// `cancel` dequeues a not-yet-started job; completed tickets refuse.
#[test]
fn cancel_dequeues_queued_jobs_and_reports_finished_ones() {
    let db = random_db(79, 10, 5);
    let w = window(10);
    let processor = QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
    let spec = Query::exists().window(w).build().unwrap();

    let release = gate_workers(&processor);
    let doomed = processor.submit(&spec).unwrap();
    assert!(doomed.cancel(), "registered before completion");
    release();
    assert_eq!(doomed.wait(), Err(QueryError::Cancelled));

    let survivor = processor.submit(&spec).unwrap();
    while !survivor.is_done() {
        std::thread::yield_now();
    }
    assert!(!survivor.cancel(), "already finished — nothing to cancel");
    assert!(survivor.wait().is_ok());

    let metrics = processor.metrics();
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.in_flight, 0);
}

/// A slow query really exercises the timeout path end to end (the gated
/// tests above pin the semantics; this one pins them against a genuinely
/// running job: a long-horizon object-based ∃ whose forward sweeps spread
/// over a few hundred states, milliseconds of work even in a release
/// build).
#[test]
fn wait_timeout_on_a_running_query() {
    let n = 400;
    let db = random_db(83, n, 64);
    let w = QueryWindow::from_states(n, [1usize, 2], TimeSet::interval(60, 64)).unwrap();
    let processor = QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
    let slow = Query::exists().window(w).strategy(Strategy::ObjectBased).build().unwrap();
    let ticket = processor.submit(&slow).unwrap();
    // Whichever way the race goes, the ticket must stay coherent.
    match ticket.wait_timeout(Duration::from_micros(50)) {
        None => assert!(ticket.wait().is_ok(), "late wait still completes"),
        Some(outcome) => {
            let answer = outcome.unwrap();
            assert_bit_eq(&ticket.wait().unwrap(), &answer, "timed then consuming wait");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Rejected and cancelled submissions leave both the metrics
    /// accounting and the shared field caches consistent: the identities
    /// hold exactly, and subsequent executions are bit-identical to a
    /// fresh processor's.
    #[test]
    fn rejected_and_cancelled_submissions_leave_state_consistent(
        seed in 0u64..10_000,
        n in 6usize..=10,
        objects in 3usize..=8,
        depth in 1usize..=3,
    ) {
        let db = random_db(seed, n, objects);
        let w = window(n);
        let processor = QueryProcessor::with_config(
            &db,
            EngineConfig::default().with_num_threads(2).with_max_queue_depth(depth),
        );
        let specs = [
            Query::exists().window(w.clone()).strategy(Strategy::QueryBased).build().unwrap(),
            Query::forall().window(w.clone()).strategy(Strategy::ObjectBased).build().unwrap(),
            Query::ktimes(1).window(w.clone()).strategy(Strategy::QueryBased).build().unwrap(),
            Query::exists().window(w.clone()).threshold(0.4).build().unwrap(),
            Query::exists().window(w.clone()).top_k(3).build().unwrap(),
        ];

        let release = gate_workers(&processor);
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for spec in &specs {
            match processor.submit(spec) {
                Ok(t) => tickets.push(t),
                Err(QueryError::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        prop_assert_eq!(tickets.len(), depth.min(specs.len()));
        // Cancel the first accepted submission while it is still queued.
        let cancelled = tickets.remove(0);
        prop_assert!(cancelled.cancel());
        release();
        prop_assert_eq!(cancelled.wait(), Err(QueryError::Cancelled));
        for ticket in tickets {
            ticket.wait().unwrap();
        }

        let metrics = processor.metrics();
        prop_assert_eq!(metrics.submitted, specs.len() as u64);
        prop_assert_eq!(metrics.accepted + metrics.rejected, metrics.submitted);
        prop_assert_eq!(metrics.rejected, rejected);
        prop_assert_eq!(metrics.cancelled, 1);
        prop_assert_eq!(metrics.in_flight, 0);
        prop_assert_eq!(metrics.finished(), metrics.accepted);

        // Caches and pool survived the churn: every spec still answers
        // bit-identically to a fresh, never-bursted processor.
        let fresh = QueryProcessor::new(&db);
        for spec in &specs {
            let warm = processor.execute(spec).unwrap();
            let cold = fresh.execute(spec).unwrap();
            assert_bit_eq(&warm, &cold, "post-burst execution vs fresh processor");
        }
    }
}

// --- Streaming interleavings --------------------------------------------

/// Snapshot isolation: a submitted query captures its database view at
/// submission. An ingest applied while the job is still queued must not
/// leak into it — the ticket resolves bit-identically to an execution
/// over the pre-ingest snapshot, while new executions see the new state.
#[test]
fn ingest_during_inflight_submit_sees_consistent_snapshot() {
    let db = random_db(0x51A9, 8, 6);
    let spec = Query::exists().window(window(8)).build().unwrap();
    let processor = QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
    let release = gate_workers(&processor);
    let ticket = processor.submit(&spec).unwrap();
    let before = processor.snapshot();

    // Applied while the job is queued behind the gate.
    let mut rng = testutil::rng(0x51AA);
    let dist = testutil::random_distribution(&mut rng, 8, 2);
    assert_eq!(
        processor.ingest(2, Observation::uncertain(1, dist).unwrap()),
        Ok(IngestOutcome::Applied)
    );

    release();
    let stale_view = ticket.wait().unwrap();
    assert_bit_eq(
        &stale_view,
        &QueryProcessor::new(&before).execute(&spec).unwrap(),
        "queued job answers over its submission-time snapshot",
    );
    let fresh_view = processor.execute(&spec).unwrap();
    assert_bit_eq(
        &fresh_view,
        &QueryProcessor::new(&processor.snapshot()).execute(&spec).unwrap(),
        "post-ingest executions see the new state",
    );
    assert!(
        format!("{stale_view:?}") != format!("{fresh_view:?}"),
        "the ingest really changed the answer"
    );
}

/// Cancelling — or dropping — a subscription between notifications never
/// hangs an ingest and never leaks an admission slot: the arrival prunes
/// the dead registration and `in_flight` returns to zero.
#[test]
fn cancel_and_drop_between_notifications_leak_nothing() {
    let db = random_db(0x51AB, 8, 6);
    let spec = Query::exists().window(window(8)).build().unwrap();
    let processor = QueryProcessor::with_config(
        &db,
        EngineConfig::default().with_num_threads(2).with_max_queue_depth(4),
    );
    let kept = processor.watch(&spec).unwrap();
    let cancelled = processor.watch(&spec).unwrap();
    let dropped = processor.watch(&spec).unwrap();
    let dropped_id = dropped.id();

    let mut rng = testutil::rng(0x51AC);
    let dist = testutil::random_distribution(&mut rng, 8, 2);
    processor.ingest(1, Observation::uncertain(1, dist).unwrap()).unwrap();
    assert_eq!(cancelled.notifications(), 1, "live subscriptions refresh");

    cancelled.cancel();
    drop(dropped);
    let dist = testutil::random_distribution(&mut rng, 8, 2);
    processor.ingest(2, Observation::uncertain(1, dist).unwrap()).unwrap();

    assert_eq!(kept.notifications(), 2);
    assert_eq!(cancelled.notifications(), 1, "cancelled mid-stream: no further refreshes");
    assert!(cancelled.answer().is_ok(), "the last committed answer stays readable");
    let metrics = processor.metrics();
    assert_eq!(metrics.in_flight, 0, "no admission slot leaked");
    assert_eq!(metrics.finished() + metrics.in_flight, metrics.accepted);
    // The dropped subscription refreshed once (before the drop), then
    // disappeared from the registry.
    assert_eq!(metrics.stream(dropped_id).unwrap().reevaluations, 1);
    assert_bit_eq(
        &kept.answer().unwrap(),
        &QueryProcessor::new(&processor.snapshot()).execute(kept.spec()).unwrap(),
        "the surviving subscription still matches batch",
    );
}

/// Refreshes and submits drain the same admission budget, and the
/// lifecycle identities hold across a mixed stream of both.
#[test]
fn mixed_submits_and_ingests_keep_accounting_identities() {
    let db = random_db(0x51AD, 8, 6);
    let spec = Query::exists().window(window(8)).build().unwrap();
    let processor = QueryProcessor::with_config(
        &db,
        EngineConfig::default().with_num_threads(2).with_max_queue_depth(8),
    );
    let sub = processor.watch(&spec).unwrap();
    let mut rng = testutil::rng(0x51AE);
    for round in 0..4u32 {
        let ticket = processor.submit(&spec).unwrap();
        let dist = testutil::random_distribution(&mut rng, 8, 2);
        // Per-object monotone fix times that stay at or before the window
        // start, so every prefix remains answerable.
        processor
            .ingest(round as u64 % 3, Observation::uncertain(1 + round / 3, dist).unwrap())
            .unwrap();
        ticket.wait().unwrap();
    }
    let metrics = processor.metrics();
    assert_eq!(metrics.submitted, metrics.accepted + metrics.rejected);
    assert_eq!(metrics.finished() + metrics.in_flight, metrics.accepted);
    assert_eq!(metrics.in_flight, 0);
    assert_eq!(metrics.accepted, 8, "4 submits + 4 admitted refreshes share the ledger");
    assert_eq!(sub.notifications(), 4);
    assert_bit_eq(
        &sub.answer().unwrap(),
        &QueryProcessor::new(&processor.snapshot()).execute(sub.spec()).unwrap(),
        "the subscription tracks the mixed stream",
    );
}

/// A line embedding whose `location` parks for one state while armed,
/// until disarmed: the index probe of a query's prepare asks for the
/// window states' locations, so a query over a window holding that state
/// stops inside its evaluation, on its own thread, for as long as a test
/// needs.
struct GatedSpace {
    line: ust_space::LineSpace,
    gated: usize,
    /// `(armed, parked)` and the condvar both sides wait on.
    gate: std::sync::Arc<(std::sync::Mutex<(bool, bool)>, std::sync::Condvar)>,
}

impl ust_space::StateSpace for GatedSpace {
    fn num_states(&self) -> usize {
        self.line.num_states()
    }

    fn location(&self, id: usize) -> ust_space::Point2 {
        if id == self.gated {
            let (lock, cv) = &*self.gate;
            let mut state = lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if state.0 {
                state.1 = true;
                cv.notify_all();
            }
            while state.0 {
                state = cv.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.line.location(id)
    }
}

/// `watch` must not lose an arrival. The seed evaluation of a new
/// subscription runs under the same lock as every refresh, from its
/// database snapshot through its registration — so an `ingest` (or an
/// `insert`) applied while the seed is still evaluating finds the
/// subscription registered and refreshes it. The interleaving is forced:
/// the seed parks inside its prepare (the index probe asks a gated space
/// for a window state's location), the arrival is applied meanwhile — its
/// fix avoids the gated state, so the index-overlay write passes — and only
/// then does the seed finish.
#[test]
fn arrivals_during_watch_are_not_lost() {
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    const GATED: usize = 2;
    for inserting in [false, true] {
        let gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let mut db = random_db(0x51AF, 8, 6);
        let line = ust_space::LineSpace::new(8);
        db.attach_space(Arc::new(GatedSpace { line, gated: GATED, gate: Arc::clone(&gate) }))
            .unwrap();
        let spec =
            Query::exists().window(window(8)).strategy(Strategy::QueryBased).build().unwrap();
        assert!(spec.window().states().contains(GATED));
        let config = EngineConfig::default().with_prefilter(PrefilterMode::On);
        let processor = QueryProcessor::with_config(&db, config);
        // Builds the index while the space is still open.
        processor.execute(&spec).unwrap();
        let before = processor.snapshot();
        let fix = Observation::exact(1, 8, 5).unwrap();

        let (lock, cv) = &*gate;
        lock.lock().unwrap_or_else(PoisonError::into_inner).0 = true;
        let sub = std::thread::scope(|scope| {
            let watching = scope.spawn(|| processor.watch(&spec).unwrap());
            // The seed is parked in its prepare: `watch` holds its snapshot
            // and cannot finish before the gate opens.
            let mut state = lock.lock().unwrap_or_else(PoisonError::into_inner);
            while !state.1 {
                // A watch that fails before it parks fails the test, not hangs it.
                assert!(!watching.is_finished(), "watch returned before parking in its prepare");
                let wait = cv.wait_timeout(state, std::time::Duration::from_millis(10));
                state = wait.unwrap_or_else(PoisonError::into_inner).0;
            }
            drop(state);
            let arriving = scope.spawn(|| match inserting {
                true => processor.insert(UncertainObject::with_single_observation(99, fix.clone())),
                false => processor.ingest(1, fix.clone()).map(|_| ()),
            });
            // The write is visible before the arrival's notification phase
            // (which may be waiting for `watch`) has run.
            let written = |db: &TrajectoryDatabase| match inserting {
                true => db.len() == 7,
                false => db.object(1).is_some_and(|o| o.anchor().time() == 1),
            };
            while !written(&processor.snapshot()) {
                std::thread::yield_now();
            }
            lock.lock().unwrap_or_else(PoisonError::into_inner).0 = false;
            cv.notify_all();
            arriving.join().unwrap().unwrap();
            watching.join().unwrap()
        });

        let fresh = QueryProcessor::new(&processor.snapshot()).execute(sub.spec()).unwrap();
        let stale = QueryProcessor::new(&before).execute(sub.spec()).unwrap();
        assert!(bit_diff(&fresh, &stale).is_err(), "the arrival changes the answer");
        assert_bit_eq(&sub.answer().unwrap(), &fresh, "the arrival reached the new subscription");
        assert!(!sub.is_stale());
        assert_eq!(sub.notifications(), 1, "inserting={inserting}");
        let metrics = processor.metrics();
        let stream = metrics.stream(sub.id()).unwrap();
        assert_eq!((stream.full_recomputes, stream.notifications, stream.reevaluations), (1, 1, 1));
        assert_eq!(metrics.finished() + metrics.in_flight, metrics.accepted);
    }
}
