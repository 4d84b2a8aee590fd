//! The plan memo: an ∃ read over an indexed scope reuses the plan `prepare`
//! made for it on an unchanged store, patches it over the writes the
//! store's log holds since, and prepares afresh when anything else it was
//! prepared from changed.
//!
//! One table, one case per row: a processor runs the row's op prefix and
//! then its last query, which must come by its plan exactly as the row
//! says — prepared afresh, reused (`EvalStats::plans_reused`) or patched
//! with so many objects re-tested (`plans_patched`, `objects_retested`). A
//! fresh processor warmed by the same prefix then answers the same query
//! with every memo displaced (`capacity` explains of other thresholds
//! fill the memo), so it prepares afresh: the answer — or the error — must
//! be the same to the bit and every other counter equal, but for one: a
//! query-based probabilities read re-scores the rows kept beside the memo
//! it came from, and must evaluate exactly the objects the row names —
//! the survivors written since — or, when its rows cannot hold (a fresh
//! plan, a recomputed field, a plan resolved object-based), every survivor
//! as the fresh processor does. Debug builds also re-derive every reused
//! or patched plan inside `prepare`, and re-run the full fan-out for a
//! sample of re-scored reads; release builds
//! (`cargo test --release --test plan_memo`) compile both out, and these
//! comparisons carry the check.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use ust::prelude::*;
use ust_core::QuerySpec;
use ust_oracle::testutil;
use ust_space::TimeSet;

/// Line states of the store.
const N: usize = 40;
/// Objects in the store: object `i` follows model `i mod models` and is
/// anchored at `t = i mod 3`. Every id subset of the table but `FEW` keeps
/// at least the 256 objects a plan needs to be memoised whatever its
/// decorator.
const M: u64 = 900;
/// The threshold of the table's queries.
const TAU: f64 = 0.05;
/// The write log's bound on this store: the index's compaction size,
/// `max(16, |D|/8)`.
const LOG: usize = M as usize / 8;
/// A state no object anchored at `t = 2` can reach window 0 from by its
/// end.
const FAR: usize = 39;
/// A state inside window 0.
const INSIDE: usize = 6;
/// A state window 0's cone reaches from `t = 2` whose superlevel set at a
/// threshold of 0.5 it misses.
const NEAR: usize = 14;

fn store(models: usize) -> TrajectoryDatabase {
    let mut rng = testutil::rng(42);
    let mut chain = || testutil::random_banded_stochastic(&mut rng, N, 3, 2);
    let chains = (0..models).map(|_| MarkovChain::from_csr(chain()).unwrap()).collect();
    let mut db = TrajectoryDatabase::with_models(chains).unwrap();
    for id in 0..M {
        let dist = testutil::random_distribution(&mut rng, N, 2);
        let fix = Observation::uncertain(id as u32 % 3, dist).unwrap();
        let object = UncertainObject::with_single_observation(id, fix);
        db.insert(object.with_model(id as usize % models)).unwrap();
    }
    db.attach_space(Arc::new(LineSpace::new(N))).unwrap();
    db
}

/// The windows of the table, built afresh on every use, so a hit is keyed
/// by the window's value, not by its handle.
fn window(which: usize) -> QueryWindow {
    let lo = [4, 24, 14][which];
    QueryWindow::from_states(N, lo..lo + 4, TimeSet::interval(3, 5)).unwrap()
}

/// Which objects a query asks for, by id.
#[derive(Clone, Copy, Debug)]
enum Ids {
    All,
    Where(fn(u64) -> bool),
}

/// A scope below the admission floor: only a threshold memoises over it.
const FEW: Ids = Ids::Where(|id| id < 12);

fn all_but_model_1_before_t2(id: u64) -> bool {
    id.is_multiple_of(2) || id % 3 == 2
}

/// An ∃ query over a window: thresholded at `tau`, or probabilities.
#[derive(Clone, Copy, Debug)]
struct Q {
    window: usize,
    tau: Option<f64>,
    strategy: Strategy,
    ids: Ids,
}

impl Q {
    const fn qb(window: usize, ids: Ids) -> Q {
        Q { window, tau: Some(TAU), strategy: Strategy::QueryBased, ids }
    }

    fn spec(self) -> QuerySpec {
        let query = Query::exists().window(window(self.window));
        let query = match self.tau {
            Some(tau) => query.threshold(tau),
            None => query,
        };
        restrict(query.strategy(self.strategy), self.ids).build().unwrap()
    }
}

fn restrict(query: QueryBuilder, ids: Ids) -> QueryBuilder {
    match ids {
        Ids::All => query,
        Ids::Where(keep) => query.objects((0..M).filter(|&id| keep(id))),
    }
}

const A: Q = Q::qb(0, Ids::All);
const AUTO: Q = Q { strategy: Strategy::Auto, ..A };
/// Probabilities under `Auto`, the `stream_mixed` read.
const P: Q = Q { tau: None, ..AUTO };
/// A threshold whose superlevel set a near object can miss.
const HIGH: Q = Q { tau: Some(0.5), ..A };

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Execute the query.
    Run(Q),
    /// `explain` it.
    Explain(Q),
    /// Query-based ∃ probabilities over a window and some ids: sweeps (or
    /// extends) the field of every model those ids follow, at every anchor
    /// time of its cone's survivors.
    Fill(usize, Ids),
    /// A fix for an object, ignored as stale when it predates the anchor.
    Ingest { id: u64, time: u32, state: usize },
    /// `count` applied fixes at `t = 2`, alternating between objects 0 and
    /// 1 (two overlay entries, `count` logged writes).
    Churn(usize),
    /// A new object, anchored at `t = 1`.
    Insert { id: u64, state: usize },
}

fn apply(processor: &QueryProcessor, op: Op) {
    match op {
        Op::Run(q) => drop(processor.execute(&q.spec()).unwrap()),
        Op::Explain(q) => drop(processor.explain(&q.spec()).unwrap()),
        Op::Fill(w, ids) => {
            let fill = Query::exists().window(window(w)).strategy(Strategy::QueryBased);
            processor.execute(&restrict(fill, ids).build().unwrap()).unwrap();
        }
        Op::Ingest { id, time, state } => {
            processor.ingest(id, Observation::exact(time, N, state).unwrap()).unwrap();
        }
        Op::Churn(count) => {
            for i in 0..count {
                let fix = Observation::exact(2, N, 10 + i % 7).unwrap();
                assert_eq!(processor.ingest(i as u64 % 2, fix), Ok(IngestOutcome::Applied));
            }
        }
        Op::Insert { id, state } => {
            let fix = Observation::exact(1, N, state).unwrap();
            processor.insert(UncertainObject::with_single_observation(id, fix)).unwrap();
        }
    }
}

/// The query a row measures.
#[derive(Clone, Copy, Debug)]
enum Last {
    /// Executed synchronously.
    Run(Q),
    /// Submitted on a snapshot taken before `Ingest`, and run only after
    /// the ingest and an `execute` of the same query on the new snapshot.
    SubmitAcross(Q, Op),
}

/// How the measured query must come by its plan.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Memo {
    Fresh,
    Reused,
    /// Patched, re-testing this many objects.
    Patched(u64),
}

/// How many objects the measured query must evaluate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dots {
    /// As many as the fresh processor: every survivor.
    All,
    /// Exactly this many: a query-based probabilities read re-scores the
    /// rows kept beside its memo, dotting only the survivors written since.
    Rescored(u64),
}

struct Row {
    name: &'static str,
    models: usize,
    capacity: usize,
    prefix: Vec<Op>,
    last: Last,
    memo: Memo,
    dots: Dots,
    /// The error the measured query must fail with; `None`: it must answer.
    rejects: Option<QueryError>,
}

fn row(name: &'static str, prefix: Vec<Op>, last: Q, memo: Memo) -> Row {
    let (models, capacity, last, dots) = (1, 64, Last::Run(last), Dots::All);
    Row { name, models, capacity, prefix, last, memo, dots, rejects: None }
}

/// A probabilities row whose measured read re-scores its memo's rows with
/// `dots` dot products.
fn rescored(name: &'static str, prefix: Vec<Op>, last: Q, memo: Memo, dots: u64) -> Row {
    Row { dots: Dots::Rescored(dots), ..row(name, prefix, last, memo) }
}

fn table() -> Vec<Row> {
    use Memo::{Fresh, Patched, Reused};
    use Op::{Churn, Explain, Fill, Ingest, Insert, Run};
    let warm = |q: Q| vec![Fill(q.window, q.ids), Run(q), Run(q)];
    let then = |q: Q, more: &[Op]| [warm(q), more.to_vec()].concat();
    let t2 = Ids::Where(|id| id % 3 == 2);
    let at_t2 = Q::qb(0, t2);
    let model_0 = Ids::Where(|id| id.is_multiple_of(2));
    let model_1 = Ids::Where(|id| id % 2 == 1);
    let mixed = Q::qb(0, Ids::Where(all_but_model_1_before_t2));
    let odd = Q::qb(0, Ids::Where(|id| id % 2 == 1));
    let even = Q::qb(0, Ids::Where(|id| id.is_multiple_of(2)));
    let b = Q::qb(1, Ids::All);
    let few = Q::qb(0, FEW);
    let few_p = Q { tau: None, ..few };
    let odd_p = Q { tau: None, ..odd };
    let qb_p = Q { tau: None, ..A };
    let ob_p = Q { strategy: Strategy::ObjectBased, ..qb_p };
    let to = |id, state| Ingest { id, time: 2, state };
    let stale = Ingest { id: 5, time: 1, state: 6 };
    let at_t3 = Ingest { id: 3, time: 3, state: INSIDE };
    vec![
        row("a repeat on a warm field", warm(A), A, Reused),
        row("the first warm run", vec![Fill(0, Ids::All)], A, Fresh),
        row("a cold run", vec![], A, Fresh),
        row(
            "an arrival into the window",
            then(A, &[to(3, FAR), Run(A), to(3, INSIDE)]),
            A,
            Patched(1),
        ),
        row(
            "an arrival out of its reach",
            then(A, &[to(3, INSIDE), Run(A), to(3, FAR)]),
            A,
            Patched(1),
        ),
        row("two arrivals of one object", then(A, &[to(3, FAR), to(3, INSIDE)]), A, Patched(1)),
        row("a stale arrival", then(A, &[stale]), A, Reused),
        row("an insert", then(A, &[Insert { id: 1000, state: INSIDE }]), A, Patched(1)),
        row("a full write log", then(A, &[Churn(LOG)]), A, Patched(2)),
        row("a write log past its bound", then(A, &[Churn(LOG + 1)]), A, Fresh),
        row("an arrival outside the id subset", then(even, &[to(3, INSIDE)]), even, Patched(0)),
        row("an arrival inside the id subset", then(odd, &[to(3, INSIDE)]), odd, Patched(1)),
        Row {
            rejects: Some(QueryError::WindowBeforeObservation { window_start: 3, observation: 5 }),
            ..row(
                "arrivals that lift the latest anchor past the window's start",
                then(
                    A,
                    &[Ingest { id: 7, time: 4, state: 6 }, Ingest { id: 3, time: 5, state: 6 }],
                ),
                A,
                Fresh,
            )
        },
        row(
            "an arrival into the superlevel set",
            then(HIGH, &[to(3, NEAR), Run(HIGH), to(3, INSIDE)]),
            HIGH,
            Patched(1),
        ),
        row(
            "an arrival out of the superlevel set",
            then(HIGH, &[to(3, INSIDE), Run(HIGH), to(3, NEAR)]),
            HIGH,
            Patched(1),
        ),
        row("a threshold over a few objects repeated", warm(few), few, Reused),
        row(
            "a threshold over a few objects after an arrival",
            then(few, &[to(3, INSIDE)]),
            few,
            Patched(1),
        ),
        row("probabilities over a few objects repeated", warm(few_p), few_p, Fresh),
        rescored("a probabilities repeat", warm(P), P, Reused, 0),
        rescored("probabilities after an arrival", then(P, &[to(3, INSIDE)]), P, Patched(1), 1),
        rescored(
            "probabilities after an arrival that keeps a survivor",
            then(P, &[to(3, INSIDE), Run(P), to(3, INSIDE + 1)]),
            P,
            Patched(1),
            1,
        ),
        rescored(
            "probabilities after a survivor leaves",
            then(P, &[to(3, INSIDE), Run(P), to(3, FAR)]),
            P,
            Patched(1),
            0,
        ),
        rescored(
            "probabilities after an object enters",
            then(P, &[to(3, FAR), Run(P), to(3, INSIDE)]),
            P,
            Patched(1),
            1,
        ),
        rescored(
            "probabilities after an insert",
            then(P, &[Insert { id: 1000, state: INSIDE }]),
            P,
            Patched(1),
            1,
        ),
        row("probabilities after a write log past its bound", then(P, &[Churn(LOG + 1)]), P, Fresh),
        rescored(
            "probabilities over an id subset after an arrival in it",
            then(odd_p, &[to(3, INSIDE)]),
            odd_p,
            Patched(1),
            1,
        ),
        rescored(
            "probabilities over an id subset after an arrival outside it",
            then(odd_p, &[to(4, INSIDE)]),
            odd_p,
            Patched(0),
            0,
        ),
        row(
            "probabilities after an arrival at a new anchor time",
            then(P, &[at_t3]),
            P,
            Patched(1),
        ),
        rescored(
            "probabilities after their field was swept again",
            then(P, &[at_t3, Run(P)]),
            P,
            Reused,
            0,
        ),
        Row {
            capacity: 1,
            ..row("probabilities over a recomputed field", then(P, &[Fill(1, FEW)]), P, Reused)
        },
        Row {
            capacity: 1,
            ..row(
                "an unchanged plan's probabilities over a recomputed field",
                then(qb_p, &[Fill(1, FEW)]),
                qb_p,
                Reused,
            )
        },
        Row {
            capacity: 1,
            ..rescored(
                "an unchanged plan's probabilities after the rows were re-seeded",
                then(qb_p, &[Fill(1, FEW), Run(qb_p)]),
                qb_p,
                Reused,
                0,
            )
        },
        row("an object-based probabilities repeat", warm(ob_p), ob_p, Reused),
        Row {
            capacity: 1,
            ..row("the field evicted at capacity 1", then(A, &[Fill(1, Ids::All)]), A, Fresh)
        },
        Row {
            capacity: 1,
            ..row(
                "the evicted field warmed again",
                then(A, &[Fill(1, Ids::All), Fill(0, Ids::All), Run(A)]),
                A,
                Reused,
            )
        },
        row("another window between", then(A, &[Fill(1, Ids::All), Run(b)]), A, Reused),
        row(
            "the field replaced by a suffix extension",
            then(at_t2, &[Fill(0, Ids::All)]),
            at_t2,
            Fresh,
        ),
        row(
            "the field kept by a fill it already covers",
            then(at_t2, &[Fill(0, t2)]),
            at_t2,
            Reused,
        ),
        Row {
            models: 2,
            ..row("a two-model repeat", then(mixed, &[Fill(0, model_0)]), mixed, Reused)
        },
        Row {
            models: 2,
            ..row(
                "a two-model store whose second field is replaced",
                then(mixed, &[Fill(0, model_1)]),
                mixed,
                Fresh,
            )
        },
        row("another threshold between", then(A, &[Run(Q { tau: Some(0.1), ..A })]), A, Reused),
        row("another id subset between", then(odd, &[Run(even)]), odd, Reused),
        row("Auto repeated", warm(AUTO), AUTO, Reused),
        row("Auto after an explicit strategy", then(AUTO, &[Run(A)]), AUTO, Reused),
        row("an explicit strategy after Auto", then(A, &[Run(AUTO)]), A, Reused),
        row("Auto after explaining it", [warm(A), vec![Explain(AUTO)]].concat(), AUTO, Reused),
        row("an explicit strategy after explaining it", then(A, &[Explain(A)]), A, Reused),
        Row {
            last: Last::SubmitAcross(A, to(3, INSIDE)),
            ..row("a submit on a snapshot taken before an arrival", warm(A), A, Fresh)
        },
    ]
}

/// What the measured query answered and counted.
struct Measured {
    answer: std::result::Result<QueryAnswer, QueryError>,
    stats: EvalStats,
}

fn processor(db: &TrajectoryDatabase, capacity: usize) -> QueryProcessor {
    let config =
        EngineConfig::default().with_prefilter(PrefilterMode::On).with_cache_capacity(capacity);
    QueryProcessor::with_config(db, config)
}

/// The row's last query on `processor`, after its prefix.
fn measure(processor: &QueryProcessor, last: Last) -> Measured {
    match last {
        Last::Run(q) => {
            let mut stats = EvalStats::new();
            let answer = processor.execute_with_stats(&q.spec(), &mut stats);
            Measured { answer, stats }
        }
        Last::SubmitAcross(q, ingest) => {
            let release = common::gate_workers(processor);
            let ticket = processor.submit(&q.spec()).unwrap();
            apply(processor, ingest);
            apply(processor, Op::Run(q));
            let before = processor.metrics();
            release();
            let answer = ticket.wait();
            let counters = |m: &MetricsSnapshot| {
                m.plan(Predicate::Exists, q.strategy).cloned().expect("the query ran")
            };
            let (after, before) = (counters(&processor.metrics()), counters(&before));
            let stats = EvalStats {
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
                plans_reused: after.plans_reused - before.plans_reused,
                plans_patched: after.plans_patched - before.plans_patched,
                objects_retested: after.objects_retested - before.objects_retested,
                transitions: after.transitions - before.transitions,
                backward_steps: after.backward_steps - before.backward_steps,
                entries_touched: after.entries_touched - before.entries_touched,
                candidates_examined: after.candidates_examined - before.candidates_examined,
                candidates_pruned: after.candidates_pruned - before.candidates_pruned,
                ..EvalStats::default()
            };
            Measured { answer, stats }
        }
    }
}

/// Displaces every plan the memo of `processor` holds: `capacity`
/// explains, each of a threshold of its own. Each must succeed unless the
/// row's store rejects its queries — with the row's error: such a store
/// has no plan to displace anything with, and none to be displaced either.
fn displace_memos(processor: &QueryProcessor, row: &Row) {
    for i in 0..row.capacity {
        let tau = Some(0.9 + i as f64 * 1e-4);
        if let Err(error) =
            processor.explain(&Q { tau, strategy: Strategy::ObjectBased, ..A }.spec())
        {
            assert_eq!(Some(error), row.rejects, "{}: a displacing explain", row.name);
        }
    }
}

/// The row's last query on a fresh processor warmed by the same prefix,
/// with every memo displaced: prepared afresh. A submission runs on the
/// pre-arrival store the prefix left, as the measured one did.
fn reference(db: &TrajectoryDatabase, row: &Row) -> Measured {
    let fresh = processor(db, row.capacity);
    for &op in &row.prefix {
        apply(&fresh, op);
    }
    let (Last::Run(q) | Last::SubmitAcross(q, _)) = row.last;
    displace_memos(&fresh, row);
    let mut stats = EvalStats::new();
    let answer = fresh.execute_with_stats(&q.spec(), &mut stats);
    let from_memo = (stats.plans_reused, stats.plans_patched, stats.objects_retested);
    assert_eq!(from_memo, (0, 0, 0), "{}: the displaced memo serves nothing", row.name);
    if let Last::SubmitAcross(..) = row.last {
        // A job's counters reach the caller only through the metrics.
        stats = EvalStats {
            rows_traversed: 0,
            objects_evaluated: 0,
            objects_pruned: 0,
            early_terminations: 0,
            fields_shared: 0,
            pruned_mass: 0.0,
            ..stats
        };
    }
    Measured { answer, stats }
}

/// Both answers to the row's measured query: equal to the bit, or — on a
/// row that expects one — both the row's error.
fn assert_same_answer(row: &Row, measured: &Measured, fresh: &Measured) {
    match &row.rejects {
        None => match (&measured.answer, &fresh.answer) {
            (Ok(measured), Ok(fresh)) => common::assert_bit_eq(measured, fresh, row.name),
            (measured, fresh) => panic!(
                "{}: the query must answer; it failed with {:?}, afresh with {:?}",
                row.name,
                measured.as_ref().err(),
                fresh.as_ref().err()
            ),
        },
        Some(error) => {
            assert_eq!(measured.answer.as_ref().err(), Some(error), "{}", row.name);
            assert_eq!(fresh.answer.as_ref().err(), Some(error), "{}: afresh", row.name);
        }
    }
}

#[test]
fn the_memo_serves_an_unchanged_repeat_and_patches_logged_writes() {
    let mut fired = 0;
    for row in table() {
        let db = store(row.models);
        let served = processor(&db, row.capacity);
        for &op in &row.prefix {
            apply(&served, op);
        }
        let measured = measure(&served, row.last);
        let stats = &measured.stats;
        let memo = match (stats.plans_reused, stats.plans_patched) {
            (0, 0) => Memo::Fresh,
            (1, 0) => Memo::Reused,
            (0, 1) => Memo::Patched(stats.objects_retested),
            counts => panic!("{}: one execution counted {counts:?}", row.name),
        };
        assert_eq!(memo, row.memo, "{}", row.name);
        let fresh = reference(&db, &row);
        assert_same_answer(&row, &measured, &fresh);
        let objects_evaluated = match row.dots {
            Dots::All => stats.objects_evaluated,
            Dots::Rescored(dots) => {
                assert_eq!(stats.objects_evaluated, dots, "{}: the objects dotted", row.name);
                fresh.stats.objects_evaluated
            }
        };
        let prepared_afresh = EvalStats {
            plans_reused: 0,
            plans_patched: 0,
            objects_retested: 0,
            objects_evaluated,
            ..measured.stats.clone()
        };
        assert_eq!(prepared_afresh, fresh.stats, "{}", row.name);
        fired += u64::from(fresh.stats.candidates_pruned > 0);
    }
    assert!(fired > 0, "the index pruned for no measured query");
}

/// A lifted anchor disarms the index, so the read prepares afresh over the
/// whole store and reports the first offender in index order — not the
/// first the write log names.
#[test]
fn a_disarming_arrival_reports_the_first_offender_in_index_order() {
    let processor = processor(&store(1), 64);
    for op in [Op::Fill(0, Ids::All), Op::Run(A), Op::Run(A)] {
        apply(&processor, op);
    }
    apply(&processor, Op::Ingest { id: 7, time: 4, state: 6 });
    apply(&processor, Op::Ingest { id: 3, time: 5, state: 6 });
    let error = processor.execute(&A.spec()).unwrap_err();
    assert_eq!(error, QueryError::WindowBeforeObservation { window_start: 3, observation: 5 });
}

/// The `stream_mixed` shape: standing whole-store probabilities reads over
/// several windows, taken in turn between latest-fix arrivals (some
/// repeating an object, some stale). Every read after a window's first
/// patches its plan, re-testing exactly the distinct objects written since
/// that window's last read, and answers as a fresh processor over the same
/// store does.
#[test]
fn stream_reads_retest_the_objects_written_since_their_last_read() {
    let processor = processor(&store(1), 64);
    let reads: Vec<Q> = (0..3).map(|window| Q { window, ..P }).collect();
    let mut since: Vec<Option<BTreeSet<u64>>> = vec![None; reads.len()];
    // Objects 0..9 report in turn, every 7th fix a stale one at `t = 1`
    // (ignored once the object was anchored at 2).
    let mut latest: Vec<u32> = (0..M).map(|id| id as u32 % 3).collect();
    for step in 0..48usize {
        let id = (step * 4 % 9) as u64;
        let time = if step % 7 == 6 { 1 } else { 2 };
        let fix = Observation::exact(time, N, (id as usize * 11 + step) % N).unwrap();
        let outcome = processor.ingest(id, fix).unwrap();
        let stale = time < latest[id as usize];
        assert_eq!(outcome == IngestOutcome::IgnoredStale, stale);
        if !stale {
            latest[id as usize] = time;
            for written in since.iter_mut().flatten() {
                written.insert(id);
            }
        }
        if step % 4 != 3 {
            continue;
        }
        let which = (step / 4) % reads.len();
        let mut stats = EvalStats::new();
        let answer = processor.execute_with_stats(&reads[which].spec(), &mut stats).unwrap();
        match since[which].replace(BTreeSet::new()) {
            None => assert_eq!((stats.plans_reused, stats.plans_patched), (0, 0)),
            Some(written) => {
                assert_eq!(stats.plans_patched, 1, "read {step}");
                assert_eq!(stats.objects_retested, written.len() as u64, "read {step}");
            }
        }
        let fresh = QueryProcessor::with_config(&processor.snapshot(), *processor.config());
        let expected = fresh.execute(&reads[which].spec()).unwrap();
        common::assert_bit_eq(&answer, &expected, "a patched stream read");
    }
}

/// `explain` returns the memoised plan on a hit, identical to the one it
/// prepared on the miss before and to a fresh processor's — its record and
/// its text — and the `Auto` execution after it reuses that plan.
#[test]
fn explain_is_identical_on_a_hit_and_a_miss() {
    let db = store(1);
    let plans: Vec<QueryPlan> = (0..2)
        .flat_map(|_| {
            let processor = processor(&db, 64);
            apply(&processor, Op::Fill(0, Ids::All));
            let plans = [
                processor.explain(&AUTO.spec()).unwrap(),
                processor.explain(&AUTO.spec()).unwrap(),
            ];
            let mut stats = EvalStats::new();
            processor.execute_with_stats(&AUTO.spec(), &mut stats).unwrap();
            assert_eq!(stats.plans_reused, 1, "the Auto run reuses what explain prepared");
            plans
        })
        .collect();
    assert!(plans[0].superlevel_pruned > 0, "the plan was narrowed by the superlevel set");
    for plan in &plans[1..] {
        assert_eq!(plan, &plans[0]);
        assert_eq!(plan.to_string(), plans[0].to_string());
        assert_eq!(format!("{plan:?}"), format!("{:?}", plans[0]));
    }
}
