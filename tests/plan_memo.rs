//! The plan memo: a warm ∃ threshold repeated on an unchanged snapshot
//! reuses the plan `prepare` made for it, and anything `prepare` reads
//! that changed makes it prepare afresh.
//!
//! One table, one case per row: a processor runs the row's op prefix and
//! then its last query, which must reuse a plan (`EvalStats::plans_reused`)
//! exactly when the row says so. A fresh processor warmed by the same
//! prefix then answers the same query with its memo displaced (an
//! `explain` under another strategy takes the entry's one slot), so it
//! prepares afresh: the answer must be the same to the bit and every other
//! counter equal. Debug builds also re-derive every reused plan inside
//! `prepare`; release builds (`cargo test --release --test plan_memo`)
//! compile that out, and these comparisons carry the check.

mod common;

use std::sync::Arc;

use ust::prelude::*;
use ust_core::QuerySpec;
use ust_markov::testutil;
use ust_space::TimeSet;

/// Line states of the store.
const N: usize = 40;
/// Objects in the store: object `i` follows model `i mod models` and is
/// anchored at `t = i mod 3`.
const M: u64 = 90;
/// The threshold of the table's queries.
const TAU: f64 = 0.05;

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

/// The two windows of the table, built afresh on every use, so a hit is
/// keyed by the window's value, not by its handle.
fn window(which: usize) -> QueryWindow {
    let lo = [4, 24][which];
    QueryWindow::from_states(N, lo..lo + 4, TimeSet::interval(3, 5)).unwrap()
}

/// Which objects a query asks for, by id.
#[derive(Clone, Copy, Debug)]
enum Ids {
    All,
    Where(fn(u64) -> bool),
}

fn all_but_model_1_before_t2(id: u64) -> bool {
    id.is_multiple_of(2) || id % 3 == 2
}

/// An ∃ threshold over a window.
#[derive(Clone, Copy, Debug)]
struct Q {
    window: usize,
    tau: f64,
    strategy: Strategy,
    ids: Ids,
}

impl Q {
    const fn qb(window: usize, ids: Ids) -> Q {
        Q { window, tau: TAU, strategy: Strategy::QueryBased, ids }
    }

    fn spec(self) -> QuerySpec {
        let query = Query::exists().window(window(self.window)).threshold(self.tau);
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

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Execute the query.
    Run(Q),
    /// `explain` it.
    Explain(Q),
    /// Query-based ∃ probabilities over a window and some ids: sweeps (or
    /// extends) the field of every model those ids follow, at every anchor
    /// time of its cone's survivors, and reads no plan memo.
    Fill(usize, Ids),
    /// A fix for an object, ignored as stale when it predates the anchor.
    Ingest { id: u64, time: u32, state: usize },
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

struct Row {
    name: &'static str,
    models: usize,
    capacity: usize,
    prefix: Vec<Op>,
    last: Last,
    reused: bool,
}

fn row(name: &'static str, prefix: Vec<Op>, last: Q, reused: bool) -> Row {
    Row { name, models: 1, capacity: 64, prefix, last: Last::Run(last), reused }
}

fn table() -> Vec<Row> {
    use Op::{Explain, Fill, Ingest, Insert, Run};
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
    let applied = Ingest { id: 3, time: 2, state: 6 };
    let stale = Ingest { id: 5, time: 1, state: 6 };
    vec![
        row("a repeat on a warm field", warm(A), A, true),
        row("the first warm run", vec![Fill(0, Ids::All)], A, false),
        row("a cold run", vec![], A, false),
        row("an applied ingest", then(A, &[applied]), A, false),
        row("a stale ingest", then(A, &[stale]), A, true),
        row("an insert", then(A, &[Insert { id: 1000, state: 6 }]), A, false),
        Row {
            capacity: 1,
            ..row("the entry evicted at capacity 1", then(A, &[Fill(1, Ids::All)]), A, false)
        },
        Row {
            capacity: 1,
            ..row(
                "the evicted entry warmed again",
                then(A, &[Fill(1, Ids::All), Fill(0, Ids::All), Run(A)]),
                A,
                true,
            )
        },
        row("another window between", then(A, &[Fill(1, Ids::All), Run(b)]), A, true),
        row(
            "the field replaced by a suffix extension",
            then(at_t2, &[Fill(0, Ids::All)]),
            at_t2,
            false,
        ),
        row("the field kept by a fill it already covers", then(at_t2, &[Fill(0, t2)]), at_t2, true),
        Row {
            models: 2,
            ..row("a two-model repeat", then(mixed, &[Fill(0, model_0)]), mixed, true)
        },
        Row {
            models: 2,
            ..row(
                "a two-model store whose second field is replaced",
                then(mixed, &[Fill(0, model_1)]),
                mixed,
                false,
            )
        },
        row("another threshold over one window", then(A, &[Run(Q { tau: 0.1, ..A })]), A, false),
        row("two id subsets over one window", then(odd, &[Run(even)]), odd, false),
        row("an id subset repeated", then(odd, &[Run(even), Run(odd)]), odd, true),
        row("Auto repeated", warm(AUTO), AUTO, true),
        row("Auto after an explicit strategy", then(AUTO, &[Run(A)]), AUTO, false),
        row("an explicit strategy after Auto", then(A, &[Run(AUTO)]), A, false),
        row("Auto after explaining it", [warm(A), vec![Explain(AUTO)]].concat(), AUTO, true),
        row("an explicit strategy after explaining it", then(A, &[Explain(A)]), A, false),
        Row {
            last: Last::SubmitAcross(A, applied),
            ..row("a submit on a snapshot taken before an ingest", warm(A), A, false)
        },
    ]
}

/// What the measured query answered and counted.
struct Measured {
    answer: QueryAnswer,
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
            let answer = processor.execute_with_stats(&q.spec(), &mut stats).unwrap();
            Measured { answer, stats }
        }
        Last::SubmitAcross(q, ingest) => {
            let release = common::gate_workers(processor);
            let ticket = processor.submit(&q.spec()).unwrap();
            apply(processor, ingest);
            apply(processor, Op::Run(q));
            let before = processor.metrics();
            release();
            let answer = ticket.wait().unwrap();
            let counters = |m: &MetricsSnapshot| {
                m.plan(Predicate::Exists, q.strategy).cloned().expect("the query ran")
            };
            let (after, before) = (counters(&processor.metrics()), counters(&before));
            let stats = EvalStats {
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
                plans_reused: after.plans_reused - before.plans_reused,
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

/// The row's last query on a fresh processor warmed by the same prefix,
/// with the memo displaced: prepared afresh. A submission runs on the
/// pre-ingest store the prefix left, as the measured one did.
fn reference(db: &TrajectoryDatabase, row: &Row) -> Measured {
    let fresh = processor(db, row.capacity);
    for &op in &row.prefix {
        apply(&fresh, op);
    }
    let (Last::Run(q) | Last::SubmitAcross(q, _)) = row.last;
    fresh.explain(&Q { strategy: Strategy::ObjectBased, ..q }.spec()).unwrap();
    let mut stats = EvalStats::new();
    let answer = fresh.execute_with_stats(&q.spec(), &mut stats).unwrap();
    assert_eq!(stats.plans_reused, 0, "{}: the displaced memo serves nothing", row.name);
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

#[test]
fn the_memo_serves_exactly_an_unchanged_repeat() {
    let mut fired = 0;
    for row in table() {
        let db = store(row.models);
        let served = processor(&db, row.capacity);
        for &op in &row.prefix {
            apply(&served, op);
        }
        let measured = measure(&served, row.last);
        assert_eq!(measured.stats.plans_reused, u64::from(row.reused), "{}", row.name);
        let fresh = reference(&db, &row);
        common::assert_bit_eq(&measured.answer, &fresh.answer, row.name);
        let prepared_afresh = EvalStats { plans_reused: 0, ..measured.stats.clone() };
        assert_eq!(prepared_afresh, fresh.stats, "{}", row.name);
        fired += u64::from(fresh.stats.candidates_pruned > 0);
    }
    assert!(fired > 0, "the index pruned for no measured query");
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
