//! Support shared by the integration tests: random instances, the
//! reference configuration, the `execute`-to-probabilities shorthand and
//! the oracle on engine types. Each test binary uses a subset.
#![allow(dead_code, reason = "each test binary uses a subset of these helpers")]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust::prelude::*;
use ust_markov::{SparseVector, StateMask};
use ust_oracle::{testutil, ExhaustiveResult};
use ust_space::TimeSet;

/// The paper's window `{s1, s2} × [2, 3]`.
pub fn paper_window() -> QueryWindow {
    QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap()
}

/// The reference configuration every answer is checked against: one
/// thread, one object per batch, one cache entry, no prefilter (the
/// benchmark's `reference_config`).
pub fn reference_config() -> EngineConfig {
    EngineConfig::default()
        .with_num_threads(1)
        .with_batch_size(1)
        .with_cache_capacity(1)
        .with_prefilter(PrefilterMode::Off)
}

/// `builder` (window and strategy attached) executed over `db` by a fresh
/// processor in the [`reference_config`].
pub fn reference(db: &TrajectoryDatabase, builder: QueryBuilder) -> Result<QueryAnswer> {
    QueryProcessor::with_config(db, reference_config()).execute(&builder.build()?)
}

/// `builder` executed over `object` alone — as model 0, on `chain` — in
/// the [`reference_config`].
pub fn solo(
    chain: &MarkovChain,
    object: &UncertainObject,
    builder: QueryBuilder,
) -> Result<QueryAnswer> {
    let mut db = TrajectoryDatabase::new(chain.clone());
    db.insert(object.clone().with_model(0))?;
    reference(&db, builder)
}

/// [`solo`]'s one probability (an ∃ or ∀ query).
pub fn solo_probability(
    chain: &MarkovChain,
    object: &UncertainObject,
    builder: QueryBuilder,
) -> Result<f64> {
    Ok(solo(chain, object, builder)?.probabilities().expect("probabilities")[0].probability)
}

/// [`solo`]'s one visit-count distribution (a k-times query).
pub fn solo_distribution(
    chain: &MarkovChain,
    object: &UncertainObject,
    builder: QueryBuilder,
) -> Result<Vec<f64>> {
    let answer = solo(chain, object, builder)?;
    Ok(answer.distributions().expect("distributions")[0].probabilities.clone())
}

/// Possible-worlds enumeration of `object` (every observation) against
/// `window`.
pub fn oracle(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    budget: u64,
) -> ust_oracle::Result<ExhaustiveResult> {
    let observations: Vec<(u32, &SparseVector)> =
        object.observations().iter().map(|o| (o.time(), o.distribution())).collect();
    ust_oracle::enumerate(chain, &observations, window.states(), window.times(), budget)
}

/// The oracle's blown-up-matrix k-times distribution of `object`'s anchor.
pub fn blowup(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
) -> ust_oracle::Result<Vec<f64>> {
    let anchor = (object.anchor().time(), object.anchor().distribution());
    ust_oracle::augmented::ktimes_distribution_blowup(
        chain,
        anchor,
        window.states(),
        window.times(),
    )
}

/// A random query window over `n` states: each state joins `S▫` with
/// probability 0.4; `T▫ = [t_start, t_start + t_len]`. `None` unless `S▫`
/// is a proper non-empty subset (PST∀Q reduces via the complement).
pub fn random_window(n: usize, mask_seed: u64, t_start: u32, t_len: u32) -> Option<QueryWindow> {
    let mut rng = StdRng::seed_from_u64(mask_seed);
    let mut mask = StateMask::new(n);
    for s in 0..n {
        if rng.random::<f64>() < 0.4 {
            mask.insert(s).unwrap();
        }
    }
    if mask.is_empty() || mask.count() == n {
        return None;
    }
    QueryWindow::new(mask, TimeSet::interval(t_start, t_start + t_len)).ok()
}

/// A database of `objects` uncertain objects over one random chain with
/// `deg` successors per state; anchor times alternate between 0 and
/// `max_anchor` to exercise the per-anchor snapshots of the backward field.
pub fn random_db(
    seed: u64,
    n: usize,
    deg: usize,
    objects: usize,
    max_anchor: u32,
) -> TrajectoryDatabase {
    let chain = MarkovChain::from_csr({
        let mut rng = testutil::rng(seed);
        testutil::random_stochastic(&mut rng, n, deg)
    })
    .unwrap();
    let mut rng = testutil::rng(seed ^ 0xDA7A);
    let mut db = TrajectoryDatabase::new(chain);
    for i in 0..objects {
        let dist = testutil::random_distribution(&mut rng, n, 2);
        let anchor_time = if i % 2 == 0 { 0 } else { max_anchor };
        db.insert(UncertainObject::with_single_observation(
            i as u64,
            Observation::uncertain(anchor_time, dist).unwrap(),
        ))
        .unwrap();
    }
    db
}

/// Parks every worker of `processor`'s `submit` pool in a job that waits on
/// a channel until the returned closure drops its sender, so jobs
/// submitted in between stay deterministically queued.
pub fn gate_workers(processor: &QueryProcessor) -> impl FnOnce() + 'static {
    let pool = processor.pool();
    let senders: Vec<std::sync::mpsc::Sender<()>> = (0..pool.num_threads())
        .map(|shard| {
            let (open, gate) = std::sync::mpsc::channel();
            pool.spawn(shard, Box::new(move || while gate.recv().is_ok() {}));
            open
        })
        .collect();
    // Every gate job has been popped once the queues are empty: each
    // worker is parked inside its gate.
    while pool.stats().queued_jobs > 0 {
        std::thread::yield_now();
    }
    move || drop(senders)
}

/// Executes `builder` (window and strategy already attached) and returns
/// its per-object probabilities.
pub fn probs(processor: &QueryProcessor, builder: QueryBuilder) -> Vec<ObjectProbability> {
    let answer = processor.execute(&builder.build().unwrap()).unwrap();
    answer.probabilities().expect("a probabilities answer").to_vec()
}

/// As [`probs`] for a PSTkQ: the per-object visit-count distributions.
pub fn dists(processor: &QueryProcessor, builder: QueryBuilder) -> Vec<ObjectKDistribution> {
    let answer = processor.execute(&builder.build().unwrap()).unwrap();
    answer.distributions().expect("a distributions answer").to_vec()
}

/// The first bit-level difference between two answers (f64s compared via
/// `to_bits`), or `Ok(())`. Property tests report it through
/// `prop_assert_eq!(bit_diff(..), Ok(()))`; plain tests use
/// [`assert_bit_eq`].
pub fn bit_diff(a: &QueryAnswer, b: &QueryAnswer) -> std::result::Result<(), String> {
    fn same<T: PartialEq + std::fmt::Debug>(
        what: &str,
        i: usize,
        x: T,
        y: T,
    ) -> std::result::Result<(), String> {
        if x == y {
            Ok(())
        } else {
            Err(format!("{what} differs at entry {i}: {x:?} vs {y:?}"))
        }
    }
    match (a, b) {
        (QueryAnswer::Probabilities(x), QueryAnswer::Probabilities(y)) => {
            same("length", 0, x.len(), y.len())?;
            for (i, (p, q)) in x.iter().zip(y).enumerate() {
                same("object order", i, p.object_id, q.object_id)?;
                same("bits", i, p.probability.to_bits(), q.probability.to_bits())?;
            }
        }
        (QueryAnswer::Distributions(x), QueryAnswer::Distributions(y)) => {
            same("length", 0, x.len(), y.len())?;
            for (i, (p, q)) in x.iter().zip(y).enumerate() {
                same("object order", i, p.object_id, q.object_id)?;
                let bits = |d: &ObjectKDistribution| -> Vec<u64> {
                    d.probabilities.iter().map(|v| v.to_bits()).collect()
                };
                same("distribution bits", i, bits(p), bits(q))?;
            }
        }
        (QueryAnswer::ObjectIds(x), QueryAnswer::ObjectIds(y)) => {
            same("accepted ids", 0, x, y)?;
        }
        (QueryAnswer::Ranked(x), QueryAnswer::Ranked(y)) => {
            same("length", 0, x.len(), y.len())?;
            for (i, (p, q)) in x.iter().zip(y).enumerate() {
                same("ranking", i, p.object_id, q.object_id)?;
                same("bits", i, p.probability.to_bits(), q.probability.to_bits())?;
            }
        }
        _ => return Err(format!("answers have different variants: {a:?} vs {b:?}")),
    }
    Ok(())
}

/// Panics with `what` unless the answers are equal to the bit.
pub fn assert_bit_eq(a: &QueryAnswer, b: &QueryAnswer, what: &str) {
    if let Err(diff) = bit_diff(a, b) {
        panic!("{what}: {diff}");
    }
}
