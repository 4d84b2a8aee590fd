//! The correctness gate. It runs in a round of its own, after the
//! measured ones, so nothing here is ever inside a timed phase; the
//! per-op answer digests tie that round to the measured rounds.
//!
//! (a) every op's answer is bit-identical across all rounds;
//! (b) every 25th op is re-answered by a reference processor — batch 1,
//!     cache capacity 1, prefilter off, the *other* exact strategy — and
//!     must agree within 1e-9, with every probability in [0, 1] and every
//!     k-distribution summing to 1;
//! (c) after a feed, each subscription's `answer()` equals a fresh
//!     `execute` on a database replayed from the same events, bit for bit;
//! (d) the `metrics()` ledger identities hold.

use std::collections::BTreeMap;

use ust_core::{
    Decorator, EngineConfig, MetricsSnapshot, Predicate, PrefilterMode, Query, QueryAnswer,
    QueryProcessor, QuerySpec, Strategy, TrajectoryDatabase,
};

use crate::trace::Tracer;
use crate::workloads::{
    answer_digest, build_database, run_round, Action, Live, Observer, Op, Round, Workload,
};

/// Every how many ops a reference answer is computed.
pub const REFERENCE_EVERY: usize = 25;
/// Allowed distance between the two exact strategies.
const TOLERANCE: f64 = 1e-9;
/// Objects of a checked answer the reference re-evaluates: this many with
/// non-trivial values plus this many on a fixed stride.
const SAMPLE: usize = 64;

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops (by index) that failed a check in any round.
    pub failed_ops: Vec<usize>,
    /// Failures that belong to no single op (ledger, subscriptions, …).
    pub failed_checks: Vec<String>,
    /// Reference answers computed.
    pub references: usize,
}

impl Verdict {
    /// True when nothing failed.
    pub fn ok(&self) -> bool {
        self.failed_ops.is_empty() && self.failed_checks.is_empty()
    }

    fn fail_op(&mut self, op: usize, why: String) {
        eprintln!("check failed: op {op}: {why}");
        if !self.failed_ops.contains(&op) {
            self.failed_ops.push(op);
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.failed_checks.push(why);
    }
}

fn reference_config() -> EngineConfig {
    EngineConfig::default()
        .with_num_threads(1)
        .with_batch_size(1)
        .with_cache_capacity(1)
        .with_prefilter(PrefilterMode::Off)
}

/// The probability an answer assigns to each object of interest, as a
/// per-object vector (one entry, or the visit-count distribution).
fn values_of(answer: &QueryAnswer, id: u64) -> Option<Vec<f64>> {
    match answer {
        QueryAnswer::Probabilities(ps) => {
            ps.binary_search_by_key(&id, |p| p.object_id).ok().map(|i| vec![ps[i].probability])
        }
        QueryAnswer::Distributions(ds) => {
            ds.binary_search_by_key(&id, |d| d.object_id).ok().map(|i| ds[i].probabilities.clone())
        }
        QueryAnswer::Ranked(rs) => {
            rs.iter().find(|r| r.object_id == id).map(|r| vec![r.probability])
        }
        QueryAnswer::ObjectIds(_) => None,
    }
}

/// Range checks on a whole answer: probabilities in [0, 1], distributions
/// summing to 1, rankings sorted.
fn well_formed(answer: &QueryAnswer) -> Result<(), String> {
    // To rounding: k-distribution entries overshoot 1 by an ulp or two
    // today (README, "Findings"), and the two strategies only agree to
    // rounding anyway.
    let unit = |p: f64| (-TOLERANCE..=1.0 + TOLERANCE).contains(&p);
    match answer {
        QueryAnswer::Probabilities(ps) => match ps.iter().find(|p| !unit(p.probability)) {
            Some(p) => Err(format!("object {} has probability {}", p.object_id, p.probability)),
            None => Ok(()),
        },
        QueryAnswer::Distributions(ds) => {
            for d in ds {
                let sum: f64 = d.probabilities.iter().sum();
                if (sum - 1.0).abs() > TOLERANCE || !d.probabilities.iter().all(|&p| unit(p)) {
                    return Err(format!(
                        "object {} has k-distribution {:?} summing to {sum}",
                        d.object_id, d.probabilities
                    ));
                }
            }
            Ok(())
        }
        QueryAnswer::Ranked(rs) => {
            let sorted = rs.windows(2).all(|w| w[0].probability >= w[1].probability);
            if sorted && rs.iter().all(|r| unit(r.probability)) {
                Ok(())
            } else {
                Err("ranking is unsorted or outside [0, 1]".into())
            }
        }
        QueryAnswer::ObjectIds(_) => Ok(()),
    }
}

/// The objects of `answer` the reference re-evaluates: up to [`SAMPLE`]
/// that the answer says something about, plus a fixed stride over the ids.
fn sample_ids(answer: &QueryAnswer, objects: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = match answer {
        QueryAnswer::Probabilities(ps) => {
            ps.iter().filter(|p| p.probability > 0.0).take(SAMPLE).map(|p| p.object_id).collect()
        }
        QueryAnswer::Distributions(ds) => ds
            .iter()
            .filter(|d| d.prob_at_least_once() > 0.0)
            .take(SAMPLE)
            .map(|d| d.object_id)
            .collect(),
        QueryAnswer::ObjectIds(accepted) => accepted.iter().take(SAMPLE).copied().collect(),
        QueryAnswer::Ranked(rs) => rs.iter().map(|r| r.object_id).collect(),
    };
    ids.extend((0..SAMPLE.min(objects)).map(|j| (j * objects / SAMPLE.min(objects)) as u64));
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Re-answers `spec` on `reference` with the strategy that did *not* run
/// and compares. `ran` is the strategy the measured processor resolved.
fn verify(
    spec: &QuerySpec,
    ran: Strategy,
    answer: &QueryAnswer,
    reference: &QueryProcessor,
    objects: usize,
) -> Result<(), String> {
    well_formed(answer)?;
    let other = match ran {
        Strategy::ObjectBased => Strategy::QueryBased,
        _ => Strategy::ObjectBased,
    };
    let ids = sample_ids(answer, objects);
    let query = match spec.predicate() {
        Predicate::Exists => Query::exists(),
        Predicate::ForAll => Query::forall(),
        Predicate::KTimes(k) => Query::ktimes(k),
    };
    let reference_spec = query
        .window(spec.window().clone())
        .strategy(other)
        .objects(ids.iter().copied())
        .build()
        .map_err(|e| format!("reference spec: {e:?}"))?;
    let expected =
        reference.execute(&reference_spec).map_err(|e| format!("reference failed: {e:?}"))?;
    well_formed(&expected)?;
    // The value the decorators filter and rank by.
    let score = |id: u64| -> Result<f64, String> {
        let v = values_of(&expected, id).ok_or(format!("reference lacks object {id}"))?;
        Ok(match spec.predicate() {
            Predicate::KTimes(k) => v.iter().skip(k).sum(),
            _ => v[0],
        })
    };
    match (answer, spec.decorator()) {
        (QueryAnswer::ObjectIds(accepted), Decorator::Threshold(tau)) => {
            for &id in &ids {
                let (p, inside) = (score(id)?, accepted.binary_search(&id).is_ok());
                if (p >= tau + TOLERANCE && !inside) || (p < tau - TOLERANCE && inside) {
                    return Err(format!("object {id}: P = {p}, τ = {tau}, accepted = {inside}"));
                }
            }
        }
        (QueryAnswer::Ranked(rs), _) => {
            let cut = rs.last().map_or(0.0, |r| r.probability);
            for &id in &ids {
                let p = score(id)?;
                match values_of(answer, id) {
                    Some(v) if (v[0] - p).abs() > TOLERANCE => {
                        return Err(format!("object {id}: ranked at {}, reference {p}", v[0]));
                    }
                    None if p > cut + TOLERANCE => {
                        return Err(format!("object {id}: P = {p} beats the cut {cut}, unranked"));
                    }
                    _ => {}
                }
            }
        }
        _ => {
            for &id in &ids {
                let got = values_of(answer, id).ok_or(format!("answer lacks object {id}"))?;
                let want = values_of(&expected, id).ok_or(format!("reference lacks {id}"))?;
                let close = got.len() == want.len()
                    && got.iter().zip(&want).all(|(a, b)| (a - b).abs() <= TOLERANCE);
                if !close {
                    return Err(format!("object {id}: {got:?} vs reference {want:?}"));
                }
            }
        }
    }
    Ok(())
}

/// The observer of the check round.
struct Checker<'w> {
    w: &'w Workload,
    /// The database the measured processor should be equivalent to: the
    /// initial objects plus every arrival so far, applied with the bare
    /// `TrajectoryDatabase::ingest`.
    replay: TrajectoryDatabase,
    /// Reference processor over `replay`; rebuilt after each arrival.
    reference: Option<QueryProcessor>,
    /// Resolved strategy of the op about to run, when it is a checked one.
    ran: Option<Strategy>,
    /// Answer digests already verified, per spec (hot specs repeat).
    verified: BTreeMap<usize, u64>,
    verdict: Verdict,
}

impl Checker<'_> {
    fn checked(&self, i: usize, op: Op) -> bool {
        i % REFERENCE_EVERY == REFERENCE_EVERY - 1 && matches!(op.action, Action::Query(_))
    }

    fn replay_event(&mut self, e: usize) {
        // Dropping the reference first keeps `replay` the only handle, so
        // the ingest below mutates in place instead of copying the store.
        self.reference = None;
        let event = &self.w.events[e];
        if let Err(err) = self.replay.ingest(event.object_id, event.observation.clone()) {
            self.verdict.fail(format!("replay of event {e}: {err:?}"));
        }
    }
}

impl Observer for Checker<'_> {
    fn before_op(&mut self, i: usize, op: Op, processor: &QueryProcessor) {
        let Action::Query(s) = op.action else { return };
        if !self.checked(i, op) {
            return;
        }
        let spec = &self.w.specs[s];
        self.ran = Some(match spec.strategy() {
            Strategy::Auto => match processor.explain(spec) {
                Ok(plan) => plan.strategy,
                Err(e) => {
                    self.verdict.fail_op(i, format!("explain: {e:?}"));
                    return;
                }
            },
            explicit => explicit,
        });
    }

    fn after_op(&mut self, i: usize, op: Op, answer: Option<&ust_core::Result<QueryAnswer>>) {
        match (op.action, answer) {
            (Action::Ingest(e), _) => self.replay_event(e),
            (Action::Query(s), Some(result)) if self.checked(i, op) => {
                let (Some(ran), Ok(answer)) = (self.ran.take(), result) else { return };
                let digest = answer_digest(result);
                let replays = !self.w.events.is_empty();
                if !replays && self.verified.get(&s) == Some(&digest) {
                    return;
                }
                let reference = self.reference.get_or_insert_with(|| {
                    QueryProcessor::with_config(&self.replay, reference_config())
                });
                self.verdict.references += 1;
                match verify(&self.w.specs[s], ran, answer, reference, self.w.objects.len()) {
                    Ok(()) => {
                        self.verified.insert(s, digest);
                    }
                    Err(why) => self.verdict.fail_op(i, why),
                }
            }
            _ => {}
        }
    }
}

/// (d): `submitted == accepted + rejected`, `accepted == finished + in_flight`.
fn ledger_holds(ledger: &MetricsSnapshot) -> Result<(), String> {
    if ledger.submitted != ledger.accepted + ledger.rejected {
        return Err(format!(
            "ledger: submitted {} != accepted {} + rejected {}",
            ledger.submitted, ledger.accepted, ledger.rejected
        ));
    }
    if ledger.accepted != ledger.finished() + ledger.in_flight {
        return Err(format!(
            "ledger: accepted {} != finished {} + in flight {}",
            ledger.accepted,
            ledger.finished(),
            ledger.in_flight
        ));
    }
    Ok(())
}

/// (c): every subscription equals a from-scratch `execute` on the replay.
fn subscriptions_hold(w: &Workload, live: &Live, replay: &TrajectoryDatabase) -> Vec<String> {
    let fresh = QueryProcessor::with_config(replay, w.config);
    w.watches
        .iter()
        .zip(&live.subscriptions)
        .enumerate()
        .filter(|(_, (spec, sub))| sub.answer() != fresh.execute(spec))
        .map(|(j, _)| format!("subscription {j} differs from a fresh execute on the replay"))
        .collect()
}

/// Runs the check round and folds in what the measured rounds recorded.
pub fn gate(w: &Workload, measured: &[Round]) -> Verdict {
    let mut checker = Checker {
        w,
        replay: build_database((w.chain.clone(), w.objects.clone()), w.space),
        reference: None,
        ran: None,
        verified: BTreeMap::new(),
        verdict: Verdict::default(),
    };
    for op in &w.warmup {
        if let Action::Ingest(e) = op.action {
            checker.replay_event(e);
        }
    }
    let (round, live) = run_round(w, &mut Tracer::new(false), &mut checker);
    let Checker { replay, mut verdict, reference, .. } = checker;
    drop(reference);
    for why in subscriptions_hold(w, &live, &replay) {
        verdict.fail(why);
    }
    drop(live);
    for r in measured.iter().chain([&round]) {
        for &i in &r.failed_ops {
            verdict.fail_op(i, "returned Err or the wrong ingest outcome".into());
        }
        if let Err(why) = ledger_holds(&r.ledger) {
            verdict.fail(why);
        }
        // (a) against the round the references were computed in.
        for (i, (a, b)) in r.answers.iter().zip(&round.answers).enumerate() {
            if a != b {
                verdict.fail_op(i, "answer differs between rounds".into());
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, Unobserved, NAMES};
    use ust_core::{ObjectKDistribution, ObjectProbability, RankedObject};

    #[test]
    fn gate_passes_every_workload_at_smoke_scale() {
        for name in NAMES {
            let w = Workload::generate(name, 3, Scale::Smoke).unwrap();
            let measured = vec![run_round(&w, &mut Tracer::new(false), &mut Unobserved).0];
            let verdict = gate(&w, &measured);
            assert!(verdict.ok(), "{name}: {verdict:?}");
            assert!(verdict.references >= 1, "{name}: no reference answer was computed");
        }
    }

    #[test]
    fn gate_catches_a_round_that_answered_differently() {
        let w = Workload::generate("forward_scan", 3, Scale::Smoke).unwrap();
        let (mut tampered, _) = run_round(&w, &mut Tracer::new(false), &mut Unobserved);
        tampered.answers[7] ^= 1;
        tampered.failed_ops.push(9);
        let verdict = gate(&w, &[tampered]);
        let mut failed = verdict.failed_ops.clone();
        failed.sort_unstable();
        assert_eq!(failed, vec![7, 9]);
    }

    #[test]
    fn malformed_answers_are_rejected() {
        let p = |probability| ObjectProbability { object_id: 1, probability };
        assert!(well_formed(&QueryAnswer::Probabilities(vec![p(0.5)])).is_ok());
        assert!(well_formed(&QueryAnswer::Probabilities(vec![p(1.5)])).is_err());
        assert!(well_formed(&QueryAnswer::Probabilities(vec![p(f64::NAN)])).is_err());
        let d = |probabilities| ObjectKDistribution { object_id: 1, probabilities };
        assert!(well_formed(&QueryAnswer::Distributions(vec![d(vec![0.25, 0.75])])).is_ok());
        assert!(well_formed(&QueryAnswer::Distributions(vec![d(vec![0.25, 0.5])])).is_err());
        let r = |probability| RankedObject { object_id: 1, probability };
        assert!(well_formed(&QueryAnswer::Ranked(vec![r(0.2), r(0.7)])).is_err());
    }

    #[test]
    fn ledger_identities_are_enforced() {
        let mut ledger = MetricsSnapshot::default();
        assert!(ledger_holds(&ledger).is_ok());
        ledger.submitted = 3;
        ledger.accepted = 2;
        assert!(ledger_holds(&ledger).is_err());
        ledger.rejected = 1;
        ledger.completed = 1;
        ledger.in_flight = 1;
        assert!(ledger_holds(&ledger).is_ok());
    }
}
