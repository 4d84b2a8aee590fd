//! The four workloads and the round that runs them.
//!
//! Each workload puts one group of layers to work and leaves the others
//! idle (README, "Workloads"). All run one client in a closed loop on a
//! single-thread engine: two busy threads did not repeat under any
//! estimator on a two-vCPU shared box, so nothing gated ever has more than
//! one runnable thread.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ust_core::{
    EngineConfig, EvalStats, IngestOutcome, MetricsSnapshot, Query, QueryAnswer, QueryBuilder,
    QueryProcessor, QuerySpec, QueryWindow, Strategy, Subscription, TrajectoryDatabase,
    UncertainObject,
};
use ust_markov::MarkovChain;
use ust_space::LineSpace;

use crate::clock::process_cpu_ns;
use crate::inputs::{self, Digest, Event, Rng};
use crate::trace::Tracer;

/// What an op of the timed sequence is; each kind is one latency mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// PST∃Q, probabilities of every object.
    Exists,
    /// PST∃Q with a threshold decorator.
    Threshold,
    /// PST∃Q top-10.
    TopK,
    /// PST∀Q probabilities.
    ForAll,
    /// PSTkQ visit-count distributions.
    KTimes,
    /// Hot lookup of a small window outside the city.
    Selective,
    /// Hot lookup of a window over 1 % of the city.
    Wide,
    /// Feed arrival that replaces the stored fix.
    Applied,
    /// Out-of-order feed arrival the database ignores.
    Stale,
    /// Query issued right after a write.
    Read,
}

impl Kind {
    /// The span recorded around an op of this kind.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Exists => "op.exists",
            Kind::Threshold => "op.threshold",
            Kind::TopK => "op.topk",
            Kind::ForAll => "op.forall",
            Kind::KTimes => "op.ktimes",
            Kind::Selective => "op.selective",
            Kind::Wide => "op.wide",
            Kind::Applied => "op.ingest_applied",
            Kind::Stale => "op.ingest_stale",
            Kind::Read => "op.read_after_write",
        }
    }
}

/// What the harness calls for an op.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// `QueryProcessor::execute_with_stats(&specs[i])`.
    Query(usize),
    /// `QueryProcessor::ingest` of `events[i]`.
    Ingest(usize),
}

/// One op of a warm-up or timed sequence.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Its latency mode.
    pub kind: Kind,
    /// The call.
    pub action: Action,
}

/// Full size (the gated numbers) or a tiny one that only proves the
/// harness runs (`--smoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes BENCHMARK.json is measured at.
    Full,
    /// Seconds for everything; numbers mean nothing.
    Smoke,
}

/// The names BENCHMARK.json lists, in its order.
pub const NAMES: [&str; 4] = ["forward_scan", "backward_cold", "lookup_hot", "stream_mixed"];

/// A generated workload: everything a round needs, nothing it measures.
#[derive(Debug)]
pub struct Workload {
    /// One of [`NAMES`].
    pub name: &'static str,
    /// `|S|`.
    pub n_states: usize,
    /// The shared transition model.
    pub chain: MarkovChain,
    /// The database contents before any feed, ids `0..|D|`.
    pub objects: Vec<UncertainObject>,
    /// Whether a `LineSpace` is attached (enables the index).
    pub space: bool,
    /// Engine configuration of the measured processor.
    pub config: EngineConfig,
    /// Query specs ops refer to.
    pub specs: Vec<QuerySpec>,
    /// Feed events ops refer to.
    pub events: Vec<Event>,
    /// Standing queries registered during set-up.
    pub watches: Vec<QuerySpec>,
    /// Ops run during set-up, after the watches.
    pub warmup: Vec<Op>,
    /// The timed sequence.
    pub ops: Vec<Op>,
    /// Op kinds in ascending cost, for the percentile-placement rule.
    pub cost_order: Vec<Kind>,
    /// Digest of everything above.
    pub digest: Digest,
}

impl Workload {
    /// Generates the named workload from `seed`.
    pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        match name {
            "forward_scan" => Some(forward_scan(seed, scale)),
            "backward_cold" => Some(backward_cold(seed, scale)),
            "lookup_hot" => Some(lookup_hot(seed, scale)),
            "stream_mixed" => Some(stream_mixed(seed, scale)),
            _ => None,
        }
    }

    /// Share of the timed ops per kind, in ascending cost.
    pub fn mix_shares(&self) -> Vec<f64> {
        let total = self.ops.len() as f64;
        self.cost_order
            .iter()
            .map(|&k| self.ops.iter().filter(|op| op.kind == k).count() as f64 / total)
            .collect()
    }

    /// A workload over the given chain and objects with no ops yet.
    fn empty(
        name: &'static str,
        chain: MarkovChain,
        objects: Vec<UncertainObject>,
        space: bool,
        digest: Digest,
    ) -> Workload {
        Workload {
            name,
            n_states: chain.num_states(),
            chain,
            objects,
            space,
            config: EngineConfig::default().with_num_threads(1),
            specs: Vec::new(),
            events: Vec::new(),
            watches: Vec::new(),
            warmup: Vec::new(),
            ops: Vec::new(),
            cost_order: Vec::new(),
            digest,
        }
    }
}

fn pick(scale: Scale, full: usize, smoke: usize) -> usize {
    match scale {
        Scale::Full => full,
        Scale::Smoke => smoke,
    }
}

fn build(query: QueryBuilder, window: QueryWindow, strategy: Strategy) -> QuerySpec {
    query.window(window).strategy(strategy).build().expect("generated specs are valid")
}

/// The spec of one analytic op kind over `window`.
fn analytic_spec(kind: Kind, window: QueryWindow, strategy: Strategy) -> QuerySpec {
    match kind {
        Kind::Exists => build(Query::exists(), window, strategy),
        Kind::Threshold => build(Query::exists().threshold(0.3), window, strategy),
        Kind::TopK => build(Query::exists().top_k(10), window, strategy),
        Kind::ForAll => build(Query::forall(), window, strategy),
        Kind::KTimes => build(Query::ktimes(2), window, strategy),
        other => unreachable!("{other:?} is not an analytic query kind"),
    }
}

/// `count` analytic ops (plus `warm` warm-up ops over windows of their own)
/// in the given proportions: every op a distinct window of 21 states and 6
/// timestamps whose start time walks `t0_lo..=t0_hi` on a fixed schedule
/// per kind; the seed places the windows and orders the ops.
#[allow(clippy::too_many_arguments)]
fn analytic_ops(
    w: &mut Workload,
    mix: &[(Kind, usize)],
    count: usize,
    warm: usize,
    (t0_lo, t0_hi): (u32, u32),
    strategy: Strategy,
    seed: u64,
) {
    let mut rng = Rng::fork(seed, "windows");
    let parts: usize = mix.iter().map(|m| m.1).sum();
    let mut slots: Vec<(Kind, u32)> = Vec::with_capacity(count);
    for &(kind, share) in mix {
        for j in 0..count * share / parts {
            slots.push((kind, t0_lo + j as u32 % (t0_hi - t0_lo + 1)));
        }
    }
    assert_eq!(slots.len(), count, "mix shares must divide the op count");
    // Warm-up takes every (count / warm)-th slot of the schedule, so its
    // composition — and with it `setup_s` — is the same under every seed.
    let warm_slots: Vec<(Kind, u32)> = (0..warm).map(|j| slots[j * count / warm]).collect();
    rng.shuffle(&mut slots);
    for (timed, (kind, t0)) in
        slots.into_iter().map(|s| (true, s)).chain(warm_slots.into_iter().map(|s| (false, s)))
    {
        let lo = rng.below(w.n_states - 21);
        w.digest.u64(kind as u64);
        w.digest.u64(lo as u64);
        w.digest.u64(t0 as u64);
        let window = inputs::window(w.n_states, lo, 21, t0, t0 + 5);
        w.specs.push(analytic_spec(kind, window, strategy));
        let op = Op { kind, action: Action::Query(w.specs.len() - 1) };
        if timed {
            w.ops.push(op);
        } else {
            w.warmup.push(op);
        }
    }
}

fn base(
    name: &'static str,
    n_states: usize,
    objects: usize,
    clustered: bool,
    seed: u64,
) -> Workload {
    let mut digest = Digest::new();
    let chain = inputs::banded_chain(n_states, &mut Rng::fork(seed, "chain"), &mut digest);
    let objects =
        inputs::objects(objects, n_states, clustered, &mut Rng::fork(seed, "objects"), &mut digest);
    Workload::empty(name, chain, objects, clustered, digest)
}

/// Object-based forward evaluation of every predicate over a small
/// database: kernels, pipeline and early exit do the work; planner, index
/// and field cache do none.
fn forward_scan(seed: u64, scale: Scale) -> Workload {
    let mut w = base("forward_scan", pick(scale, 10_000, 1_000), pick(scale, 56, 20), false, seed);
    // Measured cost order. Threshold and top-k exit early (a few ms), ∀
    // retires objects at the first timestamp outside the window, ∃ and
    // k-times propagate every object to t_end. The p50 sits 12 points
    // inside the ∃ mode and the p95 11 points inside the k-times mode.
    let mix = [
        (Kind::Threshold, 8),
        (Kind::TopK, 6),
        (Kind::ForAll, 5),
        (Kind::Exists, 23),
        (Kind::KTimes, 8),
    ];
    analytic_ops(&mut w, &mix, pick(scale, 200, 50), 20, (10, 20), Strategy::ObjectBased, seed);
    w.cost_order = mix.iter().map(|m| m.0).collect();
    w
}

/// Query-based evaluation where every op is a field-cache miss and the
/// working set (250 windows) is larger than the cache (64 entries).
fn backward_cold(seed: u64, scale: Scale) -> Workload {
    let mut w =
        base("backward_cold", pick(scale, 16_000, 2_000), pick(scale, 4_000, 100), false, seed);
    // Measured cost order: the three ∃ decorators share one sparse sweep
    // plus |D| dot products; ∀ sweeps the dense complement and k-times the
    // level fields. The p50 sits 10 points from the nearest ∃ decorator
    // boundary, the p95 9 points inside the k-times mode.
    let mix = [
        (Kind::Exists, 20),
        (Kind::Threshold, 10),
        (Kind::TopK, 5),
        (Kind::ForAll, 8),
        (Kind::KTimes, 7),
    ];
    analytic_ops(&mut w, &mix, pick(scale, 250, 50), 25, (30, 60), Strategy::QueryBased, seed);
    w.cost_order = mix.iter().map(|m| m.0).collect();
    w
}

/// The shapes of a lookup window over a clustered space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// 32 states in the sparse region, clear of the city's reachability
    /// cone, t ∈ [2, 6]: a few dozen candidates survive the index.
    Selective,
    /// 1 % of the city, t ∈ [0, 4]: a few thousand candidates survive —
    /// enough for the dot products to outweigh the planner, few enough to
    /// stay cache-resident (README, "What is not gated").
    Wide,
    /// A fifth of the city, t ∈ [0, 12]: a fifth of the database survives.
    /// Traced probes only.
    Broad,
}

/// A lookup window of the given shape, placed by the seed.
pub fn lookup_window(n: usize, shape: Lookup, rng: &mut Rng, digest: &mut Digest) -> QueryWindow {
    let city = inputs::city_end(n);
    let (lo, len, (t0, t1)) = match shape {
        Lookup::Selective => (city + n / 10 + rng.below(n - city - n / 10 - 32), 32, (2, 6)),
        // Kept a reachability cone (4 steps × 20 states) away from the city's
        // edges, so every wide window sees the same object density.
        Lookup::Wide => {
            let (len, margin) = ((city / 100).max(1), 100.min(city / 4));
            (margin + rng.below(city - len - 2 * margin), len, (0, 4))
        }
        Lookup::Broad => (rng.below(city - city / 5), (city / 5).max(1), (0, 12)),
    };
    digest.u64(lo as u64);
    inputs::window(n, lo, len, t0, t1)
}

/// 32 hot specs over 10⁵ clustered objects: planner, index probe, cache
/// hit and dot products are the whole cost; kernels idle.
fn lookup_hot(seed: u64, scale: Scale) -> Workload {
    let n = pick(scale, 100_000, 4_000);
    let mut w = base("lookup_hot", n, pick(scale, 100_000, 2_000), true, seed);
    let mut rng = Rng::fork(seed, "windows");
    let (selective, wide) = (28, 4);
    for i in 0..selective + wide {
        let shape = if i < selective { Lookup::Selective } else { Lookup::Wide };
        let window = lookup_window(n, shape, &mut rng, &mut w.digest);
        // Which objects, not how probable each of 10⁵ is: the probabilities
        // decorator writes a 1.6 MB answer per op, and the op then measures
        // the host's memory system (README, "What is not gated").
        w.specs.push(build(Query::exists().threshold(0.2), window, Strategy::Auto));
    }
    let kind = |i: usize| if i < selective { Kind::Selective } else { Kind::Wide };
    let op = |i: usize| Op { kind: kind(i), action: Action::Query(i) };
    // Three passes: the cold one fills the cache, two warm ones settle it.
    w.warmup = (0..3).flat_map(|_| (0..selective + wide).map(op)).collect();
    // Every spec equally often (so the wide mode is exactly 12.5 % and the
    // p95 sits 7.5 points inside it); the seed orders them.
    let repeats = pick(scale, 100, 8);
    w.ops = (0..repeats).flat_map(|_| (0..selective + wide).map(op)).collect();
    rng.shuffle(&mut w.ops);
    w.cost_order = vec![Kind::Selective, Kind::Wide];
    w
}

/// Turns `w` into a stream: `watches` standing queries pinned query-based
/// (half ∃ probabilities, a quarter ∃ threshold 0.2, a quarter ∀; |S|/50
/// states, t ∈ [40, 46]), a latest-fix feed in which the first `reporters`
/// objects take turns and every 7th arrival is stale, `warm` arrivals
/// (at least one turn, at most six with the timed ones) during set-up and
/// `timed` timed ones with a read (Auto ∃ probabilities, one of `reads`
/// windows) after every 4th.
fn stream_ops(
    w: &mut Workload,
    (watches, reads): (usize, usize),
    (warm, timed): (usize, usize),
    reporters: usize,
    seed: u64,
) {
    let n = w.n_states;
    let mut rng = Rng::fork(seed, "windows");
    let band = (n / 50).max(8);
    for i in 0..watches {
        let lo = rng.below(n - band);
        w.digest.u64(lo as u64);
        let window = inputs::window(n, lo, band, 40, 46);
        let query = match i % 4 {
            0 | 1 => Query::exists(),
            2 => Query::exists().threshold(0.2),
            _ => Query::forall(),
        };
        w.watches.push(build(query, window, Strategy::QueryBased));
    }
    // Reads look where the objects are (inside the city), so a read costs a
    // few applied arrivals and the p95 sits inside the read mode.
    let city = inputs::city_end(n);
    for _ in 0..reads {
        let lo = rng.below(city - band.min(city - 1));
        w.digest.u64(lo as u64);
        w.specs.push(build(Query::exists(), inputs::window(n, lo, band, 8, 14), Strategy::Auto));
    }
    w.events =
        inputs::feed(warm + timed, reporters, n, 7, &mut Rng::fork(seed, "feed"), &mut w.digest);
    let ingest = |i: usize, e: &Event| Op {
        kind: if e.stale { Kind::Stale } else { Kind::Applied },
        action: Action::Ingest(i),
    };
    w.warmup = w.events[..warm].iter().enumerate().map(|(i, e)| ingest(i, e)).collect();
    for (j, e) in w.events[warm..].iter().enumerate() {
        w.ops.push(ingest(warm + j, e));
        if j % 4 == 3 {
            w.ops.push(Op { kind: Kind::Read, action: Action::Query((j / 4) % reads) });
        }
    }
    w.cost_order = vec![Kind::Stale, Kind::Applied, Kind::Read];
}

/// Writes beside reads: latest-fix ingest under 8 standing queries, with
/// one query after every 4th arrival.
fn stream_mixed(seed: u64, scale: Scale) -> Workload {
    let n = pick(scale, 20_000, 2_000);
    let mut w = base("stream_mixed", n, pick(scale, 20_000, 1_000), true, seed);
    // One turn of the 500 reporters warms up, 4.8 turns are timed: no
    // clock passes 6, and reads start at t = 8.
    let ops = (pick(scale, 500, 40), pick(scale, 2_400, 140));
    stream_ops(&mut w, (8, 16), ops, pick(scale, 500, 40), seed);
    w
}

/// The streaming layer seen on a workload that has no feed: the
/// `stream_mixed` op mix at an eighth of its length, over this workload's
/// own chain and objects, for the traced pass's `streaming.*` probes.
pub fn stream_probe(w: &Workload, seed: u64) -> Workload {
    let mut mini = Workload::empty(w.name, w.chain.clone(), w.objects.clone(), true, Digest::new());
    let reporters = w.objects.len().min(100);
    stream_ops(&mut mini, (4, 8), (reporters, 4 * reporters), reporters, seed);
    mini
}

/// What one round measured and answered.
#[derive(Debug)]
pub struct Round {
    /// Wall time of each set-up step, in order: database build, processor
    /// construction, index build, each `watch`, each warm-up op.
    pub setup_ns: Vec<u64>,
    /// Latency of each timed op.
    pub latency_ns: Vec<u64>,
    /// Process CPU time spent inside each timed op.
    pub cpu_ns: Vec<u64>,
    /// Digest of each timed op's answer (or ingest outcome).
    pub answers: Vec<u64>,
    /// Timed ops that returned `Err` or the wrong ingest outcome.
    pub failed_ops: Vec<usize>,
    /// Evaluation counters summed per op kind.
    pub counters: BTreeMap<Kind, EvalStats>,
    /// The processor's ledger after the last op.
    pub ledger: MetricsSnapshot,
}

impl Round {
    /// Sum of the timed ops' latencies.
    pub fn timed_ns(&self) -> u64 {
        self.latency_ns.iter().sum()
    }
}

/// The program state a round leaves behind. Measured rounds drop it at
/// once (a run must not hold eight databases); the check round looks at it.
#[derive(Debug)]
pub struct Live {
    /// The standing queries, in registration order.
    pub subscriptions: Vec<Subscription>,
    /// The processor all ops ran on.
    pub processor: QueryProcessor,
}

/// Digest of an answer, bit for bit.
pub fn answer_digest(answer: &ust_core::Result<QueryAnswer>) -> u64 {
    let mut d = Digest::new();
    match answer {
        Err(e) => d.bytes(format!("{e:?}").as_bytes()),
        Ok(QueryAnswer::Probabilities(ps)) => {
            for p in ps {
                d.u64(p.object_id);
                d.f64(p.probability);
            }
        }
        Ok(QueryAnswer::Distributions(ds)) => {
            for dist in ds {
                d.u64(dist.object_id);
                dist.probabilities.iter().for_each(|&p| d.f64(p));
            }
        }
        Ok(QueryAnswer::ObjectIds(ids)) => ids.iter().for_each(|&id| d.u64(id)),
        Ok(QueryAnswer::Ranked(rs)) => {
            for r in rs {
                d.u64(r.object_id);
                d.f64(r.probability);
            }
        }
    }
    d.0
}

/// Builds a database from copies of the workload's chain and objects
/// (`TrajectoryDatabase::new` + `insert_all` + `attach_space`).
pub fn build_database(
    (chain, objects): (MarkovChain, Vec<UncertainObject>),
    space: bool,
) -> TrajectoryDatabase {
    let n_states = chain.num_states();
    let mut db = TrajectoryDatabase::new(chain);
    db.insert_all(objects).expect("generated objects match the chain");
    if space {
        db.attach_space(Arc::new(LineSpace::new(n_states)))
            .expect("the line covers the state space");
    }
    db
}

/// Runs one set-up step inside a span and records how long it took.
fn step<T>(
    tracer: &mut Tracer,
    steps: &mut Vec<u64>,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> T {
    let span = tracer.enter(name, None);
    let start = Instant::now();
    let out = call();
    steps.push(start.elapsed().as_nanos() as u64);
    tracer.exit(span);
    out
}

/// Hook the check round uses to look at each op outside its timing,
/// while the processor is still in the state that answered it.
pub trait Observer {
    /// Called before timed op `i`.
    fn before_op(&mut self, _i: usize, _op: Op, _processor: &QueryProcessor) {}
    /// Called after timed op `i` with its answer (`None` for an arrival).
    fn after_op(&mut self, _i: usize, _op: Op, _answer: Option<&ust_core::Result<QueryAnswer>>) {}
}

/// The observer of measured rounds: looks at nothing.
pub struct Unobserved;

impl Observer for Unobserved {}

/// One round: set-up on fresh state, then the timed sequence, closed loop.
///
/// Everything the program could carry from one round to the next — field
/// caches, index, overlay, subscriptions, ledger — is rebuilt, so op `i`
/// meets the same state in every round and `min over rounds` compares like
/// with like.
pub fn run_round(w: &Workload, tracer: &mut Tracer, observer: &mut dyn Observer) -> (Round, Live) {
    // Copying the inputs is the harness's cost, not the program's set-up.
    let inputs = (w.chain.clone(), w.objects.clone());
    let setup_span = tracer.enter("setup", None);
    let mut setup_ns = Vec::with_capacity(3 + w.watches.len() + w.warmup.len());
    let steps = &mut setup_ns;
    let db = step(tracer, steps, "database.build", || build_database(inputs, w.space));
    let processor =
        step(tracer, steps, "processor.new", || QueryProcessor::with_config(&db, w.config));
    if w.space {
        step(tracer, steps, "index.build", || db.spatial_index().expect("a space is attached"));
    }
    // The processor owns the only handle from here on: a second one would
    // make its first ingest copy the whole object store.
    drop(db);
    let subscriptions: Vec<Subscription> = w
        .watches
        .iter()
        .map(|spec| {
            step(tracer, steps, "streaming.watch", || {
                processor.watch(spec).expect("standing queries register")
            })
        })
        .collect();
    let mut scratch = EvalStats::new();
    let warm_span = tracer.enter("warmup", None);
    for op in &w.warmup {
        step(tracer, steps, "warmup.op", || match op.action {
            Action::Query(s) => {
                std::hint::black_box(processor.execute_with_stats(&w.specs[s], &mut scratch))
                    .expect("warm-up queries succeed");
            }
            Action::Ingest(e) => {
                let event = &w.events[e];
                processor
                    .ingest(event.object_id, event.observation.clone())
                    .expect("warm-up arrivals are accepted");
            }
        });
    }
    tracer.exit(warm_span);
    tracer.exit(setup_span);

    let mut round = Round {
        setup_ns,
        latency_ns: Vec::with_capacity(w.ops.len()),
        cpu_ns: Vec::with_capacity(w.ops.len()),
        answers: Vec::with_capacity(w.ops.len()),
        failed_ops: Vec::new(),
        counters: BTreeMap::new(),
        ledger: MetricsSnapshot::default(),
    };
    let timed_span = tracer.enter("timed", None);
    for (i, &op) in w.ops.iter().enumerate() {
        observer.before_op(i, op, &processor);
        let span = tracer.enter(op.kind.span(), Some(i));
        match op.action {
            Action::Query(s) => {
                let spec = &w.specs[s];
                let mut stats = EvalStats::new();
                let cpu = process_cpu_ns();
                let start = Instant::now();
                let answer = std::hint::black_box(processor.execute_with_stats(spec, &mut stats));
                round.latency_ns.push(start.elapsed().as_nanos() as u64);
                round.cpu_ns.push(process_cpu_ns() - cpu);
                tracer.exit(span);
                if answer.is_err() {
                    round.failed_ops.push(i);
                }
                round.answers.push(answer_digest(&answer));
                round.counters.entry(op.kind).or_default().merge(&stats);
                observer.after_op(i, op, Some(&answer));
            }
            Action::Ingest(e) => {
                let event = &w.events[e];
                let observation = event.observation.clone();
                let cpu = process_cpu_ns();
                let start = Instant::now();
                let outcome = std::hint::black_box(processor.ingest(event.object_id, observation));
                round.latency_ns.push(start.elapsed().as_nanos() as u64);
                round.cpu_ns.push(process_cpu_ns() - cpu);
                tracer.exit(span);
                let expected =
                    if event.stale { IngestOutcome::IgnoredStale } else { IngestOutcome::Applied };
                if outcome != Ok(expected) {
                    round.failed_ops.push(i);
                }
                round.answers.push(matches!(outcome, Ok(IngestOutcome::Applied)) as u64);
                round.counters.entry(op.kind).or_default();
                observer.after_op(i, op, None);
            }
        }
    }
    tracer.exit(timed_span);
    round.ledger = processor.metrics();
    (round, Live { subscriptions, processor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{boundary_clearance, MIN_BOUNDARY_CLEARANCE};

    /// The percentile-placement rule: no reported percentile within five
    /// points of a boundary between op kinds (PR 11's `point_warm` p95 sat
    /// on one and flipped between modes from run to run).
    #[test]
    fn no_reported_percentile_sits_near_a_kind_boundary() {
        for name in NAMES {
            for scale in [Scale::Full, Scale::Smoke] {
                let w = Workload::generate(name, 1, scale).unwrap();
                let shares = w.mix_shares();
                assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{name}: {shares:?}");
                if scale == Scale::Smoke {
                    continue;
                }
                for p in [50.0, 95.0] {
                    let clearance = boundary_clearance(&shares, p);
                    assert!(
                        clearance > MIN_BOUNDARY_CLEARANCE,
                        "{name}: p{p} is {clearance:.1} points from a kind boundary ({shares:?})"
                    );
                }
                assert!(w.ops.len() >= 200, "{name}: p95 needs ten samples beyond it");
            }
        }
    }

    #[test]
    fn workloads_are_a_pure_function_of_the_seed() {
        for name in NAMES {
            let a = Workload::generate(name, 5, Scale::Smoke).unwrap();
            let b = Workload::generate(name, 5, Scale::Smoke).unwrap();
            let c = Workload::generate(name, 6, Scale::Smoke).unwrap();
            assert_eq!(a.digest, b.digest, "{name}");
            assert_ne!(a.digest, c.digest, "{name}");
            assert_eq!(a.ops.len(), c.ops.len(), "{name}: op counts do not depend on the seed");
        }
        assert!(Workload::generate("nope", 1, Scale::Smoke).is_none());
    }

    #[test]
    fn rounds_repeat_bit_for_bit() {
        for name in NAMES {
            let w = Workload::generate(name, 2, Scale::Smoke).unwrap();
            let (a, _) = run_round(&w, &mut Tracer::new(false), &mut Unobserved);
            let (b, _) = run_round(&w, &mut Tracer::new(true), &mut Unobserved);
            assert_eq!(a.answers, b.answers, "{name}");
            assert!(a.failed_ops.is_empty() && b.failed_ops.is_empty(), "{name}");
            assert_eq!(a.latency_ns.len(), w.ops.len());
        }
    }
}
