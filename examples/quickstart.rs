//! Quickstart: the paper's running example through the unified query API.
//!
//! Builds the 3-state Markov chain of Section V, registers one uncertain
//! object observed at state s2 at time 0, and answers all three query
//! predicates over the window S▫ = {s1, s2}, T▫ = [2, 3] — reproducing
//! the numbers derived by hand in the paper (P∃ = 0.864, k-distribution
//! (0.136, 0.672, 0.192)). Queries are *declared* with the `Query`
//! builder; the planner picks the evaluation strategy (inspect it with
//! `explain`), and `submit` shows the asynchronous front door.
//!
//! Run with: `cargo run --example quickstart`

use ust::prelude::*;

fn main() -> Result<()> {
    // The transition matrix of the running example (rows sum to 1).
    let chain = MarkovChain::from_csr(
        CsrMatrix::from_dense(&[
            vec![0.0, 0.0, 1.0], // s1 -> s3
            vec![0.6, 0.0, 0.4], // s2 -> s1 | s3
            vec![0.0, 0.8, 0.2], // s3 -> s2 | s3
        ])
        .expect("well-formed matrix"),
    )?;

    // One object, observed precisely at s2 (index 1) at time 0.
    let mut db = TrajectoryDatabase::new(chain);
    db.insert(UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1)?))?;

    // Query window: states {s1, s2} during times [2, 3].
    let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3))?;

    let processor = QueryProcessor::new(&db);

    // PST∃Q — declare the query, let the planner choose the strategy.
    let exists = Query::exists().window(window.clone()).build()?;
    println!("{}", processor.explain(&exists)?);
    let planned = processor.execute(&exists)?;
    println!(
        "PST∃Q  planned      : P = {:.4}",
        planned.probabilities().expect("probabilities decorator")[0].probability
    );

    // Both explicit strategies give the paper's 0.864.
    for (name, strategy) in
        [("object-based", Strategy::ObjectBased), ("query-based", Strategy::QueryBased)]
    {
        let forced = Query::exists().window(window.clone()).strategy(strategy).build()?;
        let p = processor.execute(&forced)?.probabilities().expect("probabilities decorator")[0]
            .probability;
        println!("PST∃Q  {name:<13}: P = {p:.4}");
    }

    // PST∀Q — probability of being inside the window at *all* query times.
    let forall = processor.execute(&Query::forall().window(window.clone()).build()?)?;
    println!(
        "PST∀Q  planned      : P = {:.4}",
        forall.probabilities().expect("probabilities decorator")[0].probability
    );

    // PSTkQ — the full distribution over visit counts (Section VII's
    // worked example: 0.136 / 0.672 / 0.192).
    let ktimes = processor.execute(&Query::ktimes(1).window(window.clone()).build()?)?;
    let dist = &ktimes.distributions().expect("k-times probabilities")[0];
    for (count, p) in dist.probabilities.iter().enumerate() {
        println!("PSTkQ  P(visits = {count}) = {p:.4}");
    }
    println!("PSTkQ  expected visits = {:.4}", dist.expected_visits());

    // Decorators compose with any predicate: thresholds and top-k.
    let hot = processor.execute(&Query::exists().window(window.clone()).threshold(0.5).build()?)?;
    println!("τ=0.5 accepts object ids: {:?}", hot.ids().expect("threshold decorator"));

    // The async front door: submit a burst without blocking, await later.
    let taus = [0.25, 0.5, 0.75];
    let tickets: Vec<QueryTicket> = taus
        .iter()
        .map(|&tau| {
            let spec = Query::exists().window(window.clone()).threshold(tau).build()?;
            processor.submit(&spec)
        })
        .collect::<Result<_>>()?;
    for (tau, ticket) in taus.into_iter().zip(tickets) {
        let ids = ticket.wait()?;
        println!("async τ={tau}: {} object(s) qualify", ids.len());
    }

    Ok(())
}
