//! One run of one workload: generate, measure identical rounds for
//! `--seconds`, check, print.

use std::io::Write;
use std::time::Instant;

use crate::checks::gate;
use crate::clock::{peak_heap_mib, peak_rss_mib};
use crate::json::Value;
use crate::stats::{boundary_clearance, floors, percentile_sorted, MIN_BOUNDARY_CLEARANCE};
use crate::trace::Tracer;
use crate::workloads::{run_round, Round, Scale, Unobserved, Workload, NAMES};

/// Fewest measured rounds of a run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Most measured rounds of a run.
const MAX_ROUNDS: usize = 32;

/// A named value with its unit, as the last line prints it.
pub type Metric = (&'static str, f64, &'static str);

/// An end-to-end metric as BENCHMARK.json declares it.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Its name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub higher_is_better: bool,
    /// Share of the base's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same six on every workload. BENCHMARK.json
/// repeats this table; a test keeps the two identical.
pub const END_TO_END: [Gate; 6] = [
    Gate { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    Gate { name: "throughput_ops_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    Gate { name: "latency_p50_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    Gate { name: "latency_p95_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    Gate { name: "cpu_ms_per_op", unit: "ms", higher_is_better: false, bound: 0.25 },
    Gate { name: "peak_heap_mb", unit: "MiB", higher_is_better: false, bound: 0.15 },
];

/// What BENCHMARK.json's `run_seconds` says, for runs that do not.
const DEFAULT_SECONDS: f64 = 22.0;
/// Measuring time of a `--smoke` run that does not say.
const SMOKE_SECONDS: f64 = 0.5;

/// Parsed command line of a single-workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`NAMES`].
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Per-layer pass instead of the end-to-end one.
    pub trace: bool,
    /// Tiny sizes.
    pub scale: Scale,
    /// File to append the result record to.
    pub out: Option<String>,
}

const USAGE: &str = "usage:
  ust-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out FILE]
  ust-benchmark all [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out FILE]
  ust-benchmark compare A.jsonl B.jsonl [more…]";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => run.trace = value()? == "1",
            "--traced" => run.trace = true,
            "--smoke" => run.scale = Scale::Smoke,
            "--out" => run.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let default = if run.scale == Scale::Smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS };
    run.seconds = seconds.unwrap_or(default);
    Ok(run)
}

/// Every workload, each in a process of its own so that `peak_rss_mb` is
/// that workload's; with `--traced`, the traced pass follows.
fn run_all(args: &[String]) -> Result<bool, String> {
    let all = parse_run(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut ok = true;
    for trace in [false, true] {
        if trace && !all.trace {
            break;
        }
        for name in NAMES {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", name, "--seed", &all.seed.to_string()]);
            child.args([
                "--seconds",
                &all.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            if all.scale == Scale::Smoke {
                child.arg("--smoke");
            }
            if let Some(out) = &all.out {
                child.args(["--out", out]);
            }
            ok &= child.status().map_err(|e| format!("{name}: {e}"))?.success();
        }
    }
    Ok(ok)
}

/// Entry point: `Ok(true)` when every check passed.
pub fn cli(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => crate::compare::compare(&args[1..]),
        Some("all") => run_all(&args[1..]),
        _ => {
            let run = parse_run(args)?;
            if !NAMES.contains(&run.workload.as_str()) {
                return Err(format!("--workload must be one of {NAMES:?}\n{USAGE}"));
            }
            run_one(&run)
        }
    }
}

/// The measured rounds of a run and what they add up to.
pub struct Measured {
    /// Every measured round.
    pub rounds: Vec<Round>,
    /// `min over rounds` latency of each op.
    pub floor_ns: Vec<u64>,
    /// `min over rounds` process CPU time of each op.
    pub cpu_floor_ns: Vec<u64>,
    /// `min over rounds` wall time of each set-up step.
    pub setup_floor_ns: Vec<u64>,
}

/// Runs identical rounds until `seconds` are used up.
pub fn measure(w: &Workload, seconds: f64, min_rounds: usize) -> Measured {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round_start = Instant::now();
        rounds.push(run_round(w, &mut Tracer::new(false), &mut Unobserved).0);
        let round_secs = round_start.elapsed().as_secs_f64();
        let enough =
            rounds.len() >= min_rounds && start.elapsed().as_secs_f64() + round_secs > seconds;
        if enough || rounds.len() >= MAX_ROUNDS {
            break;
        }
    }
    let floor_of =
        |field: fn(&Round) -> &Vec<u64>| floors(&rounds.iter().map(field).collect::<Vec<_>>());
    Measured {
        floor_ns: floor_of(|r| &r.latency_ns),
        cpu_floor_ns: floor_of(|r| &r.cpu_ns),
        setup_floor_ns: floor_of(|r| &r.setup_ns),
        rounds,
    }
}

/// The end-to-end metrics, in BENCHMARK.json's order.
pub fn end_to_end(w: &Workload, m: &Measured, peak_heap_mib: f64) -> Vec<Metric> {
    let ops = w.ops.len() as f64;
    let mut sorted = m.floor_ns.clone();
    sorted.sort_unstable();
    let floor_secs = sorted.iter().sum::<u64>() as f64 / 1e9;
    let setup: u64 = m.setup_floor_ns.iter().sum();
    let cpu: u64 = m.cpu_floor_ns.iter().sum();
    // In END_TO_END's order.
    let values = [
        setup as f64 / 1e9,
        ops / floor_secs,
        percentile_sorted(&sorted, 50.0) as f64 / 1e6,
        percentile_sorted(&sorted, 95.0) as f64 / 1e6,
        cpu as f64 / 1e6 / ops,
        peak_heap_mib,
    ];
    END_TO_END.iter().zip(values).map(|(gate, value)| (gate.name, value, gate.unit)).collect()
}

/// Slowest round's timed phase over the fastest one's, minus one.
pub fn round_spread(rounds: &[Round]) -> f64 {
    let totals: Vec<u64> = rounds.iter().map(Round::timed_ns).collect();
    let (fastest, slowest) = (totals.iter().min(), totals.iter().max());
    match (fastest, slowest) {
        (Some(&f), Some(&s)) if f > 0 => (s - f) as f64 / f as f64,
        _ => 0.0,
    }
}

/// Most CPU time per wall time any round's timed phase used: above 1 a
/// second thread was running, which no gated workload may have.
pub fn max_cpu_per_wall(rounds: &[Round]) -> f64 {
    rounds
        .iter()
        .map(|r| r.cpu_ns.iter().sum::<u64>() as f64 / r.timed_ns().max(1) as f64)
        .fold(0.0, f64::max)
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Value {
    Value::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::object(metrics.iter().map(|&(name, value, unit)| {
                let body = [("value", Value::Num(value)), ("unit", Value::Str(unit.into()))];
                (name, Value::object(body))
            })),
        ),
    ])
}

/// Prints the result (and appends it to `--out`); returns `correct`.
pub fn finish(args: &RunArgs, rounds: usize, result: Value) -> Result<bool, String> {
    if let Some(path) = &args.out {
        let record = Value::object([
            ("workload", Value::Str(args.workload.clone())),
            ("seed", Value::Num(args.seed as f64)),
            ("trace", Value::Num(args.trace as u8 as f64)),
            ("smoke", Value::Bool(args.scale == Scale::Smoke)),
            ("rounds", Value::Num(rounds as f64)),
            ("result", result.clone()),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{record}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{result}");
    Ok(result.get("correct") == Some(&Value::Bool(true)))
}

fn run_one(args: &RunArgs) -> Result<bool, String> {
    let generate_start = Instant::now();
    let w = Workload::generate(&args.workload, args.seed, args.scale).expect("name was checked");
    println!(
        "{}: seed {}, |D| = {}, |S| = {}, {} ops per round, inputs.digest {:016x} ({:.2} s)",
        w.name,
        args.seed,
        w.objects.len(),
        w.n_states,
        w.ops.len(),
        w.digest.0,
        generate_start.elapsed().as_secs_f64(),
    );
    // The percentile-placement rule, on the ops actually generated.
    let shares = w.mix_shares();
    for p in [50.0, 95.0] {
        let clearance = boundary_clearance(&shares, p);
        if args.scale == Scale::Full && clearance <= MIN_BOUNDARY_CLEARANCE {
            return Err(format!(
                "{}: p{p} sits {clearance:.1} points from a kind boundary",
                w.name
            ));
        }
    }
    if args.trace {
        return crate::layers::traced_run(args, &w);
    }
    let min_rounds = if args.scale == Scale::Smoke { 2 } else { MIN_ROUNDS };
    let m = measure(&w, args.seconds, min_rounds);
    // Before the gate: its replica database and reference processors are
    // the harness's memory, not the program's.
    let (peak_heap, peak_rss) = (peak_heap_mib(), peak_rss_mib());
    let mut verdict = gate(&w, &m.rounds);
    let busiest = max_cpu_per_wall(&m.rounds);
    if busiest > 1.05 {
        verdict.failed_checks.push(format!("{busiest:.3} CPU seconds per wall second"));
    }
    let spread = round_spread(&m.rounds);
    if spread > 0.25 {
        println!(
            "warning: slowest round {:.0} % above the fastest — noisy machine",
            spread * 100.0
        );
    }
    let rounds = m.rounds.len();
    println!(
        "{rounds} measured rounds + 1 check round ({} reference answers), round spread {spread:.3}, \
         CPU/wall ≤ {busiest:.3}, VmHWM {peak_rss:.1} MiB",
        verdict.references
    );
    let totals: Vec<String> =
        m.rounds.iter().map(|r| format!("{:.3}", r.timed_ns() as f64 / 1e9)).collect();
    println!("timed phase per round (s): {}", totals.join(" "));
    let metrics = end_to_end(&w, &m, peak_heap);
    for (name, value, unit) in &metrics {
        let samples = match *name {
            "setup_s" => format!("{} step floors over {rounds} rounds", m.setup_floor_ns.len()),
            "peak_heap_mb" => "one process".into(),
            _ => format!("{} op floors over {rounds} rounds", w.ops.len()),
        };
        println!("  {name:<18} {value:>14.6} {unit:<4} ({samples})");
    }
    let attempted = w.ops.len() * (rounds + 1);
    let failed = verdict.failed_ops.len() + verdict.failed_checks.len();
    finish(args, rounds, result_line(verdict.ok(), attempted, failed, &metrics))
}
