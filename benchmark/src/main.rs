//! `ust-benchmark` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ust-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out FILE]
//! ust-benchmark all [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out FILE]
//! ust-benchmark compare A.jsonl B.jsonl [more…]
//! ```

// The benchmark may not lean on the `#[deprecated]` shims ROADMAP marks
// for deletion: later PRs cannot edit this directory.
#![deny(deprecated)]
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod clock;
mod compare;
mod inputs;
mod json;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: clock::CountingAllocator = clock::CountingAllocator;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run::cli(&args) {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::from(1),
        Err(message) => {
            eprintln!("ust-benchmark: {message}");
            std::process::ExitCode::from(2)
        }
    }
}
