#![forbid(unsafe_code)]
//! Regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p mr-bench --bin repro            # everything
//! cargo run --release -p mr-bench --bin repro -- fig1    # one artifact
//! cargo run --release -p mr-bench --bin repro -- frontier # empirical sweep
//! cargo run --release -p mr-bench --bin repro -- frontier hamming-d1 matmul
//! cargo run --release -p mr-bench --bin repro -- frontier triangles-gnm full
//! cargo run --release -p mr-bench --bin repro -- plan     # cost-based planner
//! cargo run --release -p mr-bench --bin repro -- plan matmul --q-budget 32
//! cargo run --release -p mr-bench --bin repro -- delta    # incremental execution
//! cargo run --release -p mr-bench --bin repro -- delta triangles small
//! cargo run --release -p mr-bench --bin repro -- dag      # round-structure search
//! cargo run --release -p mr-bench --bin repro -- dag matmul --q-budget 8
//! cargo run --release -p mr-bench --bin repro -- trace hamming-d1     # record a run
//! cargo run --release -p mr-bench --bin repro -- trace join-agg --out t.json
//! cargo run --release -p mr-bench --bin repro -- plan --trace  # traced planner run
//! cargo run --release -p mr-bench --bin repro -- list    # ids + descriptions
//! ```
//!
//! The command line is parsed once, by [`Selection::parse`] (its module
//! documents the tokens and which experiments they imply), and every
//! selected experiment checks the selection before any of them runs. A
//! refusal is printed on stderr with nothing on stdout, and the exit code
//! is 1. A failure while an experiment runs is printed on stderr as
//! `<id> run error: …`, after what the experiments before it printed,
//! and the exit code is 1 too.

use mr_bench::experiments::{self, Experiment};
use mr_bench::selection::{Selection, SelectionError};

fn main() {
    // A token that is not UTF-8 names nothing in the vocabulary.
    let args: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|arg| arg.into_string())
        .collect::<Result<_, _>>()
        .unwrap_or_else(|arg| fail(SelectionError::Unknown(vec![arg.to_string_lossy().into()])));
    let all = experiments::all();

    if args.first().map(String::as_str) == Some("list") {
        println!("available experiments:");
        let width = all.iter().map(|e| e.id.len()).max().unwrap_or(0);
        for e in &all {
            println!("  {:width$}  {}", e.id, e.description);
        }
        return;
    }

    let selection = Selection::parse(&args).unwrap_or_else(|err| fail(err));
    let selected: Vec<&Experiment> = all
        .iter()
        .filter(|e| selection.experiments.contains(&e.id))
        .collect();
    for e in &selected {
        if let Err(reason) = (e.check)(&selection) {
            fail(SelectionError::Refused {
                experiment: e.id,
                reason,
            });
        }
    }
    for e in selected {
        let report = (e.run)(&selection)
            .unwrap_or_else(|reason| fail(format_args!("{} run error: {reason}", e.id)));
        println!("================================================================");
        println!("[{}]", e.id);
        println!("================================================================");
        println!("{report}");
    }
}

/// Prints `err` on stderr and exits 1.
fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("{err}");
    std::process::exit(1)
}
