//! The command line.
//!
//! ```text
//! mr-perf --workload NAME --seed N --seconds S --trace 0|1   one pass, one result line
//! mr-perf [--workload NAME] [--seed N] [--seconds S]         the set, as one report
//! mr-perf --aa [...]                                          the set twice, compared
//! mr-perf --smoke [...]                                       tiny instances
//! mr-perf compare A.json B.json                               two saved reports
//! ```

use crate::harness::{end_to_end, traced, Outcome, Run};
use crate::report::{compare, machine_stamp, run_set, SetOptions};
use crate::workloads::{HammingJoin, MatmulTree, PlanAndSweep, Size, SteadyChurn, Workload, NAMES};
use std::process::ExitCode;
use std::time::Duration;

/// Measuring time per pass when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Measuring time per pass of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.2;

const USAGE: &str = "usage: mr-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--aa]\n       mr-perf compare A.json B.json";

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<&'static str>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    aa: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(NAMES.into_iter().find(|known| known == name).ok_or_else(
                    || format!("unknown workload '{name}'; known: {}", NAMES.join(", ")),
                )?);
            }
            "--seed" => {
                let seed = value()?;
                parsed.seed = Some(
                    seed.parse()
                        .map_err(|_| format!("--seed '{seed}' is not a whole number"))?,
                );
            }
            "--seconds" => {
                let seconds = value()?;
                parsed.seconds = Some(
                    seconds
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or_else(|| format!("--seconds '{seconds}' is not in (0, 3600]"))?,
                );
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--smoke" => parsed.smoke = true,
            "--aa" => parsed.aa = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if parsed.trace.is_some() && (parsed.workload.is_none() || parsed.aa) {
        return Err(format!(
            "--trace selects one pass of one workload: give --workload, and not --aa\n{USAGE}"
        ));
    }
    Ok(parsed)
}

fn pass<W: Workload>(run: Run, trace: bool) -> Outcome {
    if trace {
        traced::<W>(run)
    } else {
        end_to_end::<W>(run)
    }
}

/// Prints a comparison and turns a breached bound into a failing exit.
fn verdict((table, breached): (String, bool)) -> ExitCode {
    print!("{table}");
    if breached {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.to_string());
        };
        let read = |path: &String| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        return Ok(verdict(compare(&read(a)?, &read(b)?, false)?));
    }

    let args = parse(args)?;
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });

    if let (Some(workload), Some(trace)) = (args.workload, args.trace) {
        let run = Run {
            seed,
            budget: Duration::from_secs_f64(seconds),
            size: if args.smoke { Size::Smoke } else { Size::Full },
        };
        println!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"machine\": {}}}",
            u8::from(trace),
            machine_stamp()
        );
        let outcome = match workload {
            HammingJoin::NAME => pass::<HammingJoin>(run, trace),
            MatmulTree::NAME => pass::<MatmulTree>(run, trace),
            SteadyChurn::NAME => pass::<SteadyChurn>(run, trace),
            PlanAndSweep::NAME => pass::<PlanAndSweep>(run, trace),
            other => unreachable!("{other} passed the name check"),
        };
        // A failed iteration is reported in the result, not by the exit
        // code: whoever reads the line decides what a failure means.
        println!("{}", outcome.json());
        return Ok(ExitCode::SUCCESS);
    }

    let mut options = SetOptions {
        workloads: args.workload.map_or(NAMES.to_vec(), |w| vec![w]),
        seed,
        seconds,
        smoke: args.smoke,
    };
    let first = run_set(&options)?;
    if !args.aa {
        println!("{first}");
        return Ok(ExitCode::SUCCESS);
    }
    // The second set runs the workloads in the opposite order, so that
    // whatever drifts over the run does not favour one set.
    options.workloads.reverse();
    let second = run_set(&options)?;
    Ok(verdict(compare(&first, &second, true)?))
}

/// Runs the command line and returns the process's exit code: failure
/// for a bad argument, a pass that could not run, or a breached bound.
pub fn main(args: Vec<String>) -> ExitCode {
    run(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_invocation_parses() {
        let parsed = parse(&args(
            "--workload steady_churn --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: Some("steady_churn"),
                seed: Some(42),
                seconds: Some(20.0),
                trace: Some(true),
                smoke: false,
                aa: false,
            }
        );
        assert_eq!(parse(&[]).unwrap(), Args::default());
    }

    #[test]
    fn malformed_arguments_are_messages_not_panics() {
        for line in [
            "--workload",
            "--workload nope",
            "--seed -1",
            "--seed x",
            "--seconds 0",
            "--seconds inf",
            "--trace 2",
            "--trace 1",
            "--workload matmul_tree --trace 0 --aa",
            "--frobnicate",
        ] {
            assert!(parse(&args(line)).is_err(), "{line}");
        }
    }
}
