//! Drives the built executable the way the benchmark's users do: one
//! pass per process. A process of its own matters for the second test —
//! the program's counters and recorder are process-wide, so exact
//! counts can only be compared between runs that share them with
//! nothing else.

use mr_bench::json::{parse, Value};
use mr_perf::metrics::{Source, END_TO_END, PER_LAYER};
use mr_perf::workloads::NAMES;
use std::process::Command;

/// Runs one smoke-sized pass and returns its last line, parsed.
fn pass(workload: &str, seed: u64, trace: u8) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_mr-perf"))
        .args(["--workload", workload, "--smoke", "--seconds", "0.2"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("the executable starts");
    assert!(output.status.success(), "{workload}: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("the output is UTF-8");
    parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

fn metrics(result: &Value) -> &[(String, Value)] {
    match result.get("metrics") {
        Some(Value::Obj(fields)) => fields,
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn every_pass_prints_exactly_the_contract_keys_and_metrics() {
    for workload in NAMES {
        for (trace, names) in [
            (
                0,
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (1, PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()),
        ] {
            let result = pass(workload, 3, trace);
            let Value::Obj(fields) = &result else {
                panic!("the result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let printed: Vec<(&str, &str)> = metrics(&result)
                .iter()
                .map(|(name, m)| {
                    (
                        name.as_str(),
                        m.get("unit").and_then(Value::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(printed, names, "{workload} --trace {trace}");
            for (name, metric) in metrics(&result) {
                let value = metric.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{workload} {name}");
                if trace == 0 {
                    assert!(value > 0.0, "{workload} {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn a_second_run_with_the_same_seed_reproduces_every_exact_count() {
    let counts = |result: &Value| -> Vec<(String, f64)> {
        PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Count)
            .map(|m| {
                let value = metrics(result)
                    .iter()
                    .find(|(name, _)| name == m.name)
                    .and_then(|(_, metric)| metric.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap();
                (m.name.to_string(), value)
            })
            .collect()
    };
    for workload in NAMES {
        let first = counts(&pass(workload, 5, 1));
        assert_eq!(first, counts(&pass(workload, 5, 1)), "{workload}");
        assert!(
            first.iter().filter(|(_, value)| *value > 0.0).count() >= 8,
            "{workload} reports too few counts: {first:?}"
        );
    }
    // The communication cost is exact in the untraced pass too.
    for workload in NAMES {
        let comm = |result: &Value| {
            metrics(result)
                .iter()
                .find(|(name, _)| name == "comm_pairs")
                .and_then(|(_, m)| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(comm(&pass(workload, 5, 0)), comm(&pass(workload, 5, 0)));
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        vec!["--workload", "no_such_workload", "--trace", "0"],
        vec!["--seconds", "-3"],
        vec!["compare", "only-one.json"],
        vec!["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_mr-perf"))
            .args(&args)
            .output()
            .expect("the executable starts");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        assert!(!output.stderr.is_empty(), "{args:?}");
    }
}
