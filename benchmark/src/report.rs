//! Whole-set runs and their comparison.
//!
//! A set run measures each workload in a process of its own (this
//! executable, started once per pass), so that a workload's peak
//! resident set and allocator state are its own and a set's numbers are
//! the numbers a single-workload invocation prints.

use crate::metrics::{Better, END_TO_END};
use crate::workloads::NAMES;
use mr_bench::json::{parse, Obj, Value};
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

/// What a set run measures.
#[derive(Debug, Clone)]
pub struct SetOptions {
    /// Workloads, in the order to run them.
    pub workloads: Vec<&'static str>,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per pass, in seconds.
    pub seconds: f64,
    /// Tiny instances.
    pub smoke: bool,
}

/// Days since the Unix epoch to a proleptic Gregorian `(year, month,
/// day)` (Howard Hinnant's `civil_from_days`).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(month <= 2), month, day)
}

/// The checked-out commit, read from `.git` in the working directory
/// without starting a process; `unknown` outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.len() >= 7 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
        hash.to_string()
    } else {
        "unknown".to_string()
    }
}

/// The machine stamp every result carries: core count, `W`, compiler,
/// commit and UTC date.
pub fn machine_stamp() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut stamp = Obj::new();
    stamp
        .int("nproc", nproc as u64)
        .int("workers", crate::harness::parallel_workers() as u64)
        .str("rustc", env!("MR_PERF_RUSTC"))
        .str("commit", &commit())
        .str("date_utc", &format!("{y:04}-{m:02}-{d:02}"));
    stamp.compact()
}

/// Runs one pass of one workload in a child process and returns its
/// result line, checked to be JSON.
fn run_pass(options: &SetOptions, workload: &str, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} pass ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} pass printed nothing"))?;
    parse(line).map_err(|e| format!("the {workload} pass printed an unreadable result: {e}"))?;
    Ok(line.to_string())
}

/// Runs the set and returns its report: the machine stamp, the seed, and
/// per workload the result of the untraced pass (`end_to_end`) beside
/// the result of the traced one (`per_layer`), each as the pass printed
/// it.
pub fn run_set(options: &SetOptions) -> Result<String, String> {
    let mut entries = Vec::new();
    for workload in &options.workloads {
        let mut entry = Obj::new();
        entry
            .raw("end_to_end", run_pass(options, workload, false)?)
            .raw("per_layer", run_pass(options, workload, true)?);
        entries.push(format!("    \"{workload}\": {}", entry.compact()));
    }
    Ok(format!(
        "{{\n  \"benchmark\": \"mr-perf\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"machine\": {},\n  \"workloads\": {{\n{}\n  }}\n}}",
        options.seed,
        mr_bench::json::num(options.seconds),
        options.smoke,
        machine_stamp(),
        entries.join(",\n"),
    ))
}

/// How far `candidate` is worse than `reference`, as a share of
/// `reference` (negative when it is better).
pub fn worsening(better: Better, reference: f64, candidate: f64) -> f64 {
    let change = (candidate - reference) / reference;
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// One pass's result (`end_to_end` or `per_layer`) of one workload.
fn pass<'a>(report: &'a Value, workload: &str, pass: &str) -> Option<&'a Value> {
    report.get("workloads")?.get(workload)?.get(pass)
}

/// Compares two set reports metric by metric. Returns a table of every
/// end-to-end metric's relative difference beside its bound, and
/// whether any bound was breached: by `b` being worse than `a`, or —
/// when `either_way` is set, for two runs of the same code — by either
/// being worse than the other.
pub fn compare(a: &str, b: &str, either_way: bool) -> Result<(String, bool), String> {
    let a = parse(a).map_err(|e| format!("first report: {e}"))?;
    let b = parse(b).map_err(|e| format!("second report: {e}"))?;
    let metric = |report: &Value, workload: &str, name: &str| {
        pass(report, workload, "end_to_end")?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    let failed = |report: &Value, workload: &str| {
        ["end_to_end", "per_layer"].iter().any(|p| {
            pass(report, workload, p)
                .and_then(|result| result.get("failed")?.as_f64())
                .is_some_and(|failed| failed > 0.0)
        })
    };
    let mut table = format!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse %", "bound %"
    );
    let (mut breached, mut compared) = (false, 0);
    for workload in NAMES {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (metric(&a, workload, m.name), metric(&b, workload, m.name))
            else {
                continue;
            };
            compared += 1;
            let mut worse = worsening(m.better, x, y);
            if either_way {
                worse = worse.max(worsening(m.better, y, x));
            }
            let breach = worse > m.bound;
            breached |= breach;
            table += &format!(
                "{:<16} {:<16} {:>16.4} {:>16.4} {:>9.2} {:>7.1}{}\n",
                workload,
                m.name,
                x,
                y,
                100.0 * worse,
                100.0 * m.bound,
                if breach { "  BREACH" } else { "" }
            );
        }
        for (side, report) in [("a", &a), ("b", &b)] {
            if failed(report, workload) {
                breached = true;
                table += &format!("{workload:<16} failed iterations in {side}  BREACH\n");
            }
        }
    }
    if compared == 0 {
        return Err("the reports share no workload".to_string());
    }
    Ok((table, breached))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(iter_ms: f64, pairs_per_s: f64, failed: u64) -> String {
        format!(
            "{{\"workloads\": {{\"matmul_tree\": {{\"end_to_end\": {{\"failed\": {failed}, \
             \"metrics\": {{\"iter_ms_p50\": {{\"value\": {iter_ms}, \"unit\": \"ms\"}}, \
             \"pairs_per_s\": {{\"value\": {pairs_per_s}, \"unit\": \"1/s\"}}}}}}}}}}}}"
        )
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_726), (2026, 9, 30));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
    }

    /// 100 worsened by `share` of the `iter_ms_p50` bound.
    fn slower_by(share: f64) -> f64 {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "iter_ms_p50")
            .map(|m| m.bound)
            .unwrap();
        100.0 * (1.0 + share * bound)
    }

    #[test]
    fn a_difference_within_the_bound_passes_and_one_beyond_it_breaches() {
        let base = report(100.0, 1e6, 0);
        let (table, breached) = compare(&base, &report(slower_by(0.5), 0.97e6, 0), false).unwrap();
        assert!(!breached, "{table}");
        assert!(table.contains("iter_ms_p50") && table.contains("pairs_per_s"));
        let (table, breached) = compare(&base, &report(slower_by(1.5), 1e6, 0), false).unwrap();
        assert!(breached && table.contains("BREACH"), "{table}");
        // Throughput falling is worse, even though the number is smaller.
        assert!(compare(&base, &report(100.0, 0.5e6, 0), false).unwrap().1);
    }

    #[test]
    fn a_better_candidate_breaches_only_when_compared_either_way() {
        let slow = report(slower_by(1.5), 1e6, 0);
        let fast = report(100.0, 1e6, 0);
        assert!(!compare(&slow, &fast, false).unwrap().1);
        assert!(compare(&slow, &fast, true).unwrap().1);
    }

    #[test]
    fn failed_iterations_breach_and_disjoint_reports_are_an_error() {
        let base = report(100.0, 1e6, 0);
        assert!(compare(&base, &report(100.0, 1e6, 2), false).unwrap().1);
        assert!(compare(&base, "{\"workloads\": {}}", false).is_err());
        assert!(compare(&base, "not json", false).is_err());
    }

    #[test]
    fn the_stamp_names_the_machine() {
        let stamp = parse(&machine_stamp()).unwrap();
        for key in ["nproc", "workers", "rustc", "commit", "date_utc"] {
            assert!(stamp.get(key).is_some(), "{key}");
        }
        assert!(stamp.get("workers").and_then(Value::as_f64).unwrap() <= 4.0);
    }
}
