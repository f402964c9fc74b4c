//! The one `repro` grammar: [`Selection::parse`] reads the whole command
//! line into one typed [`Selection`], which every selected experiment
//! checks before any of them runs.
//!
//! Tokens, in any order: an experiment id selects it; a family
//! ([`crate::sweep::available_families`]) or DAG workload
//! ([`DagWorkload::ALL`]) name lands in [`Selection::families`] and/or
//! [`Selection::workloads`] (`matmul` is both); `small`/`default`/`full`
//! picks the scale (a second one is refused); `--q-budget N` (a positive
//! integer, the last one counts) is `plan`'s and `dag`'s reducer budget;
//! `--out PATH` is where `trace` writes its Chrome JSON; `--trace` makes
//! `plan`/`dag`/`delta` record themselves. A value flag never takes a
//! token starting with `--` as its value.
//!
//! Implied experiments, applied in this order:
//!
//! 1. a DAG-only workload (`join-agg`) implies `dag`, unless `dag` or
//!    `trace` is named;
//! 2. `--out` implies `trace`;
//! 3. `--q-budget` implies `plan`, unless `plan` or `dag` is chosen;
//! 4. `--trace` implies `plan` when none of `plan`, `dag`, `delta` is;
//! 5. a name or a scale implies `frontier` when none of `frontier`,
//!    `plan`, `dag`, `delta`, `trace` is.
//!
//! Nothing named or implied selects every experiment. When `trace` is
//! named, a token that is no name resolves as a unique prefix (`hamming`
//! → `hamming-d1`).
//!
//! Any other token is [`SelectionError::Unknown`], printed with the whole
//! vocabulary. A malformed value (a second scale, `--q-budget abc`,
//! `--out` without a path, a prefix naming no workload or several) is
//! [`SelectionError::Refused`] by the first selected experiment, in
//! [`experiments::all`] order, that reads it; a name an experiment does
//! not run is refused by that experiment's check (`plan` refuses
//! `triangles-gnm`).

use crate::experiments;
use crate::sweep::available_families;
use mr_core::family::Scale;
use mr_plan::DagWorkload;
use std::fmt;

/// The flag that sets `plan`'s and `dag`'s reducer budget.
pub(crate) const Q_BUDGET_FLAG: &str = "--q-budget";

/// The flag that turns tracing on in `plan`/`dag`/`delta`.
pub(crate) const TRACE_FLAG: &str = "--trace";

/// The flag that writes `trace`'s Chrome JSON to a file.
pub(crate) const OUT_FLAG: &str = "--out";

/// The experiments that read a scale token.
const SCALE_READERS: &[&str] = &["frontier", "plan", "dag", "delta", "trace"];
/// The experiments that read `--q-budget`.
const BUDGET_READERS: &[&str] = &["plan", "dag"];
/// The experiment that reads `--out` and resolves prefixes.
const TRACE_READERS: &[&str] = &["trace"];

/// Everything a `repro` command line selects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selection {
    /// The named and implied experiment ids, in [`experiments::all`]
    /// order; all of them when the command line names and implies none.
    pub experiments: Vec<&'static str>,
    /// The registry families named, in command-line order, once each.
    pub families: Vec<&'static str>,
    /// The DAG workloads named, in command-line order, once each.
    pub workloads: Vec<DagWorkload>,
    /// The instance preset, when one is named.
    pub scale: Option<Scale>,
    /// `--q-budget N`: the reducer budget `plan` and `dag` plan under.
    pub q_budget: Option<u64>,
    /// `--trace`: `plan`/`dag`/`delta` record themselves.
    pub trace: bool,
    /// `--out PATH`: where `trace` writes its Chrome JSON.
    pub out: Option<String>,
}

/// Why a command line selects nothing runnable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionError {
    /// Tokens no vocabulary names; shown with the whole vocabulary.
    Unknown(Vec<String>),
    /// A selection `experiment` refuses, with its reason.
    Refused {
        /// The refusing experiment's id.
        experiment: &'static str,
        /// What it refuses.
        reason: String,
    },
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionError::Unknown(tokens) => {
                let ids: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
                writeln!(f, "unknown experiment(s) {tokens:?}")?;
                writeln!(f, "available experiments: {}", ids.join(", "))?;
                writeln!(
                    f,
                    "frontier selectors: {} (scales: {})",
                    available_families().join(", "),
                    scale_names(", ")
                )?;
                write!(
                    f,
                    "plan flags: {Q_BUDGET_FLAG} N; trace flags: {TRACE_FLAG}, {OUT_FLAG} PATH"
                )
            }
            SelectionError::Refused { experiment, reason } => {
                write!(f, "{experiment} selection error: {reason}")
            }
        }
    }
}

impl Selection {
    /// Parses `repro`'s arguments (the program name excluded) by the
    /// rules in the [module docs](self). Never panics; the same tokens
    /// always give the same result, and naming a family or workload
    /// twice selects it once.
    pub fn parse(args: &[String]) -> Result<Selection, SelectionError> {
        let all = experiments::all();
        let mut sel = Selection::default();
        let mut named: Vec<&'static str> = Vec::new();
        let mut names: Vec<(usize, &str)> = Vec::new();
        // Malformed tokens: position, the experiments that read it, why.
        let mut faults: Vec<(usize, &[&str], String)> = Vec::new();
        let (mut scale_seen, mut budget_seen, mut out_seen) = (false, false, false);
        let second_scale = format!(
            "at most one scale selector ({}) is allowed",
            scale_names("/")
        );
        let not_a_flag = |(_, value): &(usize, &str)| !value.starts_with("--");
        let mut tokens = args.iter().map(String::as_str).enumerate().peekable();
        while let Some((at, token)) = tokens.next() {
            if let Some(e) = all.iter().find(|e| e.id == token) {
                named.push(e.id);
            } else if token == TRACE_FLAG {
                sel.trace = true;
            } else if token == OUT_FLAG {
                out_seen = true;
                match tokens.next_if(not_a_flag) {
                    Some((_, path)) => sel.out = Some(path.to_string()),
                    None => faults.push((at, TRACE_READERS, format!("{OUT_FLAG} requires a path"))),
                }
            } else if token == Q_BUDGET_FLAG {
                budget_seen = true;
                match q_budget(tokens.next_if(not_a_flag).map(|(_, value)| value)) {
                    Ok(q) => sel.q_budget = Some(q),
                    Err(reason) => faults.push((at, BUDGET_READERS, reason)),
                }
            } else if let Some(scale) = Scale::ALL.into_iter().find(|s| s.name() == token) {
                scale_seen = true;
                match sel.scale {
                    Some(_) => faults.push((at, SCALE_READERS, second_scale.clone())),
                    None => sel.scale = Some(scale),
                }
            } else {
                names.push((at, token));
            }
        }

        let vocabulary = vocabulary();
        let tracing = named.contains(&"trace");
        let mut unknown = Vec::new();
        for &(at, token) in &names {
            match vocabulary.iter().find(|name| **name == token) {
                Some(name) => sel.select(name),
                None if tracing => match resolve_prefix(&vocabulary, token) {
                    Ok(name) => sel.select(name),
                    Err(reason) => faults.push((at, TRACE_READERS, reason)),
                },
                None => unknown.push(token.to_string()),
            }
        }
        if !unknown.is_empty() {
            return Err(SelectionError::Unknown(unknown));
        }

        let mut chosen = named.clone();
        let has = |chosen: &[&str], ids: &[&str]| ids.iter().any(|id| chosen.contains(id));
        if sel.dag_only_workloads().next().is_some() && !has(&named, &["dag", "trace"]) {
            chosen.push("dag");
        }
        if out_seen && !has(&chosen, &["trace"]) {
            chosen.push("trace");
        }
        if budget_seen && !has(&chosen, &["plan", "dag"]) {
            chosen.push("plan");
        }
        if sel.trace && !has(&chosen, &["plan", "dag", "delta"]) {
            chosen.push("plan");
        }
        let selectors = ["frontier", "plan", "dag", "delta", "trace"];
        if (scale_seen || !names.is_empty()) && !has(&chosen, &selectors) {
            chosen.push("frontier");
        }
        sel.experiments = all
            .iter()
            .map(|e| e.id)
            .filter(|id| chosen.is_empty() || chosen.contains(id))
            .collect();

        // The first selected experiment to read a malformed token refuses
        // it: the one that would have run into it first. Every kind of
        // token implies a reader, so each fault has one.
        let refusals = faults.into_iter().filter_map(|(at, readers, reason)| {
            let (rank, &experiment) =
                (sel.experiments.iter().enumerate()).find(|(_, e)| readers.contains(e))?;
            Some(((rank, at), SelectionError::Refused { experiment, reason }))
        });
        match refusals.min_by_key(|(order, _)| *order) {
            Some((_, refusal)) => Err(refusal),
            None => Ok(sel),
        }
    }

    /// Adds a vocabulary name to the families and/or workloads it names.
    fn select(&mut self, name: &'static str) {
        if available_families().contains(&name) && !self.families.contains(&name) {
            self.families.push(name);
        }
        if let Some(w) = DagWorkload::ALL.into_iter().find(|w| w.name() == name) {
            if !self.workloads.contains(&w) {
                self.workloads.push(w);
            }
        }
    }

    /// The named DAG workloads that are no registry family (`join-agg`),
    /// in command-line order: names `frontier`, `plan` and `delta` do
    /// not run.
    pub(crate) fn dag_only_workloads(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.workloads
            .iter()
            .map(DagWorkload::name)
            .filter(|name| !self.families.contains(name))
    }
}

/// Every family and workload name, families first: the registry list,
/// then the DAG workloads it does not already hold.
pub fn vocabulary() -> Vec<&'static str> {
    let mut names = available_families();
    for w in DagWorkload::ALL {
        if !names.contains(&w.name()) {
            names.push(w.name());
        }
    }
    names
}

/// Resolves `token` as a unique prefix of a vocabulary name.
fn resolve_prefix(vocabulary: &[&'static str], token: &str) -> Result<&'static str, String> {
    let matches: Vec<&'static str> = vocabulary
        .iter()
        .copied()
        .filter(|name| name.starts_with(token))
        .collect();
    match matches.as_slice() {
        [name] => Ok(name),
        [] => Err(format!(
            "unknown trace workload '{token}'; workloads: {}",
            vocabulary.join(", ")
        )),
        many => Err(format!(
            "ambiguous trace workload '{token}' (matches {})",
            many.join(", ")
        )),
    }
}

/// Parses the value following [`Q_BUDGET_FLAG`] (`None` when there is
/// none) into a positive reducer budget.
fn q_budget(value: Option<&str>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{Q_BUDGET_FLAG} requires a value"))?;
    let q: u64 = value
        .parse()
        .map_err(|_| format!("{Q_BUDGET_FLAG} value '{value}' is not a number"))?;
    if q == 0 {
        return Err(format!("{Q_BUDGET_FLAG} must be positive"));
    }
    Ok(q)
}

/// The scale tokens joined by `sep`, for messages.
pub(crate) fn scale_names(sep: &str) -> String {
    Scale::ALL.map(Scale::name).join(sep)
}

/// An experiment's refusal of a name it does not run: the name, what the
/// experiment does run (`listing`, e.g. `families: …`), the scales and,
/// for `plan`/`dag`, the budget flag.
pub(crate) fn unknown_selector(
    experiment: &str,
    name: &str,
    listing: &str,
    budget: bool,
) -> String {
    let mut reason = format!(
        "unknown {experiment} selector '{name}'; {listing}; scales: {}",
        scale_names(", ")
    );
    if budget {
        reason.push_str(&format!("; budget: {Q_BUDGET_FLAG} N"));
    }
    reason
}

/// The check of `frontier` and `delta`, which run registry families: a
/// DAG-only workload (`join-agg`) is refused.
pub(crate) fn families_only(experiment: &str, sel: &Selection) -> Result<(), String> {
    match sel.dag_only_workloads().next() {
        Some(name) => {
            let listing = format!("families: {}", available_families().join(", "));
            Err(unknown_selector(experiment, name, &listing, false))
        }
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Selection, SelectionError> {
        let args: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        Selection::parse(&args)
    }

    fn experiments(tokens: &[&str]) -> Vec<&'static str> {
        parse(tokens)
            .expect("a well-formed command line")
            .experiments
    }

    fn refused(tokens: &[&str]) -> (&'static str, String) {
        match parse(tokens) {
            Err(SelectionError::Refused { experiment, reason }) => (experiment, reason),
            other => panic!("{tokens:?} must be refused, parsed to {other:?}"),
        }
    }

    #[test]
    fn every_implication_rule_routes_as_documented() {
        let all: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
        let rows: &[(&[&str], &[&str])] = &[
            // Nothing named or implied: every experiment.
            (&[], &all),
            // Named ids run in presentation order, not typed order.
            (&["fig1", "table1"], &["table1", "fig1"]),
            // Rule 1: a DAG-only workload implies dag…
            (&["join-agg", "small"], &["dag"]),
            (&["frontier", "join-agg"], &["frontier", "dag"]),
            // …unless dag or trace is named.
            (&["dag", "join-agg"], &["dag"]),
            (&["trace", "join-agg"], &["trace"]),
            // Rule 2: --out implies trace.
            (&["--out", "t.json"], &["trace"]),
            (&["plan", "--out", "t.json"], &["plan", "trace"]),
            // Rule 3: --q-budget implies plan unless plan or dag is chosen.
            (&["--q-budget", "8"], &["plan"]),
            (&["dag", "--q-budget", "8"], &["dag"]),
            (&["delta", "small", "--q-budget", "8"], &["plan", "delta"]),
            (&["join-agg", "--q-budget", "8"], &["dag"]),
            // Rule 4: --trace implies plan unless plan, dag or delta is.
            (&["--trace", "small"], &["plan"]),
            (&["delta", "--trace"], &["delta"]),
            (&["dag", "--trace"], &["dag"]),
            (&["trace", "--trace"], &["plan", "trace"]),
            // Rule 5: a bare family, workload or scale implies frontier…
            (&["small"], &["frontier"]),
            (&["hamming-d1", "small"], &["frontier"]),
            (&["table1", "matmul"], &["table1", "frontier"]),
            // …unless an experiment that reads it is chosen.
            (&["delta", "small", "triangles"], &["delta"]),
            (&["--out", "t.json", "small"], &["trace"]),
        ];
        for (tokens, expected) in rows {
            assert_eq!(experiments(tokens), *expected, "{tokens:?}");
        }
    }

    #[test]
    fn names_land_in_families_and_workloads() {
        let sel = parse(&["dag", "join-agg", "matmul", "small"]).unwrap();
        assert_eq!(sel.families, vec!["matmul"]);
        assert_eq!(
            sel.workloads,
            vec![DagWorkload::JoinAgg, DagWorkload::MatMul]
        );
        assert_eq!(
            sel.dag_only_workloads().collect::<Vec<_>>(),
            vec!["join-agg"]
        );
        assert_eq!(sel.scale, Some(Scale::Small));
        let sel = parse(&["trace", "small", "--out", "t.json"]).unwrap();
        assert_eq!(sel.out.as_deref(), Some("t.json"));
        assert!(!sel.trace);
        assert!(parse(&["plan", "--trace"]).unwrap().trace);
    }

    #[test]
    fn prefixes_resolve_only_when_trace_is_named() {
        let sel = parse(&["trace", "hamming"]).unwrap();
        assert_eq!(sel.families, vec!["hamming-d1"]);
        assert_eq!(sel.workloads, vec![DagWorkload::Hamming]);
        assert_eq!(
            parse(&["frontier", "hamming"]),
            Err(SelectionError::Unknown(vec!["hamming".to_string()]))
        );
        assert_eq!(
            refused(&["trace", "join"]),
            (
                "trace",
                "ambiguous trace workload 'join' (matches join-cycle3, join-agg)".to_string()
            )
        );
        let (experiment, reason) = refused(&["trace", "bogus"]);
        assert_eq!(experiment, "trace");
        assert!(reason.starts_with("unknown trace workload 'bogus'; workloads: hamming-d1"));
    }

    #[test]
    fn scale_tokens_roundtrip() {
        for scale in Scale::ALL {
            assert_eq!(parse(&[scale.name()]).unwrap().scale, Some(scale));
        }
        assert_eq!(parse(&["plan"]).unwrap().scale, None);
        assert!(matches!(parse(&["huge"]), Err(SelectionError::Unknown(_))));
    }

    #[test]
    fn q_budgets_must_be_positive() {
        assert_eq!(parse(&["--q-budget", "48"]).unwrap().q_budget, Some(48));
        assert_eq!(
            parse(&["--q-budget", "8", "--q-budget", "16"])
                .unwrap()
                .q_budget,
            Some(16)
        );
        let reason = |tokens: &[&str]| refused(tokens).1;
        assert_eq!(reason(&["--q-budget", "0"]), "--q-budget must be positive");
        assert_eq!(
            reason(&["--q-budget", "abc"]),
            "--q-budget value 'abc' is not a number"
        );
        assert_eq!(reason(&["--q-budget"]), "--q-budget requires a value");
    }

    #[test]
    fn a_value_flag_never_takes_a_flag_as_its_value() {
        assert_eq!(
            refused(&["trace", "small", "--out", "--trace"]),
            ("trace", "--out requires a path".to_string())
        );
        assert_eq!(
            refused(&["plan", "--q-budget", "--trace"]),
            ("plan", "--q-budget requires a value".to_string())
        );
        // A value that is no flag is taken, whatever else it names.
        assert_eq!(
            parse(&["--out", "plan"]).unwrap().out.as_deref(),
            Some("plan")
        );
    }

    #[test]
    fn second_scale_is_rejected() {
        let reason = "at most one scale selector (small/default/full) is allowed";
        for (tokens, experiment) in [
            (&["small", "full"][..], "frontier"),
            (&["dag", "small", "small"], "dag"),
            (&["delta", "plan", "small", "full"], "plan"),
            (&["trace", "full", "small"], "trace"),
        ] {
            assert_eq!(
                refused(tokens),
                (experiment, reason.to_string()),
                "{tokens:?}"
            );
        }
    }

    #[test]
    fn a_fault_goes_to_the_first_experiment_that_reads_it() {
        // frontier reads the second scale before plan reads the budget.
        assert_eq!(
            refused(&["frontier", "--q-budget", "abc", "small", "full"]).0,
            "frontier"
        );
        // Only plan and dag read a budget, only trace an --out.
        assert_eq!(refused(&["delta", "--q-budget", "abc"]).0, "plan");
        assert_eq!(refused(&["dag", "frontier", "--out"]).0, "trace");
    }

    #[test]
    fn families_are_picked_once() {
        let once = parse(&["plan", "small", "matmul", "two-path"]).unwrap();
        let twice = parse(&["plan", "matmul", "small", "two-path", "matmul"]).unwrap();
        assert_eq!(once, twice);
        assert_eq!(once.families, vec!["matmul", "two-path"]);
        assert_eq!(once.workloads, vec![DagWorkload::MatMul]);
    }

    #[test]
    fn unknown_tokens_print_the_vocabulary() {
        let err = parse(&["bogus", "small", "--q-budget=8"]).unwrap_err();
        assert_eq!(
            err,
            SelectionError::Unknown(vec!["bogus".to_string(), "--q-budget=8".to_string()])
        );
        let text = err.to_string();
        assert!(text.starts_with("unknown experiment(s) [\"bogus\", \"--q-budget=8\"]\n"));
        assert!(text.contains("available experiments: table1, table2, fig1"));
        assert!(text.contains("frontier selectors: hamming-d1, "));
        assert!(text.ends_with("plan flags: --q-budget N; trace flags: --trace, --out PATH"));
    }
}
