//! `repro`'s grammar, [`Selection::parse`], on command lines nobody
//! wrote: sequences of up to eight tokens drawn from the vocabulary, the
//! flags, numbers and junk. It never panics, it is deterministic, a
//! parsed selection is well-formed, and naming a family or workload
//! twice selects the same thing as naming it once.

use mr_bench::experiments;
use mr_bench::selection::{vocabulary, Selection};
use proptest::prelude::*;

/// Every token the generator draws from.
fn pool() -> Vec<String> {
    let mut tokens: Vec<String> = experiments::all()
        .iter()
        .map(|e| e.id.to_string())
        .collect();
    tokens.extend(vocabulary().iter().map(|name| name.to_string()));
    let others = [
        "small",
        "default",
        "full",
        "--q-budget",
        "--out",
        "--trace",
        "0",
        "8",
        "16",
        "abc",
        "-3",
        "18446744073709551616",
        "hamming",
        "join",
        "tri",
        "m",
        "t.json",
        "list",
        "",
        "--",
        "-",
        "--q-budget=8",
        "--bogus",
        "ß",
        "日本語",
        "é",
    ];
    tokens.extend(others.iter().map(|t| t.to_string()));
    tokens
}

/// A command line of 0–8 tokens from [`pool`].
fn command_line() -> impl Strategy<Value = Vec<String>> {
    let pool = pool();
    let len = pool.len();
    collection::vec(0..len, 0..=8)
        .prop_map(move |picks| picks.into_iter().map(|i| pool[i].clone()).collect())
}

/// The positions a token can be inserted at without becoming the value
/// of the flag before it.
fn free_slots(tokens: &[String]) -> Vec<usize> {
    (0..=tokens.len())
        .filter(|&j| j == 0 || !["--out", "--q-budget"].contains(&tokens[j - 1].as_str()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_is_total_and_deterministic(tokens in command_line()) {
        let first = Selection::parse(&tokens);
        prop_assert_eq!(&first, &Selection::parse(&tokens), "{:?}", tokens);
        if let Ok(sel) = first {
            let ids: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
            let order: Vec<usize> = sel
                .experiments
                .iter()
                .map(|id| ids.iter().position(|known| known == id).expect("a known id"))
                .collect();
            prop_assert!(!order.is_empty(), "{:?} selects nothing", tokens);
            prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", tokens, sel);
            prop_assert!(sel.q_budget != Some(0));
        }
    }

    #[test]
    fn a_repeated_name_selects_it_once(
        tokens in command_line(),
        name in 0usize..64,
        first in 0usize..9,
        second in 0usize..10,
    ) {
        let names = vocabulary();
        let name = names[name % names.len()].to_string();
        let mut once = tokens;
        let slots = free_slots(&once);
        once.insert(slots[first % slots.len()], name.clone());
        // The repeat goes after the name's first appearance as a name:
        // selections keep command-line order.
        let leader = (0..once.len())
            .find(|&k| once[k] == name && free_slots(&once).contains(&k))
            .expect("the inserted name");
        let mut twice = once.clone();
        let slots: Vec<usize> = free_slots(&twice).into_iter().filter(|&j| j > leader).collect();
        twice.insert(slots[second % slots.len()], name);
        prop_assert_eq!(
            Selection::parse(&once),
            Selection::parse(&twice),
            "{:?} vs {:?}",
            once,
            twice
        );
    }
}
