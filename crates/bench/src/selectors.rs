//! Shared CLI selector parsing for the `repro` experiments that take
//! family/scale tokens (`frontier`, `plan`) and a reducer budget (`plan`,
//! `dag`), so the vocabularies cannot drift apart token by token.

use mr_core::family::Scale;

/// Parses a scale token ([`Scale::name`] of one of [`Scale::ALL`]).
pub(crate) fn scale_token(token: &str) -> Option<Scale> {
    Scale::ALL.into_iter().find(|s| s.name() == token)
}

/// The scale tokens joined by `sep`, for messages.
pub(crate) fn scale_names(sep: &str) -> String {
    Scale::ALL.map(Scale::name).join(sep)
}

/// The token that introduces the reducer budget.
pub const Q_BUDGET_FLAG: &str = "--q-budget";

/// Parses the value following [`Q_BUDGET_FLAG`] (`None` when the flag
/// ended the argument list) into a positive reducer budget.
pub(crate) fn q_budget(value: Option<&String>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{Q_BUDGET_FLAG} requires a value"))?;
    let q: u64 = value
        .parse()
        .map_err(|_| format!("{Q_BUDGET_FLAG} value '{value}' is not a number"))?;
    if q == 0 {
        return Err(format!("{Q_BUDGET_FLAG} must be positive"));
    }
    Ok(q)
}

/// Records a scale selection, rejecting a second one.
pub(crate) fn set_scale(slot: &mut Option<Scale>, scale: Scale) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!(
            "at most one scale selector ({}) is allowed",
            scale_names("/")
        ));
    }
    *slot = Some(scale);
    Ok(())
}

/// Adds `token` to `picked` when it names one of `names` (deduplicated,
/// canonical `&'static str`). Returns whether it matched.
pub(crate) fn pick_family(
    names: &[&'static str],
    token: &str,
    picked: &mut Vec<&'static str>,
) -> bool {
    match names.iter().find(|n| **n == token) {
        Some(&canon) => {
            if !picked.contains(&canon) {
                picked.push(canon);
            }
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_tokens_roundtrip() {
        assert_eq!(scale_token("small"), Some(Scale::Small));
        assert_eq!(scale_token("default"), Some(Scale::Default));
        assert_eq!(scale_token("full"), Some(Scale::Full));
        assert_eq!(scale_token("huge"), None);
    }

    #[test]
    fn q_budgets_must_be_positive() {
        // The missing and non-numeric values are covered through both
        // experiments' `bad_tokens_are_reported_with_the_vocabulary`.
        assert_eq!(q_budget(Some(&"48".to_string())), Ok(48));
        assert!(q_budget(Some(&"0".to_string()))
            .unwrap_err()
            .contains("must be positive"));
    }

    #[test]
    fn second_scale_is_rejected() {
        let mut slot = None;
        set_scale(&mut slot, Scale::Small).unwrap();
        assert!(set_scale(&mut slot, Scale::Full).is_err());
        assert_eq!(slot, Some(Scale::Small));
    }

    #[test]
    fn families_are_picked_once() {
        let names = ["a", "b"];
        let mut picked = Vec::new();
        assert!(pick_family(&names, "a", &mut picked));
        assert!(pick_family(&names, "a", &mut picked));
        assert!(!pick_family(&names, "c", &mut picked));
        assert_eq!(picked, vec!["a"]);
    }
}
