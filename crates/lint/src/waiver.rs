//! Waiver directives: the inline escape hatch, with a required reason.
//!
//! A waiver is written in a **plain** (non-doc) comment:
//!
//! ```text
//! // lint: allow(lock-held-across-blocking) — the registry guard is held for exactly-once init
//! ```
//!
//! `allow(...)` covers the comment's own line when it trails code, else the
//! next line that holds code. Several rules may be waived at once
//! (`allow(a, b)`), the separator may be an em dash, `--`, `-` or `:`, and
//! the reason is mandatory — a waiver without a justification is a
//! [`RuleId::MalformedWaiver`] finding, and a waiver that suppresses
//! nothing is [`RuleId::UnusedWaiver`]. Doc comments never carry waivers,
//! so documentation may quote the syntax freely.

use crate::rules::RuleId;

/// A parsed waiver directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rules this waiver suppresses.
    pub rules: Vec<RuleId>,
    /// The mandatory human justification.
    pub reason: String,
}

/// Why a `lint:` directive failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaiverError {
    /// The directive verb was not `allow`.
    UnknownDirective(String),
    /// The parenthesized rule list was missing or unbalanced.
    BadRuleList,
    /// A rule name that the registry does not know.
    UnknownRule(String),
    /// The named rule exists but may not be waived.
    Unwaivable(RuleId),
    /// Missing separator or empty reason after the rule list.
    MissingReason,
}

impl std::fmt::Display for WaiverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaiverError::UnknownDirective(d) => {
                write!(f, "unknown lint directive `{d}` (expected `allow`)")
            }
            WaiverError::BadRuleList => {
                write!(f, "expected a parenthesized rule list after `allow`")
            }
            WaiverError::UnknownRule(r) => write!(f, "unknown rule id `{r}`"),
            WaiverError::Unwaivable(r) => write!(f, "rule `{}` cannot be waived", r.name()),
            WaiverError::MissingReason => {
                write!(f, "waiver needs a reason: `lint: allow(<rule>) — <why>`")
            }
        }
    }
}

/// Extracts the directive body from a comment, if the comment is a
/// non-doc comment starting with `lint:`. Returns `None` for ordinary
/// comments and all doc comments.
pub fn directive_body(comment_text: &str, is_doc: bool) -> Option<&str> {
    if is_doc {
        return None;
    }
    let body = comment_text
        .strip_prefix("//")
        .or_else(|| comment_text.strip_prefix("/*").map(|b| b.strip_suffix("*/").unwrap_or(b)))?;
    let body = body.trim_start();
    body.strip_prefix("lint:").map(str::trim)
}

/// Parses the body of a `lint:` directive (everything after `lint:`).
pub fn parse_directive(body: &str) -> Result<Waiver, WaiverError> {
    let body = body.trim();
    let (verb, rest) =
        body.split_at(body.find(|c: char| c.is_whitespace() || c == '(').unwrap_or(body.len()));
    if verb != "allow" {
        return Err(WaiverError::UnknownDirective(verb.to_string()));
    }
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(').ok_or(WaiverError::BadRuleList)?;
    let close = rest.find(')').ok_or(WaiverError::BadRuleList)?;
    let (list, tail) = rest.split_at(close);
    let tail = &tail[1..]; // drop ')'

    let mut rules = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return Err(WaiverError::BadRuleList);
        }
        let rule =
            RuleId::from_name(name).ok_or_else(|| WaiverError::UnknownRule(name.to_string()))?;
        if !rule.waivable() {
            return Err(WaiverError::Unwaivable(rule));
        }
        rules.push(rule);
    }
    if rules.is_empty() {
        return Err(WaiverError::BadRuleList);
    }

    let reason = strip_separator(tail).ok_or(WaiverError::MissingReason)?;
    if reason.is_empty() {
        return Err(WaiverError::MissingReason);
    }
    Ok(Waiver { rules, reason: reason.to_string() })
}

/// Strips one reason separator (`—`, `–`, `--`, `-`, `:`) and surrounding
/// whitespace; `None` if no separator is present.
fn strip_separator(tail: &str) -> Option<&str> {
    let tail = tail.trim_start();
    for sep in ["—", "–", "--", "-", ":"] {
        if let Some(reason) = tail.strip_prefix(sep) {
            return Some(reason.trim());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_form() {
        let w = parse_directive("allow(lock-held-across-blocking) — the waiter never takes it")
            .expect("canonical waiver parses");
        assert_eq!(w.rules, vec![RuleId::LockHeldAcrossBlocking]);
        assert_eq!(w.reason, "the waiter never takes it");
    }

    #[test]
    fn parses_multi_rule_and_ascii_separators() {
        let rules = "lock-order-inversion, alloc-in-kernel-hot-loop";
        for sep in ["—", "--", "-", ":"] {
            let w = parse_directive(&format!("allow({rules}) {sep} keyed lookups only"))
                .expect("waiver with every separator parses");
            assert_eq!(w.rules, vec![RuleId::LockOrderInversion, RuleId::AllocInKernelHotLoop]);
            assert_eq!(w.reason, "keyed lookups only");
        }
        // Only the first separator is one: dashes, colons and non-ASCII
        // text in the reason are kept verbatim.
        for (body, reason) in [
            ("allow(lock-order-inversion) — a - b: c -- d", "a - b: c -- d"),
            ("allow(lock-order-inversion) -- §ünïcode — reason", "§ünïcode — reason"),
            ("allow(lock-order-inversion): x: y", "x: y"),
        ] {
            assert_eq!(parse_directive(body).map(|w| w.reason), Ok(reason.to_string()), "{body}");
        }
    }

    #[test]
    fn rejects_missing_reason_unknown_rule_and_unwaivable() {
        assert_eq!(parse_directive("allow(lock-order-inversion)"), Err(WaiverError::MissingReason));
        assert_eq!(
            parse_directive("allow(lock-order-inversion) — "),
            Err(WaiverError::MissingReason)
        );
        assert!(matches!(parse_directive("allow(no-such) — x"), Err(WaiverError::UnknownRule(_))));
        assert_eq!(
            parse_directive("allow(unused-waiver) — x"),
            Err(WaiverError::Unwaivable(RuleId::UnusedWaiver))
        );
        assert!(matches!(
            parse_directive("alow(lock-order-inversion) — typo"),
            Err(WaiverError::UnknownDirective(_))
        ));
        assert_eq!(
            parse_directive("allow-file(lock-order-inversion) — x"),
            Err(WaiverError::UnknownDirective("allow-file".to_string()))
        );
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        assert_eq!(directive_body("/// lint: allow(lock-order-inversion) — quoted", true), None);
        assert!(directive_body("// lint: allow(x) — y", false).is_some());
        assert!(directive_body("/* lint: allow(x) — y */", false).is_some());
        assert_eq!(directive_body("// plain comment", false), None);
    }
}
