//! Waiver hygiene and robustness: stale and malformed waivers are findings
//! themselves, doc comments never carry waivers, and property tests pin
//! that trigger text hidden in comments or string literals can never fire
//! a rule — the lexer, not a regex, decides what is code.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_lint::analyze_str;
use ust_lint::rules::RuleId;
use ust_lint::waiver::{parse_directive, WaiverError};

/// The kernels file: the one scope of `alloc-in-kernel-hot-loop`, the rule
/// whose triggers are single expressions inside a loop.
const PATH: &str = "crates/markov/src/kernels.rs";

#[test]
fn unused_waiver_is_a_finding() {
    let src = "// lint: allow(alloc-in-kernel-hot-loop) — nothing to suppress here\n\
               pub fn fine() -> u64 { 7 }\n";
    let report = analyze_str(PATH, src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, RuleId::UnusedWaiver);
}

#[test]
fn malformed_waivers_are_findings() {
    for bad in [
        "// lint: allow(alloc-in-kernel-hot-loop)\n", // missing reason
        "// lint: allow(no-such-rule) — why\n",       // unknown rule
        "// lint: allow(panicking-call-in-lib) — why\n", // a rule clippy took over
        "// lint: forbid(alloc-in-kernel-hot-loop) — why\n", // unknown verb
        "// lint: allow(unused-waiver) — why\n",      // unwaivable rule
        "// lint: allow() — why\n",                   // empty rule list
    ] {
        let report = analyze_str(PATH, bad);
        assert_eq!(report.findings.len(), 1, "source: {bad}");
        assert_eq!(report.findings[0].rule, RuleId::MalformedWaiver, "source: {bad}");
    }
}

#[test]
fn doc_comments_never_carry_waivers() {
    // A doc comment quoting the waiver syntax is documentation, not a
    // directive: it neither suppresses the finding below it nor counts as
    // unused or malformed.
    let src = "/// Write `lint: allow(alloc-in-kernel-hot-loop) — reason` to waive.\n\
               pub fn documented(v: &mut Vec<u64>) { for i in 0..3 { v.push(i); } }\n";
    let report = analyze_str(PATH, src);
    let fired: Vec<RuleId> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(fired, [RuleId::AllocInKernelHotLoop]);
    assert!(report.waivers.is_empty());
}

#[test]
fn trailing_waiver_covers_its_own_line() {
    let src = "pub fn fill(v: &mut Vec<u64>) {\n\
                   for i in 0..3 { v.push(i); } // lint: allow(alloc-in-kernel-hot-loop) — fixture\n\
               }\n";
    let report = analyze_str(PATH, src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn parse_rejects_with_precise_errors() {
    assert!(matches!(
        parse_directive("allow(lock-order-inversion)"),
        Err(WaiverError::MissingReason)
    ));
    assert!(matches!(parse_directive("allow(nope) — r"), Err(WaiverError::UnknownRule(_))));
    assert!(matches!(
        parse_directive("allow(malformed-waiver) — r"),
        Err(WaiverError::Unwaivable(RuleId::MalformedWaiver))
    ));
    assert!(matches!(parse_directive("deny(x) — r"), Err(WaiverError::UnknownDirective(_))));
}

/// Allocation triggers, each an expression that fires inside a kernel loop.
const TRIGGERS: [&str; 5] =
    ["v.push(1)", "vec![0u8; 4]", "Vec::new()", "s.to_vec()", "s.iter().collect::<Vec<_>>()"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A trigger smuggled into a comment, doc comment, string, or raw
    /// string inside the loop never fires any rule: the lexer sees trivia,
    /// not code.
    #[test]
    fn triggers_in_trivia_never_fire(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trigger = TRIGGERS[rng.random_range(0usize..TRIGGERS.len())];
        let body = match rng.random_range(0u8..5) {
            0 => format!("// {trigger}\n"),
            1 => format!("/// {trigger}\n"),
            2 => format!("/* outer /* {trigger} */ nested */"),
            3 => format!("let _ = \"{trigger}\";"),
            _ => format!("let _ = r#\"{trigger}\"#;"),
        };
        let src = format!("pub fn f() {{ for _ in 0..2 {{ {body} }} }}\n");
        let report = analyze_str(PATH, &src);
        prop_assert!(report.findings.is_empty(), "src: {src}  findings: {:?}", report.findings);
    }

    /// The same trigger as real code always fires — the complement of the
    /// immunity property, so both directions are pinned.
    #[test]
    fn triggers_in_code_always_fire(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trigger = TRIGGERS[rng.random_range(0usize..TRIGGERS.len())];
        let src = format!(
            "pub fn f(v: &mut Vec<u8>, s: &[u8]) {{ for _ in 0..2 {{ let _ = {trigger}; }} }}\n"
        );
        let report = analyze_str(PATH, &src);
        prop_assert!(!report.findings.is_empty(), "src: {src}");
    }
}
