//! Every rule against a positive and a negative fixture: the positive
//! fixture must produce exactly the expected findings, the negative one
//! none. Fixtures live under `tests/fixtures/` — outside the walker's
//! `src/` scope, so the workspace scan never sees their trigger tokens.

use ust_lint::analyze_str;
use ust_lint::rules::RuleId;

/// A path outside the alloc rule's scope; the lock rules run everywhere.
const ENGINE_PATH: &str = "crates/core/src/engine/plan.rs";

fn rules_fired(path: &str, src: &str) -> Vec<RuleId> {
    analyze_str(path, src).findings.into_iter().map(|f| f.rule).collect()
}

/// The alloc rule's only scope: the propagation kernels.
const KERNELS_PATH: &str = "crates/markov/src/kernels.rs";

#[test]
fn lock_order_positive() {
    let report = analyze_str(ENGINE_PATH, include_str!("fixtures/lock_order_pos.rs"));
    let inversions: Vec<_> =
        report.findings.iter().filter(|f| f.rule == RuleId::LockOrderInversion).collect();
    assert_eq!(inversions.len(), 1, "findings: {:?}", report.findings);
    // The finding names both locks and both witness chains.
    let msg = &inversions[0].message;
    assert!(msg.contains("Ledger.accounts") && msg.contains("Journal.entries"), "{msg}");
    assert!(msg.contains("`Ledger.accounts` → `Journal.entries`"), "{msg}");
    assert!(msg.contains("`Journal.entries` → `Ledger.accounts`"), "{msg}");
    // Both nesting directions are recorded as edges.
    assert_eq!(report.lock_edges.len(), 2, "{:?}", report.lock_edges);
}

#[test]
fn lock_order_negative() {
    let report = analyze_str(ENGINE_PATH, include_str!("fixtures/lock_order_neg.rs"));
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
    // The consistent order still contributes its edge to the graph.
    assert_eq!(report.lock_edges.len(), 1, "{:?}", report.lock_edges);
    assert_eq!(report.lock_edges[0].from, "Ledger.accounts");
    assert_eq!(report.lock_edges[0].to, "Journal.entries");
}

/// The mutation test: seeding a reversed acquisition into the clean
/// fixture (swapping the two lock statements of `audit`) must be caught
/// as `lock-order-inversion`.
#[test]
fn seeded_reversed_acquisition_is_caught() {
    let clean = include_str!("fixtures/lock_order_neg.rs");
    let acct =
        "let accounts = ledger.accounts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);";
    let entr =
        "let entries = journal.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);";
    // Swap the acquisition order in the *second* function only.
    let reversed = {
        let split = clean.rfind(acct).expect("fixture contains the accounts acquisition");
        let (head, tail) = clean.split_at(split);
        let tail =
            tail.replacen(acct, "SWAP_A", 1).replacen(entr, acct, 1).replacen("SWAP_A", entr, 1);
        format!("{head}{tail}")
    };
    assert_ne!(clean, reversed, "the mutation must change the source");
    let fired = rules_fired(ENGINE_PATH, &reversed);
    assert!(fired.contains(&RuleId::LockOrderInversion), "fired: {fired:?}");
}

/// The standalone seeded-inversion mini-workspace CI runs `ust-lint
/// --root` against must be rejected, through the library and the binary.
#[test]
fn seeded_inversion_crate_is_rejected() {
    let dir =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/inversion_crate");
    let report = ust_lint::analyze_workspace(&dir).expect("fixture crate scans");
    assert!(
        report.findings.iter().any(|f| f.rule == RuleId::LockOrderInversion),
        "findings: {:?}",
        report.findings
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ust-lint"))
        .args(["--root".as_ref(), dir.as_os_str(), "--deny".as_ref()])
        .output()
        .expect("ust-lint binary runs");
    assert_eq!(out.status.code(), Some(1), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("lock-order-inversion"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn lock_blocking_positive() {
    let report = analyze_str(ENGINE_PATH, include_str!("fixtures/lock_blocking_pos.rs"));
    let blocking: Vec<_> =
        report.findings.iter().filter(|f| f.rule == RuleId::LockHeldAcrossBlocking).collect();
    assert_eq!(blocking.len(), 1, "findings: {:?}", report.findings);
    // The held (non-consumed) guard is named; the consumed one is exempt.
    assert!(blocking[0].message.contains("Stats.totals"), "{}", blocking[0].message);
    assert!(!blocking[0].message.contains("Gate.slots"), "{}", blocking[0].message);
}

#[test]
fn lock_blocking_negative() {
    let report = analyze_str(ENGINE_PATH, include_str!("fixtures/lock_blocking_neg.rs"));
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

/// A guard held across a scoped-thread fan-out — `parallel::run_sharded`
/// under a held lock — is flagged; dropping the guard first clears it.
#[test]
fn lock_held_across_scoped_fan_out() {
    let src = include_str!("fixtures/lock_scope_pos.rs");
    let report = analyze_str(ENGINE_PATH, src);
    assert!(!report.findings.is_empty(), "the fan-out must be flagged");
    for finding in &report.findings {
        assert_eq!(finding.rule, RuleId::LockHeldAcrossBlocking, "{finding}");
        assert!(finding.message.contains("Registry.entries"), "{}", finding.message);
    }
    let held = "let base = entries.len() as u64;";
    let dropped = src.replacen(held, &format!("{held}\n        drop(entries);"), 1);
    assert_ne!(dropped, src, "the mutation must change the source");
    assert_eq!(rules_fired(ENGINE_PATH, &dropped), [], "no guard is live at the fan-out");
}

#[test]
fn alloc_hot_loop_positive_in_scope() {
    let src = include_str!("fixtures/alloc_hot_loop_pos.rs");
    let fired = rules_fired(KERNELS_PATH, src);
    // `.push`, `vec!` and `.to_vec` inside loop bodies; the loop-free
    // `Vec::new` does not fire.
    assert_eq!(
        fired.iter().filter(|r| **r == RuleId::AllocInKernelHotLoop).count(),
        3,
        "{fired:?}"
    );
    // Outside the kernels the same source is clean.
    let fired = rules_fired(ENGINE_PATH, src);
    assert!(!fired.contains(&RuleId::AllocInKernelHotLoop), "fired: {fired:?}");
}

#[test]
fn alloc_hot_loop_negative() {
    let report = analyze_str(KERNELS_PATH, include_str!("fixtures/alloc_hot_loop_neg.rs"));
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

#[test]
fn findings_carry_positions_and_render_stably() {
    let report = analyze_str(KERNELS_PATH, include_str!("fixtures/alloc_hot_loop_pos.rs"));
    let f = &report.findings[0];
    assert_eq!(f.file, KERNELS_PATH);
    assert!(f.line > 0 && f.col > 0);
    let rendered = f.to_string();
    assert!(rendered.starts_with(&format!("{KERNELS_PATH}:{}:{}: ", f.line, f.col)), "{rendered}");
    assert!(rendered.contains("[alloc-in-kernel-hot-loop]"), "{rendered}");
    let json = report.to_json();
    assert!(json.contains("\"rule\": \"alloc-in-kernel-hot-loop\""), "{json}");
    assert!(json.contains("\"finding_count\": 3"), "{json}");
}
