//! The rule registry: identifiers, descriptions and path scoping.
//!
//! Each rule needs what only this analyzer has — the item parse, the
//! workspace call graph and the guard-liveness dataflow — plus the two
//! rules that keep its waivers honest. Token-level conventions (SAFETY
//! comments, no panics in library code, no clock reads or hashed
//! containers on answer paths) are clippy's; ARCHITECTURE.md's "Enforced
//! invariants" section maps each to its lint.

/// Identifies one conformance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// Two lock acquisition orders form a cycle in the workspace
    /// lock-order graph (a deadlock waiting for the right interleaving).
    LockOrderInversion,
    /// A live lock guard is held across a blocking call (`Condvar::wait`,
    /// thread or pool `spawn`, `join`, ticket `wait*`, channel `recv*`).
    LockHeldAcrossBlocking,
    /// Heap allocation inside a propagation-kernel hot loop; kernels must
    /// recycle `SpmvScratch` buffers.
    AllocInKernelHotLoop,
    /// A waiver that suppressed nothing (stale after a fix, or misplaced).
    UnusedWaiver,
    /// A `lint:` directive that failed to parse (typo, unknown rule id,
    /// missing reason).
    MalformedWaiver,
}

/// Every rule the analyzer knows, in reporting order.
pub const ALL_RULES: [RuleId; 5] = [
    RuleId::LockOrderInversion,
    RuleId::LockHeldAcrossBlocking,
    RuleId::AllocInKernelHotLoop,
    RuleId::UnusedWaiver,
    RuleId::MalformedWaiver,
];

impl RuleId {
    /// The stable kebab-case identifier used in diagnostics and waivers.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::LockOrderInversion => "lock-order-inversion",
            RuleId::LockHeldAcrossBlocking => "lock-held-across-blocking",
            RuleId::AllocInKernelHotLoop => "alloc-in-kernel-hot-loop",
            RuleId::UnusedWaiver => "unused-waiver",
            RuleId::MalformedWaiver => "malformed-waiver",
        }
    }

    /// Parses a kebab-case rule name back to its id.
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale shown by `--list-rules` and in ARCHITECTURE.md.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::LockOrderInversion => {
                "the workspace lock-order graph (guard-liveness dataflow over \
                 the conservative call graph) must stay acyclic; a cycle is a \
                 deadlock waiting for the right thread interleaving"
            }
            RuleId::LockHeldAcrossBlocking => {
                "a lock guard held across `Condvar::wait`, a thread or pool \
                 `spawn`, `join`, ticket `wait*` or channel `recv*` stalls \
                 every thread contending on that lock; drop the guard first or \
                 waive with the protocol that makes it safe"
            }
            RuleId::AllocInKernelHotLoop => {
                "`Vec::new`/`vec!`/`.push`/`.to_vec`/`.collect` inside a \
                 propagation-kernel loop reintroduces the allocator into the \
                 hot path; kernels recycle `SpmvScratch` buffers instead"
            }
            RuleId::UnusedWaiver => {
                "a waiver that no longer suppresses any finding must be deleted \
                 so waivers stay a trustworthy audit trail"
            }
            RuleId::MalformedWaiver => {
                "a `lint:` directive that does not parse (unknown rule, missing \
                 reason) is an error, not a silent no-op"
            }
        }
    }

    /// Whether a waiver may suppress this rule. The two waiver-hygiene
    /// rules are themselves unwaivable.
    pub fn waivable(self) -> bool {
        !matches!(self, RuleId::UnusedWaiver | RuleId::MalformedWaiver)
    }

    /// Whether this rule inspects the file at `path` (workspace-relative,
    /// forward slashes). Test code is additionally excluded item by item
    /// via `#[cfg(test)]` region tracking, not here.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            // The propagation kernels are the only code with a measured
            // allocation budget (the `SpmvScratch` recycling contract).
            RuleId::AllocInKernelHotLoop => path == "crates/markov/src/kernels.rs",
            // The lock rules run wherever the symbol table does, and waiver
            // hygiene everywhere the analyzer looks.
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(RuleId::from_name(rule.name()), Some(rule));
        }
        assert_eq!(RuleId::from_name("no-such-rule"), None);
        // The token rules clippy took over are unknown names now.
        assert_eq!(RuleId::from_name("panicking-call-in-lib"), None);
    }

    #[test]
    fn scoping_matches_the_issue() {
        let alloc = RuleId::AllocInKernelHotLoop;
        assert!(alloc.applies_to("crates/markov/src/kernels.rs"));
        assert!(!alloc.applies_to("crates/markov/src/csr.rs"));
        assert!(!alloc.applies_to("crates/core/src/engine/pipeline.rs"));
        for rule in [RuleId::LockOrderInversion, RuleId::LockHeldAcrossBlocking] {
            assert!(rule.applies_to("crates/core/src/engine/refresh.rs"), "{rule:?}");
            assert!(rule.applies_to("crates/bench/src/lib.rs"), "{rule:?}");
        }
    }
}
