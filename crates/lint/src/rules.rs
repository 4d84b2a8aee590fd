//! The rule registry: identifiers, descriptions and path scoping.
//!
//! Each rule encodes one project invariant the test pyramid relies on but
//! nothing previously checked mechanically. Scoping is by workspace-relative
//! path (forward slashes): determinism rules only bite on the modules whose
//! determinism the equivalence tests pin, while safety rules apply
//! everywhere the analyzer looks.

/// Identifies one conformance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// `unsafe` must be preceded by a `// SAFETY:` comment or a `# Safety`
    /// doc section.
    UndocumentedUnsafe,
    /// `.lock()` must recover from poisoning via
    /// `PoisonError::into_inner`, never `.unwrap()` / `.expect()`.
    LockPoisonIdiom,
    /// `Instant::now` / `SystemTime::now` are forbidden in deterministic
    /// planning and kernel code.
    WallClockInDeterministicPath,
    /// `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in non-test library code need a waiver.
    PanickingCallInLib,
    /// `HashMap` / `HashSet` on answer-producing paths need a waiver
    /// documenting order-independence.
    UnorderedIterationOnAnswerPath,
    /// Two lock acquisition orders form a cycle in the workspace
    /// lock-order graph (a deadlock waiting for the right interleaving).
    LockOrderInversion,
    /// A live lock guard is held across a blocking call (`Condvar::wait`,
    /// pool `run_scoped`/`spawn`, ticket `wait*`, channel `recv*`).
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
pub const ALL_RULES: [RuleId; 10] = [
    RuleId::UndocumentedUnsafe,
    RuleId::LockPoisonIdiom,
    RuleId::WallClockInDeterministicPath,
    RuleId::PanickingCallInLib,
    RuleId::UnorderedIterationOnAnswerPath,
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
            RuleId::UndocumentedUnsafe => "undocumented-unsafe",
            RuleId::LockPoisonIdiom => "lock-poison-idiom",
            RuleId::WallClockInDeterministicPath => "wall-clock-in-deterministic-path",
            RuleId::PanickingCallInLib => "panicking-call-in-lib",
            RuleId::UnorderedIterationOnAnswerPath => "unordered-iteration-on-answer-path",
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
            RuleId::UndocumentedUnsafe => {
                "every `unsafe` block/fn/impl must be justified by a preceding \
                 `// SAFETY:` comment or `# Safety` doc section"
            }
            RuleId::LockPoisonIdiom => {
                "`.lock()` must recover from poisoning via \
                 `unwrap_or_else(PoisonError::into_inner)`; `.unwrap()`/`.expect()` \
                 would let one panicked worker wedge the whole serving tier"
            }
            RuleId::WallClockInDeterministicPath => {
                "`Instant::now`/`SystemTime::now` are forbidden where plans and \
                 kernels must be a pure function of their inputs; metrics-capture \
                 sites carry explicit waivers"
            }
            RuleId::PanickingCallInLib => {
                "`unwrap()`/`expect()`/`panic!`/`unreachable!` in non-test library \
                 code either becomes error propagation or carries a waiver stating \
                 why the panic is unreachable or is the documented contract"
            }
            RuleId::UnorderedIterationOnAnswerPath => {
                "`HashMap`/`HashSet` in answer-producing modules need a waiver \
                 documenting why iteration order cannot reach an answer"
            }
            RuleId::LockOrderInversion => {
                "the workspace lock-order graph (guard-liveness dataflow over \
                 the conservative call graph) must stay acyclic; a cycle is a \
                 deadlock waiting for the right thread interleaving"
            }
            RuleId::LockHeldAcrossBlocking => {
                "a lock guard held across `Condvar::wait`, pool \
                 `run_scoped`/`spawn`, ticket `wait*` or channel `recv*` stalls \
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
    /// forward slashes). Test code is additionally excluded token-by-token
    /// via `#[cfg(test)]` region tracking, not here.
    pub fn applies_to(self, path: &str) -> bool {
        // The candidate filter decides which objects are answered as exact
        // zeros without evaluation, so it sits on the answer path with the
        // engines it feeds.
        const FILTER: [&str; 3] = [
            "crates/core/src/index.rs",
            "crates/core/src/prefilter.rs",
            "crates/core/src/cluster.rs",
        ];
        match self {
            // Safety and waiver-hygiene rules run on everything scanned.
            RuleId::UndocumentedUnsafe
            | RuleId::LockPoisonIdiom
            | RuleId::UnusedWaiver
            | RuleId::MalformedWaiver => true,
            // Plan decisions, engines and propagation kernels must be pure
            // functions of their inputs: these are the modules whose
            // bit-for-bit equivalence the tier-1 tests pin across
            // strategies and batch/thread configurations. The serving
            // modules are the exception — they stamp stage boundaries
            // (submission, arrival, plan | execute) *around* that code.
            RuleId::WallClockInDeterministicPath => {
                const SERVING: [&str; 3] = ["processor.rs", "refresh.rs", "ticket.rs"];
                match path.strip_prefix("crates/core/src/engine/") {
                    Some(module) => !SERVING.contains(&module),
                    None => path.starts_with("crates/markov/src/") || FILTER.contains(&path),
                }
            }
            // Library code only: the bench harness is an experiment driver
            // where a panic on a bad configuration is the desired behavior.
            RuleId::PanickingCallInLib => !path.starts_with("crates/bench/"),
            // The semantic lock rules run wherever the symbol table does.
            RuleId::LockOrderInversion | RuleId::LockHeldAcrossBlocking => true,
            // The propagation kernels are the only code with a measured
            // allocation budget (the `SpmvScratch` recycling contract).
            RuleId::AllocInKernelHotLoop => path == "crates/markov/src/kernels.rs",
            // Modules that produce or maintain query answers; everything
            // downstream of these is pinned bit-for-bit by the equivalence
            // tests, so iteration order must never reach a result.
            RuleId::UnorderedIterationOnAnswerPath => {
                path.starts_with("crates/core/src/engine/")
                    || FILTER.contains(&path)
                    || path == "crates/core/src/ranking.rs"
                    || path == "crates/core/src/threshold.rs"
                    || path == "crates/core/src/streaming.rs"
            }
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
    }

    #[test]
    fn scoping_matches_the_issue() {
        let wall = RuleId::WallClockInDeterministicPath;
        for engine in ["plan", "pipeline", "object_based", "query_based", "cache", "mod", "config"]
        {
            assert!(wall.applies_to(&format!("crates/core/src/engine/{engine}.rs")), "{engine}");
        }
        for serving in ["processor", "refresh", "ticket"] {
            assert!(!wall.applies_to(&format!("crates/core/src/engine/{serving}.rs")), "{serving}");
        }
        assert!(wall.applies_to("crates/markov/src/kernels.rs"));
        for filter in ["index", "prefilter", "cluster"] {
            let path = format!("crates/core/src/{filter}.rs");
            assert!(wall.applies_to(&path), "{filter}");
            assert!(RuleId::UnorderedIterationOnAnswerPath.applies_to(&path), "{filter}");
        }
        assert!(!wall.applies_to("crates/core/src/database.rs"));
        assert!(!wall.applies_to("crates/core/src/serving.rs"));
        assert!(!wall.applies_to("crates/bench/src/lib.rs"));

        let panic = RuleId::PanickingCallInLib;
        assert!(panic.applies_to("crates/core/src/database.rs"));
        assert!(!panic.applies_to("crates/bench/src/experiments/fig8.rs"));

        let unordered = RuleId::UnorderedIterationOnAnswerPath;
        assert!(unordered.applies_to("crates/core/src/engine/cache.rs"));
        assert!(!unordered.applies_to("crates/data/src/csv.rs"));
    }
}
