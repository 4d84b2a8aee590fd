//! Debug builds' shadow checks: a path that answers from something it
//! kept — a standing query's maintained state, a memoised plan's rows —
//! re-derives a sampled share of its answers afresh and asserts they are
//! equal to the bit. Release builds compile every check out.

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

/// Uses a site checks before it thins out to every 2ᵏ-th.
#[cfg(debug_assertions)]
const FIRST: u64 = 64;

/// One check site's count of its uses so far, process-wide: the first
/// [`FIRST`] are checked, then every 2ᵏ-th, so a failure reproduces from
/// the same sequence of uses. Empty in release builds.
pub(crate) struct Site {
    #[cfg(debug_assertions)]
    uses: AtomicU64,
}

impl Site {
    pub(crate) const fn new() -> Site {
        Site {
            #[cfg(debug_assertions)]
            uses: AtomicU64::new(0),
        }
    }
}

/// Counts a use of `site` and, when the use is sampled, runs `check` with
/// its number — in debug builds only.
#[cfg_attr(not(debug_assertions), allow(unused_variables, reason = "debug-only check"))]
pub(crate) fn check(site: &Site, check: impl FnOnce(u64)) {
    #[cfg(debug_assertions)]
    {
        let n = site.uses.fetch_add(1, Ordering::Relaxed);
        if n < FIRST || n.is_power_of_two() {
            check(n);
        }
    }
}
