//! Query workload generators for the evaluation harness.

use ust_core::{QueryWindow, Result};
use ust_space::TimeSet;

/// The paper's default query window: states `[100, 120]`, times `[20, 25]`
/// ("the query window is defined by the states [100, 120] and time
/// interval [20, 25]").
pub fn paper_default_window(num_states: usize) -> Result<QueryWindow> {
    QueryWindow::from_states(num_states, 100usize..=120, TimeSet::interval(20, 25))
}

/// A window identical to `window` in space but re-anchored to start at
/// `start` with the same duration — used by the "query start time" sweeps
/// of Fig. 9.
pub fn with_start_time(window: &QueryWindow, start: u32) -> Result<QueryWindow> {
    let len = window.num_times() as u32;
    QueryWindow::new(
        window.states().clone(),
        TimeSet::interval(start, start + len.saturating_sub(1)),
    )
}

/// A window identical in space but spanning `[t_start, t_start + len − 1]`
/// with variable length — the "query window timeslot" sweeps of Fig. 10.
pub fn with_duration(window: &QueryWindow, len: u32) -> Result<QueryWindow> {
    let start = window.t_start();
    QueryWindow::new(
        window.states().clone(),
        TimeSet::interval(start, start + len.saturating_sub(1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_window_shape() {
        let w = paper_default_window(100_000).unwrap();
        assert_eq!(w.states().count(), 21);
        assert!(w.states().contains(100));
        assert!(w.states().contains(120));
        assert!(!w.states().contains(99));
        assert_eq!(w.t_start(), 20);
        assert_eq!(w.t_end(), 25);
        assert!(paper_default_window(50).is_err(), "window must fit the space");
    }

    #[test]
    fn start_time_and_duration_rewrites() {
        let w = paper_default_window(100_000).unwrap();
        let shifted = with_start_time(&w, 40).unwrap();
        assert_eq!(shifted.t_start(), 40);
        assert_eq!(shifted.t_end(), 45);
        assert_eq!(shifted.states(), w.states());
        let stretched = with_duration(&w, 10).unwrap();
        assert_eq!(stretched.t_start(), 20);
        assert_eq!(stretched.t_end(), 29);
        let single = with_duration(&w, 1).unwrap();
        assert_eq!(single.num_times(), 1);
    }
}
