//! Positive fixture: a guard stays live across a scoped-thread fan-out.
//! The spawn and the join hold the caller until the shard has run, so
//! every thread contending on `Registry.entries` convoys behind it.

use std::sync::Mutex;

pub struct Registry {
    pub entries: Mutex<Vec<u64>>,
}

impl Registry {
    pub fn refresh(&self, shard: &[u64]) -> u64 {
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let base = entries.len() as u64;
        let total = std::thread::scope(|s| s.spawn(|| shard.iter().sum::<u64>()).join());
        base + total.unwrap_or(0)
    }
}
