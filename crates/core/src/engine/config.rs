//! Engine configuration: the tuning knobs shared by the exact engines and
//! the serving front door.

use crate::engine::cache;

/// When the planner consults the [`crate::index::SpatioTemporalIndex`] to
/// prune candidate objects before costing and execution.
///
/// Pruning applies only where the pruned answer is provably bit-identical
/// to the unpruned one: `∃` queries with the probability or threshold
/// decorator (a geometrically unreachable object has `P∃ = 0` exactly, in
/// both exact engines; under a threshold `τ > 0` whose backward field is
/// already cached, an object whose anchor misses the field's τ-superlevel
/// set has `P∃ < τ` in both, so it is not accepted either way). Other
/// predicates, top-k ranking, and databases without an attached space
/// always take the unpruned path, whatever the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefilterMode {
    /// Prune when an index is available and the database is large enough
    /// for the candidate pass to pay for itself (the default).
    #[default]
    Auto,
    /// Prune whenever an index is available, regardless of database size.
    On,
    /// Never prune: plans and answers are bit-for-bit those of a build
    /// without the index layer.
    Off,
}

/// Default number of objects propagated per [`super::pipeline::ObjectBatch`].
const DEFAULT_BATCH_SIZE: usize = 32;

/// Tuning knobs shared by the exact engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// ε-pruning threshold: probability entries `≤ epsilon` are dropped
    /// during propagation (`0.0` = exact). The dropped mass is reported in
    /// [`crate::stats::EvalStats::pruned_mass`] and bounds the absolute
    /// result error.
    pub epsilon: f64,
    /// Objects propagated together per batch by the object-based drivers
    /// (clamped to at least 1). Batched and per-object evaluation are
    /// bit-for-bit identical; larger batches amortize matrix-row traversals
    /// across densified vectors.
    pub batch_size: usize,
    /// Threads [`crate::parallel::run_sharded`] shards a query's objects
    /// across (clamped to at least 1; `1` runs inline): the calling thread
    /// takes the first shard and scoped threads, spawned per query, the
    /// others. It also sizes the [`crate::parallel::WorkerPool`] a
    /// [`super::QueryProcessor`] spawns for its `submit` jobs when
    /// `> 1`; at `1` that pool has one worker per available core.
    pub num_threads: usize,
    /// `(model, window, rule)` entries retained by the
    /// [`super::QueryProcessor`]'s backward-field cache (clamped to at
    /// least 1) — one bound over all backward fields of the processor, ∃,
    /// ∀ and k-times together. Each entry holds one span-trimmed snapshot per
    /// distinct anchor time (the states from which the window is still
    /// reachable, not all of `|S|`; `|T▫| + 1` of them for a k-times
    /// field), so memory scales with `capacity × anchors × span`; repeated
    /// or overlapping windows served from the cache skip their backward
    /// sweeps entirely.
    pub cache_capacity: usize,
    /// Admission bound on **pending admitted work** per processor (`0` =
    /// unbounded, the default). Once this many
    /// [`super::QueryProcessor::submit`] tickets are queued or running — a
    /// standing-query refresh holds a slot while it runs, too — further
    /// submissions return [`crate::error::QueryError::QueueFull`]
    /// immediately instead of growing the backlog, and further refreshes
    /// are shed. The bound is enforced in one place, the processor's
    /// admission gate; the worker pool's queues are unbounded.
    pub max_queue_depth: usize,
    /// Deadline applied to every submitted query (`None` = no deadline,
    /// the default): a job whose queue wait already exceeds it is shed
    /// with [`crate::error::QueryError::DeadlineExceeded`] instead of
    /// executing — stale work a bursty caller has likely abandoned. The
    /// deadline is checked when the job starts and again between the
    /// prepare and refine halves, never mid-propagation.
    pub default_deadline: Option<std::time::Duration>,
    /// Index-accelerated candidate pruning policy (see [`PrefilterMode`]).
    /// [`PrefilterMode::Auto`], the default, prunes eligible queries
    /// through [`crate::database::TrajectoryDatabase::spatial_index`] once
    /// the database is large enough; [`PrefilterMode::Off`] preserves the
    /// pre-index plans bit-for-bit.
    pub prefilter: PrefilterMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epsilon: 0.0,
            batch_size: DEFAULT_BATCH_SIZE,
            num_threads: 1,
            cache_capacity: cache::DEFAULT_CACHE_CAPACITY,
            max_queue_depth: 0,
            default_deadline: None,
            prefilter: PrefilterMode::Auto,
        }
    }
}

impl EngineConfig {
    /// The exact configuration (no pruning, adaptive representation).
    pub fn exact() -> Self {
        EngineConfig::default()
    }

    /// Sets the ε-pruning threshold.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the number of objects propagated per batch.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the number of sharding worker threads.
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Sets the backward-field cache capacity (entries).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Sets the pending-submission admission bound (`0` = unbounded).
    pub fn with_max_queue_depth(mut self, max_queue_depth: usize) -> Self {
        self.max_queue_depth = max_queue_depth;
        self
    }

    /// Sets the deadline submitted queries are shed at.
    pub fn with_default_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the index-accelerated candidate pruning policy.
    pub fn with_prefilter(mut self, mode: PrefilterMode) -> Self {
        self.prefilter = mode;
        self
    }

    /// The effective batch size (at least 1).
    pub fn effective_batch_size(&self) -> usize {
        self.batch_size.max(1)
    }

    /// The effective worker count (at least 1).
    pub fn effective_num_threads(&self) -> usize {
        self.num_threads.max(1)
    }

    /// The effective cache capacity (at least 1).
    pub fn effective_cache_capacity(&self) -> usize {
        self.cache_capacity.max(1)
    }
}
