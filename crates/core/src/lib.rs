//! `rexa-core`: **robust external hash aggregation** — the paper's primary
//! contribution — plus the baseline algorithms its evaluation contrasts
//! against.
//!
//! The operator ([`hash_aggregate_streaming`]) integrates the unified buffer
//! manager (`rexa-buffer`) and the spillable page layout (`rexa-layout`)
//! into a two-phase, morsel-driven parallel aggregation that degrades
//! gracefully as intermediates exceed the memory limit: pages that do not
//! fit are spilled individually by the buffer manager; the operator itself
//! is RAM-oblivious in phase 1 and over-partitioned in phase 2.
//!
//! Beyond the paper's evaluation, the crate also implements two items from
//! its future-work list: [`ungrouped_aggregate`] (the low-cardinality path)
//! and an external partitioned [`hash join`](crate::join) built on the same
//! unified-memory + spillable-layout substrate.
//!
//! Baselines (module [`baselines`]):
//! * [`baselines::in_memory_aggregate`] — hash aggregation that simply
//!   aborts when the limit is hit (how Umbra behaves in the paper's
//!   evaluation, 'A' cells);
//! * [`baselines::sort_aggregate`] — the traditional external merge-sort
//!   aggregation, O(n log n) with heavy I/O (the far side of the
//!   performance cliff);
//! * [`baselines::switch_aggregate`] — in-memory first, restart with the
//!   external sort on OOM (HyPer-style, producing the cliff itself).

pub mod baselines;
pub mod function;
pub mod ht;
mod instream;
pub mod join;
pub mod kernel;
pub mod operator;
pub mod simple;
pub mod ungrouped;

pub use function::{AggKind, AggregateSpec, BoundAggregate};
pub use join::{hash_join_collect, hash_join_streaming, HashJoinPlan, JoinConfig, JoinStats};
pub use kernel::AggKernels;
pub use operator::{
    hash_aggregate_collect, hash_aggregate_streaming, hash_aggregate_streaming_ctx, output_schema,
    plan_row_width, AggregateConfig, HashAggregatePlan, KernelMode, RunStats, SortedInput,
};
pub use ungrouped::ungrouped_aggregate;

/// Radix bits when a config leaves them unset: over-partition to at least
/// four partitions per thread, within 8..=256 partitions. One rule for the
/// aggregation and the join.
pub(crate) fn default_radix_bits(threads: usize) -> u32 {
    (threads * 4)
        .next_power_of_two()
        .trailing_zeros()
        .clamp(3, 8)
}
