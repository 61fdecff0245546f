//! `rexa-exec`: the vectorized execution substrate of the rexa engine.
//!
//! This crate provides the building blocks every other rexa crate stands on:
//!
//! * [`LogicalType`] / [`Value`] — the type system of the engine,
//! * [`Vector`] / [`DataChunk`] — columnar batches of up to
//!   [`VECTOR_SIZE`] tuples, the unit of vectorized execution,
//! * [`hashing`] — vectorized 64-bit hashing with the salt/radix/offset
//!   bit-budget used by the aggregation hash table,
//! * [`pipeline`] — a small morsel-driven parallelism framework
//!   (sources, sinks, thread-local state, combine, parallel task loops),
//!   every entry point scheduled through an [`ExecContext`],
//! * [`pool`] — a shared [`WorkerPool`] plus the per-query [`ExecContext`]
//!   (pool handle + cancellation token) that the query service hands down
//!   to operators,
//! * [`Error`] — the engine-wide error type, including the
//!   [`Error::OutOfMemory`] condition that the robust aggregation is designed
//!   never to hit and that the baseline algorithms hit head-on.
//!
//! The design follows the paper's description of DuckDB's vectorized engine
//! (Section II, "Streaming query execution"): small, cache-resident column
//! vectors flow through operators in batches of at most 2048 tuples.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chunk;
pub mod error;
pub mod hashing;
pub mod pipeline;
pub mod pool;
pub mod types;
pub mod validity;
pub mod value;
pub mod vector;

pub use chunk::{ChunkCollection, DataChunk, VECTOR_SIZE};
pub use error::{Error, Result};
pub use pipeline::{CancelToken, ChunkSource, LocalSink, ParallelSink, Pipeline};
pub use pool::{ExecContext, MemoryGrant, WorkerPool};
pub use types::LogicalType;
pub use validity::Validity;
pub use value::Value;
pub use vector::Vector;
