//! # rexa-sql — SQL front end (S19)
//!
//! A small SQL layer over the rexa operators: a hand-written tokenizer with
//! byte-offset spans, a recursive-descent parser for a `SELECT` dialect, a
//! binder/planner that resolves names against a [`Catalog`], and an
//! executor lowering onto the existing operators —
//! [`hash_aggregate_streaming`](rexa_core::hash_aggregate_streaming),
//! [`hash_join_streaming`](rexa_core::hash_join_streaming), and
//! [`ungrouped_aggregate`](rexa_core::ungrouped_aggregate) — through one
//! shared [`BufferManager`](rexa_buffer::BufferManager) and
//! [`ExecContext`](rexa_exec::ExecContext), so SQL queries spill, cancel,
//! and profile exactly like hand-wired plans.
//!
//! Supported shape:
//!
//! ```sql
//! SELECT <columns and aggregate calls> FROM <table>
//!   [JOIN <table> ON a.x = b.y [AND ...]]
//!   [WHERE <comparisons joined by AND/OR>]
//!   [GROUP BY <columns>] [HAVING <predicate>]
//!   [ORDER BY <keys> [DESC]] [LIMIT n]
//! ```
//!
//! Errors are typed ([`SqlError`]) and carry byte-offset [`Span`]s;
//! [`SqlError::render`] produces a caret diagnostic against the source
//! text. Parsing never panics on malformed input.
//!
//! ```
//! use rexa_sql::{Catalog, plan, execute_streaming};
//! use rexa_buffer::{BufferManager, BufferManagerConfig};
//! use rexa_core::AggregateConfig;
//! use rexa_exec::{ChunkCollection, DataChunk, ExecContext, LogicalType, Value, WorkerPool};
//! use std::sync::Arc;
//!
//! let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
//! let mut chunk = DataChunk::empty(coll.types());
//! for i in 0..100i64 {
//!     chunk.push_row(&[Value::Int64(i % 4), Value::Int64(i)]).unwrap();
//! }
//! coll.push(chunk).unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog
//!     .register_collection("t", vec!["k".into(), "v".into()], Arc::new(coll))
//!     .unwrap();
//!
//! let physical = plan("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k", &catalog).unwrap();
//! let mgr = BufferManager::new(BufferManagerConfig::with_limit(64 << 20)).unwrap();
//! // Every pipeline of the query runs on this pool (the caller joins in).
//! let ctx = ExecContext::with_pool(Arc::new(WorkerPool::new(2)));
//! let out = parking_lot::Mutex::new(Vec::new());
//! let stats = execute_streaming(
//!     &mgr,
//!     &physical,
//!     &AggregateConfig::default(),
//!     &ctx,
//!     &|chunk| {
//!         out.lock().push(chunk);
//!         Ok(())
//!     },
//! )
//! .unwrap();
//! assert_eq!(stats.rows_out, 4);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod token;

pub use ast::Query;
pub use catalog::{Catalog, CatalogTable, TableData};
pub use error::{Span, SqlError};
pub use exec::{execute_streaming, SqlStats};
pub use parser::parse;
pub use plan::{bind, plan, plan_traced, PhysicalPlan, Predicate, SortKey};
pub use token::tokenize;
