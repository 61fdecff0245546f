//! `rexa-buffer`: **Unified Memory Management** (paper Section III).
//!
//! One buffer pool for everything. Persistent pages and temporary query
//! intermediates live under a single memory limit, in the same eviction
//! structure, and freed buffers of one kind are reused for the other.
//! There is no statically allocated pool: every buffer is allocated
//! individually and deallocated when evicted (unless immediately reused),
//! so an idle engine consumes (almost) no memory — the in-process
//! requirement the paper derives from DuckDB's deployment model.
//!
//! Three kinds of temporary allocations are supported, mirroring the paper:
//!
//! 1. **non-paged** ([`BufferManager::reserve`]) — unspillable memory of any
//!    size (hash-table entry arrays). Only accounted; reserving may evict
//!    pages of either kind, which is what Cooperative Memory Management does;
//! 2. **paged fixed-size** ([`BufferManager::allocate_page`]) — page-size
//!    buffers, spillable to slots of the shared temp file. The workhorse:
//!    nearly all intermediates live on these;
//! 3. **paged variable-size** ([`BufferManager::allocate_variable`]) — any
//!    size, each spilled to its own temp file. Used sparingly.
//!
//! Eviction pops an LRU queue of unpinned buffers, clean pages first.
//! Evicting a persistent page is free (it is already in the database file);
//! evicting a temporary page first writes it to temp storage. So every
//! unpinned persistent page goes before any temporary page — the order that
//! keeps the temp file near zero in the paper's Figure 4 (DESIGN.md §15).
//!
//! The crate also provides the paged persistent [`Table`] (serialized
//! column-major chunks on database pages) whose scans populate the pool with
//! persistent pages, so the persistent/temporary interplay of the paper's
//! Figure 4 can be reproduced.

#![deny(clippy::undocumented_unsafe_blocks)]

mod eviction;
pub mod handle;
pub mod manager;
pub mod raw;
pub mod stats;
pub mod table;

pub use handle::{BlockHandle, BufferTag, PinGuard};
pub use manager::{BufferManager, BufferManagerConfig, MemoryReservation, ReservationGrant};
pub use stats::BufferStats;
pub use table::{Table, TableBuilder, TableSource};
