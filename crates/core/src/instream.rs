//! In-stream aggregation: the sorted-input fast path of phase 1.
//!
//! When the grouping keys arrive sorted (or clustered), a hash table is pure
//! overhead: consecutive rows overwhelmingly belong to the same group. The
//! in-stream aggregator replaces the phase-1 probe with
//! compare-to-previous-key — detect the runs of adjacent equal keys in a
//! chunk ([`rexa_layout::matcher::adjacent_runs`], one type dispatch per key
//! column), materialize **one** row per new run into the radix partitions,
//! and accumulate every input row into its run's row with the same bind-time
//! monomorphized update kernels (`crate::kernel`) the hash path uses. No
//! probe, no salt comparisons, and — on the dominant single NULL-free `i64`
//! key shape — hashing only the run-*start* rows instead of every row.
//!
//! The path is correct on *any* input: keys that regress simply open a new
//! run, so a group split across runs (or workers, or memory epochs)
//! materializes several partial rows that phase 2 merges by key exactly like
//! the hash path's per-epoch duplicates. Worst case (fully random keys) it
//! appends one row per input row — which is why the operator only routes
//! inputs here when the sortedness detector (or an explicit
//! `SortedInput::Sorted` hint) says runs are long.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::function::BoundAggregate;
use rexa_exec::vector::VectorData;
use rexa_exec::{hashing, DataChunk, Result, Vector};
use rexa_layout::matcher::{adjacent_runs, rows_match};
use rexa_layout::{PartitionedTupleData, TupleDataLayout};
use std::sync::Arc;

/// Per-worker in-stream aggregation state. One open group (the row the
/// stream is currently accumulating into) plus reusable per-chunk scratch —
/// O(1) memory beyond the materialized groups themselves.
pub(crate) struct InStreamAgg {
    /// The open group's materialized row; null when no group is open.
    /// Dangles after a pin release — [`Self::on_release`] must clear it.
    open_row: *mut u8,
    /// Scratch: indices of the rows that start a run in the current chunk.
    run_starts: Vec<u32>,
    /// Scratch: the run starts that materialize a *new* group (excludes a
    /// first run continuing the open group across the chunk boundary).
    run_sel: Vec<u32>,
    /// Scratch: per-row accumulator target, consumed by the update kernels.
    row_ptrs: Vec<*mut u8>,
    /// Scratch: the rows materialized by this chunk's append.
    new_ptrs: Vec<*mut u8>,
    /// Rows materialized since the last pin release (the memory-epoch
    /// budget, compared against the hash path's reset threshold).
    appended: usize,
}

// SAFETY: the row pointers never outlive the worker's append pins, and only
// the owning worker dereferences them; the state moves onto its worker
// thread once and stays there.
unsafe impl Send for InStreamAgg {}

impl InStreamAgg {
    pub(crate) fn new() -> Self {
        InStreamAgg {
            open_row: std::ptr::null_mut(),
            run_starts: Vec::new(),
            run_sel: Vec::new(),
            row_ptrs: Vec::new(),
            new_ptrs: Vec::new(),
            appended: 0,
        }
    }

    /// Rows materialized in the current memory epoch.
    pub(crate) fn appended(&self) -> usize {
        self.appended
    }

    /// The owning worker released its append pins: the open row pointer is
    /// dead, and the next chunk starts a fresh epoch (and a fresh run).
    pub(crate) fn on_release(&mut self) {
        self.open_row = std::ptr::null_mut();
        self.appended = 0;
    }

    /// Consume one chunk: detect key runs, materialize one row per new run
    /// into `data`, and accumulate all `n` rows in input order.
    ///
    /// `group_views` are the key columns, `layout_views` the key plus
    /// payload columns in layout order; `hashes` is caller-owned scratch
    /// (filled here — only run-start rows need hashes, and only they are
    /// read by the partitioned append).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sink_chunk(
        &mut self,
        layout: &Arc<TupleDataLayout>,
        state_aggs: &[BoundAggregate],
        chunk: &DataChunk,
        group_views: &[&Vector],
        layout_views: &[&Vector],
        hashes: &mut Vec<u64>,
        data: &mut PartitionedTupleData,
    ) -> Result<()> {
        let n = chunk.len();
        debug_assert!(n > 0);
        adjacent_runs(group_views, n, &mut self.run_starts);
        // Does the first run continue the group left open by the previous
        // chunk? (One batched row comparison per chunk.)
        // SAFETY: a non-null open row is on a page this worker still holds
        // append pins for.
        let continues = !self.open_row.is_null()
            && unsafe { rows_match(layout, group_views, 0, self.open_row) };
        self.run_sel.clear();
        self.run_sel.extend(
            self.run_starts
                .iter()
                .copied()
                .filter(|&r| !(r == 0 && continues)),
        );

        // Hash only the run-start rows (they are all the append reads). The
        // single NULL-free i64 key shape hashes them scalar — on clustered
        // input that is a small fraction of the chunk, and skipping the
        // full-chunk hash is a large part of the fast path's win. Other key
        // shapes fall back to whole-chunk hashing, still probe-free.
        hashes.clear();
        hashes.resize(n, 0);
        let mut hashed = false;
        if let [col] = group_views {
            if let VectorData::I64(keys) = col.data() {
                if col.validity().no_nulls() {
                    for &r in &self.run_sel {
                        hashes[r as usize] = hashing::hash_u64(keys[r as usize] as u64);
                    }
                    hashed = true;
                }
            }
        }
        if !hashed {
            for (ci, col) in group_views.iter().enumerate() {
                hashing::hash_vector(col, hashes, ci > 0);
            }
        }

        // Materialize one row per new run, radix-routed like the hash path
        // (all rows of a key share a hash, so split groups always meet
        // again in the same phase-2 partition).
        self.new_ptrs.clear();
        if !self.run_sel.is_empty() {
            data.append(
                layout_views,
                hashes,
                &self.run_sel,
                Some(&mut self.new_ptrs),
            )?;
            self.appended += self.run_sel.len();
        }

        // Point every input row at its run's accumulator row.
        if self.row_ptrs.len() < n {
            self.row_ptrs.resize(n, std::ptr::null_mut());
        }
        let mut new_i = 0usize;
        for (k, &start) in self.run_starts.iter().enumerate() {
            let end = self.run_starts.get(k + 1).map_or(n, |&next| next as usize);
            let target = if start == 0 && continues {
                self.open_row
            } else {
                let t = self.new_ptrs[new_i];
                new_i += 1;
                t
            };
            for p in &mut self.row_ptrs[start as usize..end] {
                *p = target;
            }
            self.open_row = target;
        }
        debug_assert_eq!(new_i, self.run_sel.len());

        // Accumulate in input order — the same per-row order as the hash
        // path, so single-thread results stay bit-identical to it.
        for (sidx, agg) in state_aggs.iter().enumerate() {
            let arg = agg.spec.arg.map(|c| chunk.column(c));
            let off = layout.aggr_offset(sidx);
            // SAFETY: every target row is on a page this worker holds
            // append pins for; states are in-row at `off`.
            unsafe { (agg.kernels.update)(&self.row_ptrs[..n], off, arg) };
        }
        Ok(())
    }
}
