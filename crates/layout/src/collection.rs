//! `TupleDataCollection`: materialized rows on buffer-managed pages.
//!
//! Fixed-size rows live on *row pages*; string bytes live on *heap pages*
//! (requirement 2 of the paper's page layout). Every append lands a batch of
//! rows contiguously on one row page with its heap data contiguously on one
//! heap page — appends are split to maintain this — and a small
//! `ChunkMeta` records the line-up. That metadata is all that is needed to
//! recompute heap pointers lazily after a spill/reload cycle (paper
//! Figure 2): when a heap page is re-pinned at a different base address,
//! exactly the rows of the chunks that reference it get their pointers
//! adjusted in place by `new_base - old_base`.
//!
//! Pin discipline:
//! * while appending (phase 1 of the aggregation), the pages written since
//!   the last [`TupleDataCollection::release_pins`] stay pinned, because the
//!   hash table holds raw pointers into them;
//! * [`TupleDataCollection::release_pins`] (called when the hash table is
//!   reset) unpins everything, letting the buffer manager spill any of it —
//!   the operator never writes to storage itself;
//! * [`TupleDataCollection::pin_all`] (phase 2) pins the whole collection,
//!   performs any pending pointer recomputation, and returns a
//!   [`CollectionPins`] guard that keeps the rows addressable.

use crate::row_layout::TupleDataLayout;
use crate::string::{RexaString, INLINE_LEN};
use rexa_buffer::{BlockHandle, BufferManager, PinGuard};
use rexa_exec::vector::VectorData;
use rexa_exec::{DataChunk, Error, LogicalType, Result, Vector};
use std::sync::Arc;

/// Sentinel: a chunk with no heap data.
const NO_HEAP: u32 = u32::MAX;

#[derive(Debug)]
struct RowPage {
    handle: Arc<BlockHandle>,
    rows: usize,
}

#[derive(Debug)]
struct HeapPage {
    handle: Arc<BlockHandle>,
    used: usize,
    size: usize,
}

/// How one appended batch of rows lines up with pages: `count` rows starting
/// at `row_start` on `row_page`, heap data (if any) on `heap_page`, written
/// while that heap page sat at `heap_base`. This is the paper's Figure 2
/// metadata: enough to recompute exactly the affected pointers after the
/// heap page returns from disk at a different address.
#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    row_page: u32,
    row_start: u32,
    count: u32,
    heap_page: u32,
    heap_base: u64,
}

/// Pins over an entire collection, returned by
/// [`TupleDataCollection::pin_all`]. Row pointers derived from it stay valid
/// while it lives.
#[derive(Debug)]
pub struct CollectionPins {
    row: Vec<PinGuard>,
    heap: Vec<PinGuard>,
}

/// A spillable collection of fixed-size rows plus their heap data.
#[derive(Debug)]
pub struct TupleDataCollection {
    layout: Arc<TupleDataLayout>,
    mgr: Arc<BufferManager>,
    row_pages: Vec<RowPage>,
    heap_pages: Vec<HeapPage>,
    chunks: Vec<ChunkMeta>,
    rows: usize,
    rows_per_page: usize,
    /// Pins of pages written since the last `release_pins`.
    active_row_pins: Vec<(usize, PinGuard)>,
    active_heap_pins: Vec<(usize, PinGuard)>,
    /// Index of the row/heap page currently being appended to, if pinned.
    cur_row: Option<usize>,
    cur_heap: Option<usize>,
}

impl TupleDataCollection {
    /// An empty collection using `mgr`'s pages.
    pub fn new(mgr: Arc<BufferManager>, layout: Arc<TupleDataLayout>) -> Self {
        let rows_per_page = mgr.page_size() / layout.row_width();
        assert!(rows_per_page > 0, "row wider than a page");
        TupleDataCollection {
            layout,
            mgr,
            row_pages: Vec::new(),
            heap_pages: Vec::new(),
            chunks: Vec::new(),
            rows: 0,
            rows_per_page,
            active_row_pins: Vec::new(),
            active_heap_pins: Vec::new(),
            cur_row: None,
            cur_heap: None,
        }
    }

    /// The row layout.
    pub fn layout(&self) -> &Arc<TupleDataLayout> {
        &self.layout
    }

    /// The buffer manager this collection allocates from.
    pub fn mgr_ref(&self) -> &Arc<BufferManager> {
        &self.mgr
    }

    /// Total rows materialized.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of appended batches (used by scans).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total bytes of pages owned by this collection (resident or spilled).
    pub fn data_bytes(&self) -> usize {
        self.row_pages.len() * self.mgr.page_size()
            + self.heap_pages.iter().map(|h| h.size).sum::<usize>()
    }

    /// Bytes of this collection's pages that are currently *not* resident —
    /// they were evicted and live in spill files (or the database file).
    /// A nonzero value before [`Self::pin_all`] means pinning will read
    /// them back from storage: the partition "went external".
    pub fn unloaded_bytes(&self) -> usize {
        let page = self.mgr.page_size();
        self.row_pages
            .iter()
            .filter(|p| !p.handle.is_loaded())
            .map(|_| page)
            .sum::<usize>()
            + self
                .heap_pages
                .iter()
                .filter(|h| !h.handle.is_loaded())
                .map(|h| h.size)
                .sum::<usize>()
    }

    /// Heap bytes a value needs (non-inlined strings only).
    fn heap_need(cols: &[&Vector], var_cols: &[usize], row: usize) -> usize {
        let mut need = 0;
        for &c in var_cols {
            let col = cols[c];
            if col.validity().is_valid(row) {
                let len = col.str_at(row).len();
                if len > INLINE_LEN {
                    need += len;
                }
            }
        }
        need
    }

    fn new_row_page(&mut self) -> Result<()> {
        let (handle, pin) = self.mgr.allocate_page()?;
        let idx = self.row_pages.len();
        self.row_pages.push(RowPage { handle, rows: 0 });
        self.active_row_pins.push((idx, pin));
        self.cur_row = Some(idx);
        Ok(())
    }

    fn new_heap_page(&mut self) -> Result<()> {
        let (handle, pin) = self.mgr.allocate_page()?;
        let idx = self.heap_pages.len();
        self.heap_pages.push(HeapPage {
            handle,
            used: 0,
            size: self.mgr.page_size(),
        });
        self.active_heap_pins.push((idx, pin));
        self.cur_heap = Some(idx);
        Ok(())
    }

    /// Allocate a dedicated variable-size heap page for one oversized value
    /// batch. Never becomes the current heap page.
    fn oversized_heap_page(&mut self, size: usize) -> Result<usize> {
        let (handle, pin) = self.mgr.allocate_variable(size)?;
        let idx = self.heap_pages.len();
        self.heap_pages.push(HeapPage {
            handle,
            used: 0,
            size,
        });
        self.active_heap_pins.push((idx, pin));
        Ok(idx)
    }

    fn active_row_pin(&self, page: usize) -> &PinGuard {
        &self
            .active_row_pins
            .iter()
            .find(|(i, _)| *i == page)
            .expect("current row page must be pinned")
            .1
    }

    fn active_heap_pin(&self, page: usize) -> &PinGuard {
        &self
            .active_heap_pins
            .iter()
            .find(|(i, _)| *i == page)
            .expect("current heap page must be pinned")
            .1
    }

    /// Append the rows selected by `sel` from `cols` (with their precomputed
    /// `hashes`), materializing them row-major into pages. Pushes each new
    /// row's address to `out_ptrs` if given; the addresses stay valid until
    /// [`TupleDataCollection::release_pins`].
    pub fn append(
        &mut self,
        cols: &[&Vector],
        hashes: &[u64],
        sel: &[u32],
        mut out_ptrs: Option<&mut Vec<*mut u8>>,
    ) -> Result<()> {
        debug_assert_eq!(cols.len(), self.layout.column_count());
        let var_cols = self.layout.var_cols().to_vec();
        let page_size = self.mgr.page_size();
        let mut i = 0usize;
        while i < sel.len() {
            // Make sure there is a pinned row page with space. After a
            // release_pins (hash-table reset) the last page usually has room
            // left: re-pin and continue filling it instead of wasting the
            // tail (the buffer manager reloads it if it was spilled).
            if self.cur_row.is_none() {
                if let Some(last) = self.row_pages.len().checked_sub(1) {
                    if self.row_pages[last].rows < self.rows_per_page {
                        let pin = self.mgr.pin(&self.row_pages[last].handle)?;
                        self.active_row_pins.push((last, pin));
                        self.cur_row = Some(last);
                    }
                }
            }
            let need_new_row_page = match self.cur_row {
                None => true,
                Some(p) => self.row_pages[p].rows == self.rows_per_page,
            };
            if need_new_row_page {
                self.new_row_page()?;
            }
            let row_page = self.cur_row.unwrap();
            let rows_avail = self.rows_per_page - self.row_pages[row_page].rows;

            // Determine the sub-batch: contiguous rows whose heap data fits
            // on one heap page.
            let mut take = 0usize;
            let mut heap_total = 0usize;
            let mut heap_page = NO_HEAP as usize;
            if var_cols.is_empty() {
                take = rows_avail.min(sel.len() - i);
            } else {
                let first_need = Self::heap_need(cols, &var_cols, sel[i] as usize);
                if first_need > page_size {
                    // A single row larger than a page: dedicated heap page.
                    heap_page = self.oversized_heap_page(first_need)?;
                    heap_total = first_need;
                    take = 1;
                } else {
                    // Resume the last standard heap page if it still has
                    // room (chunks record their own base pointer, so chunks
                    // written in different pin epochs coexist on one page).
                    if self.cur_heap.is_none() {
                        if let Some(last) = self.heap_pages.len().checked_sub(1) {
                            let hp = &self.heap_pages[last];
                            if hp.size == page_size && hp.size - hp.used >= first_need.max(1) {
                                let pin = self.mgr.pin(&hp.handle)?;
                                self.active_heap_pins.push((last, pin));
                                self.cur_heap = Some(last);
                            }
                        }
                    }
                    let need_new_heap = match self.cur_heap {
                        None => true,
                        Some(h) => {
                            first_need > 0
                                && self.heap_pages[h].size - self.heap_pages[h].used < first_need
                        }
                    };
                    if need_new_heap {
                        self.new_heap_page()?;
                    }
                    let hp = self.cur_heap.unwrap();
                    let heap_avail = self.heap_pages[hp].size - self.heap_pages[hp].used;
                    while take < rows_avail && i + take < sel.len() {
                        let need = Self::heap_need(cols, &var_cols, sel[i + take] as usize);
                        if need > page_size || heap_total + need > heap_avail {
                            break;
                        }
                        heap_total += need;
                        take += 1;
                    }
                    if take == 0 {
                        // Next row needs a fresh (or oversized) heap page.
                        self.cur_heap = None;
                        continue;
                    }
                    heap_page = hp;
                }
            }
            debug_assert!(take > 0);

            // Scatter the sub-batch.
            let row_start = self.row_pages[row_page].rows;
            let row_base = self.active_row_pin(row_page).base_ptr();
            let (mut heap_ptr, heap_base) = if heap_total > 0 {
                let pin = self.active_heap_pin(heap_page);
                let used = self.heap_pages[heap_page].used;
                // SAFETY: offsets stay within the page (checked above).
                (unsafe { pin.base_ptr().add(used) }, pin.base_ptr() as u64)
            } else {
                (std::ptr::null_mut(), 0)
            };
            for k in 0..take {
                let input_row = sel[i + k] as usize;
                // SAFETY: row_start + k < rows_per_page by construction.
                let row = unsafe { row_base.add((row_start + k) * self.layout.row_width()) };
                unsafe {
                    self.scatter_row(cols, input_row, hashes[input_row], row, &mut heap_ptr);
                }
                if let Some(out) = out_ptrs.as_deref_mut() {
                    out.push(row);
                }
            }

            self.chunks.push(ChunkMeta {
                row_page: row_page as u32,
                row_start: row_start as u32,
                count: take as u32,
                heap_page: if heap_total > 0 {
                    heap_page as u32
                } else {
                    NO_HEAP
                },
                heap_base,
            });
            self.row_pages[row_page].rows += take;
            if heap_total > 0 {
                self.heap_pages[heap_page].used += heap_total;
            }
            self.rows += take;
            i += take;
        }
        Ok(())
    }

    /// Write one row: validity, hash, columns, and a zeroed aggregate-state
    /// region (pages are uninitialized; states must start at zero).
    ///
    /// # Safety
    /// `row` must point to `row_width` writable bytes; `heap_ptr` must have
    /// room for the row's non-inlined strings.
    unsafe fn scatter_row(
        &self,
        cols: &[&Vector],
        input_row: usize,
        hash: u64,
        row: *mut u8,
        heap_ptr: &mut *mut u8,
    ) {
        let (aggr_off, aggr_len) = self.layout.aggr_region();
        if aggr_len > 0 {
            std::ptr::write_bytes(row.add(aggr_off), 0, aggr_len);
        }
        self.layout.write_hash(row, hash);
        for (c, col) in cols.iter().enumerate() {
            let valid = col.validity().is_valid(input_row);
            self.layout.set_valid(row, c, valid);
            let dst = row.add(self.layout.offset(c));
            match col.data() {
                VectorData::I32(v) => {
                    std::ptr::write_unaligned(dst as *mut i32, if valid { v[input_row] } else { 0 })
                }
                VectorData::I64(v) => {
                    std::ptr::write_unaligned(dst as *mut i64, if valid { v[input_row] } else { 0 })
                }
                VectorData::F64(v) => std::ptr::write_unaligned(
                    dst as *mut f64,
                    if valid {
                        // Keys must materialize in normalized form (-0.0 ->
                        // 0.0) so bitwise row comparisons agree with hashing.
                        rexa_exec::hashing::normalize_f64_key(v[input_row])
                    } else {
                        0.0
                    },
                ),
                VectorData::Str(v) => {
                    let s = if valid {
                        v.get(input_row).as_bytes()
                    } else {
                        b""
                    };
                    let rs = if s.len() <= INLINE_LEN {
                        RexaString::inline(s)
                    } else {
                        std::ptr::copy_nonoverlapping(s.as_ptr(), *heap_ptr, s.len());
                        let rs = RexaString::pointed(s, *heap_ptr);
                        *heap_ptr = heap_ptr.add(s.len());
                        rs
                    };
                    rs.write_to(dst);
                }
            }
        }
    }

    /// Unpin everything: from here on the buffer manager may spill any page
    /// of this collection. Row pointers handed out by `append` become
    /// invalid. Called when the aggregation hash table is reset.
    pub fn release_pins(&mut self) {
        self.active_row_pins.clear();
        self.active_heap_pins.clear();
        self.cur_row = None;
        self.cur_heap = None;
    }

    /// True if any pages are currently pinned for appending.
    pub fn has_active_pins(&self) -> bool {
        !self.active_row_pins.is_empty() || !self.active_heap_pins.is_empty()
    }

    /// Move all pages of `other` into `self` (O(pages), no row copying) —
    /// how thread-local partitions are combined into the shared state.
    ///
    /// # Panics
    /// If either collection still holds append pins or layouts differ.
    pub fn merge_from(&mut self, mut other: TupleDataCollection) {
        assert!(
            !self.has_active_pins() && !other.has_active_pins(),
            "merge requires released pins"
        );
        assert_eq!(self.layout, other.layout, "layout mismatch");
        let row_off = self.row_pages.len() as u32;
        let heap_off = self.heap_pages.len() as u32;
        self.row_pages.append(&mut other.row_pages);
        self.heap_pages.append(&mut other.heap_pages);
        for mut meta in other.chunks.drain(..) {
            meta.row_page += row_off;
            if meta.heap_page != NO_HEAP {
                meta.heap_page += heap_off;
            }
            self.chunks.push(meta);
        }
        self.rows += other.rows;
    }

    /// Pin every page of the collection and perform any pending pointer
    /// recomputation (paper Section IV, "Pointer Recomputation"): for every
    /// heap page whose base address changed since its pointers were written,
    /// rewrite the heap pointers of exactly the rows that reference it.
    pub fn pin_all(&mut self) -> Result<CollectionPins> {
        self.release_pins();
        let row: Vec<PinGuard> = self
            .row_pages
            .iter()
            .map(|p| self.mgr.pin(&p.handle))
            .collect::<Result<_>>()?;
        let heap: Vec<PinGuard> = self
            .heap_pages
            .iter()
            .map(|p| self.mgr.pin(&p.handle))
            .collect::<Result<_>>()?;

        for meta in &mut self.chunks {
            if meta.heap_page == NO_HEAP {
                continue;
            }
            let new_base = heap[meta.heap_page as usize].base_ptr() as u64;
            if new_base == meta.heap_base {
                continue; // page did not move: RAM performance unaffected
            }
            let old_base = meta.heap_base;
            let base = row[meta.row_page as usize].base_ptr();
            for k in 0..meta.count as usize {
                // SAFETY: rows were written by `append`; pages pinned.
                unsafe {
                    let r = base.add((meta.row_start as usize + k) * self.layout.row_width());
                    for &c in self.layout.var_cols() {
                        if !self.layout.is_valid(r, c) {
                            continue;
                        }
                        let slot = r.add(self.layout.offset(c));
                        let mut s = RexaString::read_from(slot);
                        if !s.is_inlined() {
                            s.set_pointer(s.pointer() - old_base + new_base);
                            s.write_to(slot);
                        }
                    }
                }
            }
            meta.heap_base = new_base;
        }
        Ok(CollectionPins { row, heap })
    }

    /// The addresses of the rows of batch `chunk_idx`, valid while `pins`
    /// lives.
    pub fn chunk_row_ptrs(&self, pins: &CollectionPins, chunk_idx: usize, out: &mut Vec<*mut u8>) {
        let meta = self.chunks[chunk_idx];
        let base = pins.row[meta.row_page as usize].base_ptr();
        for k in 0..meta.count as usize {
            // SAFETY: within the page by construction.
            out.push(unsafe { base.add((meta.row_start as usize + k) * self.layout.row_width()) });
        }
    }

    /// All row addresses, batch order. Valid while `pins` lives.
    pub fn all_row_ptrs(&self, pins: &CollectionPins) -> Vec<*mut u8> {
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.chunks.len() {
            self.chunk_row_ptrs(pins, i, &mut out);
        }
        out
    }

    /// Read the layout's columns from materialized rows back into an owned
    /// [`DataChunk`] (row-major → column-major conversion).
    ///
    /// # Safety
    /// Every pointer in `rows` must address a live row of this collection
    /// while its pages are pinned (e.g. obtained from
    /// [`TupleDataCollection::all_row_ptrs`] under the same `pins`).
    pub unsafe fn gather(&self, rows: &[*mut u8]) -> DataChunk {
        gather_rows(&self.layout, rows)
    }

    /// Verify internal consistency (tests and debug builds).
    pub fn verify(&self) -> Result<()> {
        let rows_in_pages: usize = self.row_pages.iter().map(|p| p.rows).sum();
        if rows_in_pages != self.rows {
            return Err(Error::Internal(format!(
                "row count mismatch: pages say {rows_in_pages}, collection says {}",
                self.rows
            )));
        }
        let rows_in_chunks: usize = self.chunks.iter().map(|c| c.count as usize).sum();
        if rows_in_chunks != self.rows {
            return Err(Error::Internal("chunk metadata count mismatch".into()));
        }
        for hp in &self.heap_pages {
            if hp.used > hp.size {
                return Err(Error::Internal("heap page overflow".into()));
            }
        }
        Ok(())
    }
}

/// Read the layout's columns from arbitrary materialized rows into an owned
/// [`DataChunk`]. Shared by collection scans and by operators (e.g. the hash
/// join) that assemble output from rows of several collections.
///
/// # Safety
/// Every pointer in `rows` must address a live row of `layout` whose row and
/// heap pages are pinned and pointer-recomputed.
pub unsafe fn gather_rows(layout: &TupleDataLayout, rows: &[*mut u8]) -> DataChunk {
    let mut columns = Vec::with_capacity(layout.column_count());
    for (c, &ty) in layout.types().iter().enumerate() {
        let off = layout.offset(c);
        let mut col = Vector::empty(ty);
        for &r in rows {
            let valid = layout.is_valid(r, c);
            match ty {
                LogicalType::Int32 | LogicalType::Date => {
                    let v = std::ptr::read_unaligned(r.add(off) as *const i32);
                    push_fixed(&mut col, ty, valid, |col| match ty {
                        LogicalType::Date => col.push_value(&rexa_exec::Value::Date(v)),
                        _ => col.push_value(&rexa_exec::Value::Int32(v)),
                    });
                }
                LogicalType::Int64 => {
                    let v = std::ptr::read_unaligned(r.add(off) as *const i64);
                    push_fixed(&mut col, ty, valid, |col| {
                        col.push_value(&rexa_exec::Value::Int64(v))
                    });
                }
                LogicalType::Float64 => {
                    let v = std::ptr::read_unaligned(r.add(off) as *const f64);
                    push_fixed(&mut col, ty, valid, |col| {
                        col.push_value(&rexa_exec::Value::Float64(v))
                    });
                }
                LogicalType::Varchar => {
                    if valid {
                        let s = RexaString::read_from(r.add(off));
                        let text = std::str::from_utf8_unchecked(s.as_bytes());
                        col.push_value(&rexa_exec::Value::Varchar(text.to_string()))
                            .expect("type matches");
                    } else {
                        col.push_value(&rexa_exec::Value::Null).expect("null ok");
                    }
                }
            }
        }
        columns.push(col);
    }
    DataChunk::new(columns)
}

fn push_fixed(
    col: &mut Vector,
    _ty: LogicalType,
    valid: bool,
    push: impl FnOnce(&mut Vector) -> Result<()>,
) {
    if valid {
        push(col).expect("type matches");
    } else {
        col.push_value(&rexa_exec::Value::Null).expect("null ok");
    }
}

impl CollectionPins {
    /// Number of pinned row pages.
    pub fn row_page_count(&self) -> usize {
        self.row.len()
    }

    /// Number of pinned heap pages (the guards exist to keep string data
    /// addressable; they are not otherwise read).
    pub fn heap_page_count(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_buffer::BufferManagerConfig;
    use rexa_exec::{hashing, Value};
    use rexa_storage::scratch_dir;

    const PAGE: usize = 1024;

    fn mgr(limit_pages: usize) -> Arc<BufferManager> {
        BufferManager::new(
            BufferManagerConfig::with_limit(limit_pages * PAGE)
                .page_size(PAGE)
                .temp_dir(scratch_dir("layout").unwrap()),
        )
        .unwrap()
    }

    fn layout_is() -> Arc<TupleDataLayout> {
        Arc::new(TupleDataLayout::new(
            vec![LogicalType::Int64, LogicalType::Varchar],
            vec![],
        ))
    }

    fn test_columns(n: usize) -> (Vector, Vector) {
        let keys: Vec<i64> = (0..n as i64).collect();
        let strs: Vec<String> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    format!("s{i}") // inline
                } else {
                    format!("this is a long string number {i:06} that lives on the heap")
                }
            })
            .collect();
        (Vector::from_i64(keys), Vector::from_strs(strs))
    }

    fn append_all(
        coll: &mut TupleDataCollection,
        a: &Vector,
        b: &Vector,
    ) -> (Vec<u64>, Vec<*mut u8>) {
        let n = a.len();
        let hashes = hashing::hash_columns(&[a, b], n);
        let sel: Vec<u32> = (0..n as u32).collect();
        let mut ptrs = Vec::new();
        coll.append(&[a, b], &hashes, &sel, Some(&mut ptrs))
            .unwrap();
        (hashes, ptrs)
    }

    #[test]
    fn append_and_gather_in_memory() {
        let m = mgr(64);
        let mut coll = TupleDataCollection::new(m, layout_is());
        let (a, b) = test_columns(100);
        let (hashes, ptrs) = append_all(&mut coll, &a, &b);
        assert_eq!(coll.rows(), 100);
        coll.verify().unwrap();

        // Hashes were materialized.
        for (i, &p) in ptrs.iter().enumerate() {
            assert_eq!(unsafe { coll.layout().read_hash(p) }, hashes[i]);
        }
        // Gather returns the original values.
        let out = unsafe { coll.gather(&ptrs) };
        for i in 0..100 {
            assert_eq!(out.column(0).value(i), a.value(i));
            assert_eq!(out.column(1).value(i), b.value(i));
        }
    }

    #[test]
    fn spill_reload_recomputes_pointers() {
        // Limit of 4 pages: appending ~20 pages forces spills mid-append is
        // not allowed (active pages are pinned), so append in rounds with
        // release_pins between, then squeeze with temp allocations.
        let m = mgr(8);
        let mut coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let (a, b) = test_columns(60);
        append_all(&mut coll, &a, &b);
        coll.release_pins();

        // Force everything out with page allocations.
        let mut hog = Vec::new();
        loop {
            match m.allocate_page() {
                Ok(p) => hog.push(p),
                Err(e) => {
                    assert!(e.is_oom());
                    break;
                }
            }
        }
        assert!(m.stats().evictions_temporary > 0, "collection was spilled");
        drop(hog);

        // Re-pin: pointers must be recomputed, values intact.
        let pins = coll.pin_all().unwrap();
        let ptrs = coll.all_row_ptrs(&pins);
        let out = unsafe { coll.gather(&ptrs) };
        for i in 0..60 {
            assert_eq!(out.column(0).value(i), a.value(i), "row {i} key");
            assert_eq!(out.column(1).value(i), b.value(i), "row {i} str");
        }
    }

    #[test]
    fn double_pin_all_is_idempotent() {
        let m = mgr(32);
        let mut coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let (a, b) = test_columns(40);
        append_all(&mut coll, &a, &b);
        coll.release_pins();

        let pins1 = coll.pin_all().unwrap();
        let snap1 = unsafe { coll.gather(&coll.all_row_ptrs(&pins1)) };
        drop(pins1);
        let pins2 = coll.pin_all().unwrap();
        let snap2 = unsafe { coll.gather(&coll.all_row_ptrs(&pins2)) };
        assert_eq!(snap1, snap2);
    }

    #[test]
    fn multiple_spill_cycles_preserve_data() {
        let m = mgr(8);
        let mut coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let (a, b) = test_columns(80);
        append_all(&mut coll, &a, &b);
        coll.release_pins();

        for _cycle in 0..3 {
            // Squeeze out...
            let mut hog = Vec::new();
            while let Ok(p) = m.allocate_page() {
                hog.push(p);
            }
            drop(hog);
            // ...and verify.
            let pins = coll.pin_all().unwrap();
            let out = unsafe { coll.gather(&coll.all_row_ptrs(&pins)) };
            for i in 0..80 {
                assert_eq!(out.column(1).value(i), b.value(i));
            }
            drop(pins);
        }
        assert!(m.stats().evictions_temporary > 0);
    }

    #[test]
    fn fixed_only_layout_uses_no_heap_pages() {
        let m = mgr(16);
        let layout = Arc::new(TupleDataLayout::new(vec![LogicalType::Int64], vec![]));
        let mut coll = TupleDataCollection::new(m, layout);
        let a = Vector::from_i64((0..500).collect());
        let hashes = hashing::hash_columns(&[&a], 500);
        let sel: Vec<u32> = (0..500).collect();
        coll.append(&[&a], &hashes, &sel, None).unwrap();
        coll.verify().unwrap();
        coll.release_pins();
        let pins = coll.pin_all().unwrap();
        assert_eq!(pins.heap_page_count(), 0);
        let out = unsafe { coll.gather(&coll.all_row_ptrs(&pins)) };
        assert_eq!(out.len(), 500);
        assert_eq!(out.column(0).i64s()[499], 499);
    }

    #[test]
    fn nulls_round_trip_through_rows() {
        let m = mgr(16);
        let mut coll = TupleDataCollection::new(m, layout_is());
        let keys = Vector::from_values(
            LogicalType::Int64,
            &[Value::Int64(1), Value::Null, Value::Int64(3)],
        )
        .unwrap();
        let strs = Vector::from_values(
            LogicalType::Varchar,
            &[
                Value::Null,
                Value::Varchar("a rather long string that goes to the heap".into()),
                Value::Varchar("tiny".into()),
            ],
        )
        .unwrap();
        let hashes = hashing::hash_columns(&[&keys, &strs], 3);
        let sel = [0u32, 1, 2];
        let mut ptrs = Vec::new();
        coll.append(&[&keys, &strs], &hashes, &sel, Some(&mut ptrs))
            .unwrap();
        let out = unsafe { coll.gather(&ptrs) };
        for i in 0..3 {
            assert_eq!(out.column(0).value(i), keys.value(i));
            assert_eq!(out.column(1).value(i), strs.value(i));
        }
    }

    #[test]
    fn oversized_string_gets_dedicated_heap_page() {
        let m = mgr(32);
        let mut coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let big = "x".repeat(3 * PAGE); // much larger than a page
        let keys = Vector::from_i64(vec![7]);
        let strs = Vector::from_strs([big.as_str()]);
        let hashes = hashing::hash_columns(&[&keys, &strs], 1);
        let mut ptrs = Vec::new();
        coll.append(&[&keys, &strs], &hashes, &[0], Some(&mut ptrs))
            .unwrap();
        coll.verify().unwrap();
        coll.release_pins();

        // Spill and reload the oversized page too.
        let mut hog = Vec::new();
        while let Ok(p) = m.allocate_page() {
            hog.push(p);
        }
        drop(hog);
        let pins = coll.pin_all().unwrap();
        let out = unsafe { coll.gather(&coll.all_row_ptrs(&pins)) };
        assert_eq!(out.column(1).value(0), Value::Varchar(big));
    }

    #[test]
    fn merge_from_moves_pages() {
        let m = mgr(64);
        let mut a_coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let mut b_coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let (a1, b1) = test_columns(30);
        let (a2, b2) = test_columns(20);
        append_all(&mut a_coll, &a1, &b1);
        append_all(&mut b_coll, &a2, &b2);
        a_coll.release_pins();
        b_coll.release_pins();

        a_coll.merge_from(b_coll);
        assert_eq!(a_coll.rows(), 50);
        a_coll.verify().unwrap();
        let pins = a_coll.pin_all().unwrap();
        let out = unsafe { a_coll.gather(&a_coll.all_row_ptrs(&pins)) };
        assert_eq!(out.len(), 50);
        // Last 20 rows are b's data.
        for i in 0..20 {
            assert_eq!(out.column(0).value(30 + i), a2.value(i));
            assert_eq!(out.column(1).value(30 + i), b2.value(i));
        }
    }

    #[test]
    #[should_panic(expected = "released pins")]
    fn merge_with_active_pins_panics() {
        let m = mgr(64);
        let mut a_coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let b_coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let (a1, b1) = test_columns(5);
        append_all(&mut a_coll, &a1, &b1); // pins still active
        a_coll.merge_from(b_coll);
    }

    #[test]
    fn aggregate_state_region_is_zeroed() {
        let m = mgr(16);
        let layout = Arc::new(TupleDataLayout::new(vec![LogicalType::Int64], vec![8, 16]));
        let mut coll = TupleDataCollection::new(m, layout.clone());
        let a = Vector::from_i64(vec![42]);
        let hashes = hashing::hash_columns(&[&a], 1);
        let mut ptrs = Vec::new();
        coll.append(&[&a], &hashes, &[0], Some(&mut ptrs)).unwrap();
        unsafe {
            let p = ptrs[0];
            for off in 0..24 {
                assert_eq!(*p.add(layout.aggr_offset(0) + off), 0);
            }
        }
    }

    #[test]
    fn dropping_collection_frees_everything() {
        let m = mgr(16);
        let mut coll = TupleDataCollection::new(Arc::clone(&m), layout_is());
        let (a, b) = test_columns(150);
        append_all(&mut coll, &a, &b);
        coll.release_pins();
        // Spill some of it.
        let mut hog = Vec::new();
        while let Ok(p) = m.allocate_page() {
            hog.push(p);
        }
        drop(hog);
        drop(coll);
        assert_eq!(m.memory_used(), 0);
        assert_eq!(m.stats().temp_bytes_on_disk, 0, "spill space freed");
    }
}
