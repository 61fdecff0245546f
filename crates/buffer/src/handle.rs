//! Block handles and pins.
//!
//! A [`BlockHandle`] is the identity of one buffer-managed page; it outlives
//! evictions and reloads. A [`PinGuard`] keeps the page resident and carries
//! the page's current base address — the address an eviction/reload cycle is
//! allowed to change, which is exactly what the spillable page layout's
//! pointer recomputation (paper Section IV) compensates for.

use crate::manager::BufferManager;
use crate::raw::RawBuffer;
use parking_lot::Mutex;
use rexa_storage::{BlockId, DatabaseFile, SlotId, VarId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// What kind of data a block holds — determines spill behaviour and which
/// eviction queue it joins (persistent pages are evicted first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferTag {
    /// A page of the database file. Eviction is free: drop the buffer.
    Persistent,
    /// A page-size temporary buffer, spillable to a slot of the shared temp
    /// file.
    TempFixed,
    /// A variable-size temporary buffer, spillable to its own temp file.
    TempVariable,
}

impl BufferTag {
    /// True for the two temporary kinds.
    pub fn is_temporary(self) -> bool {
        !matches!(self, BufferTag::Persistent)
    }
}

/// Where a non-resident block's data lives.
#[derive(Debug)]
pub(crate) enum DiskLocation {
    /// In the database file at this block id (persistent pages only).
    Database(BlockId),
    /// In a slot of the shared fixed-size temp file.
    TempSlot(SlotId),
    /// In its own variable-size temp file.
    TempVar(VarId),
}

/// The residency state of a block.
#[derive(Debug)]
pub(crate) enum Residency {
    /// Resident in memory.
    Loaded(RawBuffer),
    /// Only on disk.
    OnDisk(DiskLocation),
}

/// A buffer-managed page. Obtained from [`BufferManager::allocate_page`],
/// [`BufferManager::allocate_variable`], or
/// [`BufferManager::register_persistent`]; dropped handles release their
/// memory and disk space ("eagerly destroy temporary pages as soon as they
/// are no longer needed").
#[derive(Debug)]
pub struct BlockHandle {
    pub(crate) tag: BufferTag,
    pub(crate) size: usize,
    /// For persistent blocks: the database file to reload from and the page
    /// id within it (a persistent block's disk location never changes).
    pub(crate) db: Option<(Arc<DatabaseFile>, BlockId)>,
    pub(crate) state: Mutex<Residency>,
    /// Number of outstanding pins. A pinned block is never evicted.
    pub(crate) pins: AtomicUsize,
    /// Bumped on every pin and every eviction-queue insert; queue entries
    /// with a stale sequence number are skipped (DuckDB's scheme for a
    /// lock-free LRU approximation).
    pub(crate) seq: AtomicU64,
    pub(crate) mgr: Weak<BufferManager>,
}

impl BlockHandle {
    /// The kind of this block.
    pub fn tag(&self) -> BufferTag {
        self.tag
    }

    /// The buffer size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True if the block is currently resident in memory.
    pub fn is_loaded(&self) -> bool {
        matches!(*self.state.lock(), Residency::Loaded(_))
    }

    /// Number of outstanding pins (for assertions and tests).
    pub fn pin_count(&self) -> usize {
        self.pins.load(Ordering::Relaxed)
    }

    /// The database page id, for persistent blocks.
    pub fn persistent_id(&self) -> Option<BlockId> {
        self.db.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for BlockHandle {
    fn drop(&mut self) {
        debug_assert_eq!(
            self.pins.load(Ordering::Relaxed),
            0,
            "block dropped while pinned"
        );
        let Some(mgr) = self.mgr.upgrade() else {
            return;
        };
        // Exclusive access: this is the last reference.
        let state = self.state.get_mut();
        match state {
            Residency::Loaded(_) => mgr.on_destroy_loaded(self.tag, self.size),
            Residency::OnDisk(loc) => mgr.on_destroy_spilled(loc, self.size),
        }
    }
}

/// A pin on a resident block: keeps it in memory and exposes its current
/// base address. Dropping the guard unpins; when the last pin goes the block
/// joins the eviction queue.
#[derive(Debug)]
pub struct PinGuard {
    pub(crate) handle: Arc<BlockHandle>,
    pub(crate) ptr: *mut u8,
    pub(crate) len: usize,
}

// SAFETY: the pointer targets a buffer kept alive by `handle`; cross-thread
// content synchronization is the pin holder's contract (see `slice_mut`).
unsafe impl Send for PinGuard {}
// SAFETY: as for `Send`: every `&self` method either only reads the pointer
// value or states, in its `# Safety` section, the access discipline its
// caller upholds.
unsafe impl Sync for PinGuard {}

impl PinGuard {
    /// The handle this pin belongs to.
    pub fn handle(&self) -> &Arc<BlockHandle> {
        &self.handle
    }

    /// The page's current base address. Stable while this pin lives; may
    /// differ across unpin/re-pin cycles (that is what pointer recomputation
    /// detects).
    pub fn base_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Buffer size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false; buffers have non-zero size.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The page contents as a shared slice.
    ///
    /// # Safety
    /// No thread may be concurrently writing to the page.
    pub unsafe fn slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` is one live allocation while this pin
        // holds it resident; the caller rules out concurrent writers.
        std::slice::from_raw_parts(self.ptr, self.len)
    }

    /// The page contents as an exclusive slice.
    ///
    /// # Safety
    /// The caller must be the only accessor of the page for the returned
    /// slice's lifetime. The aggregation upholds this structurally: during
    /// phase one each page belongs to exactly one thread-local collection;
    /// during phase two each partition belongs to exactly one task.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [u8] {
        // SAFETY: `ptr..ptr + len` is one live allocation while this pin
        // holds it resident; the caller guarantees exclusive access.
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }

    /// Copy `data` into the page at `offset` (bounds-checked).
    pub fn write_at(&self, offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= self.len, "write out of bounds");
        // SAFETY: in-bounds; concurrent access discipline per `slice_mut`.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(offset), data.len());
        }
    }

    /// Copy `out.len()` bytes from the page at `offset` (bounds-checked).
    pub fn read_at(&self, offset: usize, out: &mut [u8]) {
        assert!(offset + out.len() <= self.len, "read out of bounds");
        // SAFETY: in-bounds (asserted above); concurrent access discipline
        // per `slice`.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(offset), out.as_mut_ptr(), out.len());
        }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        if self.handle.pins.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last pin gone: the block becomes evictable.
            if let Some(mgr) = self.handle.mgr.upgrade() {
                mgr.queue_for_eviction(&self.handle);
            }
        }
    }
}
