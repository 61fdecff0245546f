//! The salted hash-table entry array (paper Section V, "Salt" and
//! "Collision Resolution").
//!
//! The table is *one level of indirection*: an array of 64-bit entries whose
//! lower 48 bits point to a materialized row and whose upper 16 bits hold
//! the **salt** — the top 16 bits of the tuple's hash. A linear probe
//! compares the salt before following the pointer, so for uniform hashes all
//! but 1/65536 of non-matching collisions are rejected without touching the
//! row. Keeping the randomly-accessed area this small (8 bytes per group) is
//! what makes the fixed-size thread-local table cache-friendly.
//!
//! The entry array is a **non-paged allocation**: it cannot spill (rebuilding
//! it is cheaper than reloading it), but it is accounted against the memory
//! limit through the buffer manager and can push pages out.
//!
//! Entries equal to zero are empty (a row pointer is never null). During
//! phase-1 probing the operator temporarily stores *pending* entries for
//! groups discovered in the current input chunk but not yet materialized;
//! bit 47 marks those (user-space pointers on x86-64/aarch64 stay below
//! 2^47).

#![deny(clippy::undocumented_unsafe_blocks)]

use rexa_buffer::BufferManager;
use rexa_exec::hashing::POINTER_BITS;
use rexa_exec::{ExecContext, Result};

/// Mask of the pointer bits of an entry.
pub const PTR_MASK: u64 = (1 << POINTER_BITS) - 1;

/// Marks an entry as "pending": the group's row is being materialized from
/// the current chunk; the low bits hold its ordinal in the new-group list.
/// Bit 47 is safe: canonical user-space addresses stay below 2^47.
pub const PENDING_FLAG: u64 = 1 << 47;

/// Build an entry from a hash's salt and a row pointer.
#[inline]
pub fn make_entry(hash: u64, row: *const u8) -> u64 {
    let ptr = row as u64;
    debug_assert_eq!(ptr & !PTR_MASK, 0, "pointer exceeds 48 bits");
    debug_assert_eq!(ptr & PENDING_FLAG, 0, "pointer collides with pending flag");
    (hash & !PTR_MASK) | ptr
}

/// Build a pending entry for new-group ordinal `ord`.
#[inline]
pub fn make_pending(hash: u64, ord: usize) -> u64 {
    debug_assert!((ord as u64) < PENDING_FLAG);
    (hash & !PTR_MASK) | PENDING_FLAG | ord as u64
}

/// The salt of an entry or hash: its top 16 bits (as a full-width value so
/// it can be compared without shifting).
#[inline]
pub fn salt_bits(v: u64) -> u64 {
    v & !PTR_MASK
}

/// The row pointer of a non-pending entry.
#[inline]
pub fn entry_ptr(e: u64) -> *mut u8 {
    (e & PTR_MASK) as *mut u8
}

/// True if the entry is a pending marker.
#[inline]
pub fn is_pending(e: u64) -> bool {
    e & PENDING_FLAG != 0
}

/// The new-group ordinal of a pending entry.
#[inline]
pub fn pending_ord(e: u64) -> usize {
    (e & (PENDING_FLAG - 1)) as usize
}

/// Best-effort prefetch of the cache line at `p` into L1 (no-op off
/// x86_64). Probe and update loops issue these a fixed distance ahead so
/// their random row accesses overlap instead of serializing.
#[inline]
pub fn prefetch_read(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects and tolerates any address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A fixed-capacity, linear-probing entry array.
#[derive(Debug)]
pub struct SaltedHashTable {
    entries: Vec<u64>,
    mask: u64,
    count: usize,
    /// What accounts for the entry array: a fresh [`MemoryReservation`]
    /// (rexa_buffer) or a token carved from the query's admission grant.
    /// Either way, dropping it releases the bytes to the global accounting.
    _memory: Box<dyn std::any::Any + Send + Sync>,
}

impl SaltedHashTable {
    /// Allocate a table with `capacity` entries (rounded up to a power of
    /// two), accounted as a non-paged allocation.
    pub fn with_capacity(mgr: &BufferManager, capacity: usize) -> Result<Self> {
        Self::with_capacity_ctx(mgr, capacity, &ExecContext::new())
    }

    /// Like [`with_capacity`](Self::with_capacity), but draws the bytes from
    /// `ctx`'s memory grant when one is attached and has room — the grant
    /// was admitted against the memory limit already, so the array does not
    /// charge the manager a second time. Falls back to a fresh reservation.
    pub fn with_capacity_ctx(
        mgr: &BufferManager,
        capacity: usize,
        ctx: &ExecContext,
    ) -> Result<Self> {
        let capacity = capacity.next_power_of_two().max(64);
        let bytes = capacity * 8;
        let memory: Box<dyn std::any::Any + Send + Sync> = match ctx.carve(bytes) {
            Some(token) => token,
            None => Box::new(mgr.reserve(bytes)?),
        };
        Ok(SaltedHashTable {
            entries: vec![0u64; capacity],
            mask: capacity as u64 - 1,
            count: 0,
            _memory: memory,
        })
    }

    /// Number of entry slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of occupied slots.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Clear all entries — the hash-table *reset* (paper: "Only the array of
    /// 64-bit entries is reset while the tuples stay in place; therefore,
    /// resetting is an inexpensive operation").
    pub fn reset(&mut self) {
        self.entries.fill(0);
        self.count = 0;
    }

    /// First slot to probe for `hash`.
    #[inline]
    pub fn slot(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    /// Next slot in the linear probe sequence.
    #[inline]
    pub fn next_slot(&self, slot: usize) -> usize {
        (slot + 1) & self.mask as usize
    }

    /// Read the entry at `slot`.
    #[inline]
    pub fn entry(&self, slot: usize) -> u64 {
        // SAFETY: slot is always masked.
        unsafe { *self.entries.get_unchecked(slot) }
    }

    /// Prefetch the cache line holding `slot` into L1. Best-effort: a no-op
    /// on architectures without a stable prefetch intrinsic. The selection-
    /// vector probe issues these a fixed distance ahead so the random entry
    /// loads of a whole round overlap instead of serializing.
    #[inline]
    pub fn prefetch(&self, slot: usize) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: slot is always masked; prefetch has no memory effects.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.entries.as_ptr().add(slot) as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = slot;
    }

    /// Write the entry at `slot`; `occupy` bumps the count (set it when the
    /// slot transitions empty → occupied).
    #[inline]
    pub fn set_entry(&mut self, slot: usize, e: u64, occupy: bool) {
        // SAFETY: slot is always masked.
        unsafe {
            *self.entries.get_unchecked_mut(slot) = e;
        }
        if occupy {
            self.count += 1;
        }
    }

    /// Occupancy as a fraction.
    pub fn fill_ratio(&self) -> f64 {
        self.count as f64 / self.capacity() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_buffer::BufferManagerConfig;
    use rexa_exec::hashing::mix64;

    fn mgr() -> std::sync::Arc<BufferManager> {
        BufferManager::new(BufferManagerConfig::with_limit(1 << 20).page_size(1024)).unwrap()
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let m = mgr();
        let t = SaltedHashTable::with_capacity(&m, 100).unwrap();
        assert_eq!(t.capacity(), 128);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn reservation_accounts_against_limit() {
        let m = mgr();
        let before = m.memory_used();
        let t = SaltedHashTable::with_capacity(&m, 1024).unwrap();
        assert_eq!(m.memory_used() - before, 1024 * 8);
        drop(t);
        assert_eq!(m.memory_used(), before);
    }

    #[test]
    fn entry_round_trip() {
        let hash = mix64(42);
        let fake_row = 0x0000_7f12_3456_7890u64 as *const u8;
        let e = make_entry(hash, fake_row);
        assert!(!is_pending(e));
        assert_eq!(entry_ptr(e) as u64, fake_row as u64);
        assert_eq!(salt_bits(e), salt_bits(hash));
    }

    #[test]
    fn pending_round_trip() {
        let hash = mix64(7);
        let e = make_pending(hash, 1234);
        assert!(is_pending(e));
        assert_eq!(pending_ord(e), 1234);
        assert_eq!(salt_bits(e), salt_bits(hash));
    }

    #[test]
    fn reset_clears_but_keeps_capacity() {
        let m = mgr();
        let mut t = SaltedHashTable::with_capacity(&m, 64).unwrap();
        let slot = t.slot(mix64(9));
        t.set_entry(slot, make_pending(mix64(9), 0), true);
        assert_eq!(t.count(), 1);
        t.reset();
        assert_eq!(t.count(), 0);
        assert_eq!(t.entry(slot), 0);
        assert_eq!(t.capacity(), 64);
    }

    #[test]
    fn probe_sequence_wraps() {
        let m = mgr();
        let t = SaltedHashTable::with_capacity(&m, 64).unwrap();
        let last = t.capacity() - 1;
        assert_eq!(t.next_slot(last), 0);
    }

    #[test]
    fn oom_when_table_exceeds_limit() {
        let m = BufferManager::new(BufferManagerConfig::with_limit(1024).page_size(64)).unwrap();
        assert!(SaltedHashTable::with_capacity(&m, 1 << 20)
            .unwrap_err()
            .is_oom());
    }
}
