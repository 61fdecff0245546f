//! A raw, cache-line-aligned heap allocation.
//!
//! Buffers are deliberately *not* `Box<[u8]>`: pinned pages are mutated
//! through raw pointers held by multiple `PinGuard`s (the row layout writes
//! tuples, the hash table combines aggregate states in place), so the buffer
//! must never be exposed as a uniquely-borrowed Rust reference while pins
//! exist. `RawBuffer` keeps the allocation behind a `NonNull<u8>` and only
//! materializes slices in controlled, documented places.

use std::alloc::{alloc, dealloc, Layout};
use std::ptr::NonNull;

/// Alignment of every buffer: one OS page (4 KiB). Cache-line alignment
/// (the old value) covers the CPU; page alignment additionally satisfies
/// direct I/O (`O_DIRECT` spill files need block-aligned user buffers) and
/// costs nothing for pool pages, which are page-sized multiples anyway.
pub const BUFFER_ALIGN: usize = 4096;

/// An owned, aligned, *uninitialized* allocation of fixed size. Contents
/// are whatever the allocator hands back; consumers write before they read
/// (the row layout zeroes each row's state region as it scatters).
#[derive(Debug)]
pub struct RawBuffer {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: RawBuffer owns its allocation; synchronization of *contents* is the
// responsibility of the buffer manager's pin protocol.
unsafe impl Send for RawBuffer {}
// SAFETY: shared access only hands out the pointer value; reading or writing
// through it goes through the slice accessors, whose callers uphold the pin
// protocol (their `# Safety` sections).
unsafe impl Sync for RawBuffer {}

impl RawBuffer {
    /// Allocate `len` bytes (uninitialized).
    ///
    /// # Panics
    /// On `len == 0` or allocation failure (treated as unrecoverable: the
    /// buffer manager enforces the memory limit *before* allocating).
    pub fn alloc(len: usize) -> Self {
        assert!(len > 0, "zero-size buffer");
        let layout = Layout::from_size_align(len, BUFFER_ALIGN).expect("bad layout");
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { alloc(layout) };
        let ptr = NonNull::new(ptr).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        RawBuffer { ptr, len }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (buffers have non-zero size).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The base pointer.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// The contents as a shared slice.
    ///
    /// # Safety
    /// No thread may be concurrently writing to the buffer.
    pub unsafe fn slice(&self) -> &[u8] {
        // SAFETY: `ptr` owns `len` allocated bytes for `self`'s lifetime; the
        // caller rules out concurrent writers.
        std::slice::from_raw_parts(self.ptr.as_ptr(), self.len)
    }

    /// The contents as an exclusive slice.
    ///
    /// # Safety
    /// No other reference or pointer into the buffer may be used for the
    /// lifetime of the returned slice.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [u8] {
        // SAFETY: `ptr` owns `len` allocated bytes for `self`'s lifetime; the
        // caller guarantees no other access while the slice lives.
        std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len)
    }
}

impl Drop for RawBuffer {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.len, BUFFER_ALIGN).unwrap();
        // SAFETY: ptr was allocated with exactly this layout.
        unsafe { dealloc(self.ptr.as_ptr(), layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned() {
        let b = RawBuffer::alloc(4096);
        assert_eq!(b.len(), 4096);
        assert_eq!(b.as_ptr() as usize % BUFFER_ALIGN, 0);
    }

    #[test]
    fn writes_are_visible() {
        let b = RawBuffer::alloc(128);
        // SAFETY: `b` is local to this thread and each slice is dropped
        // before the next is taken.
        unsafe {
            b.slice_mut()[7] = 42;
            assert_eq!(b.slice()[7], 42);
        }
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_size_panics() {
        RawBuffer::alloc(0);
    }
}
