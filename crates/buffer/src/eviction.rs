//! Eviction order (paper Sections III and VII): clean pages first.
//!
//! Blocks whose last pin is released join one of two FIFO queues with a
//! sequence number: persistent pages in one, temporary pages in the other.
//! Re-pinning bumps the block's sequence, turning any queued entry stale;
//! stale entries are skipped on pop. This approximates LRU without a
//! global lock, like DuckDB's "lock-free concurrent priority queue with an
//! LRU policy".
//!
//! Every unpinned persistent page goes before any temporary page. Dropping
//! a persistent page is free, because the database file already holds it;
//! evicting a temporary page costs a spill write now and a read later
//! (temporary pages are always dirty: a reload frees their temp-file slot).
//! This is the order that keeps the paper's Figure 4 temp file near zero.

use crate::handle::BlockHandle;
use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// An entry in an eviction queue: a weak block reference plus the sequence
/// number at enqueue time.
pub(crate) struct QueueEntry {
    pub(crate) block: Weak<BlockHandle>,
    pub(crate) seq: u64,
}

impl QueueEntry {
    /// The block, if it still exists and has not been re-pinned since this
    /// entry was queued.
    fn live(&self) -> Option<Arc<BlockHandle>> {
        self.block
            .upgrade()
            .filter(|b| b.seq.load(Ordering::Acquire) == self.seq)
    }
}

/// Queue insertions between purges of dead/stale entries. Without purging,
/// a workload that allocates and destroys pages without ever hitting the
/// memory limit (so eviction never pops) grows the queue without bound.
const PURGE_INTERVAL: usize = 1 << 16;

/// The eviction structure: `queues[0]` holds persistent pages,
/// `queues[1]` temporary ones.
pub(crate) struct EvictionQueues {
    queues: [SegQueue<QueueEntry>; 2],
    /// Pushes since the last purge.
    since_purge: AtomicUsize,
}

impl EvictionQueues {
    pub(crate) fn new() -> Self {
        EvictionQueues {
            queues: [SegQueue::new(), SegQueue::new()],
            since_purge: AtomicUsize::new(0),
        }
    }

    /// Enqueue a block that just became unpinned.
    pub(crate) fn push(&self, entry: QueueEntry, temporary: bool) {
        self.queues[usize::from(temporary)].push(entry);
        if self.since_purge.fetch_add(1, Ordering::Relaxed) >= PURGE_INTERVAL {
            self.since_purge.store(0, Ordering::Relaxed);
            self.purge();
        }
    }

    /// Drop entries for destroyed or re-pinned blocks (their eviction would
    /// be skipped anyway). Bounded: one pass over the current queue length.
    pub(crate) fn purge(&self) {
        for q in &self.queues {
            for _ in 0..q.len() {
                let Some(entry) = q.pop() else { break };
                if entry.live().is_some() {
                    q.push(entry);
                }
            }
        }
    }

    /// The next eviction candidate: the oldest live persistent page, else
    /// the oldest live temporary page. Entries of destroyed or re-pinned
    /// blocks are dropped on the way. The candidate may still be pinned or
    /// already evicted; the caller checks under the block's state lock.
    pub(crate) fn pop(&self) -> Option<Arc<BlockHandle>> {
        self.queues
            .iter()
            .find_map(|q| std::iter::from_fn(|| q.pop()).find_map(|e| e.live()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{BufferTag, Residency};
    use crate::raw::RawBuffer;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicU64;

    fn entry(seq: u64) -> QueueEntry {
        QueueEntry {
            block: Weak::new(),
            seq,
        }
    }

    /// A managerless block whose `size` doubles as its name in the tests.
    fn block(tag: BufferTag, name: usize) -> Arc<BlockHandle> {
        Arc::new(BlockHandle {
            tag,
            size: name,
            db: None,
            state: Mutex::new(Residency::Loaded(RawBuffer::alloc(64))),
            pins: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            mgr: Weak::new(),
        })
    }

    fn push(q: &EvictionQueues, b: &Arc<BlockHandle>) {
        let seq = b.seq.fetch_add(1, Ordering::AcqRel) + 1;
        q.push(
            QueueEntry {
                block: Arc::downgrade(b),
                seq,
            },
            b.tag.is_temporary(),
        );
    }

    #[test]
    fn persistent_before_temporary_fifo_within_kind_skipping_dead_and_stale() {
        let q = EvictionQueues::new();
        let t1 = block(BufferTag::TempFixed, 1);
        let p2 = block(BufferTag::Persistent, 2);
        let t3 = block(BufferTag::TempVariable, 3);
        let p4 = block(BufferTag::Persistent, 4);
        let p5 = block(BufferTag::Persistent, 5);
        let t6 = block(BufferTag::TempFixed, 6);
        for b in [&t1, &p2, &t3, &p4, &p5, &t6] {
            push(&q, b);
        }
        // Stale: re-pinned after queueing (the pin bumps the sequence).
        p4.seq.fetch_add(1, Ordering::AcqRel);
        t3.seq.fetch_add(1, Ordering::AcqRel);
        // Dead: destroyed after queueing.
        drop(p5);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|b| b.size)).collect();
        assert_eq!(order, vec![2, 1, 6]);
    }

    #[test]
    fn purge_drops_dead_and_stale_entries() {
        let q = EvictionQueues::new();
        for i in 0..100 {
            q.push(entry(i), i % 2 == 0); // dead weak refs
        }
        q.purge();
        assert!(
            q.queues.iter().all(|q| q.is_empty()),
            "all entries were dead"
        );
    }

    #[test]
    fn push_churn_stays_bounded() {
        // Regression: a workload that allocates and destroys pages without
        // memory pressure must not grow the queue without bound (this once
        // got the allocation micro-benchmark OOM-killed).
        let q = EvictionQueues::new();
        for i in 0..(super::PURGE_INTERVAL * 3) {
            q.push(entry(i as u64), false);
        }
        let remaining = q.queues[0].len();
        assert!(
            remaining <= super::PURGE_INTERVAL + 1,
            "queue grew unboundedly: {remaining}"
        );
    }
}
