//! Radix-partitioned tuple data (paper Section V, "Partitioning").
//!
//! Pre-aggregated tuples are materialized *directly* into partitions — one
//! [`TupleDataCollection`] per radix — avoiding a second copy. The partition
//! of a tuple is a few middle bits of its hash, taken directly below the
//! salt so that neither the salt nor the table-offset bits are reused.

use crate::collection::TupleDataCollection;
use crate::row_layout::TupleDataLayout;
use rexa_buffer::BufferManager;
use rexa_exec::hashing;
use rexa_exec::{Result, Vector};
use std::sync::Arc;

/// A set of `2^radix_bits` collections, with hash-partitioned appends.
#[derive(Debug)]
pub struct PartitionedTupleData {
    radix_bits: u32,
    partitions: Vec<TupleDataCollection>,
    /// Scratch: per-partition selection vectors reused across appends.
    sel_scratch: Vec<Vec<u32>>,
    /// Scratch: input-row index -> output slot, reused across appends.
    pos_scratch: Vec<u32>,
}

impl PartitionedTupleData {
    /// Create `2^radix_bits` empty partitions.
    pub fn new(mgr: &Arc<BufferManager>, layout: &Arc<TupleDataLayout>, radix_bits: u32) -> Self {
        assert!(radix_bits <= hashing::MAX_RADIX_BITS);
        let n = 1usize << radix_bits;
        PartitionedTupleData {
            radix_bits,
            partitions: (0..n)
                .map(|_| TupleDataCollection::new(Arc::clone(mgr), Arc::clone(layout)))
                .collect(),
            sel_scratch: vec![Vec::new(); n],
            pos_scratch: Vec::new(),
        }
    }

    /// Number of radix bits.
    pub fn radix_bits(&self) -> u32 {
        self.radix_bits
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The partitions.
    pub fn partitions(&self) -> &[TupleDataCollection] {
        &self.partitions
    }

    /// Mutable access to one partition.
    pub fn partition_mut(&mut self, i: usize) -> &mut TupleDataCollection {
        &mut self.partitions[i]
    }

    /// Take ownership of one partition, leaving an empty one behind
    /// (phase 2 consumes partitions one at a time and destroys their pages
    /// eagerly).
    pub fn take_partition(&mut self, i: usize) -> TupleDataCollection {
        let mgr = Arc::clone(self.partitions[i].mgr_ref());
        let layout = Arc::clone(self.partitions[i].layout());
        std::mem::replace(
            &mut self.partitions[i],
            TupleDataCollection::new(mgr, layout),
        )
    }

    /// Total rows across partitions.
    pub fn rows(&self) -> usize {
        self.partitions.iter().map(|p| p.rows()).sum()
    }

    /// Total bytes of pages across partitions.
    pub fn data_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.data_bytes()).sum()
    }

    /// Append the rows selected by `sel`, routing each to its hash's radix
    /// partition. If `out_ptrs` is given it receives each appended row's
    /// address *in the order of `sel`* (the order the hash table expects).
    pub fn append(
        &mut self,
        cols: &[&Vector],
        hashes: &[u64],
        sel: &[u32],
        out_ptrs: Option<&mut Vec<*mut u8>>,
    ) -> Result<()> {
        for s in &mut self.sel_scratch {
            s.clear();
        }
        for &i in sel {
            let p = hashing::radix(hashes[i as usize], self.radix_bits);
            self.sel_scratch[p].push(i);
        }
        if let Some(out) = out_ptrs {
            // Remember where each appended row will land in `out`: input-row
            // index -> position within `sel` (bounded by the vector size, so
            // a flat scratch array beats a map on this hot path).
            let base = out.len();
            out.resize(base + sel.len(), std::ptr::null_mut());
            let max_row = sel.iter().copied().max().unwrap_or(0) as usize;
            if self.pos_scratch.len() <= max_row {
                self.pos_scratch.resize(max_row + 1, 0);
            }
            for (k, &i) in sel.iter().enumerate() {
                self.pos_scratch[i as usize] = (base + k) as u32;
            }
            let mut scratch = Vec::new();
            for p in 0..self.partitions.len() {
                if self.sel_scratch[p].is_empty() {
                    continue;
                }
                scratch.clear();
                let sel_p = std::mem::take(&mut self.sel_scratch[p]);
                self.partitions[p].append(cols, hashes, &sel_p, Some(&mut scratch))?;
                for (k, &i) in sel_p.iter().enumerate() {
                    out[self.pos_scratch[i as usize] as usize] = scratch[k];
                }
                self.sel_scratch[p] = sel_p;
            }
        } else {
            for p in 0..self.partitions.len() {
                if self.sel_scratch[p].is_empty() {
                    continue;
                }
                let sel_p = std::mem::take(&mut self.sel_scratch[p]);
                self.partitions[p].append(cols, hashes, &sel_p, None)?;
                self.sel_scratch[p] = sel_p;
            }
        }
        Ok(())
    }

    /// Release append pins on every partition (hash-table reset).
    pub fn release_pins(&mut self) {
        for p in &mut self.partitions {
            p.release_pins();
        }
    }

    /// Merge another partitioned set into this one, partition-wise
    /// (page-list moves, no copying). Both must have equal radix bits.
    pub fn combine(&mut self, mut other: PartitionedTupleData) {
        assert_eq!(self.radix_bits, other.radix_bits, "radix bits mismatch");
        for (dst, src) in self.partitions.iter_mut().zip(other.partitions.drain(..)) {
            dst.merge_from(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_buffer::BufferManagerConfig;
    use rexa_exec::LogicalType;
    use rexa_storage::scratch_dir;

    fn setup(bits: u32) -> (Arc<BufferManager>, PartitionedTupleData) {
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(usize::MAX)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("part").unwrap()),
        )
        .unwrap();
        let layout = Arc::new(TupleDataLayout::new(vec![LogicalType::Int64], vec![]));
        let parts = PartitionedTupleData::new(&mgr, &layout, bits);
        (mgr, parts)
    }

    #[test]
    fn routing_follows_radix_bits() {
        let (_mgr, mut parts) = setup(3);
        assert_eq!(parts.partition_count(), 8);
        let keys = Vector::from_i64((0..1000).collect());
        let hashes = hashing::hash_columns(&[&keys], 1000);
        let sel: Vec<u32> = (0..1000).collect();
        let mut ptrs = Vec::new();
        parts
            .append(&[&keys], &hashes, &sel, Some(&mut ptrs))
            .unwrap();
        assert_eq!(parts.rows(), 1000);
        assert_eq!(ptrs.len(), 1000);
        assert!(ptrs.iter().all(|p| !p.is_null()));
        // Row i's materialized hash must route to the partition it is in;
        // verify via the hash stored in the row.
        let layout = parts.partitions()[0].layout().clone();
        for (i, &p) in ptrs.iter().enumerate() {
            let h = unsafe { layout.read_hash(p) };
            assert_eq!(h, hashes[i], "row {i}");
        }
        // Partition sizes are roughly balanced for uniform keys.
        let sizes: Vec<usize> = parts.partitions().iter().map(|p| p.rows()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes.iter().all(|&s| s > 60), "{sizes:?}");
    }

    #[test]
    fn out_ptrs_preserve_sel_order() {
        let (_mgr, mut parts) = setup(4);
        let keys = Vector::from_i64(vec![5, 3, 5, 9]);
        let hashes = hashing::hash_columns(&[&keys], 4);
        // Deliberately shuffled selection.
        let sel = [2u32, 0, 3, 1];
        let mut ptrs = Vec::new();
        parts
            .append(&[&keys], &hashes, &sel, Some(&mut ptrs))
            .unwrap();
        let layout = parts.partitions()[0].layout().clone();
        for (k, &i) in sel.iter().enumerate() {
            let h = unsafe { layout.read_hash(ptrs[k]) };
            assert_eq!(h, hashes[i as usize], "slot {k} holds sel[{k}]={i}");
        }
    }

    #[test]
    fn zero_radix_bits_is_single_partition() {
        let (_mgr, mut parts) = setup(0);
        assert_eq!(parts.partition_count(), 1);
        let keys = Vector::from_i64(vec![1, 2, 3]);
        let hashes = hashing::hash_columns(&[&keys], 3);
        parts.append(&[&keys], &hashes, &[0, 1, 2], None).unwrap();
        assert_eq!(parts.partitions()[0].rows(), 3);
    }

    #[test]
    fn combine_moves_rows_partitionwise() {
        let (mgr, mut a) = setup(2);
        let layout = a.partitions()[0].layout().clone();
        let mut b = PartitionedTupleData::new(&mgr, &layout, 2);
        let keys = Vector::from_i64((0..100).collect());
        let hashes = hashing::hash_columns(&[&keys], 100);
        let sel: Vec<u32> = (0..100).collect();
        a.append(&[&keys], &hashes, &sel, None).unwrap();
        b.append(&[&keys], &hashes, &sel, None).unwrap();
        let a_sizes: Vec<usize> = a.partitions().iter().map(|p| p.rows()).collect();
        a.release_pins();
        b.release_pins();
        a.combine(b);
        assert_eq!(a.rows(), 200);
        for (p, &before) in a.partitions().iter().zip(&a_sizes) {
            assert_eq!(p.rows(), before * 2, "same keys, same routing");
        }
    }

    #[test]
    fn take_partition_leaves_empty_slot() {
        let (_mgr, mut parts) = setup(2);
        let keys = Vector::from_i64((0..50).collect());
        let hashes = hashing::hash_columns(&[&keys], 50);
        let sel: Vec<u32> = (0..50).collect();
        parts.append(&[&keys], &hashes, &sel, None).unwrap();
        parts.release_pins();
        let total = parts.rows();
        let taken = parts.take_partition(1);
        assert_eq!(parts.partitions()[1].rows(), 0);
        assert_eq!(parts.rows() + taken.rows(), total);
    }
}
