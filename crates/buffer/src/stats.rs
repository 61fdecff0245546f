//! Counters and gauges exposed by the buffer manager — the observability
//! needed to reproduce the paper's Figure 4 (resident persistent/temporary
//! bytes and temp-file size over time) and the Section VII allocation
//! micro-benchmark. Clean-first eviction trades spill I/O for re-reads of
//! the database file; `temp_bytes_written`/`temp_bytes_read` count the one
//! and `persistent_bytes_loaded` the other.

/// A point-in-time snapshot of the buffer manager's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Bytes currently counted against the memory limit
    /// (resident pages + non-paged reservations).
    pub memory_used: usize,
    /// The configured memory limit in bytes.
    pub memory_limit: usize,
    /// Bytes of resident persistent pages.
    pub persistent_resident: usize,
    /// Bytes of resident temporary pages (fixed and variable).
    pub temporary_resident: usize,
    /// Bytes of non-paged reservations.
    pub non_paged: usize,
    /// Bytes of spilled temporary data currently on disk.
    pub temp_bytes_on_disk: u64,
    /// Cumulative bytes written to temp storage.
    pub temp_bytes_written: u64,
    /// Cumulative bytes read back from temp storage.
    pub temp_bytes_read: u64,
    /// Number of persistent-page evictions (free: no write-back).
    pub evictions_persistent: u64,
    /// Number of temporary-page evictions (each wrote to temp storage).
    pub evictions_temporary: u64,
    /// Cumulative bytes of persistent pages read from the database file,
    /// first loads and re-reads alike. Evicting a clean page is free only
    /// if nothing reads it again; the re-reads that eviction order causes
    /// show up here, not in the temp-file counters.
    pub persistent_bytes_loaded: u64,
    /// Number of times an evicted buffer was handed directly to the
    /// allocation that triggered the eviction ("the buffer is reused").
    pub buffer_reuses: u64,
    /// Number of page/variable allocations served.
    pub allocations: u64,
    /// Number of transient spill-write errors that were retried with
    /// backoff (each retry counts once; a spill that eventually succeeds
    /// still leaves its retries here).
    pub spill_retries: u64,
    /// Number of spills abandoned after exhausting retries (each one
    /// surfaced as an [`Error::SpillFailed`](rexa_exec::Error::SpillFailed)
    /// to the query that needed the memory).
    pub spill_failures: u64,
    /// Always 0: spill reloads are synchronous, so there is no read-ahead
    /// to hit. Kept because the end-to-end benchmark's
    /// `buffer.readahead_hit_ratio` reads it.
    pub readahead_hits: u64,
    /// Always 0, for the same reason as
    /// [`readahead_hits`](Self::readahead_hits).
    pub readahead_misses: u64,
}

impl BufferStats {
    /// Difference of the cumulative counters of two snapshots
    /// (`self` after, `earlier` before); gauges are taken from `self`.
    pub fn delta_since(&self, earlier: &BufferStats) -> BufferStats {
        BufferStats {
            memory_used: self.memory_used,
            memory_limit: self.memory_limit,
            persistent_resident: self.persistent_resident,
            temporary_resident: self.temporary_resident,
            non_paged: self.non_paged,
            temp_bytes_on_disk: self.temp_bytes_on_disk,
            temp_bytes_written: self.temp_bytes_written - earlier.temp_bytes_written,
            temp_bytes_read: self.temp_bytes_read - earlier.temp_bytes_read,
            evictions_persistent: self.evictions_persistent - earlier.evictions_persistent,
            evictions_temporary: self.evictions_temporary - earlier.evictions_temporary,
            persistent_bytes_loaded: self.persistent_bytes_loaded - earlier.persistent_bytes_loaded,
            buffer_reuses: self.buffer_reuses - earlier.buffer_reuses,
            allocations: self.allocations - earlier.allocations,
            spill_retries: self.spill_retries - earlier.spill_retries,
            spill_failures: self.spill_failures - earlier.spill_failures,
            readahead_hits: self.readahead_hits - earlier.readahead_hits,
            readahead_misses: self.readahead_misses - earlier.readahead_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let before = BufferStats {
            temp_bytes_written: 100,
            persistent_bytes_loaded: 10,
            evictions_temporary: 3,
            spill_retries: 2,
            ..Default::default()
        };
        let after = BufferStats {
            memory_used: 77,
            temp_bytes_written: 160,
            evictions_temporary: 5,
            spill_retries: 6,
            spill_failures: 1,
            persistent_bytes_loaded: 25,
            ..Default::default()
        };
        let d = after.delta_since(&before);
        assert_eq!(d.temp_bytes_written, 60);
        assert_eq!(d.evictions_temporary, 2);
        assert_eq!(d.memory_used, 77);
        assert_eq!(d.spill_retries, 4);
        assert_eq!(d.spill_failures, 1);
        assert_eq!(d.persistent_bytes_loaded, 15);
    }
}
