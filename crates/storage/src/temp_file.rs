//! Temporary spill files (paper Section III, "Temporary Data").
//!
//! Fixed-size temporary pages are swapped in and out of one slotted temp
//! file; freed slots are recycled so the file stays as small as the peak
//! spilled working set. Variable-size buffers are each written to their own
//! file, created on spill and deleted on load or destroy.
//!
//! All I/O goes through a pluggable [`IoBackend`], and every failure path
//! leaves the manager consistent: a failed slot write returns the slot to
//! the free list, a failed variable-size spill removes the partial file, and
//! the accounting gauges only ever count bytes that were durably written.

use crate::io_backend::{IoBackend, StdIo};
use parking_lot::Mutex;
use rexa_exec::{Error, Result};
use rexa_obs::{Counter, Gauge, MetricsRegistry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A slot index in the fixed-size temp file.
pub type SlotId = u64;

/// Identifier of a variable-size spill file.
pub type VarId = u64;

#[derive(Debug, Default)]
struct SlottedFile {
    file: Option<File>,
    /// Free slots as a min-heap: spills take the *lowest* free slot, so the
    /// file's live region stays dense near offset zero and a partition's
    /// pages land at adjacent offsets — sequential reloads instead of the
    /// scattered pattern a LIFO free list produces.
    free: BinaryHeap<Reverse<SlotId>>,
    next: SlotId,
}

/// Manages all spill files in one directory.
#[derive(Debug)]
pub struct TempFileManager {
    dir: PathBuf,
    page_size: usize,
    backend: Arc<dyn IoBackend>,
    slotted: Mutex<SlottedFile>,
    next_var: AtomicU64,
    /// Bytes currently occupied on disk by spilled data (fixed slots in use
    /// plus live variable-size files). This is the "size of the temporary
    /// file" series in the paper's Figure 4. Registry-backed when the
    /// manager is created with a [`MetricsRegistry`]; standalone otherwise
    /// (the handle works either way — the registry is just where a scrape
    /// finds it).
    bytes_on_disk: Gauge,
    /// Cumulative bytes ever written to temp storage.
    bytes_written: Counter,
    /// Cumulative bytes ever read back from temp storage.
    bytes_read: Counter,
    /// Open the slotted spill file with `O_DIRECT`: page I/O goes straight
    /// to the device instead of through the page cache. Atomic because it
    /// self-clears if the filesystem rejects direct I/O (e.g. tmpfs). See
    /// [`with_direct_io`](Self::with_direct_io).
    direct_io: std::sync::atomic::AtomicBool,
}

/// `O_DIRECT` on Linux/x86-64. (`std` exposes no named constant; the value
/// is ABI-stable per architecture.) Other targets fall back to buffered
/// I/O — the flag is a perf knob, not a semantic one.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const O_DIRECT: i32 = 0o040000;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const O_DIRECT: i32 = 0o200000;
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
const O_DIRECT: i32 = 0;

impl TempFileManager {
    /// Create a manager that spills into `dir` (created if absent) using
    /// plain OS I/O.
    pub fn new(dir: PathBuf, page_size: usize) -> Result<Self> {
        Self::with_backend(dir, page_size, Arc::new(StdIo))
    }

    /// Create a manager with a custom [`IoBackend`] (e.g. a
    /// [`FaultInjector`](crate::FaultInjector) in chaos tests).
    pub fn with_backend(
        dir: PathBuf,
        page_size: usize,
        backend: Arc<dyn IoBackend>,
    ) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(TempFileManager {
            dir,
            page_size,
            backend,
            slotted: Mutex::new(SlottedFile::default()),
            next_var: AtomicU64::new(0),
            bytes_on_disk: Gauge::new(),
            bytes_written: Counter::new(),
            bytes_read: Counter::new(),
            direct_io: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Open the slotted spill file with direct I/O (`O_DIRECT` on Linux;
    /// no-op elsewhere): page writes and reloads go straight to the
    /// device, bypassing the page cache. Spilled pages are re-read at most
    /// once, so caching them twice (buffer pool + page cache) wastes
    /// memory the limit is supposed to cap — and cache-absorbed spill I/O
    /// hides the device latency the spilling query actually pays. Requires a page size that is a
    /// multiple of 4 KiB (callers' buffers are page-aligned by
    /// construction); otherwise, and on filesystems that reject
    /// `O_DIRECT`, the manager silently stays buffered.
    pub fn with_direct_io(self, on: bool) -> Self {
        let eligible = on && O_DIRECT != 0 && self.page_size.is_multiple_of(4096);
        self.direct_io
            .store(eligible, std::sync::atomic::Ordering::Relaxed);
        self
    }

    /// Create a manager whose I/O counters live in `registry` (the single
    /// source of truth; [`bytes_written`](Self::bytes_written) and friends
    /// read the same registry metrics a Prometheus scrape sees).
    pub fn with_backend_and_metrics(
        dir: PathBuf,
        page_size: usize,
        backend: Arc<dyn IoBackend>,
        registry: &MetricsRegistry,
    ) -> Result<Self> {
        let mut mgr = Self::with_backend(dir, page_size, backend)?;
        mgr.bytes_on_disk = registry.gauge(
            "rexa_temp_bytes_on_disk",
            "Bytes currently occupied on disk by spilled data.",
        );
        mgr.bytes_written = registry.counter(
            "rexa_temp_bytes_written_total",
            "Cumulative bytes written to temp storage.",
        );
        mgr.bytes_read = registry.counter(
            "rexa_temp_bytes_read_total",
            "Cumulative bytes read back from temp storage.",
        );
        Ok(mgr)
    }

    /// The page size for fixed slots.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Bytes currently occupied on disk by spilled data.
    pub fn bytes_on_disk(&self) -> u64 {
        self.bytes_on_disk.get().max(0) as u64
    }

    /// Cumulative bytes written to temp storage.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.get()
    }

    /// Cumulative bytes read back from temp storage.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Slots currently holding live spilled pages (in use = allocated minus
    /// free-listed). Zero when nothing is spilled — the chaos tests assert
    /// this returns to its baseline after every failed query.
    pub fn slots_in_use(&self) -> u64 {
        let inner = self.slotted.lock();
        inner.next - inner.free.len() as u64
    }

    /// Lazily (re)open the slotted spill file, fallibly: the file is created
    /// on the first spill, and a failed open is reported as [`Error::Io`]
    /// and retried on the next spill rather than poisoning the manager.
    /// (This used to be an `unwrap` — a latent panic when the open was
    /// observable apart from the write.)
    fn ensure_slotted_file<'a>(&self, inner: &'a mut SlottedFile) -> Result<&'a File> {
        if inner.file.is_none() {
            let path = self.dir.join("rexa.tmp");
            let mut opts = OpenOptions::new();
            opts.read(true).write(true).create(true).truncate(true);
            if self.direct_io.load(Ordering::Relaxed) {
                #[cfg(unix)]
                {
                    use std::os::unix::fs::OpenOptionsExt;
                    let mut direct = OpenOptions::new();
                    direct
                        .read(true)
                        .write(true)
                        .create(true)
                        .truncate(true)
                        .custom_flags(O_DIRECT);
                    match self.backend.open(&direct, &path) {
                        Ok(f) => inner.file = Some(f),
                        // The filesystem rejects O_DIRECT (e.g. tmpfs):
                        // fall back to buffered I/O for good.
                        Err(_) => self.direct_io.store(false, Ordering::Relaxed),
                    }
                }
            }
            if inner.file.is_none() {
                inner.file = Some(self.backend.open(&opts, &path)?);
            }
        }
        Ok(inner.file.as_ref().expect("just opened"))
    }

    /// Spill one fixed-size page; returns the slot it was written to.
    ///
    /// On failure the chosen slot is returned to the free list, so a
    /// transient error (or a retry after the disk gains space) reuses it
    /// instead of leaking a hole in the temp file.
    pub fn write_slot(&self, data: &[u8]) -> Result<SlotId> {
        if data.len() != self.page_size {
            return Err(Error::InvalidInput(format!(
                "spill of {} bytes to a temp file with slot size {}",
                data.len(),
                self.page_size
            )));
        }
        let mut inner = self.slotted.lock();
        let slot = match inner.free.pop() {
            Some(Reverse(s)) => s,
            None => {
                let s = inner.next;
                inner.next += 1;
                s
            }
        };
        let offset = slot * self.page_size as u64;
        let write = self
            .ensure_slotted_file(&mut inner)
            .and_then(|file| Ok(self.backend.write_at(file, data, offset)?));
        if let Err(e) = write {
            inner.free.push(Reverse(slot));
            return Err(e);
        }
        drop(inner);
        self.bytes_on_disk.add(self.page_size as i64);
        self.bytes_written.add(self.page_size as u64);
        Ok(slot)
    }

    /// Load a spilled fixed-size page back and free its slot (the in-memory
    /// copy becomes the only copy: temporary pages may be mutated after
    /// reload, so the disk copy must not be trusted afterwards).
    ///
    /// On failure the slot stays allocated and the page remains readable:
    /// the caller may retry the load.
    pub fn read_slot(&self, slot: SlotId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(Error::InvalidInput("read buffer size mismatch".into()));
        }
        let mut inner = self.slotted.lock();
        let file = inner
            .file
            .as_ref()
            .ok_or_else(|| Error::Internal("read_slot before any spill".into()))?;
        self.backend
            .read_at(file, buf, slot * self.page_size as u64)?;
        inner.free.push(Reverse(slot));
        drop(inner);
        self.bytes_on_disk.sub(self.page_size as i64);
        self.bytes_read.add(self.page_size as u64);
        Ok(())
    }

    /// Free a slot without reading it (the page was destroyed while spilled —
    /// "this frees up disk space if the page was spilled").
    pub fn free_slot(&self, slot: SlotId) {
        self.slotted.lock().free.push(Reverse(slot));
        self.bytes_on_disk.sub(self.page_size as i64);
    }

    fn var_path(&self, id: VarId) -> PathBuf {
        self.dir.join(format!("rexa-var-{id}.tmp"))
    }

    /// Spill a variable-size buffer to its own file.
    ///
    /// On failure any partially written file is removed (best effort) and
    /// nothing is accounted.
    pub fn write_var(&self, data: &[u8]) -> Result<VarId> {
        let id = self.next_var.fetch_add(1, Ordering::Relaxed);
        let path = self.var_path(id);
        // Variable-size buffers have arbitrary lengths, which O_DIRECT
        // rejects; they stay buffered.
        let mut opts = OpenOptions::new();
        opts.write(true).create(true).truncate(true);
        let write = self
            .backend
            .open(&opts, &path)
            .and_then(|file| self.backend.write_at(&file, data, 0));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&path); // torn spill: drop the debris
            return Err(e.into());
        }
        self.bytes_on_disk.add(data.len() as i64);
        self.bytes_written.add(data.len() as u64);
        Ok(id)
    }

    /// Load a spilled variable-size buffer back and delete its file.
    pub fn read_var(&self, id: VarId, buf: &mut [u8]) -> Result<()> {
        let path = self.var_path(id);
        let mut opts = OpenOptions::new();
        opts.read(true);
        let file = self.backend.open(&opts, &path)?;
        self.backend.read_at(&file, buf, 0)?;
        drop(file);
        self.backend.remove(&path)?;
        self.bytes_on_disk.sub(buf.len() as i64);
        self.bytes_read.add(buf.len() as u64);
        Ok(())
    }

    /// Delete a spilled variable-size buffer without reading it.
    pub fn free_var(&self, id: VarId, size: usize) -> Result<()> {
        self.backend.remove(&self.var_path(id))?;
        self.bytes_on_disk.sub(size as i64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_backend::{FaultInjector, FaultKind, FaultRule, IoOp, Schedule};
    use crate::scratch_dir;

    fn fresh(page_size: usize) -> TempFileManager {
        TempFileManager::new(scratch_dir("tmpfile").unwrap(), page_size).unwrap()
    }

    fn faulty(page_size: usize, injector: Arc<FaultInjector>) -> TempFileManager {
        TempFileManager::with_backend(scratch_dir("tmpfault").unwrap(), page_size, injector)
            .unwrap()
    }

    #[test]
    fn slot_round_trip_and_recycling() {
        let t = fresh(256);
        let a = vec![1u8; 256];
        let b = vec![2u8; 256];
        let sa = t.write_slot(&a).unwrap();
        let sb = t.write_slot(&b).unwrap();
        assert_ne!(sa, sb);
        assert_eq!(t.bytes_on_disk(), 512);
        assert_eq!(t.slots_in_use(), 2);

        let mut buf = vec![0u8; 256];
        t.read_slot(sa, &mut buf).unwrap();
        assert_eq!(buf, a);
        assert_eq!(t.bytes_on_disk(), 256);
        assert_eq!(t.slots_in_use(), 1);

        // The freed slot is reused for the next spill.
        let sc = t.write_slot(&b).unwrap();
        assert_eq!(sc, sa);
        assert_eq!(t.bytes_on_disk(), 512);
    }

    #[test]
    fn slots_stay_dense_under_churn() {
        let t = fresh(64);
        let page = vec![7u8; 64];

        // Allocate 16 slots, then free a scattered subset.
        let slots: Vec<SlotId> = (0..16).map(|_| t.write_slot(&page).unwrap()).collect();
        assert_eq!(slots, (0..16).collect::<Vec<_>>());
        for &s in &[11, 2, 7, 14, 3] {
            t.free_slot(s);
        }

        // Re-allocation hands out the *lowest* freed slots first.
        assert_eq!(t.write_slot(&page).unwrap(), 2);
        assert_eq!(t.write_slot(&page).unwrap(), 3);
        assert_eq!(t.write_slot(&page).unwrap(), 7);

        // Churn: repeatedly free a batch and re-allocate the same count; the
        // allocated id range must never grow past the high-water mark.
        for round in 0..8 {
            for s in [1 + round % 4, 6, 9, 12] {
                t.free_slot(s);
            }
            for _ in 0..4 {
                let s = t.write_slot(&page).unwrap();
                assert!(s < 16, "slot {s} escaped the dense range in round {round}");
            }
        }
        assert_eq!(t.slots_in_use(), 14);
    }

    #[test]
    fn free_slot_without_read() {
        let t = fresh(128);
        let s = t.write_slot(&[9u8; 128]).unwrap();
        t.free_slot(s);
        assert_eq!(t.bytes_on_disk(), 0);
        assert_eq!(t.write_slot(&[7u8; 128]).unwrap(), s);
    }

    #[test]
    fn variable_size_round_trip() {
        let t = fresh(128);
        let data = (0..1000u32)
            .flat_map(|i| i.to_le_bytes())
            .collect::<Vec<_>>();
        let id = t.write_var(&data).unwrap();
        assert_eq!(t.bytes_on_disk(), data.len() as u64);

        let mut buf = vec![0u8; data.len()];
        t.read_var(id, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(t.bytes_on_disk(), 0);
        // The file must be gone.
        assert!(t.read_var(id, &mut buf).is_err());
    }

    #[test]
    fn free_var_deletes_file() {
        let t = fresh(128);
        let id = t.write_var(&[1, 2, 3]).unwrap();
        t.free_var(id, 3).unwrap();
        assert_eq!(t.bytes_on_disk(), 0);
        let mut buf = vec![0u8; 3];
        assert!(t.read_var(id, &mut buf).is_err());
    }

    #[test]
    fn cumulative_io_counters() {
        let t = fresh(64);
        let s = t.write_slot(&[0u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        t.read_slot(s, &mut buf).unwrap();
        t.write_var(&[0u8; 10]).unwrap();
        assert_eq!(t.bytes_written(), 74);
        assert_eq!(t.bytes_read(), 64);
    }

    #[test]
    fn registry_backed_counters_match_accessors() {
        let registry = rexa_obs::MetricsRegistry::new();
        let t = TempFileManager::with_backend_and_metrics(
            scratch_dir("tmpmetrics").unwrap(),
            64,
            Arc::new(crate::io_backend::StdIo),
            &registry,
        )
        .unwrap();
        let s = t.write_slot(&[1u8; 64]).unwrap();
        t.write_var(&[2u8; 100]).unwrap();
        let mut buf = [0u8; 64];
        t.read_slot(s, &mut buf).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.get_counter("rexa_temp_bytes_written_total"), 164);
        assert_eq!(snap.get_counter("rexa_temp_bytes_read_total"), 64);
        assert_eq!(snap.get_gauge("rexa_temp_bytes_on_disk"), 100);
        // The accessors read the very same registry metrics.
        assert_eq!(t.bytes_written(), 164);
        assert_eq!(t.bytes_read(), 64);
        assert_eq!(t.bytes_on_disk(), 100);
    }

    #[test]
    fn wrong_size_spill_rejected() {
        let t = fresh(64);
        assert!(t.write_slot(&[0u8; 63]).is_err());
        let mut buf = vec![0u8; 63];
        let s = t.write_slot(&[0u8; 64]).unwrap();
        assert!(t.read_slot(s, &mut buf).is_err());
    }

    #[test]
    fn concurrent_slot_traffic() {
        let t = std::sync::Arc::new(fresh(64));
        std::thread::scope(|s| {
            for thread in 0..8u8 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let fill = thread.wrapping_mul(31).wrapping_add(i);
                        let data = vec![fill; 64];
                        let slot = t.write_slot(&data).unwrap();
                        let mut buf = vec![0u8; 64];
                        t.read_slot(slot, &mut buf).unwrap();
                        assert_eq!(buf, data, "thread {thread} iter {i}");
                    }
                });
            }
        });
        assert_eq!(t.bytes_on_disk(), 0);
    }

    /// Regression for the latent panic at the old `temp_file.rs:107`
    /// (`inner.file.as_ref().unwrap()`): a failed lazy open of the slotted
    /// file must surface as `Error::Io`, leave no slot allocated, and the
    /// next spill must recover by reopening.
    #[test]
    fn failed_lazy_open_is_io_error_and_recovers() {
        let inj = Arc::new(FaultInjector::new(5).rule(FaultRule::on(
            IoOp::Open,
            Schedule::Nth(0),
            FaultKind::Generic,
        )));
        let t = faulty(64, inj);
        let err = t.write_slot(&[1u8; 64]).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "expected Io, got {err}");
        assert_eq!(t.slots_in_use(), 0, "failed spill must not leak its slot");
        assert_eq!(t.bytes_on_disk(), 0);
        // Second attempt reopens and succeeds; the recycled slot is 0.
        assert_eq!(t.write_slot(&[2u8; 64]).unwrap(), 0);
        let mut buf = [0u8; 64];
        t.read_slot(0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
    }

    #[test]
    fn failed_slot_write_returns_slot_to_free_list() {
        let inj = Arc::new(FaultInjector::new(11).rule(FaultRule::on(
            IoOp::Write,
            Schedule::Nth(1),
            FaultKind::Enospc,
        )));
        let t = faulty(64, inj);
        let s0 = t.write_slot(&[1u8; 64]).unwrap();
        let err = t.write_slot(&[2u8; 64]).unwrap_err(); // injected ENOSPC
        match err {
            Error::Io(e) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected ENOSPC Io error, got {other}"),
        }
        assert_eq!(t.slots_in_use(), 1, "only the successful spill is live");
        assert_eq!(t.bytes_on_disk(), 64);
        // The failed slot is recycled by the next write.
        let s2 = t.write_slot(&[3u8; 64]).unwrap();
        assert_ne!(s0, s2);
        assert_eq!(s2, 1, "slot 1 came back off the free list");
    }

    #[test]
    fn failed_var_write_removes_partial_file() {
        let inj = Arc::new(FaultInjector::new(13).rule(FaultRule::on(
            IoOp::Write,
            Schedule::Nth(0),
            FaultKind::TornWrite,
        )));
        let t = faulty(64, inj);
        let err = t.write_var(&[7u8; 1000]).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
        assert_eq!(t.bytes_on_disk(), 0, "torn spill must not be accounted");
        // The next id's spill works and round-trips.
        let id = t.write_var(&[8u8; 100]).unwrap();
        let mut buf = vec![0u8; 100];
        t.read_var(id, &mut buf).unwrap();
        assert_eq!(buf, vec![8u8; 100]);
    }

    #[test]
    fn failed_read_keeps_slot_alive_for_retry() {
        let inj = Arc::new(FaultInjector::new(17).rule(FaultRule::on(
            IoOp::Read,
            Schedule::Nth(0),
            FaultKind::Transient,
        )));
        let t = faulty(64, inj);
        let s = t.write_slot(&[5u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        assert!(t.read_slot(s, &mut buf).is_err());
        assert_eq!(t.slots_in_use(), 1, "slot must survive the failed read");
        // Retry succeeds and frees the slot.
        t.read_slot(s, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
        assert_eq!(t.slots_in_use(), 0);
    }
}
