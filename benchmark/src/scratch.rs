//! Where the benchmark's database and spill files live, and for how long.

use std::path::{Path, PathBuf};

/// The run stops before its files outgrow this.
pub const DISK_BUDGET_BYTES: u64 = 4 << 30;

/// A per-process directory under the scratch root, removed when dropped —
/// on normal exit and while a panic unwinds.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<root>/run-<pid>` and point `TMPDIR` at it, so that the
    /// engine's own `std::env::temp_dir()` fallbacks land inside it too
    /// (`BufferManagerConfig::with_limit` makes a temp directory before the
    /// caller can name one). Call before any other thread exists.
    pub fn create(root: &Path) -> std::io::Result<ScratchDir> {
        let path = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        let path = path.canonicalize()?;
        std::env::set_var("TMPDIR", &path);
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes of all files below `dir`. Files that vanish while walking (spill
/// slots are freed concurrently) count as zero.
pub fn disk_usage(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_usage(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The filesystem type of the mount that holds `path`, from
/// `/proc/self/mounts` (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// Whether a file in `dir` can be opened with `O_DIRECT`. The engine falls
/// back to buffered spill I/O where it cannot (tmpfs, some overlay mounts).
pub fn o_direct_honoured(dir: &Path) -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    const O_DIRECT: i32 = 0o040000;
    #[cfg(all(target_os = "linux", target_arch = "aarch64"))]
    const O_DIRECT: i32 = 0o200000;
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        use std::os::unix::fs::OpenOptionsExt;
        let probe = dir.join("o_direct.probe");
        let opened = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .custom_flags(O_DIRECT)
            .open(&probe)
            .is_ok();
        let _ = std::fs::remove_file(&probe);
        opened
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = dir;
        false
    }
}
