//! Unique scratch directories for WALs and snapshot stores.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Root under which every [`WorkDir`] of this process is created
/// (`--work-dir`, default `bench/out/run`).
#[derive(Clone)]
pub struct WorkRoot(PathBuf);

impl WorkRoot {
    pub fn new(root: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Self(root.to_owned()))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty directory named `<pid>-<counter>-<tag>`: the pid
    /// separates concurrent processes, the process-wide counter separates
    /// calls within one, so no two live directories ever share a name.
    pub fn dir(&self, tag: &str) -> Result<WorkDir, String> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = self.0.join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

/// A scratch directory removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
