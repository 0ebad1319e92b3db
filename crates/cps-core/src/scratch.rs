//! Unique scratch directories for tests, examples and bench runs.
//!
//! `cargo test` runs the tests of one target on parallel threads of one
//! process, so a temp path built from the process id alone is shared by
//! every test that forgets a distinguishing tag — and each one's cleanup
//! deletes the others' files. [`ScratchDir`] adds a process-wide counter,
//! so two directories never coincide, and removes itself on drop.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A freshly created, empty directory under the system temp dir, unique
/// to this `ScratchDir` (process id + process-wide counter + `tag`) and
/// removed with everything in it on drop. Derefs to its [`Path`].
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory. `tag` only makes the name readable.
    ///
    /// # Panics
    /// If the directory cannot be created.
    pub fn new(tag: &str) -> Self {
        // Only uniqueness matters, so `Relaxed` is enough.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("cps-{}-{n}-{tag}", std::process::id()));
        // A recycled pid can leave a stale directory of the same name.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("creating scratch dir {}: {e}", path.display()));
        Self(path)
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_gives_distinct_dirs_removed_on_drop() {
        let a = ScratchDir::new("t");
        let b = ScratchDir::new("t");
        assert_ne!(&*a, &*b);
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("f"), b"x").unwrap();
        let (pa, pb) = (a.to_path_buf(), b.to_path_buf());
        drop(a);
        assert!(!pa.exists(), "dropped dir is removed with its contents");
        assert!(pb.is_dir(), "the other dir is untouched");
    }
}
