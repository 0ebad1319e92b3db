//! Pluggable I/O layer — the fault-injection seam.
//!
//! Every durable byte this workspace writes or reads flows through an
//! [`Io`] handle: [`crate::writer::PartitionWriter`],
//! [`crate::reader::PartitionReader`] and the atypical forest store accept
//! one explicitly (their plain constructors default to [`Io::real`]).
//! Production code always runs on the real filesystem backend; the
//! `cps-testkit` crate supplies a deterministic fault-injecting backend
//! that can fail, tear, or delay the N-th operation and then simulate the
//! on-disk state after a crash. Keeping the seam in the production crates
//! (rather than test-only shims) is what lets crash-recovery tests
//! exercise the *real* write paths byte for byte.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// A writable file handle produced by an [`IoBackend`].
///
/// `write` is the fault-injection grain: callers issue one `write` per
/// logical unit (header, block, payload), so "fail the N-th write" maps to
/// a meaningful crash point.
pub trait IoWrite: Write + Send {
    /// Flushes the file's data to durable storage (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
}

/// A readable file handle produced by an [`IoBackend`].
pub trait IoRead: Read + Send {}

/// The operations a storage backend must provide. Implementations other
/// than the real filesystem live outside this crate (see `cps-testkit`).
pub trait IoBackend: Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoWrite>>;
    /// Opens a file for sequential reading.
    fn open(&self, path: &Path) -> io::Result<Box<dyn IoRead>>;
    /// Atomically renames `from` to `to` (the commit step of atomic
    /// write-then-rename protocols).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Removes a file (the truncation step of log-compaction protocols:
    /// a WAL segment made obsolete by a checkpoint is deleted through the
    /// backend so fault sweeps cover it too).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// Cheaply cloneable handle to an [`IoBackend`].
#[derive(Clone)]
pub struct Io {
    backend: Arc<dyn IoBackend>,
}

impl Io {
    /// Wraps a custom backend.
    pub fn new(backend: Arc<dyn IoBackend>) -> Self {
        Self { backend }
    }

    /// The real-filesystem backend used in production.
    pub fn real() -> Self {
        Self::new(Arc::new(RealIo))
    }

    /// Creates (truncating) a file for writing.
    pub fn create(&self, path: &Path) -> io::Result<Box<dyn IoWrite>> {
        self.backend.create(path)
    }

    /// Opens a file for sequential reading.
    pub fn open(&self, path: &Path) -> io::Result<Box<dyn IoRead>> {
        self.backend.open(path)
    }

    /// Reads a whole file into memory.
    pub fn read_to_vec(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.backend.open(path)?.read_to_end(&mut out)?;
        Ok(out)
    }

    /// Atomically renames `from` to `to`.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.backend.rename(from, to)
    }

    /// Creates a directory and its parents.
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.backend.create_dir_all(path)
    }

    /// Removes a file.
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.backend.remove_file(path)
    }
}

impl Default for Io {
    fn default() -> Self {
        Self::real()
    }
}

impl std::fmt::Debug for Io {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Io")
    }
}

/// The production backend: plain `std::fs`.
struct RealIo;

impl IoWrite for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

impl IoRead for File {}

impl IoBackend for RealIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoWrite>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn IoRead>> {
        Ok(Box::new(File::open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;

    #[test]
    fn real_backend_roundtrips() {
        let io = Io::default();
        let dir = ScratchDir::new("io");
        let path = dir.join("round.bin");
        let staged = dir.join("round.tmp");
        {
            let mut w = io.create(&staged).unwrap();
            w.write_all(b"hello ").unwrap();
            w.write_all(b"world").unwrap();
            w.sync().unwrap();
        }
        io.rename(&staged, &path).unwrap();
        assert_eq!(io.read_to_vec(&path).unwrap(), b"hello world");
        let mut buf = [0u8; 5];
        io.open(&path).unwrap().read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn missing_file_errors() {
        let dir = ScratchDir::new("io");
        assert!(Io::real().open(&dir.join("nope.bin")).is_err());
    }
}
