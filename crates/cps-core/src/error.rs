//! Workspace-wide error type.

use std::fmt;
use std::io;

/// Result alias using [`CpsError`].
pub type Result<T> = std::result::Result<T, CpsError>;

/// Errors surfaced by the atypical-cps pipeline.
#[derive(Debug)]
pub enum CpsError {
    /// Underlying I/O failure (dataset files, catalogs).
    Io(io::Error),
    /// A stored block or file failed its integrity check.
    Corrupt {
        /// What was being read.
        context: String,
        /// Why it is considered corrupt.
        detail: String,
    },
    /// A parameter or query was outside its legal range.
    InvalidParameter(String),
    /// A referenced entity (dataset, sensor, region) does not exist.
    NotFound(String),
    /// A file's format version is not the one this build writes. Every
    /// format has one version and one reader; any other version is this
    /// error, never a second decode path.
    VersionMismatch {
        /// The file that was being read.
        context: String,
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
}

impl CpsError {
    /// Convenience constructor for corruption errors.
    pub fn corrupt(context: impl Into<String>, detail: impl Into<String>) -> Self {
        CpsError::Corrupt {
            context: context.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpsError::Io(e) => write!(f, "I/O error: {e}"),
            CpsError::Corrupt { context, detail } => {
                write!(f, "corrupt data while reading {context}: {detail}")
            }
            CpsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            CpsError::NotFound(what) => write!(f, "not found: {what}"),
            CpsError::VersionMismatch {
                context,
                found,
                expected,
            } => write!(
                f,
                "format version mismatch in {context}: found v{found}, expected v{expected}"
            ),
        }
    }
}

impl std::error::Error for CpsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CpsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CpsError {
    fn from(e: io::Error) -> Self {
        CpsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = CpsError::corrupt("block 7", "bad checksum");
        assert_eq!(
            e.to_string(),
            "corrupt data while reading block 7: bad checksum"
        );
        let e = CpsError::VersionMismatch {
            context: "/data/seg.acs".into(),
            found: 2,
            expected: 1,
        };
        assert_eq!(
            e.to_string(),
            "format version mismatch in /data/seg.acs: found v2, expected v1"
        );
        assert!(CpsError::NotFound("D13".into()).to_string().contains("D13"));
    }

    #[test]
    fn io_error_is_source() {
        use std::error::Error;
        let e = CpsError::from(io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(CpsError::InvalidParameter("x".into()).source().is_none());
    }
}
