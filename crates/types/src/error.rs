//! Workspace-wide error type.
//!
//! The crates in this workspace are libraries; they surface recoverable
//! failures (malformed trace lines, database misses, infeasible allocation
//! requests) through [`EavmError`] rather than panicking, so downstream
//! binaries can decide how to react.

use std::fmt;
use std::io;

/// Errors produced across the `eavm` workspace.
#[derive(Debug)]
pub enum EavmError {
    /// Underlying I/O failure (reading/writing trace or database files).
    Io(io::Error),
    /// Malformed textual input (SWF line, CSV record, workload label...).
    Parse(String),
    /// A model-database lookup missed and no extrapolation was permitted.
    ModelMiss(String),
    /// An allocation request cannot be satisfied under the given
    /// constraints (e.g. a VM that fits on no server without violating QoS).
    Infeasible(String),
    /// Configuration that is internally inconsistent.
    InvalidConfig(String),
    /// A required subsystem (such as the service's admission loop) is
    /// down or unreachable; the operation cannot produce a trustworthy
    /// answer.
    Unavailable(String),
    /// The write-ahead journal or a checkpoint snapshot is malformed
    /// (bad magic, checksum mismatch, undecodable record).
    Durability(String),
}

impl fmt::Display for EavmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EavmError::Io(e) => write!(f, "i/o error: {e}"),
            EavmError::Parse(msg) => write!(f, "parse error: {msg}"),
            EavmError::ModelMiss(msg) => write!(f, "model database miss: {msg}"),
            EavmError::Infeasible(msg) => write!(f, "infeasible allocation: {msg}"),
            EavmError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EavmError::Unavailable(msg) => write!(f, "subsystem unavailable: {msg}"),
            EavmError::Durability(msg) => write!(f, "durability error: {msg}"),
        }
    }
}

impl std::error::Error for EavmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EavmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for EavmError {
    fn from(e: io::Error) -> Self {
        EavmError::Io(e)
    }
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, EavmError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_variants() {
        assert!(EavmError::Parse("x".into()).to_string().contains("parse"));
        assert!(EavmError::ModelMiss("k".into())
            .to_string()
            .contains("miss"));
        assert!(EavmError::Infeasible("v".into())
            .to_string()
            .contains("infeasible"));
        assert!(EavmError::InvalidConfig("c".into())
            .to_string()
            .contains("configuration"));
        assert!(EavmError::Unavailable("admission loop".into())
            .to_string()
            .contains("unavailable"));
        assert!(EavmError::Durability("bad magic".into())
            .to_string()
            .contains("durability"));
    }

    #[test]
    fn io_error_has_source() {
        let e: EavmError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn parse_error_has_no_source() {
        assert!(EavmError::Parse("bad".into()).source().is_none());
    }
}
