//! Storage error type and the transient/permanent taxonomy the retry
//! layer is built on.

use std::fmt;
use std::io;

use crate::BlockId;

/// The device operation an [`StorageError::Io`] was produced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// `read_block`.
    Read,
    /// `write_block`.
    Write,
    /// `allocate`.
    Allocate,
    /// `sync`.
    Sync,
    /// Anything else (file open, metadata, …) or unknown provenance.
    Other,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Read => "read",
            Self::Write => "write",
            Self::Allocate => "allocate",
            Self::Sync => "sync",
            Self::Other => "i/o",
        })
    }
}

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Access to a block beyond the allocated end of the device.
    OutOfBounds {
        /// Offending block id.
        block: BlockId,
        /// Number of blocks currently allocated.
        len: u64,
    },
    /// Underlying operating-system I/O failure, annotated with the device
    /// operation and (when one is in play) the block it targeted.
    Io {
        /// Which device operation failed.
        op: IoOp,
        /// The block the operation targeted, if any (`allocate`/`sync`
        /// have none).
        block: Option<BlockId>,
        /// The OS-level error.
        source: io::Error,
    },
    /// A block the retry layer's circuit breaker has quarantined after
    /// repeated permanent failures; operations on it fail fast.
    Quarantined {
        /// The quarantined block.
        block: BlockId,
        /// Consecutive permanent failures observed before quarantine.
        failures: u32,
    },
    /// On-disk bytes that do not parse as the expected structure.
    Corrupt(String),
    /// A request the structure or engine it was sent to cannot execute —
    /// refused before any block was read, so nothing is wrong with the
    /// data and retrying elsewhere would be refused the same way.
    Unsupported(String),
}

impl StorageError {
    /// Builds an [`StorageError::Io`] with full context.
    pub fn io(op: IoOp, block: Option<BlockId>, source: io::Error) -> Self {
        Self::Io { op, block, source }
    }

    /// Whether retrying the same operation may plausibly succeed.
    ///
    /// Only OS-level I/O errors whose kind signals a momentary condition
    /// (`Interrupted`, `TimedOut`, `WouldBlock`) are transient. Everything
    /// else — corruption, out-of-bounds access, quarantined blocks, and
    /// hard I/O failures — is permanent: retrying would repeat the same
    /// deterministic outcome.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Io { source, .. } => matches!(
                source.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }

    /// Attaches operation/block context to a context-free `Io` error
    /// (one built by the blanket `From<io::Error>`), leaving already
    /// annotated errors and non-I/O errors untouched.
    pub fn with_io_context(self, op: IoOp, block: Option<BlockId>) -> Self {
        match self {
            Self::Io {
                op: IoOp::Other,
                block: None,
                source,
            } => Self::Io { op, block, source },
            other => other,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfBounds { block, len } => {
                write!(f, "block {block} out of bounds (device has {len} blocks)")
            }
            Self::Io {
                op,
                block: Some(b),
                source,
            } => write!(f, "{op} error at block {b}: {source}"),
            Self::Io {
                op,
                block: None,
                source,
            } => write!(f, "{op} error: {source}"),
            Self::Quarantined { block, failures } => write!(
                f,
                "block {block} quarantined after {failures} consecutive permanent failures"
            ),
            Self::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Self::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        Self::Io {
            op: IoOp::Other,
            block: None,
            source: e,
        }
    }
}

/// Result alias used throughout the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_follows_io_kind() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            let e = StorageError::io(IoOp::Read, Some(3), io::Error::from(kind));
            assert!(e.is_transient(), "{kind:?} should be transient");
        }
        let hard = StorageError::io(IoOp::Read, Some(3), io::Error::other("dead disk"));
        assert!(!hard.is_transient());
        assert!(!StorageError::Corrupt("x".into()).is_transient());
        assert!(!StorageError::Unsupported("x".into()).is_transient());
        assert!(!StorageError::OutOfBounds { block: 0, len: 0 }.is_transient());
        assert!(!StorageError::Quarantined {
            block: 0,
            failures: 3
        }
        .is_transient());
    }

    #[test]
    fn display_carries_op_and_block() {
        let e = StorageError::io(IoOp::Write, Some(42), io::Error::other("boom"));
        let s = e.to_string();
        assert!(s.contains("write"), "{s}");
        assert!(s.contains("42"), "{s}");
    }

    #[test]
    fn context_attaches_only_to_bare_io() {
        let bare: StorageError = io::Error::other("x").into();
        match bare.with_io_context(IoOp::Read, Some(7)) {
            StorageError::Io {
                op: IoOp::Read,
                block: Some(7),
                ..
            } => {}
            other => panic!("context not attached: {other:?}"),
        }
        // Already-annotated errors keep their original context.
        let annotated = StorageError::io(IoOp::Sync, None, io::Error::other("y"));
        match annotated.with_io_context(IoOp::Read, Some(7)) {
            StorageError::Io {
                op: IoOp::Sync,
                block: None,
                ..
            } => {}
            other => panic!("context overwritten: {other:?}"),
        }
    }
}
