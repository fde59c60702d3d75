//! Error types for the fabric layer: typed codec rejections and the
//! transport/session error surface.

use std::fmt;

/// Why a capsule failed to decode. Every variant is a *typed* rejection:
/// the wire never panics, and tests can assert the precise failure mode
/// (truncation vs corruption vs protocol skew).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the capsule does.
    Truncated,
    /// The leading magic bytes are not the fabric magic.
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Unknown sync-mode byte in an `FsSync` capsule.
    BadSyncMode(u8),
    /// Unknown ploc operation kind in a `PlocOp` capsule.
    BadPlocOp(u8),
    /// The trailing CRC-32C checksum does not match the payload.
    BadChecksum,
    /// A length-prefixed field exceeds its protocol cap.
    Overflow {
        /// Declared length.
        len: u32,
        /// Protocol maximum for the field.
        max: u32,
    },
    /// Bytes remain after the last field (foreign or corrupt capsule).
    Trailing,
    /// A path field is not valid UTF-8.
    BadString,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "capsule truncated"),
            CodecError::BadMagic => write!(f, "bad capsule magic"),
            CodecError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            CodecError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            CodecError::BadStatus(s) => write!(f, "unknown status byte {s:#04x}"),
            CodecError::BadSyncMode(m) => write!(f, "unknown sync mode {m}"),
            CodecError::BadPlocOp(k) => write!(f, "unknown ploc op kind {k}"),
            CodecError::BadChecksum => write!(f, "capsule checksum mismatch"),
            CodecError::Overflow { len, max } => {
                write!(f, "field length {len} exceeds protocol cap {max}")
            }
            CodecError::Trailing => write!(f, "trailing bytes after capsule body"),
            CodecError::BadString => write!(f, "path is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Errors surfaced by the fabric transports and sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A capsule failed to decode.
    Codec(CodecError),
    /// No frame arrived within the ack timeout.
    Timeout,
    /// The connection is gone (peer hangup or severed wire).
    Disconnected,
    /// The peer cannot be reached (partition not yet healed, or the
    /// reconnect budget is exhausted).
    Unreachable,
    /// The peer violated the session protocol.
    Protocol(String),
    /// An OS-level transport error (TCP only).
    Io(String),
    /// The remote executed the request and reported a failure status.
    Remote(crate::capsule::Status),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Codec(e) => write!(f, "codec: {e}"),
            FabricError::Timeout => write!(f, "ack timeout"),
            FabricError::Disconnected => write!(f, "connection lost"),
            FabricError::Unreachable => write!(f, "target unreachable"),
            FabricError::Protocol(s) => write!(f, "protocol violation: {s}"),
            FabricError::Io(s) => write!(f, "transport I/O: {s}"),
            FabricError::Remote(s) => write!(f, "remote error: {s:?}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<CodecError> for FabricError {
    fn from(e: CodecError) -> Self {
        FabricError::Codec(e)
    }
}
