//! Durable mutation log for the serving tier: a checksummed write-ahead
//! log, atomic snapshots, and a fault-injection harness.
//!
//! The serving tier's three mutations (insert / visit / popularity
//! update) are already an event stream; this crate makes that stream
//! durable. [`WalWriter`] appends [`WalEvent`]s as length-prefixed,
//! CRC-32-checksummed frames under a versioned header; [`WalReader`]
//! streams them back and classifies how the log ends ([`TailStatus`]):
//! a torn final write is dropped cleanly, a checksum failure truncates
//! the log at the first bad record and reports how many events were
//! lost. [`snapshot`] wraps a snapshot payload in a checksummed envelope
//! written via atomic rename, so recovery is snapshot + tail replay rather
//! than full-history replay; the serving tier's payload is its documents
//! in the same fixed-width record ([`encode_document`]) that insert events
//! carry. [`fault`] injects the three failures that matter — truncation,
//! bit rot, append-time I/O errors — so the recovery path is tested
//! against them, not just described.
//!
//! The crate knows nothing about ranking: it logs events and hands back
//! bytes. The serving-tier integration (the `DurableService` wrapper,
//! recovery, replay) lives in `rrp-serve`.

#![warn(missing_docs)]

mod crc32;
mod event;
pub mod fault;
mod log;
pub mod snapshot;

pub use crc32::{crc32, crc32_concat};
pub use event::{decode_document, encode_document, WalEvent, DOCUMENT_RECORD_LEN};
pub use log::{
    create_log_file, resume_log_file, FileSink, TailStatus, WalError, WalPoll, WalReader, WalSink,
    WalTailReader, WalWriter, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION,
};
