#![warn(missing_docs)]
//! Shared identifiers, values, errors and checksums for the llog recovery
//! stack, a reproduction of Lomet & Tuttle, *Logical Logging to Extend
//! Recovery to New Domains* (SIGMOD 1999).
//!
//! Everything in this crate is deliberately small and dependency-free: these
//! are the vocabulary types every other crate speaks.

mod bytesio;
mod crc;
mod error;
mod id;
mod value;

pub use bytesio::{ByteReader, ByteWriter};
pub use crc::{crc32c, crc32c_extend, frame_crc, FRAME_HEADER};
pub use error::{LlogError, Result};
pub use id::{FnId, Lsn, ObjectId, OpId, Si};
pub use value::Value;
