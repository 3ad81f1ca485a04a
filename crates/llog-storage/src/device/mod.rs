//! Pluggable durability backends (DESIGN §11).
//!
//! The durability substrate sits behind two traits:
//!
//! - [`LogDevice`] — append-only WAL segments with per-segment CRCs, a
//!   manifest written at the force barrier, and whole-segment truncation
//!   reclaim ([`seglog`]).
//! - [`StoreDevice`] — incremental object checkpoints: per-checkpoint delta
//!   pages holding the ids the [`StableStore`](crate::StableStore) changed
//!   since the image it last matched, chained by a manifest, folded when the
//!   chain grows long ([`deltastore`]). The delta layout is also the
//!   standalone store-image codec ([`encode_image`], [`decode_image`]).
//!
//! Each trait has two implementations built over the same generic core:
//! `Mem*` (a [`MemBlobs`] map — deterministic, fuzz-fast) and `File*`
//! ([`FileBlobs`] — real files, real fsync, `std`-only). Because the
//! segmentation, manifest and fault-verdict logic is shared, identical
//! workloads under identically-armed fault plans leave *byte-identical*
//! blob state in both backends — the invariant the Mem↔File differential
//! oracle in `llog-fuzz` and `tests/crash_matrix.rs` enforces.

mod blob;
mod deltastore;
mod seglog;

pub use blob::{BlobStore, FileBlobs, MemBlobs};
pub use deltastore::{
    decode_image, delta_name, encode_image, CkptStats, DeltaStore, FileStoreDevice, MemStoreDevice,
    StoreDevice, STORE_MANIFEST,
};
pub use seglog::{
    segment_name, FileLogDevice, LogDevice, LogParts, MemLogDevice, SegLog, SEG_HEADER,
    WAL_MANIFEST,
};

/// Tuning knobs shared by both devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Seal + rotate the open WAL segment once it reaches this many bytes.
    pub segment_bytes: usize,
    /// Fold the checkpoint-manifest chain into one full image once it holds
    /// this many deltas.
    pub compact_chain: usize,
    /// Preallocate each open WAL segment blob to its full size (header +
    /// zero fill, one write) when it is first materialized, so steady-state
    /// appends overwrite in place and never grow the file.
    pub preallocate: bool,
    /// Retired segment blobs parked for recycling instead of deletion at
    /// truncation reclaim; rotation adopts one (rename + header re-stamp)
    /// instead of creating a segment cold. `0` disables the pool; has no
    /// effect unless `preallocate` is on.
    pub recycle_pool: usize,
}

impl Default for DeviceConfig {
    fn default() -> DeviceConfig {
        DeviceConfig {
            segment_bytes: 32 * 1024,
            compact_chain: 16,
            preallocate: false,
            recycle_pool: 0,
        }
    }
}

impl DeviceConfig {
    /// A small-segment configuration for tests and the fuzzer, so segment
    /// and manifest boundaries are crossed by tiny workloads.
    pub fn small() -> DeviceConfig {
        DeviceConfig {
            segment_bytes: 64,
            compact_chain: 4,
            ..DeviceConfig::default()
        }
    }

    /// Enable the segment fast path: preallocated open segments plus a
    /// recycling pool of `pool` retired segments.
    pub fn with_fast_segments(mut self, pool: usize) -> DeviceConfig {
        self.preallocate = true;
        self.recycle_pool = pool;
        self
    }
}
