//! Blob substrate shared by both durability backends.
//!
//! A [`BlobStore`] is a flat namespace of named byte blobs with whole-blob
//! `put`, byte-range `append`, `get`, `delete` and `sync`. The segmented log
//! and the incremental checkpoint store are written *once*, generically over
//! `B: BlobStore`, so the in-memory backend ([`MemBlobs`]) and the real-file
//! backend ([`FileBlobs`]) execute byte-for-byte identical logic — the
//! property the Mem↔File differential oracle relies on.
//!
//! Fault injection happens *above* this trait (in the segmented log / delta
//! store), so an armed [`llog_testkit::faults::FaultHost`] produces the same
//! mutated bytes in both backends.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::path::{Path, PathBuf};

use llog_types::{LlogError, Result};

/// A flat namespace of named byte blobs. Durability substrate for both
/// backends; all methods are infallible for [`MemBlobs`] and map `std::io`
/// errors to [`LlogError::Io`] for [`FileBlobs`].
pub trait BlobStore: Send + std::fmt::Debug {
    /// Replace the blob `name` with `bytes` (whole-blob write).
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Append `bytes` to the blob `name`, creating it if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Overwrite `bytes` at byte `offset` within the blob `name`, creating
    /// the blob (zero-filled up to `offset`) or extending it as needed. The
    /// in-place write a preallocated segment needs: the file never grows in
    /// steady state, so no metadata update rides the hot path.
    fn write_at(&mut self, name: &str, offset: u64, bytes: &[u8]) -> Result<()>;
    /// Rename the blob `from` to `to`, replacing any blob already at `to`.
    /// Errors if `from` does not exist.
    fn rename(&mut self, from: &str, to: &str) -> Result<()>;
    /// Read the full blob, or `None` if it does not exist.
    fn get(&self, name: &str) -> Result<Option<Vec<u8>>>;
    /// Delete the blob if present (idempotent).
    fn delete(&mut self, name: &str) -> Result<()>;
    /// Durability barrier: everything previously written is stable after
    /// this returns. A real fsync for [`FileBlobs`], a no-op for [`MemBlobs`].
    fn sync(&mut self) -> Result<()>;
    /// All blob names, sorted.
    fn list(&self) -> Result<Vec<String>>;
}

/// In-memory blob store: a `BTreeMap` of named byte vectors. Deterministic,
/// allocation-only, fuzz-fast — the `MemDevice` substrate.
#[derive(Debug, Default, Clone)]
pub struct MemBlobs {
    blobs: BTreeMap<String, Vec<u8>>,
}

impl MemBlobs {
    /// Create an empty in-memory blob store.
    pub fn new() -> MemBlobs {
        MemBlobs::default()
    }
}

impl BlobStore for MemBlobs {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.blobs.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.blobs
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn write_at(&mut self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        let blob = self.blobs.entry(name.to_string()).or_default();
        let end = offset as usize + bytes.len();
        if blob.len() < end {
            blob.resize(end, 0);
        }
        blob[offset as usize..end].copy_from_slice(bytes);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        match self.blobs.remove(from) {
            Some(bytes) => {
                self.blobs.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(LlogError::Io {
                point: from.to_string(),
                reason: "rename: no such blob".to_string(),
            }),
        }
    }

    fn get(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.blobs.get(name).cloned())
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.blobs.remove(name);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.blobs.keys().cloned().collect())
    }
}

/// File-backed blob store rooted at a directory: one file per blob, real
/// `File::sync_all` on the durability barrier — the `FileDevice` substrate.
/// Uses only `std::fs` (the workspace is dependency-free).
#[derive(Debug)]
pub struct FileBlobs {
    root: PathBuf,
    /// Blobs written since the last sync (each gets a `sync_all`).
    pending_sync: Vec<String>,
    /// Write handles of blobs written in place (`write_at`, `append`) since
    /// they were materialized; `put`, `rename` and `delete` drop theirs. A
    /// sync keeps only the handles it covered a write to, so the open log
    /// segment is opened once per rotation while a sealed one closes.
    handles: HashMap<String, File>,
}

fn io_err(path: &Path, e: std::io::Error) -> LlogError {
    LlogError::Io {
        point: path.display().to_string(),
        reason: e.to_string(),
    }
}

impl FileBlobs {
    /// Open (creating if needed) a file blob store rooted at `root`.
    pub fn open(root: &Path) -> Result<FileBlobs> {
        std::fs::create_dir_all(root).map_err(|e| io_err(root, e))?;
        Ok(FileBlobs {
            root: root.to_path_buf(),
            pending_sync: Vec::new(),
            handles: HashMap::new(),
        })
    }

    /// The directory this blob store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn note_write(&mut self, name: &str) {
        if !self.pending_sync.iter().any(|p| p == name) {
            self.pending_sync.push(name.to_string());
        }
    }

    /// `name`'s write handle, opening (and creating) the file on first use.
    fn handle(&mut self, name: &str) -> Result<&File> {
        if !self.handles.contains_key(name) {
            let path = self.path_of(name);
            let f = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false) // in-place overwrite: bytes past a write survive
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            self.handles.insert(name.to_string(), f);
        }
        Ok(&self.handles[name])
    }
}

impl BlobStore for FileBlobs {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.handles.remove(name);
        let path = self.path_of(name);
        std::fs::write(&path, bytes).map_err(|e| io_err(&path, e))?;
        self.note_write(name);
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        use std::io::{Seek as _, SeekFrom, Write as _};
        self.note_write(name);
        let mut f = self.handle(name)?;
        f.seek(SeekFrom::End(0))
            .and_then(|_| f.write_all(bytes))
            .map_err(|e| io_err(&self.path_of(name), e))
    }

    fn write_at(&mut self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt as _;
        self.note_write(name);
        self.handle(name)?
            .write_all_at(bytes, offset)
            .map_err(|e| io_err(&self.path_of(name), e))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.handles.remove(from);
        self.handles.remove(to);
        let from_path = self.path_of(from);
        std::fs::rename(&from_path, self.path_of(to)).map_err(|e| io_err(&from_path, e))?;
        // A pending barrier on the old name must follow the blob to its new
        // name, and the renamed file gets a sync so the rename is durable
        // at the next barrier.
        self.pending_sync.retain(|p| p != from);
        self.note_write(to);
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let path = self.path_of(name);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(&path, e)),
        }
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.handles.remove(name);
        let path = self.path_of(name);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&path, e)),
        }
    }

    fn sync(&mut self) -> Result<()> {
        // A name leaves the pending list only once its own sync succeeded:
        // after a failure it, and every name not tried yet, stay pending.
        for (i, name) in self.pending_sync.iter().enumerate() {
            let path = self.path_of(name);
            let synced = match self.handles.get(name) {
                Some(f) => f.sync_all(),
                None => match File::open(&path) {
                    Ok(f) => f.sync_all(),
                    // Written then deleted before the barrier (segment reclaim).
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = synced {
                self.pending_sync.drain(..i);
                return Err(io_err(&path, e));
            }
        }
        let pending = std::mem::take(&mut self.pending_sync);
        self.handles.retain(|name, _| pending.contains(name));
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root).map_err(|e| io_err(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.root, e))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<B: BlobStore>(b: &mut B) {
        assert_eq!(b.get("a").unwrap(), None);
        b.put("a", b"hello").unwrap();
        b.append("a", b" world").unwrap();
        assert_eq!(b.get("a").unwrap().unwrap(), b"hello world");
        b.append("fresh", b"x").unwrap();
        assert_eq!(b.get("fresh").unwrap().unwrap(), b"x");
        b.put("a", b"replaced").unwrap();
        assert_eq!(b.get("a").unwrap().unwrap(), b"replaced");
        b.sync().unwrap();
        assert_eq!(b.list().unwrap(), vec!["a".to_string(), "fresh".into()]);
        b.delete("a").unwrap();
        b.delete("a").unwrap(); // idempotent
        assert_eq!(b.get("a").unwrap(), None);
        assert_eq!(b.list().unwrap(), vec!["fresh".to_string()]);
        b.sync().unwrap();
        // In-place writes: overwrite, extend past the end, create sparse.
        b.put("w", b"0123456789").unwrap();
        b.write_at("w", 3, b"abc").unwrap();
        assert_eq!(b.get("w").unwrap().unwrap(), b"012abc6789");
        b.write_at("w", 8, b"XYZ").unwrap();
        assert_eq!(b.get("w").unwrap().unwrap(), b"012abc67XYZ");
        b.write_at("sparse", 2, b"z").unwrap();
        assert_eq!(b.get("sparse").unwrap().unwrap(), &[0, 0, b'z']);
        // Rename: replaces the target, errors on a missing source.
        b.put("target", b"old").unwrap();
        b.rename("w", "target").unwrap();
        assert_eq!(b.get("w").unwrap(), None);
        assert_eq!(b.get("target").unwrap().unwrap(), b"012abc67XYZ");
        assert!(b.rename("w", "nowhere").is_err());
        b.sync().unwrap();
        b.delete("target").unwrap();
        b.delete("sparse").unwrap();
    }

    #[test]
    fn mem_blobs_roundtrip() {
        exercise(&mut MemBlobs::new());
    }

    #[test]
    fn file_blobs_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "llog-fileblobs-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let mut b = FileBlobs::open(&dir).unwrap();
        exercise(&mut b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_blobs_sync_after_delete_is_ok() {
        let dir = std::env::temp_dir().join(format!(
            "llog-fileblobs-del-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let mut b = FileBlobs::open(&dir).unwrap();
        b.put("gone", b"bytes").unwrap();
        b.delete("gone").unwrap();
        b.sync().unwrap(); // must not error on the deleted pending path
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_blobs_keep_a_name_pending_until_its_own_sync_succeeds() {
        let dir = std::env::temp_dir().join(format!(
            "llog-fileblobs-failsync-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let mut b = FileBlobs::open(&dir).unwrap();
        b.put("a", b"one").unwrap();
        b.put("b", b"two").unwrap();
        assert!(b.handles.is_empty(), "put leaves no open handle");
        // A self-referencing symlink: opening `a` fails with ELOOP, even as
        // root.
        let a = dir.join("a");
        std::fs::remove_file(&a).unwrap();
        std::os::unix::fs::symlink("a", &a).unwrap();
        assert!(b.sync().is_err());
        assert_eq!(b.pending_sync, ["a", "b"], "both names still pending");
        std::fs::remove_file(&a).unwrap();
        std::fs::write(&a, b"one").unwrap();
        b.sync().unwrap();
        assert!(b.pending_sync.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_blobs_keep_only_the_handles_a_sync_covered() {
        let dir = std::env::temp_dir().join(format!(
            "llog-fileblobs-handles-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let mut b = FileBlobs::open(&dir).unwrap();
        b.write_at("seg-1", 0, b"one").unwrap();
        b.sync().unwrap();
        b.append("seg-1", b"+").unwrap();
        b.sync().unwrap();
        assert!(b.handles.contains_key("seg-1"), "written again: kept");
        b.write_at("seg-2", 0, b"two").unwrap();
        b.sync().unwrap();
        let open: Vec<&String> = b.handles.keys().collect();
        assert_eq!(open, ["seg-2"], "seg-1 saw no write since the last sync");
        b.put("seg-2", b"whole").unwrap();
        assert!(b.handles.is_empty(), "put drops the handle");
        assert_eq!(b.get("seg-1").unwrap().unwrap(), b"one+");
        assert_eq!(b.get("seg-2").unwrap().unwrap(), b"whole");
        std::fs::remove_dir_all(&dir).ok();
    }
}
