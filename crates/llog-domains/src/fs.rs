//! File-system recovery (§1).
//!
//! Files are recoverable objects named by path. Copy and sort are logged
//! *logically* — "in neither case do we log the values of input or output
//! files. Only the transformations are logged and the source and target
//! files ids." Ingest (data arriving from outside the recoverable world) is
//! necessarily physical; appends are physiological.
//!
//! Paths map to object ids by a stable 64-bit FNV-1a hash, so the mapping
//! itself needs no recovery (it is a pure function). The *directory* — the
//! set of live paths — is itself a recoverable object, maintained with
//! physiological appends of `+path` / `-path` records so `list` works after
//! any crash.

use llog_core::Engine;
use llog_ops::{builtin, OpKind, Transform};
use llog_types::{Lsn, ObjectId, OpId, Result, Value};

/// Stable path → object id mapping (FNV-1a, offset into a domain-reserved
/// id region).
pub fn file_id(path: &str) -> ObjectId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in path.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Avoid the low id space used by examples/tests for raw objects.
    ObjectId(h | 0x8000_0000_0000_0000)
}

/// The directory object: a newline-separated journal of `+path` / `-path`
/// entries, replayed into the live path set on read.
pub const DIRECTORY: ObjectId = ObjectId(0x8000_0000_0000_0000);

fn log_dir_entry(engine: &mut Engine, sign: u8, path: &str) -> Result<()> {
    let mut rec = Vec::with_capacity(path.len() + 2);
    rec.push(sign);
    rec.extend_from_slice(path.as_bytes());
    rec.push(b'\n');
    engine.execute(
        OpKind::Physiological,
        vec![DIRECTORY],
        vec![DIRECTORY],
        Transform::new(builtin::APPEND, Value::from(rec)),
    )?;
    Ok(())
}

/// A file-system facade over a recovery [`Engine`].
#[derive(Debug, Default)]
pub struct FileSystem;

impl FileSystem {
    /// Ingest external data into a file (physical write: the bytes are not
    /// recoverable from anywhere else, so they must be logged).
    pub fn ingest(engine: &mut Engine, path: &str, data: &[u8]) -> Result<(OpId, Lsn)> {
        let r = engine.execute(
            OpKind::Physical,
            vec![],
            vec![file_id(path)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from_slice(data)]),
            ),
        )?;
        log_dir_entry(engine, b'+', path)?;
        Ok(r)
    }

    /// Copy `src` to `dst`, logged logically (operation **B** of Figure 1:
    /// `X ← g(Y)`). No file contents reach the log.
    pub fn copy(engine: &mut Engine, src: &str, dst: &str) -> Result<(OpId, Lsn)> {
        let r = engine.execute(
            OpKind::Logical,
            vec![file_id(src)],
            vec![file_id(dst)],
            Transform::new(builtin::COPY, Value::empty()),
        )?;
        log_dir_entry(engine, b'+', dst)?;
        Ok(r)
    }

    /// Sort `src` into `dst`, logged logically ("this same form describes a
    /// sort, where X is the unsorted input and Y is the sorted output").
    pub fn sort(engine: &mut Engine, src: &str, dst: &str) -> Result<(OpId, Lsn)> {
        let r = engine.execute(
            OpKind::Logical,
            vec![file_id(src)],
            vec![file_id(dst)],
            Transform::new(builtin::SORT_BYTES, Value::empty()),
        )?;
        log_dir_entry(engine, b'+', dst)?;
        Ok(r)
    }

    /// Append a record to a file (physiological: one object, record logged).
    pub fn append(engine: &mut Engine, path: &str, record: &[u8]) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Physiological,
            vec![file_id(path)],
            vec![file_id(path)],
            Transform::new(builtin::APPEND, Value::from_slice(record)),
        )
    }

    /// In-place transform of a file (physiological `W_PL`).
    pub fn transform_in_place(engine: &mut Engine, path: &str, salt: u64) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Physiological,
            vec![file_id(path)],
            vec![file_id(path)],
            Transform::new(builtin::HASH_MIX, Value::from_slice(&salt.to_le_bytes())),
        )
    }

    /// Rename a file: a logical copy to the new path followed by deletion
    /// of the old one. Nothing is logged but ids — the paper's logging
    /// economy extends to whole-file metadata operations.
    pub fn rename(engine: &mut Engine, from: &str, to: &str) -> Result<()> {
        engine.execute(
            OpKind::Logical,
            vec![file_id(from)],
            vec![file_id(to)],
            Transform::new(builtin::COPY, Value::empty()),
        )?;
        log_dir_entry(engine, b'+', to)?;
        Self::delete(engine, from)?;
        Ok(())
    }

    /// Truncate a file to `keep` bytes (physiological).
    pub fn truncate(engine: &mut Engine, path: &str, keep: u32) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Physiological,
            vec![file_id(path)],
            vec![file_id(path)],
            Transform::new(builtin::TRUNCATE, Value::from_slice(&keep.to_le_bytes())),
        )
    }

    /// Does the file currently have contents?
    pub fn exists(engine: &mut Engine, path: &str) -> bool {
        !engine.read_value(file_id(path)).is_empty()
    }

    /// Delete a file. Afterwards none of its log records need redo (§5's
    /// transient-object optimization).
    pub fn delete(engine: &mut Engine, path: &str) -> Result<(OpId, Lsn)> {
        let r = engine.execute(
            OpKind::Delete,
            vec![],
            vec![file_id(path)],
            Transform::new(builtin::DELETE, Value::empty()),
        )?;
        log_dir_entry(engine, b'-', path)?;
        Ok(r)
    }

    /// Read a file's current contents (not a logged operation).
    pub fn read(engine: &mut Engine, path: &str) -> Value {
        engine.read_value(file_id(path))
    }

    /// List the live paths, sorted (replays the directory journal; not a
    /// logged operation).
    pub fn list(engine: &mut Engine) -> Vec<String> {
        let journal = engine.read_value(DIRECTORY);
        let mut live = std::collections::BTreeSet::new();
        for line in journal.as_bytes().split(|&b| b == b'\n') {
            if line.len() < 2 {
                continue;
            }
            let path = String::from_utf8_lossy(&line[1..]).into_owned();
            match line[0] {
                b'+' => {
                    live.insert(path);
                }
                b'-' => {
                    live.remove(&path);
                }
                _ => {}
            }
        }
        live.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_core::{EngineConfig, FlushStrategy, GraphKind, RedoPolicy};
    use llog_ops::TransformRegistry;

    fn engine() -> Engine {
        Engine::new(
            EngineConfig {
                graph: GraphKind::RW,
                flush: FlushStrategy::IdentityWrites,
                audit: true,
            },
            TransformRegistry::with_builtins(),
        )
    }

    #[test]
    fn file_ids_are_stable_and_distinct() {
        assert_eq!(file_id("/a/b"), file_id("/a/b"));
        assert_ne!(file_id("/a/b"), file_id("/a/c"));
    }

    #[test]
    fn copy_and_sort_produce_expected_contents() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/in", b"dcba").unwrap();
        FileSystem::copy(&mut e, "/in", "/copy").unwrap();
        FileSystem::sort(&mut e, "/in", "/sorted").unwrap();
        assert_eq!(FileSystem::read(&mut e, "/copy"), Value::from("dcba"));
        assert_eq!(FileSystem::read(&mut e, "/sorted"), Value::from("abcd"));
    }

    #[test]
    fn copy_logs_ids_not_contents() {
        let mut e = engine();
        let big = vec![7u8; 256 * 1024];
        FileSystem::ingest(&mut e, "/big", &big).unwrap();
        let before = e.metrics().snapshot().log_bytes;
        FileSystem::copy(&mut e, "/big", "/big2").unwrap();
        let copy_bytes = e.metrics().snapshot().log_bytes - before;
        assert!(copy_bytes < 128, "copy logged {copy_bytes} bytes");
    }

    #[test]
    fn append_grows_file() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/log", b"a").unwrap();
        FileSystem::append(&mut e, "/log", b"b").unwrap();
        FileSystem::append(&mut e, "/log", b"c").unwrap();
        assert_eq!(FileSystem::read(&mut e, "/log"), Value::from("abc"));
    }

    #[test]
    fn files_survive_crash_and_recovery() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/in", b"zyxw").unwrap();
        FileSystem::sort(&mut e, "/in", "/out").unwrap();
        FileSystem::append(&mut e, "/out", b"!").unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut rec, _) = llog_core::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(FileSystem::read(&mut rec, "/out"), Value::from("wxyz!"));
    }

    #[test]
    fn deleted_temp_files_are_not_recovered() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/tmp/scratch", &vec![1u8; 1024]).unwrap();
        FileSystem::transform_in_place(&mut e, "/tmp/scratch", 1).unwrap();
        FileSystem::transform_in_place(&mut e, "/tmp/scratch", 2).unwrap();
        FileSystem::delete(&mut e, "/tmp/scratch").unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (_, out) = llog_core::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        // The temp file's own work is bypassed; only the (tiny) directory
        // journal appends replay.
        assert_eq!(out.redone, 2, "only directory appends replay: {out:?}");
        assert_eq!(out.skipped, 3);
        assert_eq!(out.deletes_applied, 1);
    }

    #[test]
    fn directory_lists_live_files_across_recovery() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/a", b"1").unwrap();
        FileSystem::ingest(&mut e, "/b", b"2").unwrap();
        FileSystem::copy(&mut e, "/a", "/c").unwrap();
        FileSystem::delete(&mut e, "/b").unwrap();
        FileSystem::rename(&mut e, "/c", "/d").unwrap();
        assert_eq!(FileSystem::list(&mut e), vec!["/a", "/d"]);

        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut rec, _) = llog_core::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(FileSystem::list(&mut rec), vec!["/a", "/d"]);
        assert_eq!(FileSystem::read(&mut rec, "/d"), Value::from("1"));
    }

    #[test]
    fn rename_moves_contents_and_logs_ids_only() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/old", &vec![5u8; 32 * 1024]).unwrap();
        let before = e.metrics().snapshot().log_bytes;
        FileSystem::rename(&mut e, "/old", "/new").unwrap();
        let delta = e.metrics().snapshot().log_bytes - before;
        assert!(delta < 200, "rename logged {delta} bytes");
        assert!(!FileSystem::exists(&mut e, "/old"));
        assert_eq!(FileSystem::read(&mut e, "/new").len(), 32 * 1024);
    }

    #[test]
    fn truncate_shortens() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/f", b"0123456789").unwrap();
        FileSystem::truncate(&mut e, "/f", 4).unwrap();
        assert_eq!(FileSystem::read(&mut e, "/f"), Value::from("0123"));
    }

    #[test]
    fn rename_survives_crash() {
        let mut e = engine();
        FileSystem::ingest(&mut e, "/a", b"contents").unwrap();
        FileSystem::rename(&mut e, "/a", "/b").unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut rec, _) = llog_core::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(FileSystem::read(&mut rec, "/b"), Value::from("contents"));
        assert!(!FileSystem::exists(&mut rec, "/a"));
    }

    #[test]
    fn copy_chain_installs_in_order() {
        // /a → /b → /c: flush order must follow the reads.
        let mut e = engine();
        FileSystem::ingest(&mut e, "/a", b"data").unwrap();
        FileSystem::copy(&mut e, "/a", "/b").unwrap();
        FileSystem::copy(&mut e, "/b", "/c").unwrap();
        // Overwrite /a afterwards: /a's old value must not be needed.
        FileSystem::ingest(&mut e, "/a", b"new!").unwrap();
        e.install_all().unwrap();
        e.audit_all().unwrap();
        assert_eq!(FileSystem::read(&mut e, "/c"), Value::from("data"));
        assert_eq!(FileSystem::read(&mut e, "/a"), Value::from("new!"));
    }
}
