//! Media recovery: fuzzy backups that stay recoverable under logical
//! logging (§1's pointer to \[Lomet, *Media Recovery When Using Logical Log
//! Operations*\]).
//!
//! A backup must be recoverable just as the stable database is. Backups are
//! taken *fuzzily* — objects are copied one at a time while normal
//! execution (and installation) continues — and, as the paper warns,
//! "copying the database to the backup can introduce flush order violations
//! for the backup even when cache management honors flush order for the
//! stable database": an object copied late carries a version *newer* than
//! the backup-start point, so replaying the log over the backup can feed a
//! logical operation future input values.
//!
//! Two modes reproduce the problem and the cure:
//!
//! - [`BackupMode::Naive`] copies whatever version is stable at copy time.
//!   Cheap, and **unsound** for logical operations — the media-recovery
//!   tests demonstrate real corruption.
//! - [`BackupMode::Snapshot`] keeps the backup at the backup-start point:
//!   before the cache manager overwrites a stable object that the sweep has
//!   not yet copied, the old version is copied first (copy-before-
//!   overwrite). The finished backup is exactly the stable state at backup
//!   start — an explainable state — so standard `Recover` over the retained
//!   log restores the current state. The cost is the extra copy I/O during
//!   the backup window, which the metrics expose.

use std::collections::BTreeMap;

use llog_ops::TransformRegistry;
use llog_storage::device::{decode_image, encode_image};
use llog_storage::{Metrics, StableStore, StoredObject};
use llog_types::{LlogError, Lsn, ObjectId, Result};
use llog_wal::{LogArchive, Wal};

use crate::cache::{Engine, EngineConfig};
use crate::recover::RecoveryOutcome;
use crate::redo::RedoPolicy;

/// How the backup treats objects flushed during the backup window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupMode {
    /// Copy the current stable version at sweep time (unsound for logical
    /// operations; kept as the §1 cautionary baseline).
    Naive,
    /// Copy-before-overwrite: the backup always holds each object's version
    /// as of backup start.
    Snapshot,
}

/// An in-progress fuzzy backup. Owned by the [`Engine`] between
/// [`Engine::begin_backup`] and [`Engine::finish_backup`].
#[derive(Debug, Clone)]
pub struct BackupInProgress {
    /// How the backup treats concurrent flushes.
    pub mode: BackupMode,
    /// Log position at backup start (forced).
    pub start_lsn: Lsn,
    /// Redo scan start the restored backup will need — the log from here on
    /// must be retained until the next backup completes.
    pub redo_start: Lsn,
    /// Objects still to copy, in sweep order.
    remaining: Vec<ObjectId>,
    /// Copied contents.
    objects: BTreeMap<ObjectId, StoredObject>,
}

/// A completed backup, restorable after media failure.
#[derive(Debug, Clone)]
pub struct Backup {
    /// How the backup treats concurrent flushes.
    pub mode: BackupMode,
    /// Log position at backup start (forced).
    pub start_lsn: Lsn,
    /// Replay the retained log from here over the restored objects.
    pub redo_start: Lsn,
    /// The backed-up objects with their vSIs.
    pub objects: BTreeMap<ObjectId, StoredObject>,
}

impl BackupInProgress {
    pub(crate) fn new(
        mode: BackupMode,
        start_lsn: Lsn,
        redo_start: Lsn,
        sweep: Vec<ObjectId>,
    ) -> BackupInProgress {
        BackupInProgress {
            mode,
            start_lsn,
            redo_start,
            remaining: sweep,
            objects: BTreeMap::new(),
        }
    }

    /// Objects the sweep has not copied yet.
    pub fn remaining(&self) -> usize {
        self.remaining.len()
    }

    /// Copy up to `n` more objects from `store`; returns how many were
    /// copied. Objects already captured by copy-before-overwrite are
    /// skipped.
    pub(crate) fn step(&mut self, store: &StableStore, n: usize) -> usize {
        let mut copied = 0;
        while copied < n {
            let Some(x) = self.remaining.pop() else { break };
            if self.objects.contains_key(&x) {
                continue; // captured earlier by copy-before-overwrite
            }
            if let Some(obj) = store.peek(x) {
                Metrics::bump(&store.metrics().backup_copies, 1);
                Metrics::bump(&store.metrics().backup_bytes, obj.value.len() as u64);
                self.objects.insert(x, obj.clone());
            }
            copied += 1;
        }
        copied
    }

    /// Hook: the cache manager is about to overwrite (or remove) stable
    /// object `x`. In snapshot mode, capture the old version if the sweep
    /// has not reached it yet.
    pub(crate) fn before_overwrite(&mut self, store: &StableStore, x: ObjectId) {
        if self.mode != BackupMode::Snapshot || self.objects.contains_key(&x) {
            return;
        }
        // Only objects that were stable at backup start belong in the
        // snapshot; a brand-new object has no old version to preserve (its
        // absence is recorded so the sweep skips the new version too).
        let old = store.peek(x).cloned();
        match old {
            Some(obj) => {
                Metrics::bump(&store.metrics().backup_copies, 1);
                Metrics::bump(&store.metrics().backup_bytes, obj.value.len() as u64);
                self.objects.insert(x, obj);
            }
            None => {
                // Tombstone: the object did not exist at backup start.
                self.objects.insert(
                    x,
                    StoredObject {
                        value: llog_types::Value::empty(),
                        vsi: Lsn::ZERO,
                    },
                );
            }
        }
        // It no longer needs sweeping.
        self.remaining.retain(|&y| y != x);
    }

    pub(crate) fn finish(mut self, store: &StableStore) -> Backup {
        // Drain the sweep.
        while self.remaining() > 0 {
            self.step(store, usize::MAX);
        }
        // Drop tombstones: they only existed to mask post-start creations.
        let objects = self
            .objects
            .into_iter()
            .filter(|(_, o)| !(o.vsi == Lsn::ZERO && o.value.is_empty()))
            .collect();
        Backup {
            mode: self.mode,
            start_lsn: self.start_lsn,
            redo_start: self.redo_start,
            objects,
        }
    }
}

/// Backup archive: `"LLOGBAK2" | mode u8 | start_lsn u64 | redo_start u64 |
/// crc32c u32` over the header, then the objects as one standalone store
/// image ([`encode_image`]), which carries its own checksum.
const BACKUP_MAGIC: &[u8; 8] = b"LLOGBAK2";
const BACKUP_HEADER: usize = 8 + 1 + 8 + 8;

impl Backup {
    /// Serialize the backup for archival.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BACKUP_HEADER + 4);
        out.extend_from_slice(BACKUP_MAGIC);
        out.push(match self.mode {
            BackupMode::Naive => 0,
            BackupMode::Snapshot => 1,
        });
        out.extend_from_slice(&self.start_lsn.0.to_le_bytes());
        out.extend_from_slice(&self.redo_start.0.to_le_bytes());
        let crc = llog_types::crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&encode_image(&self.objects));
        out
    }

    /// Reconstruct a backup from its serialized form.
    pub fn deserialize(bytes: &[u8]) -> Result<Backup> {
        let err = |reason: &str| LlogError::Codec {
            reason: format!("backup image: {reason}"),
        };
        if bytes.len() < BACKUP_HEADER + 4 {
            return Err(err("too short"));
        }
        let (header, rest) = bytes.split_at(BACKUP_HEADER);
        let (crc_bytes, image) = rest.split_at(4);
        if llog_types::crc32c(header) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
            return Err(err("checksum mismatch"));
        }
        if &header[0..8] != BACKUP_MAGIC {
            return Err(err("bad magic"));
        }
        let mode = match header[8] {
            0 => BackupMode::Naive,
            1 => BackupMode::Snapshot,
            m => return Err(err(&format!("unknown mode {m}"))),
        };
        Ok(Backup {
            mode,
            start_lsn: Lsn(u64::from_le_bytes(header[9..17].try_into().unwrap())),
            redo_start: Lsn(u64::from_le_bytes(header[17..25].try_into().unwrap())),
            objects: decode_image(image)?,
        })
    }

    /// Save to a file.
    pub fn save_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.serialize())
    }

    /// Load from a file.
    pub fn load_from(path: &std::path::Path) -> Result<Backup> {
        let bytes = std::fs::read(path).map_err(|e| LlogError::Codec {
            reason: format!("reading {}: {e}", path.display()),
        })?;
        Backup::deserialize(&bytes)
    }
}

/// Restore a backup after a media failure and roll the retained log
/// forward. `wal` is the surviving log (media failure destroys the stable
/// object store, not the log device). Returns the recovered engine.
///
/// Unlike crash [`recover`](crate::recover::recover), media recovery must **not** trust the log's
/// installation, flush and checkpoint records: they describe the destroyed
/// current stable state, not the (older) restored backup. The roll-forward
/// therefore scans from the backup's own redo-start point and relies purely
/// on the restored objects' vSIs — the per-object test remains sound
/// because vSIs in the backup are exactly the vSIs the objects carried when
/// copied. Committed flush-transaction values are reapplied with the same
/// vSI guard (physical redo).
pub fn media_recover(
    backup: &Backup,
    wal: Wal,
    registry: TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
) -> Result<(Engine, RecoveryOutcome)> {
    media_recover_archived(backup, &LogArchive::new(), wal, registry, config, policy)
}

/// Media recovery when the live log has been checkpoint-truncated: stitch
/// the [`LogArchive`]'s retained segments together
/// with the surviving live log and roll the backup forward across both.
///
/// The policy parameter is accepted for interface symmetry; every policy
/// other than Naive behaves as the vSI test here (the rSI machinery has
/// nothing sound to say about a restored backup).
pub fn media_recover_archived(
    backup: &Backup,
    archive: &LogArchive,
    wal: Wal,
    registry: TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
) -> Result<(Engine, RecoveryOutcome)> {
    let earliest = archive.start_lsn().unwrap_or_else(|| wal.start_lsn());
    if earliest > backup.redo_start {
        return Err(LlogError::LsnOutOfRange {
            lsn: backup.redo_start,
            start: earliest,
            end: wal.forced_lsn(),
        });
    }
    let mut records = Vec::new();
    let mut outcome = RecoveryOutcome {
        redo_start: backup.redo_start,
        ..RecoveryOutcome::default()
    };
    for item in archive.scan_from(&wal, backup.redo_start) {
        match item {
            Ok(x) => records.push(x),
            Err(LlogError::Corrupt { .. }) => {
                outcome.torn_tail = true;
                break;
            }
            Err(e) => return Err(e),
        }
        outcome.redo_scanned += 1;
    }
    let metrics = wal.metrics().clone();
    let mut store = StableStore::new(metrics.clone());
    store.restore(backup.objects.clone());
    let mut engine = Engine::with_parts(config, registry, store, wal, metrics);
    media_roll_forward(&mut engine, records, &mut outcome, policy)?;
    Ok((engine, outcome))
}

/// The shared roll-forward loop: per-record vSI testing over the restored
/// objects, delete application, and flush-transaction completion.
fn media_roll_forward(
    engine: &mut Engine,
    records: Vec<(Lsn, llog_wal::LogRecord)>,
    outcome: &mut RecoveryOutcome,
    _policy: RedoPolicy,
) -> Result<()> {
    let mut pending_ftxn: Vec<(llog_types::ObjectId, llog_types::Value, Lsn)> = Vec::new();
    let mut max_op_id: Option<u64> = None;
    for (lsn, rec) in records {
        match rec {
            llog_wal::LogRecord::Op(op) => {
                max_op_id = Some(max_op_id.map_or(op.id.0, |m| m.max(op.id.0)));
                let installed = op.writes.iter().any(|&x| engine.current_vsi(x) >= lsn);
                if installed {
                    outcome.skipped += 1;
                    continue;
                }
                if op.kind == llog_ops::OpKind::Delete {
                    engine.apply_logged(&op, lsn)?;
                    outcome.deletes_applied += 1;
                    continue;
                }
                match engine.apply_logged(&op, lsn) {
                    Ok(()) => outcome.redone += 1,
                    Err(LlogError::NotApplicable { .. })
                    | Err(LlogError::WritesetMismatch { .. })
                    | Err(LlogError::Codec { .. }) => outcome.voided += 1,
                    Err(e) => return Err(e),
                }
            }
            llog_wal::LogRecord::FlushTxnBegin { .. } => pending_ftxn.clear(),
            llog_wal::LogRecord::FlushTxnValue { obj, value, vsi } => {
                pending_ftxn.push((obj, value, vsi));
            }
            llog_wal::LogRecord::FlushTxnCommit => {
                for (x, value, vsi) in pending_ftxn.drain(..) {
                    if engine.current_vsi(x) < vsi {
                        engine.apply_flushed_value(x, value, vsi);
                        outcome.ftxn_replayed += 1;
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(max_id) = max_op_id {
        engine.set_next_op(max_id + 1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{FlushStrategy, GraphKind};
    use llog_ops::{builtin, OpKind, Transform};
    use llog_types::Value;

    const X: ObjectId = ObjectId(1);
    const Y: ObjectId = ObjectId(2);

    fn config() -> EngineConfig {
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
        }
    }

    fn engine() -> Engine {
        Engine::new(config(), TransformRegistry::with_builtins())
    }

    fn physical(e: &mut Engine, x: ObjectId, v: &str) {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![x],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
        )
        .unwrap();
    }

    fn logical(e: &mut Engine, reads: &[ObjectId], writes: &[ObjectId], salt: &[u8]) {
        e.execute(
            OpKind::Logical,
            reads.to_vec(),
            writes.to_vec(),
            Transform::new(builtin::HASH_MIX, Value::from_slice(salt)),
        )
        .unwrap();
    }

    #[test]
    fn quiescent_backup_restores_exactly() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        physical(&mut e, Y, "y0");
        e.install_all().unwrap();

        e.begin_backup(BackupMode::Snapshot).unwrap();
        let backup = e.finish_backup().unwrap();
        assert_eq!(backup.objects.len(), 2);

        e.wal_mut().force();
        let (_store_lost, wal) = e.crash();
        let (mut rec, _) = media_recover(
            &backup,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(rec.read_value(X), Value::from("x0"));
        assert_eq!(rec.read_value(Y), Value::from("y0"));
    }

    #[test]
    fn snapshot_backup_with_concurrent_installs_recovers_current_state() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        physical(&mut e, Y, "y0");
        e.install_all().unwrap();

        // Start the backup, then keep running Figure-1 style logical ops
        // and installing them while the sweep proceeds.
        e.begin_backup(BackupMode::Snapshot).unwrap();
        logical(&mut e, &[X, Y], &[Y], b"A");
        logical(&mut e, &[Y], &[X], b"B");
        e.install_all().unwrap(); // overwrites stable X and Y mid-backup
        e.backup_step(1).unwrap();
        logical(&mut e, &[X, Y], &[Y], b"C");
        e.install_all().unwrap();
        let backup = e.finish_backup().unwrap();

        e.wal_mut().force();
        let want_x = e.peek_value(X);
        let want_y = e.peek_value(Y);
        let (_lost, wal) = e.crash();

        let (mut rec, _) = media_recover(
            &backup,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        assert_eq!(rec.read_value(X), want_x);
        assert_eq!(rec.read_value(Y), want_y);
    }

    #[test]
    fn snapshot_backup_is_the_start_state() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        e.install_all().unwrap();

        e.begin_backup(BackupMode::Snapshot).unwrap();
        physical(&mut e, X, "x1");
        e.install_all().unwrap(); // flushes x1 during the window
        let backup = e.finish_backup().unwrap();

        assert_eq!(
            backup.objects.get(&X).unwrap().value,
            Value::from("x0"),
            "snapshot holds the start-of-backup version"
        );
    }

    #[test]
    fn naive_backup_can_hold_future_versions() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        e.install_all().unwrap();

        e.begin_backup(BackupMode::Naive).unwrap();
        physical(&mut e, X, "x1");
        e.install_all().unwrap();
        let backup = e.finish_backup().unwrap(); // sweep copies AFTER flush

        assert_eq!(
            backup.objects.get(&X).unwrap().value,
            Value::from("x1"),
            "naive backup captured the post-start version"
        );
    }

    #[test]
    fn naive_backup_breaks_media_recovery_for_logical_ops() {
        // A: Y ← f(X,Y) installed during the window; X copied late (new
        // version), Y copied early (old version). Replay must redo A but
        // reads the *future* X: corruption.
        let mut e = engine();
        physical(&mut e, X, "x0");
        physical(&mut e, Y, "y0");
        e.install_all().unwrap();

        e.begin_backup(BackupMode::Naive).unwrap();
        logical(&mut e, &[X, Y], &[Y], b"A"); // uses X=x0
        physical(&mut e, X, "x-future");
        e.install_all().unwrap(); // both stable now
        let backup = e.finish_backup().unwrap();
        // The naive backup holds Y's NEW value? No: both copied at finish —
        // X = x-future (new), Y = A's output (new). Here both are new, so
        // replay skips A; build the violation precisely instead:
        // backup Y old, X new.
        let mut objects = backup.objects.clone();
        objects.insert(
            Y,
            StoredObject {
                value: Value::from("y0"),
                vsi: Lsn::ZERO,
            },
        );
        let broken = Backup { objects, ..backup };

        e.wal_mut().force();
        let want_y = e.peek_value(Y);
        let (_lost, wal) = e.crash();
        let (mut rec, _) = media_recover(
            &broken,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        // A is redone (Y's vsi is old) against the future X: wrong Y.
        assert_ne!(rec.read_value(Y), want_y, "corruption must manifest");
    }

    #[test]
    fn backup_blocks_log_truncation_past_its_redo_start() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        e.begin_backup(BackupMode::Snapshot).unwrap();
        // Uninstalled op at backup start ⇒ redo_start points at it.
        e.install_all().unwrap();
        e.checkpoint(true).unwrap();
        // The log must still contain the backup's redo range.
        assert!(e.wal().start_lsn() <= e.backup_redo_start().unwrap());
        let backup = e.finish_backup().unwrap();
        assert!(backup.redo_start >= e.wal().start_lsn());
    }

    #[test]
    fn deletes_during_backup_window_are_handled() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        physical(&mut e, Y, "y0");
        e.install_all().unwrap();

        e.begin_backup(BackupMode::Snapshot).unwrap();
        e.execute(
            OpKind::Delete,
            vec![],
            vec![X],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap();
        e.install_all().unwrap(); // removes stable X mid-window
        let backup = e.finish_backup().unwrap();
        // Snapshot still holds X (it existed at start).
        assert_eq!(backup.objects.get(&X).unwrap().value, Value::from("x0"));

        // Media recovery replays the delete: X ends up gone.
        e.wal_mut().force();
        let (_lost, wal) = e.crash();
        let (mut rec, _) = media_recover(
            &backup,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        assert!(rec.read_value(X).is_empty());
        assert_eq!(rec.read_value(Y), Value::from("y0"));
    }

    #[test]
    fn backup_serialization_roundtrips() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        physical(&mut e, Y, "y0");
        e.install_all().unwrap();
        e.begin_backup(BackupMode::Snapshot).unwrap();
        let backup = e.finish_backup().unwrap();
        let restored = Backup::deserialize(&backup.serialize()).unwrap();
        assert_eq!(restored.mode, backup.mode);
        assert_eq!(restored.start_lsn, backup.start_lsn);
        assert_eq!(restored.redo_start, backup.redo_start);
        assert_eq!(restored.objects, backup.objects);
        // Corruption detected, in the header and in the store image.
        let mut image = backup.serialize();
        for at in [10, image.len() - 10] {
            image[at] ^= 0xFF;
            assert!(Backup::deserialize(&image).is_err(), "byte {at}");
            image[at] ^= 0xFF;
        }
    }

    #[test]
    fn archived_media_recovery_reaches_past_truncation() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        physical(&mut e, Y, "y0");
        e.install_all().unwrap();

        // Take the backup, then keep working *and truncating into the
        // archive* — the live log alone can no longer serve the backup.
        e.begin_backup(BackupMode::Snapshot).unwrap();
        let backup = e.finish_backup().unwrap();

        let mut archive = LogArchive::new();
        logical(&mut e, &[X, Y], &[Y], b"A");
        logical(&mut e, &[Y], &[X], b"B");
        e.install_all().unwrap();
        e.checkpoint(false).unwrap();
        // Archive everything installed so far.
        let cut = e
            .dirty_table()
            .values()
            .copied()
            .min()
            .unwrap_or_else(|| e.wal().forced_lsn());
        e.wal_mut()
            .truncate_to_archiving(cut, &mut archive)
            .unwrap();
        assert!(archive.n_segments() > 0);

        logical(&mut e, &[X, Y], &[Y], b"C");
        e.wal_mut().force();
        let want_x = e.peek_value(X);
        let want_y = e.peek_value(Y);

        // Media failure: the live log alone is insufficient...
        let (_lost, wal) = e.crash();
        assert!(wal.start_lsn() > backup.redo_start);
        assert!(media_recover(
            &backup,
            wal.clone(),
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .is_err());

        // ...but archive + live log recover the current state.
        let (mut rec, out) = media_recover_archived(
            &backup,
            &archive,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        assert!(out.redone >= 3);
        assert_eq!(rec.read_value(X), want_x);
        assert_eq!(rec.read_value(Y), want_y);
    }

    #[test]
    fn archived_recovery_rejects_missing_prefix() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        e.begin_backup(BackupMode::Snapshot).unwrap();
        let backup = e.finish_backup().unwrap();
        e.install_all().unwrap();
        e.checkpoint(true).unwrap(); // truncates WITHOUT archiving
        let (_lost, wal) = e.crash();
        if wal.start_lsn() > backup.redo_start {
            let archive = LogArchive::new();
            assert!(media_recover_archived(
                &backup,
                &archive,
                wal,
                TransformRegistry::with_builtins(),
                config(),
                RedoPolicy::Vsi,
            )
            .is_err());
        }
    }

    #[test]
    fn media_recover_rejects_overtruncated_log() {
        let mut e = engine();
        physical(&mut e, X, "x0");
        e.install_all().unwrap();
        e.begin_backup(BackupMode::Snapshot).unwrap();
        let backup = e.finish_backup().unwrap();

        // Simulate an over-truncated log.
        physical(&mut e, X, "x1");
        e.install_all().unwrap();
        e.checkpoint(true).unwrap();
        let (_lost, wal) = e.crash();
        if wal.start_lsn() > backup.redo_start {
            assert!(media_recover(
                &backup,
                wal,
                TransformRegistry::with_builtins(),
                config(),
                RedoPolicy::Vsi,
            )
            .is_err());
        }
    }
}
