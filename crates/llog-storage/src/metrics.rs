//! The shared cost ledger.
//!
//! One `Metrics` instance is threaded through the stable store, the WAL and
//! the cache manager so an experiment reads its whole cost picture from one
//! place. Counters are atomics: cheap, `Send + Sync`, and usable from
//! Criterion benches without interior-mutability gymnastics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Event counters for one engine instance.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Object reads from the stable store.
    pub obj_reads: AtomicU64,
    /// Bytes read from the stable store.
    pub obj_read_bytes: AtomicU64,
    /// Object writes to the stable store (each is one device I/O).
    pub obj_writes: AtomicU64,
    /// Bytes written to the stable store.
    pub obj_write_bytes: AtomicU64,
    /// Multi-object atomic flush groups performed (shadow or flush-txn).
    pub atomic_groups: AtomicU64,
    /// Objects written inside atomic groups.
    pub atomic_group_objects: AtomicU64,
    /// Shadow-root commit writes (the System R "pointer swing").
    pub shadow_commits: AtomicU64,
    /// Log records appended.
    pub log_records: AtomicU64,
    /// Log bytes appended (framing + payload).
    pub log_bytes: AtomicU64,
    /// Log forces (synchronous stable-log writes).
    pub log_forces: AtomicU64,
    /// System quiesce events (§4: flush transactions freeze updaters).
    pub quiesces: AtomicU64,
    /// Identity writes issued by the cache manager (§4).
    pub identity_writes: AtomicU64,
    /// Operations re-executed during redo recovery.
    pub redo_ops: AtomicU64,
    /// Logged operations bypassed by the REDO test during recovery.
    pub skipped_ops: AtomicU64,
    /// Trial re-executions voided during recovery (§5 cases 2b/2c).
    pub voided_ops: AtomicU64,
    /// Objects copied to a fuzzy backup (sweep + copy-before-overwrite).
    pub backup_copies: AtomicU64,
    /// Bytes copied to a fuzzy backup.
    pub backup_bytes: AtomicU64,
    /// Clean objects evicted from the cache under pressure.
    pub evictions: AtomicU64,
    /// Nanoseconds spent in the recovery analysis pass.
    pub recovery_analysis_ns: AtomicU64,
    /// Nanoseconds spent in the recovery redo pass.
    pub recovery_redo_ns: AtomicU64,
    /// Op records replayed straight from the analysis ring (no re-decode).
    pub recovery_ring_reused: AtomicU64,
    /// Log records decoded during recovery (analysis + any gap rescans).
    pub recovery_records_decoded: AtomicU64,
    /// Bytes written through a durability device (segments, deltas, manifests).
    pub io_bytes_written: AtomicU64,
    /// Device-level fsync (force-to-durable) calls.
    pub io_fsyncs: AtomicU64,
    /// WAL segments sealed and rotated by a log device.
    pub segments_rotated: AtomicU64,
    /// Whole WAL segments reclaimed by truncate-below.
    pub segments_reclaimed: AtomicU64,
    /// Retired segment blobs recycled into a new open segment instead of
    /// being created cold (preallocating log devices only).
    pub segments_recycled: AtomicU64,
    /// Shard forces that rode another shard's fsync barrier instead of
    /// paying their own (global force scheduler).
    pub forces_coalesced: AtomicU64,
    /// Nanoseconds of fsync time during which appends kept flowing into the
    /// WAL's staging buffer (double-buffered force overlap).
    pub double_buffer_overlap_ns: AtomicU64,
    /// Objects written by incremental checkpoints (dirty since last ckpt).
    pub ckpt_objects_written: AtomicU64,
    /// Objects skipped by incremental checkpoints (clean since last ckpt).
    pub ckpt_objects_skipped: AtomicU64,
    /// Log chunks shipped to replication subscribers.
    pub repl_segments_shipped: AtomicU64,
    /// Log bytes shipped to replication subscribers.
    pub repl_bytes_shipped: AtomicU64,
    /// Gauge: frames between the durable end and the most recently
    /// reported replica watermark (replay lag).
    pub repl_replay_lag_frames: AtomicU64,
    /// Gauge: the most recently observed replayed-LSN watermark.
    pub repl_watermark_lsn: AtomicU64,
    /// Reads served from the lock-free snapshot path (never touched the
    /// engine mutex or the commit pipeline).
    pub reads_snapshot: AtomicU64,
    /// Gauge: versions currently retained in the MVCC version store.
    pub versions_retained: AtomicU64,
    /// Versions reclaimed by the snapshot-watermark GC.
    pub versions_gced: AtomicU64,
    /// Gauge: the SI floor of the last GC pass — the oldest snapshot any
    /// retained version must stay visible to (durable LSN when no snapshot
    /// is open).
    pub snapshot_oldest_si: AtomicU64,
    /// Operations logged as logical `Op` records (hybrid logging).
    pub log_records_logical: AtomicU64,
    /// Operations logged as physical-result records (hybrid logging).
    pub log_records_physical: AtomicU64,
    /// Log bytes (framing + payload) spent on logical op records.
    pub log_bytes_logical: AtomicU64,
    /// Log bytes (framing + payload) spent on physical-result records.
    pub log_bytes_physical: AtomicU64,
    /// Cold logical records converted to physical at checkpoint time.
    pub ckpt_ops_converted: AtomicU64,
    /// rW nodes touched by reachability searches, reader lookups and
    /// minimal-node picks: the graph work beyond an operation's own objects.
    pub rw_nodes_visited: AtomicU64,
    /// Σ|vars(n)| over installed nodes: objects flushed to install.
    pub install_vars_objects: AtomicU64,
    /// Σ|Notx(n)| over installed nodes: objects installed without a flush.
    pub install_notx_objects: AtomicU64,
}

impl Metrics {
    /// Create a new instance.
    pub fn new() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// Add `by` to a counter.
    pub fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Take a point-in-time copy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            obj_reads: g(&self.obj_reads),
            obj_read_bytes: g(&self.obj_read_bytes),
            obj_writes: g(&self.obj_writes),
            obj_write_bytes: g(&self.obj_write_bytes),
            atomic_groups: g(&self.atomic_groups),
            atomic_group_objects: g(&self.atomic_group_objects),
            shadow_commits: g(&self.shadow_commits),
            log_records: g(&self.log_records),
            log_bytes: g(&self.log_bytes),
            log_forces: g(&self.log_forces),
            quiesces: g(&self.quiesces),
            identity_writes: g(&self.identity_writes),
            redo_ops: g(&self.redo_ops),
            skipped_ops: g(&self.skipped_ops),
            voided_ops: g(&self.voided_ops),
            backup_copies: g(&self.backup_copies),
            backup_bytes: g(&self.backup_bytes),
            evictions: g(&self.evictions),
            recovery_analysis_ns: g(&self.recovery_analysis_ns),
            recovery_redo_ns: g(&self.recovery_redo_ns),
            recovery_ring_reused: g(&self.recovery_ring_reused),
            recovery_records_decoded: g(&self.recovery_records_decoded),
            io_bytes_written: g(&self.io_bytes_written),
            io_fsyncs: g(&self.io_fsyncs),
            segments_rotated: g(&self.segments_rotated),
            segments_reclaimed: g(&self.segments_reclaimed),
            segments_recycled: g(&self.segments_recycled),
            forces_coalesced: g(&self.forces_coalesced),
            double_buffer_overlap_ns: g(&self.double_buffer_overlap_ns),
            ckpt_objects_written: g(&self.ckpt_objects_written),
            ckpt_objects_skipped: g(&self.ckpt_objects_skipped),
            repl_segments_shipped: g(&self.repl_segments_shipped),
            repl_bytes_shipped: g(&self.repl_bytes_shipped),
            repl_replay_lag_frames: g(&self.repl_replay_lag_frames),
            repl_watermark_lsn: g(&self.repl_watermark_lsn),
            reads_snapshot: g(&self.reads_snapshot),
            versions_retained: g(&self.versions_retained),
            versions_gced: g(&self.versions_gced),
            snapshot_oldest_si: g(&self.snapshot_oldest_si),
            log_records_logical: g(&self.log_records_logical),
            log_records_physical: g(&self.log_records_physical),
            log_bytes_logical: g(&self.log_bytes_logical),
            log_bytes_physical: g(&self.log_bytes_physical),
            ckpt_ops_converted: g(&self.ckpt_ops_converted),
            rw_nodes_visited: g(&self.rw_nodes_visited),
            install_vars_objects: g(&self.install_vars_objects),
            install_notx_objects: g(&self.install_notx_objects),
        }
    }

    /// Overwrite a gauge-style counter (replication watermark/lag) with the
    /// latest observed value rather than accumulating.
    pub fn set_gauge(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }

    /// Reset every counter to zero (between experiment phases).
    pub fn reset(&self) {
        for c in [
            &self.obj_reads,
            &self.obj_read_bytes,
            &self.obj_writes,
            &self.obj_write_bytes,
            &self.atomic_groups,
            &self.atomic_group_objects,
            &self.shadow_commits,
            &self.log_records,
            &self.log_bytes,
            &self.log_forces,
            &self.quiesces,
            &self.identity_writes,
            &self.redo_ops,
            &self.skipped_ops,
            &self.voided_ops,
            &self.backup_copies,
            &self.backup_bytes,
            &self.evictions,
            &self.recovery_analysis_ns,
            &self.recovery_redo_ns,
            &self.recovery_ring_reused,
            &self.recovery_records_decoded,
            &self.io_bytes_written,
            &self.io_fsyncs,
            &self.segments_rotated,
            &self.segments_reclaimed,
            &self.segments_recycled,
            &self.forces_coalesced,
            &self.double_buffer_overlap_ns,
            &self.ckpt_objects_written,
            &self.ckpt_objects_skipped,
            &self.repl_segments_shipped,
            &self.repl_bytes_shipped,
            &self.repl_replay_lag_frames,
            &self.repl_watermark_lsn,
            &self.reads_snapshot,
            &self.versions_retained,
            &self.versions_gced,
            &self.snapshot_oldest_si,
            &self.log_records_logical,
            &self.log_records_physical,
            &self.log_bytes_logical,
            &self.log_bytes_physical,
            &self.ckpt_ops_converted,
            &self.rw_nodes_visited,
            &self.install_vars_objects,
            &self.install_notx_objects,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of [`Metrics`], with plain integer fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Object reads from the stable store.
    pub obj_reads: u64,
    /// Obj read bytes.
    pub obj_read_bytes: u64,
    /// Object writes to the stable store.
    pub obj_writes: u64,
    /// Obj write bytes.
    pub obj_write_bytes: u64,
    /// Multi-object atomic flush groups performed.
    pub atomic_groups: u64,
    /// Atomic group objects.
    pub atomic_group_objects: u64,
    /// Shadow-root commit writes.
    pub shadow_commits: u64,
    /// Log records appended.
    pub log_records: u64,
    /// Log bytes appended.
    pub log_bytes: u64,
    /// Synchronous log forces.
    pub log_forces: u64,
    /// System quiesce events (flush transactions).
    pub quiesces: u64,
    /// Cache-manager identity writes issued.
    pub identity_writes: u64,
    /// Operations re-executed during recovery.
    pub redo_ops: u64,
    /// Operation records bypassed during recovery.
    pub skipped_ops: u64,
    /// Trial re-executions voided during recovery.
    pub voided_ops: u64,
    /// Objects copied to a fuzzy backup.
    pub backup_copies: u64,
    /// Bytes copied to a fuzzy backup.
    pub backup_bytes: u64,
    /// Clean objects evicted under cache pressure.
    pub evictions: u64,
    /// Nanoseconds spent in the recovery analysis pass.
    pub recovery_analysis_ns: u64,
    /// Nanoseconds spent in the recovery redo pass.
    pub recovery_redo_ns: u64,
    /// Op records replayed straight from the analysis ring.
    pub recovery_ring_reused: u64,
    /// Log records decoded during recovery.
    pub recovery_records_decoded: u64,
    /// Bytes written through a durability device.
    pub io_bytes_written: u64,
    /// Device-level fsync calls.
    pub io_fsyncs: u64,
    /// WAL segments sealed and rotated.
    pub segments_rotated: u64,
    /// Whole WAL segments reclaimed by truncate-below.
    pub segments_reclaimed: u64,
    /// Retired segment blobs recycled into a new open segment.
    pub segments_recycled: u64,
    /// Shard forces that rode a shared fsync barrier.
    pub forces_coalesced: u64,
    /// Nanoseconds of fsync time overlapped with WAL staging appends.
    pub double_buffer_overlap_ns: u64,
    /// Objects written by incremental checkpoints.
    pub ckpt_objects_written: u64,
    /// Objects skipped by incremental checkpoints.
    pub ckpt_objects_skipped: u64,
    /// Log chunks shipped to replication subscribers.
    pub repl_segments_shipped: u64,
    /// Log bytes shipped to replication subscribers.
    pub repl_bytes_shipped: u64,
    /// Replication replay lag, in frames (gauge).
    pub repl_replay_lag_frames: u64,
    /// Most recently observed replayed-LSN watermark (gauge).
    pub repl_watermark_lsn: u64,
    /// Reads served from the lock-free snapshot path.
    pub reads_snapshot: u64,
    /// Versions currently retained in the MVCC version store (gauge).
    pub versions_retained: u64,
    /// Versions reclaimed by the snapshot-watermark GC.
    pub versions_gced: u64,
    /// SI floor of the last GC pass (gauge).
    pub snapshot_oldest_si: u64,
    /// Operations logged as logical `Op` records (hybrid logging).
    pub log_records_logical: u64,
    /// Operations logged as physical-result records (hybrid logging).
    pub log_records_physical: u64,
    /// Log bytes spent on logical op records.
    pub log_bytes_logical: u64,
    /// Log bytes spent on physical-result records.
    pub log_bytes_physical: u64,
    /// Cold logical records converted to physical at checkpoint time.
    pub ckpt_ops_converted: u64,
    /// rW nodes touched by searches, reader lookups and minimal picks.
    pub rw_nodes_visited: u64,
    /// Σ|vars(n)| over installed nodes.
    pub install_vars_objects: u64,
    /// Σ|Notx(n)| over installed nodes.
    pub install_notx_objects: u64,
}

impl MetricsSnapshot {
    /// Total device I/O operations: object writes + object reads + forces.
    pub fn total_ios(&self) -> u64 {
        self.obj_writes + self.obj_reads + self.log_forces
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// The single source of truth for serialization and aggregation, so a
    /// counter added to the struct cannot silently go missing from either.
    pub fn fields(&self) -> [(&'static str, u64); 47] {
        [
            ("obj_reads", self.obj_reads),
            ("obj_read_bytes", self.obj_read_bytes),
            ("obj_writes", self.obj_writes),
            ("obj_write_bytes", self.obj_write_bytes),
            ("atomic_groups", self.atomic_groups),
            ("atomic_group_objects", self.atomic_group_objects),
            ("shadow_commits", self.shadow_commits),
            ("log_records", self.log_records),
            ("log_bytes", self.log_bytes),
            ("log_forces", self.log_forces),
            ("quiesces", self.quiesces),
            ("identity_writes", self.identity_writes),
            ("redo_ops", self.redo_ops),
            ("skipped_ops", self.skipped_ops),
            ("voided_ops", self.voided_ops),
            ("backup_copies", self.backup_copies),
            ("backup_bytes", self.backup_bytes),
            ("evictions", self.evictions),
            ("recovery_analysis_ns", self.recovery_analysis_ns),
            ("recovery_redo_ns", self.recovery_redo_ns),
            ("recovery_ring_reused", self.recovery_ring_reused),
            ("recovery_records_decoded", self.recovery_records_decoded),
            ("io_bytes_written", self.io_bytes_written),
            ("io_fsyncs", self.io_fsyncs),
            ("segments_rotated", self.segments_rotated),
            ("segments_reclaimed", self.segments_reclaimed),
            ("segments_recycled", self.segments_recycled),
            ("forces_coalesced", self.forces_coalesced),
            ("double_buffer_overlap_ns", self.double_buffer_overlap_ns),
            ("ckpt_objects_written", self.ckpt_objects_written),
            ("ckpt_objects_skipped", self.ckpt_objects_skipped),
            ("repl_segments_shipped", self.repl_segments_shipped),
            ("repl_bytes_shipped", self.repl_bytes_shipped),
            ("repl_replay_lag_frames", self.repl_replay_lag_frames),
            ("repl_watermark_lsn", self.repl_watermark_lsn),
            ("reads_snapshot", self.reads_snapshot),
            ("versions_retained", self.versions_retained),
            ("versions_gced", self.versions_gced),
            ("snapshot_oldest_si", self.snapshot_oldest_si),
            ("log_records_logical", self.log_records_logical),
            ("log_records_physical", self.log_records_physical),
            ("log_bytes_logical", self.log_bytes_logical),
            ("log_bytes_physical", self.log_bytes_physical),
            ("ckpt_ops_converted", self.ckpt_ops_converted),
            ("rw_nodes_visited", self.rw_nodes_visited),
            ("install_vars_objects", self.install_vars_objects),
            ("install_notx_objects", self.install_notx_objects),
        ]
    }

    /// Serialize as one flat JSON object (no external serializer).
    ///
    /// Keys match the struct field names; values are plain integers. Used by
    /// `llogtool stats`, the bench harness, and the sharded-engine snapshot
    /// so counter formatting lives in exactly one place.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        s.push('{');
        for (i, (name, value)) in self.fields().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        s.push('}');
        s
    }

    /// Field-wise sum `self + other` (saturating), for aggregating the
    /// per-shard ledgers of a sharded engine into one cost picture.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            obj_reads: self.obj_reads.saturating_add(other.obj_reads),
            obj_read_bytes: self.obj_read_bytes.saturating_add(other.obj_read_bytes),
            obj_writes: self.obj_writes.saturating_add(other.obj_writes),
            obj_write_bytes: self.obj_write_bytes.saturating_add(other.obj_write_bytes),
            atomic_groups: self.atomic_groups.saturating_add(other.atomic_groups),
            atomic_group_objects: self
                .atomic_group_objects
                .saturating_add(other.atomic_group_objects),
            shadow_commits: self.shadow_commits.saturating_add(other.shadow_commits),
            log_records: self.log_records.saturating_add(other.log_records),
            log_bytes: self.log_bytes.saturating_add(other.log_bytes),
            log_forces: self.log_forces.saturating_add(other.log_forces),
            quiesces: self.quiesces.saturating_add(other.quiesces),
            identity_writes: self.identity_writes.saturating_add(other.identity_writes),
            redo_ops: self.redo_ops.saturating_add(other.redo_ops),
            skipped_ops: self.skipped_ops.saturating_add(other.skipped_ops),
            voided_ops: self.voided_ops.saturating_add(other.voided_ops),
            backup_copies: self.backup_copies.saturating_add(other.backup_copies),
            backup_bytes: self.backup_bytes.saturating_add(other.backup_bytes),
            evictions: self.evictions.saturating_add(other.evictions),
            recovery_analysis_ns: self
                .recovery_analysis_ns
                .saturating_add(other.recovery_analysis_ns),
            recovery_redo_ns: self.recovery_redo_ns.saturating_add(other.recovery_redo_ns),
            recovery_ring_reused: self
                .recovery_ring_reused
                .saturating_add(other.recovery_ring_reused),
            recovery_records_decoded: self
                .recovery_records_decoded
                .saturating_add(other.recovery_records_decoded),
            io_bytes_written: self.io_bytes_written.saturating_add(other.io_bytes_written),
            io_fsyncs: self.io_fsyncs.saturating_add(other.io_fsyncs),
            segments_rotated: self.segments_rotated.saturating_add(other.segments_rotated),
            segments_reclaimed: self
                .segments_reclaimed
                .saturating_add(other.segments_reclaimed),
            segments_recycled: self
                .segments_recycled
                .saturating_add(other.segments_recycled),
            forces_coalesced: self.forces_coalesced.saturating_add(other.forces_coalesced),
            double_buffer_overlap_ns: self
                .double_buffer_overlap_ns
                .saturating_add(other.double_buffer_overlap_ns),
            ckpt_objects_written: self
                .ckpt_objects_written
                .saturating_add(other.ckpt_objects_written),
            ckpt_objects_skipped: self
                .ckpt_objects_skipped
                .saturating_add(other.ckpt_objects_skipped),
            repl_segments_shipped: self
                .repl_segments_shipped
                .saturating_add(other.repl_segments_shipped),
            repl_bytes_shipped: self
                .repl_bytes_shipped
                .saturating_add(other.repl_bytes_shipped),
            repl_replay_lag_frames: self
                .repl_replay_lag_frames
                .saturating_add(other.repl_replay_lag_frames),
            // Watermarks are per-shard LSNs: summing them is meaningless, so
            // the aggregate reports the furthest-advanced one.
            repl_watermark_lsn: self.repl_watermark_lsn.max(other.repl_watermark_lsn),
            reads_snapshot: self.reads_snapshot.saturating_add(other.reads_snapshot),
            // Retained-version counts are real populations: sum them.
            versions_retained: self
                .versions_retained
                .saturating_add(other.versions_retained),
            versions_gced: self.versions_gced.saturating_add(other.versions_gced),
            // GC floors are per-shard LSNs, like the replica watermark.
            snapshot_oldest_si: self.snapshot_oldest_si.max(other.snapshot_oldest_si),
            log_records_logical: self
                .log_records_logical
                .saturating_add(other.log_records_logical),
            log_records_physical: self
                .log_records_physical
                .saturating_add(other.log_records_physical),
            log_bytes_logical: self
                .log_bytes_logical
                .saturating_add(other.log_bytes_logical),
            log_bytes_physical: self
                .log_bytes_physical
                .saturating_add(other.log_bytes_physical),
            ckpt_ops_converted: self
                .ckpt_ops_converted
                .saturating_add(other.ckpt_ops_converted),
            rw_nodes_visited: self.rw_nodes_visited.saturating_add(other.rw_nodes_visited),
            install_vars_objects: self
                .install_vars_objects
                .saturating_add(other.install_vars_objects),
            install_notx_objects: self
                .install_notx_objects
                .saturating_add(other.install_notx_objects),
        }
    }

    /// Counter deltas `self - earlier` (saturating).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            obj_reads: self.obj_reads.saturating_sub(earlier.obj_reads),
            obj_read_bytes: self.obj_read_bytes.saturating_sub(earlier.obj_read_bytes),
            obj_writes: self.obj_writes.saturating_sub(earlier.obj_writes),
            obj_write_bytes: self.obj_write_bytes.saturating_sub(earlier.obj_write_bytes),
            atomic_groups: self.atomic_groups.saturating_sub(earlier.atomic_groups),
            atomic_group_objects: self
                .atomic_group_objects
                .saturating_sub(earlier.atomic_group_objects),
            shadow_commits: self.shadow_commits.saturating_sub(earlier.shadow_commits),
            log_records: self.log_records.saturating_sub(earlier.log_records),
            log_bytes: self.log_bytes.saturating_sub(earlier.log_bytes),
            log_forces: self.log_forces.saturating_sub(earlier.log_forces),
            quiesces: self.quiesces.saturating_sub(earlier.quiesces),
            identity_writes: self.identity_writes.saturating_sub(earlier.identity_writes),
            redo_ops: self.redo_ops.saturating_sub(earlier.redo_ops),
            skipped_ops: self.skipped_ops.saturating_sub(earlier.skipped_ops),
            voided_ops: self.voided_ops.saturating_sub(earlier.voided_ops),
            backup_copies: self.backup_copies.saturating_sub(earlier.backup_copies),
            backup_bytes: self.backup_bytes.saturating_sub(earlier.backup_bytes),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            recovery_analysis_ns: self
                .recovery_analysis_ns
                .saturating_sub(earlier.recovery_analysis_ns),
            recovery_redo_ns: self
                .recovery_redo_ns
                .saturating_sub(earlier.recovery_redo_ns),
            recovery_ring_reused: self
                .recovery_ring_reused
                .saturating_sub(earlier.recovery_ring_reused),
            recovery_records_decoded: self
                .recovery_records_decoded
                .saturating_sub(earlier.recovery_records_decoded),
            io_bytes_written: self
                .io_bytes_written
                .saturating_sub(earlier.io_bytes_written),
            io_fsyncs: self.io_fsyncs.saturating_sub(earlier.io_fsyncs),
            segments_rotated: self
                .segments_rotated
                .saturating_sub(earlier.segments_rotated),
            segments_reclaimed: self
                .segments_reclaimed
                .saturating_sub(earlier.segments_reclaimed),
            segments_recycled: self
                .segments_recycled
                .saturating_sub(earlier.segments_recycled),
            forces_coalesced: self
                .forces_coalesced
                .saturating_sub(earlier.forces_coalesced),
            double_buffer_overlap_ns: self
                .double_buffer_overlap_ns
                .saturating_sub(earlier.double_buffer_overlap_ns),
            ckpt_objects_written: self
                .ckpt_objects_written
                .saturating_sub(earlier.ckpt_objects_written),
            ckpt_objects_skipped: self
                .ckpt_objects_skipped
                .saturating_sub(earlier.ckpt_objects_skipped),
            repl_segments_shipped: self
                .repl_segments_shipped
                .saturating_sub(earlier.repl_segments_shipped),
            repl_bytes_shipped: self
                .repl_bytes_shipped
                .saturating_sub(earlier.repl_bytes_shipped),
            repl_replay_lag_frames: self
                .repl_replay_lag_frames
                .saturating_sub(earlier.repl_replay_lag_frames),
            repl_watermark_lsn: self
                .repl_watermark_lsn
                .saturating_sub(earlier.repl_watermark_lsn),
            reads_snapshot: self.reads_snapshot.saturating_sub(earlier.reads_snapshot),
            versions_retained: self
                .versions_retained
                .saturating_sub(earlier.versions_retained),
            versions_gced: self.versions_gced.saturating_sub(earlier.versions_gced),
            snapshot_oldest_si: self
                .snapshot_oldest_si
                .saturating_sub(earlier.snapshot_oldest_si),
            log_records_logical: self
                .log_records_logical
                .saturating_sub(earlier.log_records_logical),
            log_records_physical: self
                .log_records_physical
                .saturating_sub(earlier.log_records_physical),
            log_bytes_logical: self
                .log_bytes_logical
                .saturating_sub(earlier.log_bytes_logical),
            log_bytes_physical: self
                .log_bytes_physical
                .saturating_sub(earlier.log_bytes_physical),
            ckpt_ops_converted: self
                .ckpt_ops_converted
                .saturating_sub(earlier.ckpt_ops_converted),
            rw_nodes_visited: self
                .rw_nodes_visited
                .saturating_sub(earlier.rw_nodes_visited),
            install_vars_objects: self
                .install_vars_objects
                .saturating_sub(earlier.install_vars_objects),
            install_notx_objects: self
                .install_notx_objects
                .saturating_sub(earlier.install_notx_objects),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_snapshot_reset() {
        let m = Metrics::new();
        Metrics::bump(&m.obj_writes, 3);
        Metrics::bump(&m.log_bytes, 100);
        let s = m.snapshot();
        assert_eq!(s.obj_writes, 3);
        assert_eq!(s.log_bytes, 100);
        assert_eq!(s.total_ios(), 3);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn json_has_every_counter_once() {
        let m = Metrics::new();
        Metrics::bump(&m.log_forces, 9);
        Metrics::bump(&m.evictions, 2);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for (name, value) in m.snapshot().fields() {
            let needle = format!("\"{name}\":{value}");
            assert!(json.contains(&needle), "missing {needle} in {json}");
            assert_eq!(json.matches(&format!("\"{name}\"")).count(), 1);
        }
        assert!(json.contains("\"log_forces\":9"));
        assert!(json.contains("\"evictions\":2"));
    }

    #[test]
    fn merged_sums_fieldwise() {
        let a = Metrics::new();
        let b = Metrics::new();
        Metrics::bump(&a.obj_writes, 3);
        Metrics::bump(&b.obj_writes, 4);
        Metrics::bump(&b.log_records, 11);
        let sum = a.snapshot().merged(&b.snapshot());
        assert_eq!(sum.obj_writes, 7);
        assert_eq!(sum.log_records, 11);
        // Identity: merging with default changes nothing.
        assert_eq!(sum.merged(&MetricsSnapshot::default()), sum);
        // Saturates rather than overflowing.
        let max = MetricsSnapshot {
            obj_writes: u64::MAX,
            ..MetricsSnapshot::default()
        };
        assert_eq!(max.merged(&sum).obj_writes, u64::MAX);
    }

    #[test]
    fn recovery_counters_round_trip() {
        let m = Metrics::new();
        Metrics::bump(&m.recovery_analysis_ns, 1_000);
        Metrics::bump(&m.recovery_redo_ns, 2_000);
        Metrics::bump(&m.recovery_ring_reused, 17);
        Metrics::bump(&m.recovery_records_decoded, 23);
        let s = m.snapshot();
        assert_eq!(s.recovery_ring_reused, 17);
        let json = s.to_json();
        for key in [
            "recovery_analysis_ns",
            "recovery_redo_ns",
            "recovery_ring_reused",
            "recovery_records_decoded",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert_eq!(s.merged(&s).recovery_records_decoded, 46);
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn backend_io_counters_round_trip() {
        let m = Metrics::new();
        Metrics::bump(&m.io_bytes_written, 4096);
        Metrics::bump(&m.io_fsyncs, 3);
        Metrics::bump(&m.segments_rotated, 2);
        Metrics::bump(&m.segments_reclaimed, 1);
        Metrics::bump(&m.ckpt_objects_written, 10);
        Metrics::bump(&m.ckpt_objects_skipped, 990);
        let s = m.snapshot();
        assert_eq!(s.io_bytes_written, 4096);
        assert_eq!(s.ckpt_objects_skipped, 990);
        let json = s.to_json();
        for key in [
            "io_bytes_written",
            "io_fsyncs",
            "segments_rotated",
            "segments_reclaimed",
            "ckpt_objects_written",
            "ckpt_objects_skipped",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert_eq!(s.merged(&s).io_fsyncs, 6);
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn fast_path_counters_round_trip() {
        let m = Metrics::new();
        Metrics::bump(&m.segments_recycled, 4);
        Metrics::bump(&m.forces_coalesced, 7);
        Metrics::bump(&m.double_buffer_overlap_ns, 1_500);
        let s = m.snapshot();
        assert_eq!(s.segments_recycled, 4);
        assert_eq!(s.forces_coalesced, 7);
        assert_eq!(s.double_buffer_overlap_ns, 1_500);
        let json = s.to_json();
        for key in [
            "segments_recycled",
            "forces_coalesced",
            "double_buffer_overlap_ns",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert_eq!(s.merged(&s).forces_coalesced, 14);
        assert_eq!(s.merged(&s).double_buffer_overlap_ns, 3_000);
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn replication_counters_round_trip() {
        let m = Metrics::new();
        Metrics::bump(&m.repl_segments_shipped, 5);
        Metrics::bump(&m.repl_bytes_shipped, 4096);
        Metrics::set_gauge(&m.repl_replay_lag_frames, 3);
        Metrics::set_gauge(&m.repl_watermark_lsn, 700);
        Metrics::set_gauge(&m.repl_watermark_lsn, 900); // gauges overwrite
        let s = m.snapshot();
        assert_eq!(s.repl_segments_shipped, 5);
        assert_eq!(s.repl_watermark_lsn, 900);
        let json = s.to_json();
        for key in [
            "repl_segments_shipped",
            "repl_bytes_shipped",
            "repl_replay_lag_frames",
            "repl_watermark_lsn",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        let merged = s.merged(&s);
        assert_eq!(merged.repl_bytes_shipped, 8192);
        // Watermarks merge by max, not sum: per-shard LSN spaces are
        // independent.
        assert_eq!(merged.repl_watermark_lsn, 900);
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_counters_round_trip() {
        let m = Metrics::new();
        Metrics::bump(&m.reads_snapshot, 12);
        Metrics::bump(&m.versions_gced, 5);
        Metrics::set_gauge(&m.versions_retained, 40);
        Metrics::set_gauge(&m.versions_retained, 33); // gauges overwrite
        Metrics::set_gauge(&m.snapshot_oldest_si, 210);
        let s = m.snapshot();
        assert_eq!(s.reads_snapshot, 12);
        assert_eq!(s.versions_retained, 33);
        assert_eq!(s.snapshot_oldest_si, 210);
        let json = s.to_json();
        for key in [
            "reads_snapshot",
            "versions_retained",
            "versions_gced",
            "snapshot_oldest_si",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        let merged = s.merged(&s);
        assert_eq!(merged.reads_snapshot, 24);
        assert_eq!(merged.versions_gced, 10);
        // Retained populations sum across shards; GC floors are per-shard
        // LSNs and merge by max.
        assert_eq!(merged.versions_retained, 66);
        assert_eq!(merged.snapshot_oldest_si, 210);
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn hybrid_logging_counters_round_trip() {
        let m = Metrics::new();
        Metrics::bump(&m.log_records_logical, 30);
        Metrics::bump(&m.log_records_physical, 12);
        Metrics::bump(&m.log_bytes_logical, 1_200);
        Metrics::bump(&m.log_bytes_physical, 9_000);
        Metrics::bump(&m.ckpt_ops_converted, 5);
        let s = m.snapshot();
        assert_eq!(s.log_records_logical, 30);
        assert_eq!(s.log_records_physical, 12);
        assert_eq!(s.ckpt_ops_converted, 5);
        let json = s.to_json();
        for key in [
            "log_records_logical",
            "log_records_physical",
            "log_bytes_logical",
            "log_bytes_physical",
            "ckpt_ops_converted",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        let merged = s.merged(&s);
        assert_eq!(merged.log_records_logical, 60);
        assert_eq!(merged.log_bytes_physical, 18_000);
        assert_eq!(merged.ckpt_ops_converted, 10);
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn write_graph_counters_round_trip() {
        let m = Metrics::new();
        Metrics::bump(&m.rw_nodes_visited, 40);
        Metrics::bump(&m.install_vars_objects, 7);
        Metrics::bump(&m.install_notx_objects, 2);
        let s = m.snapshot();
        assert_eq!(s.rw_nodes_visited, 40);
        let json = s.to_json();
        for key in [
            "rw_nodes_visited",
            "install_vars_objects",
            "install_notx_objects",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        let merged = s.merged(&s);
        assert_eq!(merged.rw_nodes_visited, 80);
        assert_eq!(merged.install_vars_objects, 14);
        assert_eq!(merged.install_notx_objects, 4);
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn since_computes_deltas() {
        let m = Metrics::new();
        Metrics::bump(&m.redo_ops, 5);
        let a = m.snapshot();
        Metrics::bump(&m.redo_ops, 7);
        let b = m.snapshot();
        assert_eq!(b.since(&a).redo_ops, 7);
        // Saturates rather than underflows.
        assert_eq!(a.since(&b).redo_ops, 0);
    }
}
