//! The shared cost ledger, and the table every counter ledger is declared
//! with.
//!
//! One `Metrics` instance is threaded through the stable store, the WAL and
//! the cache manager so an experiment reads its whole cost picture from one
//! place. Counters are atomics: cheap, `Send + Sync`, and usable from
//! Criterion benches without interior-mutability gymnastics.
//!
//! Every counter is one line of a [`counters!`](crate::counters) table: a
//! doc line, a name and a merge rule. The atomic ledger, its snapshot,
//! `merged`/`since`, JSON and the wire decoder are generated from it, so a
//! new counter is one line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How two snapshots of one counter combine when ledgers are aggregated
/// (per-shard ledgers into one cost picture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Saturating sum: event counts and populations.
    Sum,
    /// Maximum: per-shard LSNs and high-water marks, where a sum means
    /// nothing.
    Max,
}

/// Declare a counter ledger and its snapshot from one table:
///
/// ```
/// llog_storage::counters! {
///     /// The atomic ledger.
///     pub struct Ledger;
///     /// Its point-in-time copy.
///     pub struct LedgerSnapshot;
///     /// Events seen.
///     events: sum,
///     /// Largest batch seen.
///     peak: max,
/// }
/// let l = Ledger::default();
/// l.events.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(l.snapshot().to_json(), r#"{"events":3,"peak":0}"#);
/// ```
///
/// The ledger gets `pub AtomicU64` fields, `snapshot`, `reset` and
/// `atomics`; the snapshot (`Copy + Default + Eq`, `pub u64` fields) gets
/// `LEN`, `COUNTERS`, `fields`, `merged` (each counter by its rule),
/// `since` (saturating), `to_json` and `from_values` (table order).
#[macro_export]
macro_rules! counters {
    (@merge sum, $a:expr, $b:expr) => { $a.saturating_add($b) };
    (@merge max, $a:expr, $b:expr) => { ::std::cmp::Ord::max($a, $b) };
    (@rule sum) => { $crate::metrics::Merge::Sum };
    (@rule max) => { $crate::metrics::Merge::Max };
    (
        $(#[$lmeta:meta])* $lvis:vis struct $Ledger:ident;
        $(#[$smeta:meta])* $svis:vis struct $Snap:ident;
        $($(#[$doc:meta])* $name:ident: $rule:ident,)+
    ) => {
        $(#[$lmeta])*
        #[derive(Debug, Default)]
        $lvis struct $Ledger {
            $($(#[$doc])* pub $name: ::std::sync::atomic::AtomicU64,)+
        }

        #[allow(dead_code)]
        impl $Ledger {
            /// Take a point-in-time copy.
            pub fn snapshot(&self) -> $Snap {
                let g = |c: &::std::sync::atomic::AtomicU64| {
                    c.load(::std::sync::atomic::Ordering::Relaxed)
                };
                $Snap { $($name: g(&self.$name),)+ }
            }

            /// Reset every counter to zero (between experiment phases).
            pub fn reset(&self) {
                for c in self.atomics() {
                    c.store(0, ::std::sync::atomic::Ordering::Relaxed);
                }
            }

            /// Every counter, in table order.
            pub fn atomics(&self) -> [&::std::sync::atomic::AtomicU64; $Snap::LEN] {
                [$(&self.$name,)+]
            }
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $Snap {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl $Snap {
            /// Number of counters in the table.
            pub const LEN: usize = [$(stringify!($name),)+].len();

            /// Every counter's name and merge rule, in table order.
            pub const COUNTERS: [(&'static str, $crate::metrics::Merge); $Snap::LEN] =
                [$((stringify!($name), $crate::counters!(@rule $rule)),)+];

            /// Every counter as a `(name, value)` pair, in table order.
            pub fn fields(&self) -> [(&'static str, u64); $Snap::LEN] {
                [$((stringify!($name), self.$name),)+]
            }

            /// Combine with `other`, each counter by its table rule.
            pub fn merged(&self, other: &$Snap) -> $Snap {
                $Snap { $($name: $crate::counters!(@merge $rule, self.$name, other.$name),)+ }
            }

            /// Counter deltas `self - earlier` (saturating).
            pub fn since(&self, earlier: &$Snap) -> $Snap {
                $Snap { $($name: self.$name.saturating_sub(earlier.$name),)+ }
            }

            /// One flat JSON object, keys in table order.
            pub fn to_json(&self) -> String {
                $crate::metrics::json_object(&self.fields())
            }

            /// Rebuild from values in table order; `None` unless there are
            /// exactly [`LEN`](Self::LEN) of them.
            pub fn from_values(values: &[u64]) -> Option<$Snap> {
                let [$($name,)+] = <[u64; $Snap::LEN]>::try_from(values).ok()?;
                Some($Snap { $($name,)+ })
            }
        }
    };
}

/// `{"name":value,...}` — the JSON every generated `to_json` writes.
#[doc(hidden)]
pub fn json_object(fields: &[(&str, u64)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(32 * fields.len());
    s.push('{');
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{value}");
    }
    s.push('}');
    s
}

counters! {
    /// Event counters for one engine instance.
    pub struct Metrics;
    /// A point-in-time copy of [`Metrics`], with plain integer fields.
    pub struct MetricsSnapshot;
    /// Object reads from the stable store.
    obj_reads: sum,
    /// Bytes read from the stable store.
    obj_read_bytes: sum,
    /// Object writes to the stable store (each is one device I/O).
    obj_writes: sum,
    /// Bytes written to the stable store.
    obj_write_bytes: sum,
    /// Multi-object atomic flush groups performed (shadow or flush-txn).
    atomic_groups: sum,
    /// Objects written inside atomic groups.
    atomic_group_objects: sum,
    /// Shadow-root commit writes (the System R "pointer swing").
    shadow_commits: sum,
    /// Log records appended.
    log_records: sum,
    /// Log bytes appended (framing + payload).
    log_bytes: sum,
    /// Log forces (synchronous stable-log writes).
    log_forces: sum,
    /// System quiesce events (§4: flush transactions freeze updaters).
    quiesces: sum,
    /// Identity writes issued by the cache manager (§4).
    identity_writes: sum,
    /// Operations re-executed during redo recovery.
    redo_ops: sum,
    /// Logged operations bypassed by the REDO test during recovery.
    skipped_ops: sum,
    /// Trial re-executions voided during recovery (§5 cases 2b/2c).
    voided_ops: sum,
    /// Objects copied to a fuzzy backup (sweep + copy-before-overwrite).
    backup_copies: sum,
    /// Bytes copied to a fuzzy backup.
    backup_bytes: sum,
    /// Clean objects evicted from the cache under pressure.
    evictions: sum,
    /// Nanoseconds spent in the recovery analysis pass.
    recovery_analysis_ns: sum,
    /// Nanoseconds spent in the recovery redo pass.
    recovery_redo_ns: sum,
    /// Op records replayed straight from the analysis ring (no re-decode).
    recovery_ring_reused: sum,
    /// Log records decoded during recovery (analysis + any gap rescans).
    recovery_records_decoded: sum,
    /// Bytes written through a durability device (segments, deltas, manifests).
    io_bytes_written: sum,
    /// Device-level fsync (force-to-durable) calls.
    io_fsyncs: sum,
    /// WAL segments sealed and rotated by a log device.
    segments_rotated: sum,
    /// Whole WAL segments reclaimed by truncate-below.
    segments_reclaimed: sum,
    /// Retired segment blobs recycled into a new open segment (preallocating devices).
    segments_recycled: sum,
    /// Shard forces that rode another shard's fsync barrier instead of paying their own.
    forces_coalesced: sum,
    /// Nanoseconds of fsync time during which appends kept flowing into the staging buffer.
    double_buffer_overlap_ns: sum,
    /// Objects written by incremental checkpoints (dirty since last ckpt).
    ckpt_objects_written: sum,
    /// Objects skipped by incremental checkpoints (clean since last ckpt).
    ckpt_objects_skipped: sum,
    /// Log chunks shipped to replication subscribers.
    repl_segments_shipped: sum,
    /// Log bytes shipped to replication subscribers.
    repl_bytes_shipped: sum,
    /// Gauge: frames between the durable end and the last reported replica watermark.
    repl_replay_lag_frames: sum,
    /// Gauge: the most recently observed replayed-LSN watermark (a per-shard LSN).
    repl_watermark_lsn: max,
    /// Reads served from the lock-free snapshot path (no engine mutex, no commit pipeline).
    reads_snapshot: sum,
    /// Gauge: versions currently retained in the MVCC version store (a population).
    versions_retained: sum,
    /// Versions reclaimed by the snapshot-watermark GC.
    versions_gced: sum,
    /// Gauge: the SI floor of the last GC pass (a per-shard LSN).
    snapshot_oldest_si: max,
    /// rW nodes touched by reachability searches, reader lookups and minimal-node picks.
    rw_nodes_visited: sum,
    /// Σ|vars(n)| over installed nodes: objects flushed to install.
    install_vars_objects: sum,
    /// Σ|Notx(n)| over installed nodes: objects installed without a flush.
    install_notx_objects: sum,
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

    /// Overwrite a gauge-style counter (replication watermark/lag) with the
    /// latest observed value rather than accumulating.
    pub fn set_gauge(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Total device I/O operations: object writes + object reads + forces.
    pub fn total_ios(&self) -> u64 {
        self.obj_writes + self.obj_reads + self.log_forces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_gauge_snapshot_reset() {
        let m = Metrics::new();
        Metrics::bump(&m.obj_writes, 3);
        Metrics::bump(&m.log_bytes, 100);
        Metrics::set_gauge(&m.versions_retained, 40);
        Metrics::set_gauge(&m.versions_retained, 33); // gauges overwrite
        let s = m.snapshot();
        assert_eq!(s.obj_writes, 3);
        assert_eq!(s.log_bytes, 100);
        assert_eq!(s.versions_retained, 33);
        assert_eq!(s.total_ios(), 3);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    /// Every table line, checked through the generated code: the atomic
    /// reaches the snapshot, the JSON key appears once, the merge rule
    /// holds (sums saturate, maxima take the larger), `since` saturates
    /// and `reset` clears. Counter `i` holds `i + 1`, so a swapped pair
    /// anywhere shows.
    #[test]
    fn every_counter_follows_its_table_line() {
        let m = Metrics::new();
        for (i, c) in m.atomics().into_iter().enumerate() {
            Metrics::bump(c, i as u64 + 1);
        }
        let s = m.snapshot();
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        let values: Vec<u64> = s.fields().iter().map(|(_, v)| *v).collect();
        assert_eq!(MetricsSnapshot::from_values(&values), Some(s));
        assert_eq!(MetricsSnapshot::from_values(&values[1..]), None);
        let ones = MetricsSnapshot::from_values(&[1; MetricsSnapshot::LEN]).unwrap();
        let full = MetricsSnapshot::from_values(&[u64::MAX; MetricsSnapshot::LEN]).unwrap();
        let (twice, saturated, over_ones) = (s.merged(&s), full.merged(&s), s.merged(&ones));
        assert_eq!(
            s.merged(&MetricsSnapshot::default()),
            s,
            "default is the identity"
        );
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        assert_eq!(
            s.since(&full),
            MetricsSnapshot::default(),
            "since saturates"
        );
        for (i, (name, v)) in s.fields().into_iter().enumerate() {
            let (rule_name, rule) = MetricsSnapshot::COUNTERS[i];
            assert_eq!(rule_name, name);
            assert_eq!(v, i as u64 + 1, "{name}");
            assert!(
                json.contains(&format!("\"{name}\":{v}")),
                "{name} in {json}"
            );
            assert_eq!(json.matches(&format!("\"{name}\"")).count(), 1, "{name}");
            let (t, sat, o) = (
                twice.fields()[i].1,
                saturated.fields()[i].1,
                over_ones.fields()[i].1,
            );
            assert_eq!(sat, u64::MAX, "{name} saturates");
            match rule {
                Merge::Sum => assert_eq!((t, o), (2 * v, v + 1), "{name} sums"),
                Merge::Max => assert_eq!((t, o), (v, v), "{name} takes the max"),
            }
            assert_eq!(twice.since(&s).fields()[i].1, t - v, "{name} since");
        }
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    /// The JSON keys and their order are an interface (`llogtool stats`,
    /// the bench harness, the Stats wire): pin them, and which counters
    /// merge by max — per-shard LSNs, where a sum means nothing.
    #[test]
    fn table_keys_order_and_rules_are_pinned() {
        let pinned = "obj_reads obj_read_bytes obj_writes obj_write_bytes atomic_groups \
            atomic_group_objects shadow_commits log_records log_bytes log_forces quiesces \
            identity_writes redo_ops skipped_ops voided_ops backup_copies backup_bytes \
            evictions recovery_analysis_ns recovery_redo_ns recovery_ring_reused \
            recovery_records_decoded io_bytes_written io_fsyncs segments_rotated \
            segments_reclaimed segments_recycled forces_coalesced double_buffer_overlap_ns \
            ckpt_objects_written ckpt_objects_skipped repl_segments_shipped repl_bytes_shipped \
            repl_replay_lag_frames repl_watermark_lsn reads_snapshot versions_retained \
            versions_gced snapshot_oldest_si rw_nodes_visited install_vars_objects \
            install_notx_objects";
        let pinned: Vec<&str> = pinned.split_whitespace().collect();
        let keys: Vec<&str> = MetricsSnapshot::COUNTERS.iter().map(|(n, _)| *n).collect();
        assert_eq!(keys, pinned);
        assert_eq!(MetricsSnapshot::LEN, 42);
        let json = MetricsSnapshot::default().to_json();
        let expected: Vec<String> = pinned.iter().map(|k| format!("\"{k}\":0")).collect();
        assert_eq!(json, format!("{{{}}}", expected.join(",")));
        let maxed: Vec<&str> = MetricsSnapshot::COUNTERS
            .iter()
            .filter(|(_, r)| *r == Merge::Max)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(maxed, ["repl_watermark_lsn", "snapshot_oldest_si"]);
    }
}
