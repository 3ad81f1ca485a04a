//! Aggregated accounting for a sharded engine.

use std::fmt::Write as _;

use llog_storage::MetricsSnapshot;

llog_storage::counters! {
    /// Monotonic event counters for one shard's commit pipeline.
    pub(crate) struct ShardCounters;
    /// Point-in-time counters for the group-commit pipeline, summed across
    /// shards (or for one shard).
    pub struct GroupCommitSnapshot;
    /// Group-commit batches: force-barrier rides that made at least one
    /// `CommitPolicy::Group` operation durable.
    batches: sum,
    /// Operations those batches covered.
    batched_ops: sum,
    /// Largest single batch observed on any shard.
    max_batch: max,
    /// Synchronous one-op commits (under `CommitPolicy::Sync`).
    sync_commits: sum,
    /// Completed `CommitTicket::wait` calls.
    waits: sum,
    /// Total nanoseconds ticket waiters spent blocked on durability.
    flush_wait_ns: sum,
    /// Times `execute` parked on a full uninstalled window.
    backpressure_waits: sum,
}

impl GroupCommitSnapshot {
    /// Mean operations per batched force (0 if no batches yet).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_ops as f64 / self.batches as f64
        }
    }

    /// Mean nanoseconds a `wait` spent blocked (0 if no waits yet).
    pub fn mean_wait_ns(&self) -> f64 {
        if self.waits == 0 {
            0.0
        } else {
            self.flush_wait_ns as f64 / self.waits as f64
        }
    }
}

/// The whole sharded engine's cost picture at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedSnapshot {
    /// Number of shards.
    pub shards: usize,
    /// Per-shard storage/log ledgers summed (see
    /// [`MetricsSnapshot::merged`]).
    pub aggregate: MetricsSnapshot,
    /// Group-commit pipeline counters summed across shards.
    pub group_commit: GroupCommitSnapshot,
    /// Each shard's own ledger, in shard order.
    pub per_shard: Vec<MetricsSnapshot>,
}

impl ShardedSnapshot {
    /// One JSON document:
    /// `{"shards":N,"aggregate":{...},"group_commit":{...},"per_shard":[...]}`.
    pub fn to_json(&self) -> String {
        let gc = &self.group_commit;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"shards\":{},\"aggregate\":{},\"group_commit\":{},\"mean_batch\":{:.2},\
             \"mean_wait_ns\":{:.1}}},\"per_shard\":[",
            self.shards,
            self.aggregate.to_json(),
            gc.to_json().trim_end_matches('}'),
            gc.mean_batch(),
            gc.mean_wait_ns(),
        );
        for (i, m) in self.per_shard.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&m.to_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_sums_and_maxes() {
        // batches, batched_ops, max_batch, sync_commits, waits,
        // flush_wait_ns, backpressure_waits — in table order.
        let a = GroupCommitSnapshot::from_values(&[2, 10, 6, 1, 3, 300, 1]).unwrap();
        let b = GroupCommitSnapshot::from_values(&[1, 4, 4, 0, 1, 100, 0]).unwrap();
        let m = a.merged(&b);
        assert_eq!(m.batches, 3);
        assert_eq!(m.batched_ops, 14);
        assert_eq!(m.max_batch, 6, "max_batch merges by max, not sum");
        assert_eq!(m.waits, 4);
        assert!((m.mean_batch() - 14.0 / 3.0).abs() < 1e-9);
        assert!((m.mean_wait_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn means_are_zero_without_events() {
        let z = GroupCommitSnapshot::default();
        assert_eq!(z.mean_batch(), 0.0);
        assert_eq!(z.mean_wait_ns(), 0.0);
    }

    #[test]
    fn sharded_json_shape() {
        let snap = ShardedSnapshot {
            shards: 2,
            aggregate: MetricsSnapshot::default(),
            group_commit: GroupCommitSnapshot::default(),
            per_shard: vec![MetricsSnapshot::default(), MetricsSnapshot::default()],
        };
        let json = snap.to_json();
        assert!(json.starts_with("{\"shards\":2,"));
        for key in ["\"aggregate\":", "\"group_commit\":", "\"per_shard\":["] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"log_forces\"").count(), 3, "agg + 2 shards");
        assert!(json.contains(
            "\"group_commit\":{\"batches\":0,\"batched_ops\":0,\"max_batch\":0,\"sync_commits\":0,\
             \"waits\":0,\"flush_wait_ns\":0,\"backpressure_waits\":0,\"mean_batch\":0.00,\
             \"mean_wait_ns\":0.0},\"per_shard\""
        ));
        assert!(json.ends_with("]}"));
    }
}
