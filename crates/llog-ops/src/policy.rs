//! Per-operation choice of log representation (hybrid logging).
//!
//! A logical record (Figure 1(a)) is tiny but makes redo pay re-execution;
//! a physical-result record carries the post-images the engine just computed
//! and replays as a blind install. Neither wins universally: a cheap
//! deterministic transform should stay logical (the log stays small), while
//! an expensive one — an `appvm` step, a B-tree reorganization — should log
//! its results so recovery never re-executes it. [`LogPolicy`] picks per
//! operation; [`CostModel`] is the break-even rule the adaptive mode uses,
//! fed by the replay-cost EWMA the [`TransformRegistry`] maintains.

use llog_types::FnId;

use crate::transform::TransformRegistry;

/// How the engine logs each operation it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogPolicy {
    /// Always log the logical `Op` record (ids + transform params). The
    /// paper's baseline and the default.
    #[default]
    Logical,
    /// Always log a physical-result record (writeset ids + post-images).
    /// ARIES-style: redo is blind, the log carries every value.
    Physical,
    /// Per-operation break-even decision using measured replay cost.
    Adaptive(CostModel),
}

impl LogPolicy {
    /// Should the operation be logged as a physical result?
    ///
    /// `logical_len` / `physical_len` are the encoded payload sizes of the
    /// two candidate records; `fn_id` indexes the registry's replay-cost
    /// EWMA.
    pub fn prefer_physical(
        &self,
        registry: &TransformRegistry,
        fn_id: FnId,
        logical_len: usize,
        physical_len: usize,
    ) -> bool {
        match self {
            LogPolicy::Logical => false,
            LogPolicy::Physical => true,
            LogPolicy::Adaptive(model) => {
                model.prefer_physical(registry, fn_id, logical_len, physical_len)
            }
        }
    }

    /// Does this policy convert cold logical records to physical results at
    /// checkpoint time?
    pub fn converts_at_checkpoint(&self) -> bool {
        matches!(self, LogPolicy::Adaptive(_))
    }
}

/// Break-even rule: log physical when the measured replay cost of the
/// transform exceeds what the extra logged bytes are worth.
///
/// The comparison is `ewma_replay_ns > byte_cost_ns × (physical_len −
/// logical_len)`: one extra logged byte is budgeted at `byte_cost_ns`
/// nanoseconds of avoided redo work. When the physical encoding is no larger
/// than the logical one the physical record is a free win and is always
/// chosen. Until [`MIN_SAMPLES`] applications have been measured the model
/// stays conservative and logs logical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Replay nanoseconds one extra logged byte is worth.
    pub byte_cost_ns: u64,
}

/// Measurements required before a transform's replay-cost EWMA is trusted.
const MIN_SAMPLES: u64 = 4;

impl Default for CostModel {
    fn default() -> Self {
        CostModel { byte_cost_ns: 32 }
    }
}

impl CostModel {
    /// Apply the break-even rule for one operation.
    pub fn prefer_physical(
        &self,
        registry: &TransformRegistry,
        fn_id: FnId,
        logical_len: usize,
        physical_len: usize,
    ) -> bool {
        if physical_len <= logical_len {
            return true;
        }
        let (ewma_ns, samples) = registry.replay_cost(fn_id);
        if samples < MIN_SAMPLES {
            return false;
        }
        let extra = (physical_len - logical_len) as u64;
        ewma_ns > self.byte_cost_ns.saturating_mul(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::builtin;

    #[test]
    fn fixed_policies_ignore_the_model() {
        let r = TransformRegistry::with_builtins();
        assert!(!LogPolicy::Logical.prefer_physical(&r, builtin::HASH_MIX, 10, 10_000));
        assert!(LogPolicy::Physical.prefer_physical(&r, builtin::HASH_MIX, 10_000, 10));
        assert!(!LogPolicy::Logical.converts_at_checkpoint());
        assert!(!LogPolicy::Physical.converts_at_checkpoint());
        assert!(LogPolicy::Adaptive(CostModel::default()).converts_at_checkpoint());
    }

    #[test]
    fn adaptive_is_conservative_until_warm() {
        let r = TransformRegistry::with_builtins();
        let p = LogPolicy::Adaptive(CostModel::default());
        // No samples yet: a larger physical encoding stays logical.
        assert!(!p.prefer_physical(&r, builtin::HASH_MIX, 40, 400));
        // A physical record that is no larger is always a free win.
        assert!(p.prefer_physical(&r, builtin::HASH_MIX, 40, 40));
        assert!(p.prefer_physical(&r, builtin::HASH_MIX, 40, 12));
    }

    #[test]
    fn adaptive_goes_physical_once_replay_cost_dominates() {
        let r = TransformRegistry::with_builtins();
        let p = LogPolicy::Adaptive(CostModel { byte_cost_ns: 32 });
        // Seed a measured replay cost of 1ms: far above 32ns × 100 bytes.
        for _ in 0..MIN_SAMPLES {
            r.note_replay_cost(builtin::HASH_MIX, 1_000_000);
        }
        assert!(p.prefer_physical(&r, builtin::HASH_MIX, 40, 140));
        // A cheap transform with the same sizes stays logical.
        for _ in 0..MIN_SAMPLES {
            r.note_replay_cost(builtin::INCREMENT, 100);
        }
        assert!(!p.prefer_physical(&r, builtin::INCREMENT, 40, 140));
    }
}
