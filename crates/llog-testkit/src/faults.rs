//! Deterministic fault-injection substrate.
//!
//! A [`FaultHost`] is a thread-safe registry of *named failpoints*. Production
//! code paths that can fail in the real world (file writes, fsyncs,
//! background installs) consult the host at well-known points; tests and the
//! `llog-fuzz` binary arm exactly one fault per run and observe the fallout.
//!
//! Determinism guarantee: a [`FaultPlan`] is derived from a single `u64` seed
//! via the same SplitMix64 expansion used by [`crate::TestRng`], so the same
//! seed always yields the same `(step, point, kind)` schedule. The host itself
//! is single-shot — once a fault fires it disarms, so one armed plan produces
//! exactly one injected fault per run.
//!
//! The substrate lives in the testkit (which has no dependencies) so that
//! `llog-storage`, `llog-wal` and `llog-engine` can all consult it without
//! dependency cycles. Faults are reported back to callers as
//! [`InjectedFault`] values; consumers map them onto their own error taxonomy
//! (`LlogError::Io` in the workspace crates).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Canonical failpoint names threaded through the workspace.
pub mod failpoint {
    /// `Wal::force_with` — the force (fsync) path itself.
    pub const WAL_FORCE: &str = "wal.force";
    /// The sharded engine's force barrier, per shard, just before it forces.
    pub const FLUSHER_FORCE: &str = "flusher.force";
    /// The background installer, before installing one operation.
    pub const INSTALL: &str = "install";
    /// Device layer: appending frame bytes to the open WAL segment.
    pub const DEV_LOG_APPEND: &str = "device.log.append";
    /// Device layer: writing the WAL segment manifest (seal/rotate/truncate).
    pub const DEV_LOG_MANIFEST: &str = "device.log.manifest";
    /// Device layer: writing one incremental checkpoint delta file.
    pub const DEV_STORE_DELTA: &str = "device.store.delta";
    /// Device layer: writing the store checkpoint-manifest chain.
    pub const DEV_STORE_MANIFEST: &str = "device.store.manifest";
    /// The sharded engine's shared fsync barrier (the single device sync
    /// covering every shard that rides one barrier).
    pub const SCHED_SYNC: &str = "scheduler.sync";

    /// All failpoints, in a stable order (used by `FaultPlan::draw`).
    pub const ALL: &[&str] = &[
        WAL_FORCE,
        FLUSHER_FORCE,
        SCHED_SYNC,
        INSTALL,
        DEV_LOG_APPEND,
        DEV_LOG_MANIFEST,
        DEV_STORE_DELTA,
        DEV_STORE_MANIFEST,
    ];

    /// The device-layer write failpoints (used to restrict fault plans to the
    /// segmented backends in the Mem↔File differential oracle).
    pub const DEVICE: &[&str] = &[
        DEV_LOG_APPEND,
        DEV_LOG_MANIFEST,
        DEV_STORE_DELTA,
        DEV_STORE_MANIFEST,
    ];
}

/// The kind of fault to inject at a failpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Persist only the first `at_byte` bytes of the image / buffered tail.
    /// Models a torn (partial) write at a sector boundary.
    TornWrite {
        /// Byte count that survives (clamped to the image length).
        at_byte: u64,
    },
    /// An fsync that returns before all buffered bytes reach the platter:
    /// only `keep_bytes` of the buffered tail become durable.
    ShortFsync {
        /// Bytes that actually became durable (clamped).
        keep_bytes: u64,
    },
    /// The operation fails outright with an I/O error.
    IoError,
    /// One bit of the image flips (bit-rot / cosmic ray). `offset` is a bit
    /// offset, reduced modulo the image size at fire time.
    BitFlip {
        /// Bit offset, reduced modulo the image bit-length at fire time.
        offset: u64,
    },
    /// The page write never reaches the disk (lost/delayed write): the old
    /// image stays. On a write verdict this means "skip the write".
    DelayedWrite,
}

impl FaultKind {
    /// Short stable name, used in fired-fault logs and repro files.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::TornWrite { .. } => "torn_write",
            FaultKind::ShortFsync { .. } => "short_fsync",
            FaultKind::IoError => "io_error",
            FaultKind::BitFlip { .. } => "bit_flip",
            FaultKind::DelayedWrite => "delayed_write",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::TornWrite { at_byte } => write!(f, "torn_write{{at_byte={at_byte}}}"),
            FaultKind::ShortFsync { keep_bytes } => {
                write!(f, "short_fsync{{keep_bytes={keep_bytes}}}")
            }
            FaultKind::IoError => write!(f, "io_error"),
            FaultKind::BitFlip { offset } => write!(f, "bit_flip{{offset={offset}}}"),
            FaultKind::DelayedWrite => write!(f, "delayed_write"),
        }
    }
}

/// An injected I/O failure surfaced to the caller.
///
/// The testkit cannot depend on `llog-types`, so this is a standalone error;
/// workspace consumers convert it to `LlogError::Io { point, reason }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Failpoint name (one of [`failpoint`]'s constants).
    pub point: String,
    /// Human-readable description of the injected failure.
    pub reason: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}: {}", self.point, self.reason)
    }
}

impl std::error::Error for InjectedFault {}

/// Record of a fault that actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Failpoint at which the fault fired.
    pub point: String,
    /// The injected fault kind.
    pub kind: FaultKind,
}

/// Verdict for a whole-blob device write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteVerdict {
    /// Persist this (possibly mutated) image.
    Persist(Vec<u8>),
    /// Pretend success but write nothing (lost / delayed page write).
    Skip,
}

/// Verdict for the WAL force path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceVerdict {
    /// No fault armed here: force normally.
    Proceed,
    /// Only the first `n` buffered bytes reach stable storage (then crash).
    TearAt(usize),
    /// Force succeeds, then flip this bit somewhere in the newly-forced tail.
    FlipBit(u64),
    /// The force fails with an I/O error; the buffer is left intact.
    Fail,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thread-safe single-shot fault injector.
///
/// Arm at most one `(point, kind)` pair; the first code path that consults a
/// matching point consumes it. All mutation goes through a mutex so the host
/// can be shared across barrier/installer threads via `Arc`.
#[derive(Debug, Default)]
pub struct FaultHost {
    armed: Mutex<Option<(String, FaultKind)>>,
    fired: Mutex<Vec<FiredFault>>,
    consults: AtomicU64,
}

impl FaultHost {
    /// Create an empty host with nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm a single fault. Replaces any previously armed fault.
    pub fn arm(&self, point: &str, kind: FaultKind) {
        *lock(&self.armed) = Some((point.to_string(), kind));
    }

    /// True if a fault is currently armed (not yet fired).
    pub fn is_armed(&self) -> bool {
        lock(&self.armed).is_some()
    }

    /// Faults that have fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        lock(&self.fired).clone()
    }

    /// Number of failpoint consultations (fired or not). Useful to assert a
    /// path is actually instrumented.
    pub fn consults(&self) -> u64 {
        self.consults.load(Ordering::Relaxed)
    }

    fn take_if(&self, point: &str) -> Option<FaultKind> {
        self.consults.fetch_add(1, Ordering::Relaxed);
        let mut armed = lock(&self.armed);
        match &*armed {
            Some((p, _)) if p == point => {
                let (_, kind) = armed.take().unwrap();
                lock(&self.fired).push(FiredFault {
                    point: point.to_string(),
                    kind,
                });
                Some(kind)
            }
            _ => None,
        }
    }

    /// Consult a write failpoint with the image about to be persisted.
    ///
    /// Returns the verdict (possibly a mutated image) or an [`InjectedFault`]
    /// if the write should fail outright.
    pub fn on_write(&self, point: &str, image: &[u8]) -> Result<WriteVerdict, InjectedFault> {
        let Some(kind) = self.take_if(point) else {
            return Ok(WriteVerdict::Persist(image.to_vec()));
        };
        match kind {
            FaultKind::TornWrite { at_byte } => {
                let n = (at_byte as usize).min(image.len());
                Ok(WriteVerdict::Persist(image[..n].to_vec()))
            }
            FaultKind::ShortFsync { keep_bytes } => {
                let n = (keep_bytes as usize).min(image.len());
                Ok(WriteVerdict::Persist(image[..n].to_vec()))
            }
            FaultKind::IoError => Err(InjectedFault {
                point: point.to_string(),
                reason: "injected write error".to_string(),
            }),
            FaultKind::BitFlip { offset } => {
                let mut out = image.to_vec();
                if !out.is_empty() {
                    let bit = (offset as usize) % (out.len() * 8);
                    out[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(WriteVerdict::Persist(out))
            }
            FaultKind::DelayedWrite => Ok(WriteVerdict::Skip),
        }
    }

    /// Consult a force failpoint. `buffered` is the number of not-yet-forced
    /// bytes in the WAL buffer.
    pub fn on_force(&self, point: &str, buffered: usize) -> ForceVerdict {
        let Some(kind) = self.take_if(point) else {
            return ForceVerdict::Proceed;
        };
        match kind {
            FaultKind::TornWrite { at_byte } => {
                ForceVerdict::TearAt((at_byte as usize).min(buffered))
            }
            FaultKind::ShortFsync { keep_bytes } => {
                ForceVerdict::TearAt((keep_bytes as usize).min(buffered))
            }
            FaultKind::IoError => ForceVerdict::Fail,
            FaultKind::BitFlip { offset } => ForceVerdict::FlipBit(offset),
            // A delayed log write that has not reached the platter when the
            // machine dies is indistinguishable from a failed force.
            FaultKind::DelayedWrite => ForceVerdict::Fail,
        }
    }

    /// Consult the installer failpoint. Returns `true` if an injected fault
    /// fired (the installer should skip this round as if the device stalled).
    pub fn on_install(&self, point: &str) -> bool {
        self.take_if(point).is_some()
    }

    /// Consult a barrier-sync failpoint. Returns `true` if an injected fault
    /// fired: the shared fsync barrier failed and nothing staged behind it
    /// may be acknowledged (every coalesced force resolves `Failed`).
    pub fn on_sync(&self, point: &str) -> bool {
        self.take_if(point).is_some()
    }
}

// --- seeded fault plans ------------------------------------------------------

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A single planned fault: arm `kind` at `point` just before workload step
/// `step` (0-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// 0-based workload step before which the fault is armed.
    pub step: usize,
    /// Failpoint name (one of [`failpoint`]'s constants).
    pub point: String,
    /// The fault to arm.
    pub kind: FaultKind,
}

impl std::fmt::Display for PlannedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {} @ {}: {}", self.step, self.point, self.kind)
    }
}

/// Seeded fault plan. Same `(seed, steps, points)` ⇒ identical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// The planned faults (currently always exactly one).
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Draw a one-fault plan over `steps` workload steps restricted to the
    /// given failpoints (defaults to [`failpoint::ALL`] when empty).
    pub fn draw(seed: u64, steps: usize, points: &[&str]) -> Self {
        let points: &[&str] = if points.is_empty() {
            failpoint::ALL
        } else {
            points
        };
        let mut s = seed;
        let step = if steps == 0 {
            0
        } else {
            (splitmix64(&mut s) as usize) % steps
        };
        let point = points[(splitmix64(&mut s) as usize) % points.len()];
        let kind = Self::kind_for(point, &mut s);
        FaultPlan {
            seed,
            faults: vec![PlannedFault {
                step,
                point: point.to_string(),
                kind,
            }],
        }
    }

    /// Pick a fault kind valid for `point` (validity table below), seeded.
    ///
    /// | point          | valid kinds                                          |
    /// |----------------|------------------------------------------------------|
    /// | `wal.force` / `flusher.force` | torn, short_fsync, io_error, bit_flip |
    /// | `device.*`     | torn, short_fsync, io_error, bit_flip, delayed       |
    /// | `install` / `scheduler.sync`  | io_error                              |
    fn kind_for(point: &str, s: &mut u64) -> FaultKind {
        let r = splitmix64(s);
        let param = splitmix64(s) % 4096;
        match point {
            failpoint::DEV_LOG_APPEND
            | failpoint::DEV_LOG_MANIFEST
            | failpoint::DEV_STORE_DELTA
            | failpoint::DEV_STORE_MANIFEST => match r % 5 {
                0 => FaultKind::TornWrite { at_byte: param },
                1 => FaultKind::ShortFsync { keep_bytes: param },
                2 => FaultKind::IoError,
                3 => FaultKind::BitFlip { offset: param },
                _ => FaultKind::DelayedWrite,
            },
            failpoint::WAL_FORCE | failpoint::FLUSHER_FORCE => match r % 4 {
                0 => FaultKind::TornWrite { at_byte: param },
                1 => FaultKind::ShortFsync { keep_bytes: param },
                2 => FaultKind::IoError,
                _ => FaultKind::BitFlip { offset: param },
            },
            _ => FaultKind::IoError,
        }
    }
}

/// A hand-operated device `sync` (a slow, hung or broken disk). A test
/// wraps a log device's blob store so that its `sync` calls
/// [`SyncGate::pass`]; the gate then lets syncs through, parks them (a
/// force barrier held inside its sync), or fails them until told otherwise
/// (an I/O error that stays armed).
#[derive(Debug, Default)]
pub struct SyncGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    /// How many more syncs may pass (`None`: all of them).
    passes: Option<usize>,
    /// Syncs parked at the gate now.
    parked: usize,
    /// Syncs that have reached the gate so far.
    seen: u64,
    /// Fail every sync that passes.
    failing: bool,
}

impl SyncGate {
    /// Let `passes` more syncs through (`None`: all of them); the rest
    /// park until a later call lets them go.
    pub fn set(&self, passes: Option<usize>) {
        lock(&self.state).passes = passes;
        self.cv.notify_all();
    }

    /// Fail (or stop failing) every sync that passes the gate.
    pub fn set_failing(&self, failing: bool) {
        lock(&self.state).failing = failing;
    }

    /// Block until a sync is parked at the gate.
    pub fn wait_parked(&self) {
        let mut st = lock(&self.state);
        while st.parked == 0 {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Syncs that have reached the gate so far.
    pub fn seen(&self) -> u64 {
        lock(&self.state).seen
    }

    /// Called by the wrapped `sync`: park while no pass is left, then
    /// report whether the sync succeeds.
    pub fn pass(&self) -> Result<(), InjectedFault> {
        let mut st = lock(&self.state);
        st.seen += 1;
        st.parked += 1;
        self.cv.notify_all();
        while st.passes == Some(0) {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(n) = st.passes.as_mut() {
            *n -= 1;
        }
        st.parked -= 1;
        if st.failing {
            return Err(InjectedFault {
                point: "sync".to_string(),
                reason: "the sync gate fails every sync".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let a = FaultPlan::draw(42, 100, &[]);
        let b = FaultPlan::draw(42, 100, &[]);
        assert_eq!(a, b);
        let c = FaultPlan::draw(43, 100, &[]);
        assert_ne!(a, c, "different seeds should (almost always) differ");
    }

    #[test]
    fn plan_respects_point_restriction() {
        for seed in 0..64 {
            let p = FaultPlan::draw(seed, 10, &[failpoint::WAL_FORCE]);
            assert_eq!(p.faults[0].point, failpoint::WAL_FORCE);
            assert!(p.faults[0].step < 10);
        }
    }

    #[test]
    fn device_points_draw_valid_kinds() {
        for seed in 0..256 {
            let p = FaultPlan::draw(seed, 10, failpoint::DEVICE);
            let f = &p.faults[0];
            assert!(
                failpoint::DEVICE.contains(&f.point.as_str()),
                "plan escaped the device restriction: {f}"
            );
        }
    }

    #[test]
    fn host_is_single_shot() {
        let h = FaultHost::new();
        h.arm(failpoint::WAL_FORCE, FaultKind::IoError);
        assert!(h.is_armed());
        assert_eq!(h.on_force(failpoint::WAL_FORCE, 8), ForceVerdict::Fail);
        assert!(!h.is_armed());
        assert_eq!(h.on_force(failpoint::WAL_FORCE, 8), ForceVerdict::Proceed);
        assert_eq!(h.fired().len(), 1);
        assert_eq!(h.fired()[0].kind, FaultKind::IoError);
    }

    #[test]
    fn host_only_fires_matching_point() {
        let h = FaultHost::new();
        h.arm(failpoint::DEV_STORE_DELTA, FaultKind::IoError);
        assert_eq!(h.on_force(failpoint::WAL_FORCE, 8), ForceVerdict::Proceed);
        assert!(h.is_armed(), "non-matching consult must not consume");
        assert!(h.on_write(failpoint::DEV_STORE_DELTA, b"abc").is_err());
        assert!(!h.is_armed());
    }

    #[test]
    fn torn_write_truncates_clamped() {
        let h = FaultHost::new();
        h.arm(
            failpoint::DEV_STORE_DELTA,
            FaultKind::TornWrite { at_byte: 2 },
        );
        match h.on_write(failpoint::DEV_STORE_DELTA, b"abcdef").unwrap() {
            WriteVerdict::Persist(img) => assert_eq!(img, b"ab"),
            other => panic!("unexpected verdict {other:?}"),
        }
        h.arm(
            failpoint::DEV_STORE_DELTA,
            FaultKind::TornWrite { at_byte: 999 },
        );
        match h.on_write(failpoint::DEV_STORE_DELTA, b"abc").unwrap() {
            WriteVerdict::Persist(img) => assert_eq!(img, b"abc"),
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn bit_flip_flips_exactly_one_bit() {
        let h = FaultHost::new();
        h.arm(
            failpoint::DEV_STORE_DELTA,
            FaultKind::BitFlip { offset: 13 },
        );
        let img = vec![0u8; 4];
        let WriteVerdict::Persist(out) = h.on_write(failpoint::DEV_STORE_DELTA, &img).unwrap()
        else {
            panic!("a bit flip still persists the image");
        };
        let diff: u32 = img
            .iter()
            .zip(&out)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn bit_flip_empty_image_is_noop() {
        let h = FaultHost::new();
        h.arm(failpoint::DEV_STORE_DELTA, FaultKind::BitFlip { offset: 7 });
        match h.on_write(failpoint::DEV_STORE_DELTA, b"").unwrap() {
            WriteVerdict::Persist(img) => assert!(img.is_empty()),
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn delayed_write_skips() {
        let h = FaultHost::new();
        h.arm(failpoint::DEV_LOG_MANIFEST, FaultKind::DelayedWrite);
        assert_eq!(
            h.on_write(failpoint::DEV_LOG_MANIFEST, b"xyz").unwrap(),
            WriteVerdict::Skip
        );
    }

    #[test]
    fn short_fsync_on_force_clamps_to_buffered() {
        let h = FaultHost::new();
        h.arm(
            failpoint::WAL_FORCE,
            FaultKind::ShortFsync { keep_bytes: 100 },
        );
        assert_eq!(
            h.on_force(failpoint::WAL_FORCE, 10),
            ForceVerdict::TearAt(10)
        );
    }

    #[test]
    fn install_failpoint_fires_once() {
        let h = FaultHost::new();
        h.arm(failpoint::INSTALL, FaultKind::IoError);
        assert!(h.on_install(failpoint::INSTALL));
        assert!(!h.on_install(failpoint::INSTALL));
    }

    #[test]
    fn consult_counter_counts() {
        let h = FaultHost::new();
        assert_eq!(h.consults(), 0);
        let _ = h.on_force(failpoint::WAL_FORCE, 0);
        let _ = h.on_write(failpoint::DEV_STORE_DELTA, b"");
        assert_eq!(h.consults(), 2);
    }
}
