//! Recovery: the single-pass analysis/redo pipeline (`Recover`, Figure 2).
//!
//! Recovery reads the master record for the last stable checkpoint, rebuilds
//! the dirty object table from checkpoint + installation + operation records
//! and starts the redo scan past what the store's vSIs witness
//! (*analysis*), completes any committed flush transactions, then
//! re-executes exactly the operations the configured [`RedoPolicy`] selects
//! (*redo*). Redone operations are re-attached to a fresh [`Engine`] —
//! cache, dirty table and write graph are rebuilt, so normal operation (and
//! a second crash) can follow seamlessly; that is what makes recovery
//! idempotent (Theorem 2).
//!
//! There is one pipeline, [`recover`]: analysis retains decoded op records
//! at or after the running min-dirty LSN in a ring, so the redo phase
//! replays straight from memory and stable bytes are decoded exactly once.
//! Where the ring under-covers (a checkpoint dirty table reaching behind the
//! scan start, or pruning slack) a gap rescan re-decodes only the missing
//! prefix `[redo_start, ring floor)`.
//!
//! [`recover_two_pass`] is the reference the pipeline is tested against: the
//! legacy analysis scan followed by a second scan from `redo_start`. It is
//! the same code with an empty ring — the "gap" is then the whole redo
//! range — so the analysis state machine, the REDO test and the replay loop
//! exist once.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

use llog_ops::{OpKind, Operation, TransformRegistry};
use llog_storage::{Metrics, StableStore};
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};
use llog_wal::{LogRecord, Wal};

use crate::cache::{Engine, EngineConfig};
use crate::redo::{dead_records, should_redo, RedoContext, RedoPolicy};

/// What recovery did — the quantities experiments E5/E6 report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Records visited by the analysis pass.
    pub analysis_scanned: u64,
    /// Records visited by the redo pass.
    pub redo_scanned: u64,
    /// Operations re-executed.
    pub redone: u64,
    /// Operation records bypassed by the REDO test (including dead records
    /// of transient objects).
    pub skipped: u64,
    /// Uninstalled deletes applied (cheap; counted separately from redone).
    pub deletes_applied: u64,
    /// Trial executions voided (§5 cases 2b/2c).
    pub voided: u64,
    /// Where the redo scan started.
    pub redo_start: Lsn,
    /// Flush-transaction values reapplied from the log.
    pub ftxn_replayed: u64,
    /// The log ended in a torn record (expected after a mid-force crash).
    pub torn_tail: bool,
}

/// Result of the analysis pass.
#[derive(Debug, Clone, Default)]
struct Analysis {
    dirty: BTreeMap<ObjectId, Lsn>,
    /// Values of committed flush transactions, in log order.
    ftxn_values: Vec<(ObjectId, Value, Lsn)>,
    redo_start: Lsn,
    scanned: u64,
    torn_tail: bool,
    max_op_id: Option<u64>,
}

/// Recompute the running ring lower bound every this many retained ops.
const PRUNE_INTERVAL: usize = 256;

/// The analysis state machine, one [`step`](Analyzer::step) per log record.
///
/// With `retain` set it also keeps the single-pass op ring: every decoded
/// `Op` record is pushed, and records provably below the final redo start
/// (their LSN is under the running min-dirty LSN, and per-object rSIs only
/// advance during a forward scan) are pruned periodically. `ring_from` is
/// the ring's coverage floor: the ring holds **every** op record with LSN
/// in `[ring_from, scan end)`, so the redo phase re-decodes, at most, the
/// gap `[redo_start, ring_from)`. Without `retain` the ring covers nothing
/// (`ring_from` is `Lsn::MAX`) and the gap is the whole redo range.
///
/// `Install` records at or above the store's
/// [`installed_through`](StableStore::installed_through) bound are
/// ignored: they advance rSIs past installations the recovered store never
/// received, so the operations they cover must stay dirty and be redone.
///
/// A flush logs nothing, so the dirty table cannot say which objects the
/// store already holds. The store can: an update at or below an object's
/// vSI is installed (installation follows write order), so the REDO test
/// never selects an operation for it. The dirty table stays as the log
/// says — the REDO test confirms its candidates against vSIs — but the
/// redo scan starts at the lowest [`Analyzer::redo_bound`], kept per
/// object in `pins`.
struct Analyzer<'s> {
    a: Analysis,
    pending_ftxn: Vec<(ObjectId, Value, Lsn)>,
    retain: bool,
    prune: bool,
    ring: VecDeque<(Lsn, Operation)>,
    ring_from: Lsn,
    /// LSN of every record the analysis scan decoded (ascending) — lets the
    /// redo phase report `redo_scanned` without a second scan.
    lsns: Vec<Lsn>,
    since_prune: usize,
    store: &'s StableStore,
    scan_from: Lsn,
    /// The first update past the store's vSI, per object the scan saw
    /// written with one.
    first_past: BTreeMap<ObjectId, Lsn>,
    /// [`Analyzer::redo_bound`] of every dirty object that has one.
    pins: BTreeMap<ObjectId, Lsn>,
}

impl<'s> Analyzer<'s> {
    fn new(
        scan_from: Lsn,
        seeded_dirty: BTreeMap<ObjectId, Lsn>,
        retain: bool,
        prune: bool,
        store: &'s StableStore,
    ) -> Analyzer<'s> {
        let seeded: Vec<ObjectId> = seeded_dirty.keys().copied().collect();
        let mut an = Analyzer {
            a: Analysis {
                dirty: seeded_dirty,
                ..Analysis::default()
            },
            pending_ftxn: Vec::new(),
            retain,
            prune,
            ring: VecDeque::new(),
            ring_from: if retain { scan_from } else { Lsn::MAX },
            lsns: Vec::new(),
            since_prune: 0,
            store,
            scan_from,
            first_past: BTreeMap::new(),
            pins: BTreeMap::new(),
        };
        for x in seeded {
            an.repin(x);
        }
        an
    }

    fn step(&mut self, lsn: Lsn, rec: LogRecord) {
        self.a.scanned += 1;
        if self.retain {
            self.lsns.push(lsn);
        }
        match rec {
            LogRecord::Op(op) => {
                self.a.max_op_id = Some(self.a.max_op_id.map_or(op.id.0, |m| m.max(op.id.0)));
                for &x in &op.writes {
                    let newly_dirty = match self.a.dirty.entry(x) {
                        Entry::Vacant(e) => {
                            e.insert(lsn);
                            true
                        }
                        Entry::Occupied(_) => false,
                    };
                    // Only an object with an update past its vSI can pin.
                    let moved = match self.first_past.entry(x) {
                        Entry::Occupied(_) => newly_dirty,
                        Entry::Vacant(e) => {
                            let past = lsn > self.store.read_vsi(x);
                            if past {
                                e.insert(lsn);
                            }
                            past
                        }
                    };
                    if moved {
                        self.repin(x);
                    }
                }
                if self.retain {
                    self.ring.push_back((lsn, op));
                    self.since_prune += 1;
                    if self.prune && self.since_prune >= PRUNE_INTERVAL {
                        self.since_prune = 0;
                        self.prune_ring(lsn);
                    }
                }
            }
            LogRecord::Install(_) if lsn >= self.store.installed_through() => {}
            LogRecord::Install(ir) => {
                for (x, rsi) in ir.objs {
                    if rsi == Lsn::MAX {
                        self.a.dirty.remove(&x);
                    } else {
                        self.a.dirty.insert(x, rsi);
                    }
                    self.repin(x);
                }
            }
            LogRecord::FlushTxnBegin { .. } => self.pending_ftxn.clear(),
            LogRecord::FlushTxnValue { obj, value, vsi } => {
                self.pending_ftxn.push((obj, value, vsi));
            }
            LogRecord::FlushTxnCommit => {
                self.a.ftxn_values.append(&mut self.pending_ftxn);
            }
            LogRecord::Checkpoint(cp) => {
                // A later checkpoint than the master (its force may have
                // carried it to disk before the crash): adopt its table on
                // top of what we've accumulated — it is a superset summary.
                for (x, rsi) in cp.dirty {
                    if let Entry::Vacant(e) = self.a.dirty.entry(x) {
                        e.insert(rsi);
                        self.repin(x);
                    }
                }
            }
        }
    }

    /// Drop retained ops below the running minimum pin: the final
    /// `redo_start` is the minimum pin at scan end, and pins only join at
    /// the (monotonically increasing) current scan position or move
    /// forward via installs, so ops already below today's minimum stay
    /// below tomorrow's. Even if a handcrafted log violates that, the gap
    /// rescan keeps the result correct — this is purely the memory-bound
    /// optimization.
    fn prune_ring(&mut self, at: Lsn) {
        // No pin means nothing so far can be redone: any future redo start
        // is at or past the current position.
        let m = self.pins.values().copied().min().unwrap_or(at);
        while self.ring.front().is_some_and(|(l, _)| *l < m) {
            self.ring.pop_front();
        }
        self.ring_from = self.ring_from.max(m);
    }

    /// The lowest LSN at which the REDO test could select an operation
    /// because of `x`: an update of `x` at or past its rSI that the store's
    /// vSI does not witness. `None` if `x` is clean or has no such update.
    ///
    /// An rSI names the first update that was still uninstalled when a
    /// record at or past the scan start was logged. A vSI at or past it
    /// comes from a later flush, which wrote the object's last update of
    /// that moment, so every update before the scan start is witnessed and
    /// the scan saw the rest. Only a vSI below an rSI below the scan start
    /// leaves unread updates that the REDO test may select.
    fn redo_bound(&self, x: ObjectId) -> Option<Lsn> {
        let rsi = *self.a.dirty.get(&x)?;
        if rsi < self.scan_from && self.store.read_vsi(x) < rsi {
            return Some(rsi);
        }
        self.first_past.get(&x).map(|&f| f.max(rsi))
    }

    /// Recompute `x`'s pin after its dirty entry or first update past the
    /// store's vSI changed.
    fn repin(&mut self, x: ObjectId) {
        match self.redo_bound(x) {
            Some(b) => self.pins.insert(x, b),
            None => self.pins.remove(&x),
        };
    }
}

/// One forward scan of `[from, until)`, handing each record to `visit`.
///
/// Corruption is classified with [`Wal::corruption_is_torn_tail`]: a torn
/// tail (at or after the last force boundary) cleanly ends the scan and
/// returns `true`, while mid-log corruption — damage inside a previously
/// forced prefix — is a hard error.
fn scan_log(
    wal: &Wal,
    from: Lsn,
    until: Lsn,
    mut visit: impl FnMut(Lsn, LogRecord),
) -> Result<bool> {
    for item in wal.scan(from) {
        match item {
            Ok((lsn, _)) if lsn >= until => break,
            Ok((lsn, rec)) => visit(lsn, rec),
            Err(LlogError::Corrupt { offset, reason }) => {
                if wal.corruption_is_torn_tail(offset) {
                    return Ok(true);
                }
                return Err(LlogError::Corrupt { offset, reason });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// Run the analysis scan from the master checkpoint (or the log start).
fn analyze<'s>(
    wal: &Wal,
    store: &'s StableStore,
    policy: RedoPolicy,
    retain: bool,
) -> Result<Analyzer<'s>> {
    let mut scan_from = wal.start_lsn();
    let mut seeded = BTreeMap::new();

    // The master record points at the last stable checkpoint; seed the dirty
    // object table from it.
    if let Some(cp_lsn) = wal.master_checkpoint() {
        if let LogRecord::Checkpoint(cp) = wal.read_at(cp_lsn)? {
            seeded = cp.dirty.into_iter().collect();
            scan_from = cp_lsn;
        } else {
            return Err(LlogError::Corrupt {
                offset: cp_lsn.0,
                reason: "master record does not point at a checkpoint".into(),
            });
        }
    }

    // Naive redo replays from the log start regardless of the dirty table,
    // so min-dirty pruning would only grow the gap rescan: keep everything.
    let prune = retain && policy != RedoPolicy::Naive;
    let mut an = Analyzer::new(scan_from, seeded, retain, prune, store);
    an.a.torn_tail = scan_log(wal, scan_from, Lsn::MAX, |lsn, rec| an.step(lsn, rec))?;

    an.a.redo_start = an
        .pins
        .values()
        .copied()
        .min()
        .unwrap_or_else(|| wal.forced_lsn());
    Ok(an)
}

/// Recover the database `(store, wal)` after a crash. Returns a ready
/// [`Engine`] (cache, write graph and dirty table rebuilt) and the
/// [`RecoveryOutcome`].
pub fn recover(
    store: StableStore,
    wal: Wal,
    registry: TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
) -> Result<(Engine, RecoveryOutcome)> {
    run(store, wal, registry, config, policy, true)
}

/// The legacy two-pass recovery: an analysis scan, then a second scan that
/// re-decodes every record from `redo_start`. Not a production path — it is
/// the differential oracle for tests and `llog-fuzz`: [`recover`] must
/// produce a byte-identical store, the same engine state and an equal
/// [`RecoveryOutcome`].
pub fn recover_two_pass(
    store: StableStore,
    wal: Wal,
    registry: TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
) -> Result<(Engine, RecoveryOutcome)> {
    run(store, wal, registry, config, policy, false)
}

/// Analysis, op gathering and replay. `retain_ops` is the only difference
/// between [`recover`] (replay from the analysis ring) and
/// [`recover_two_pass`] (replay from a second log scan).
fn run(
    store: StableStore,
    wal: Wal,
    registry: TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
    retain_ops: bool,
) -> Result<(Engine, RecoveryOutcome)> {
    let metrics = store.metrics().clone();

    let t_analysis = Instant::now();
    let an = analyze(&wal, &store, policy, retain_ops)?;
    Metrics::bump(
        &metrics.recovery_analysis_ns,
        t_analysis.elapsed().as_nanos() as u64,
    );
    Metrics::bump(&metrics.recovery_records_decoded, an.a.scanned);
    let Analyzer {
        a: analysis,
        ring,
        ring_from,
        lsns,
        ..
    } = an;

    let mut outcome = RecoveryOutcome {
        analysis_scanned: analysis.scanned,
        redo_start: analysis.redo_start,
        torn_tail: analysis.torn_tail,
        ..RecoveryOutcome::default()
    };

    let t_redo = Instant::now();
    let mut store = store;
    // From here on the store is the live engine's: every install it takes
    // lands in it, so nothing the log says about it is untrusted any more.
    store.set_installed_through(Lsn::MAX);
    // Complete committed flush transactions whose in-place writes may not
    // have finished. Guard on vSI so an old transaction never regresses a
    // newer stable value.
    for (x, value, vsi) in &analysis.ftxn_values {
        if store.read_vsi(*x) < *vsi {
            store.write(*x, value.clone(), *vsi);
            outcome.ftxn_replayed += 1;
        }
    }

    let redo_from = if policy == RedoPolicy::Naive {
        wal.start_lsn()
    } else {
        analysis.redo_start
    };
    outcome.redo_start = redo_from;

    // ------------------------------------------------------------------
    // Gather the op records to replay: re-decode the gap below the ring's
    // coverage (a checkpoint dirty table reaching behind the scan start,
    // pruning slack — or, for the two-pass reference, everything), then
    // take the rest from the ring.
    // ------------------------------------------------------------------
    let mut op_records: Vec<(Lsn, Operation)> = Vec::new();
    if redo_from < ring_from {
        let mut gap = 0u64;
        scan_log(&wal, redo_from, ring_from, |lsn, rec| {
            gap += 1;
            if let LogRecord::Op(op) = rec {
                op_records.push((lsn, op));
            }
        })?;
        outcome.redo_scanned += gap;
        Metrics::bump(&metrics.recovery_records_decoded, gap);
    }
    let lo = redo_from.max(ring_from);
    let gap_ops = op_records.len();
    op_records.extend(ring.into_iter().filter(|(lsn, _)| *lsn >= lo));
    Metrics::bump(
        &metrics.recovery_ring_reused,
        (op_records.len() - gap_ops) as u64,
    );
    // redo_scanned parity with the two-pass reference: records its second
    // pass would have visited at/after the ring floor were all seen (and
    // counted) by the analysis scan.
    outcome.redo_scanned += (lsns.len() - lsns.partition_point(|&l| l < lo)) as u64;

    // §5 transient-object optimization (RsiExposed only): records whose
    // effects no surviving state depends on are treated as installed.
    let dead = if policy == RedoPolicy::RsiExposed {
        let deleted_at_end: BTreeSet<ObjectId> = {
            let mut last_delete: BTreeMap<ObjectId, bool> = BTreeMap::new();
            for (_, op) in &op_records {
                for &x in &op.writes {
                    last_delete.insert(x, op.kind == OpKind::Delete);
                }
            }
            last_delete
                .into_iter()
                .filter_map(|(x, deleted)| deleted.then_some(x))
                .collect()
        };
        dead_records(&op_records, &deleted_at_end)
    } else {
        BTreeSet::new()
    };

    let ctx = RedoContext {
        dirty: &analysis.dirty,
    };

    // ------------------------------------------------------------------
    // Replay.
    // ------------------------------------------------------------------
    let mut engine = Engine::with_parts(config, registry, store, wal, metrics.clone());
    for (lsn, op) in &op_records {
        let lsn = *lsn;
        if dead.contains(&lsn) {
            outcome.skipped += 1;
            Metrics::bump(&metrics.skipped_ops, 1);
            continue;
        }
        let redo = should_redo(policy, op, lsn, &ctx, |x| engine.current_vsi(x));
        if !redo {
            outcome.skipped += 1;
            Metrics::bump(&metrics.skipped_ops, 1);
            continue;
        }
        if op.kind == OpKind::Delete {
            // Deletes re-attach cheaply; account them separately so the
            // redo counts reflect re-executed *work*.
            engine.apply_logged(op, lsn)?;
            outcome.deletes_applied += 1;
            continue;
        }
        // Trial execution (§5): an operation the approximate test
        // selected may be inapplicable; errors void it rather than
        // failing recovery.
        match engine.apply_logged(op, lsn) {
            Ok(()) => {
                outcome.redone += 1;
                Metrics::bump(&metrics.redo_ops, 1);
            }
            Err(LlogError::NotApplicable { .. })
            | Err(LlogError::WritesetMismatch { .. })
            | Err(LlogError::Codec { .. }) => {
                outcome.voided += 1;
                Metrics::bump(&metrics.voided_ops, 1);
            }
            Err(e) => return Err(e),
        }
    }

    if let Some(max_id) = analysis.max_op_id {
        engine.set_next_op(max_id + 1);
    }
    Metrics::bump(
        &metrics.recovery_redo_ns,
        t_redo.elapsed().as_nanos() as u64,
    );
    Ok((engine, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{FlushStrategy, GraphKind, InstallStep};
    use crate::invariant::check_engine_inv;
    use llog_ops::{builtin, Transform};
    use llog_types::{OpId, Value};

    const X: ObjectId = ObjectId(1);
    const Y: ObjectId = ObjectId(2);

    fn config() -> EngineConfig {
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
        }
    }

    fn fresh_engine() -> Engine {
        Engine::new(config(), TransformRegistry::with_builtins())
    }

    fn exec_physical(e: &mut Engine, x: u64, v: &str) -> (OpId, Lsn) {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(x)],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
        )
        .unwrap()
    }

    fn exec_logical(e: &mut Engine, reads: &[u64], writes: &[u64], salt: u64) -> (OpId, Lsn) {
        e.execute(
            OpKind::Logical,
            reads.iter().map(|&n| ObjectId(n)).collect(),
            writes.iter().map(|&n| ObjectId(n)).collect(),
            Transform::new(builtin::HASH_MIX, Value::from_slice(&salt.to_le_bytes())),
        )
        .unwrap()
    }

    fn recover_parts(
        store: StableStore,
        wal: Wal,
        policy: RedoPolicy,
    ) -> (Engine, RecoveryOutcome) {
        recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            policy,
        )
        .unwrap()
    }

    #[test]
    fn forced_but_unflushed_op_is_redone() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "v1");
        e.wal_mut().force();
        let (store, wal) = e.crash();

        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 1);
        assert_eq!(recovered.read_value(X), Value::from("v1"));
    }

    #[test]
    fn unforced_op_is_lost() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "v1"); // never forced
        let (store, wal) = e.crash();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 0);
        assert!(recovered.read_value(X).is_empty());
    }

    #[test]
    fn installed_op_is_skipped_by_vsi() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 2, "y"); // never installed: the redo scan starts here
        let (x_op, _) = exec_physical(&mut e, 1, "v1");
        let n = e.rw_graph().node_of_op(x_op).expect("X's op is live");
        e.install_rw_node(n).unwrap();
        let (store, wal) = e.crash();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 1);
        assert_eq!(out.skipped, 1);
        assert_eq!(recovered.read_value(X), Value::from("v1"));
        assert_eq!(recovered.read_value(Y), Value::from("y"));
    }

    #[test]
    fn analysis_starts_redo_past_what_the_store_witnesses() {
        // A flush logs nothing; the store's vSI alone shows the installed
        // prefix, and the redo scan starts after it.
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "x");
        exec_physical(&mut e, 2, "y");
        e.install_all().unwrap();
        let (_, tail) = exec_physical(&mut e, 1, "x2");
        e.wal_mut().force();
        let (store, wal) = e.crash();
        for policy in [RedoPolicy::Vsi, RedoPolicy::RsiExposed] {
            let (mut r, o) = recover_both_ways(&store, &wal, config(), policy);
            assert_eq!(o.redo_start, tail, "{policy:?}");
            assert_eq!((o.redone, o.skipped), (1, 0), "{policy:?}");
            assert_eq!(r.read_value(X), Value::from("x2"));
            assert_eq!(r.read_value(Y), Value::from("y"));
        }
    }

    #[test]
    fn naive_policy_is_unsound_for_logical_ops() {
        // A: Y ← f(X,Y) installed; B: X ← g(Y) logged but uninstalled.
        // Redoing A against post-A state corrupts Y. This is the §5 safety
        // violation the SI tests exist to prevent.
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        e.install_all().unwrap();
        exec_logical(&mut e, &[2], &[1], 1); // B uninstalled
        e.wal_mut().force();
        let expected_y = e.peek_value(Y);
        let (store, wal) = e.crash();

        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Naive);
        assert!(out.redone >= 2);
        // Naive redo re-applied A: Y is now wrong.
        assert_ne!(recovered.read_value(Y), expected_y);
    }

    #[test]
    fn vsi_policy_is_sound_for_logical_ops() {
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        e.install_all().unwrap();
        exec_logical(&mut e, &[2], &[1], 1); // B uninstalled
        e.wal_mut().force();
        let expected_x = e.peek_value(X);
        let expected_y = e.peek_value(Y);
        let (store, wal) = e.crash();

        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 1); // only B
        assert_eq!(recovered.read_value(X), expected_x);
        assert_eq!(recovered.read_value(Y), expected_y);
    }

    #[test]
    fn rsi_policy_skips_unexposed_installs() {
        // Figure 7 at recovery time: A writes {X,Y}; blind write C makes X
        // unexposed; installing A's node flushes only Y but logs an Install
        // record advancing X's rSI. After a crash, A must be skipped even
        // though X's stable vSI is stale.
        let mut e = fresh_engine();
        exec_logical(&mut e, &[9], &[1, 2], 0); // A writes X,Y
        exec_physical(&mut e, 1, "blind"); // C
        assert!(e.install_one().unwrap()); // installs A (flushes Y only)
        e.wal_mut().force(); // make the Install record stable
        let (store, wal) = e.crash();

        let (_, out) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        // Only C is redone. A is never even scanned: X's rSI advanced to
        // C's lSI when A's node was installed, so the redo scan starts at C.
        assert_eq!(out.redone, 1);
        assert_eq!(out.skipped, 0);
        assert!(out.redo_start > Lsn(1), "redo scan must skip A's record");
    }

    #[test]
    fn recovery_is_idempotent_across_repeated_crashes() {
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0);
        exec_logical(&mut e, &[2], &[1], 1);
        exec_physical(&mut e, 3, "c");
        e.wal_mut().force();
        let (store, wal) = e.crash();

        let (engine1, _) = recover_parts(store, wal, RedoPolicy::Vsi);
        let x1 = engine1.peek_value(X);
        let y1 = engine1.peek_value(Y);
        // Crash again mid-recovery aftermath without installing anything.
        let (store2, wal2) = engine1.crash();
        let (engine2, _) = recover_parts(store2, wal2, RedoPolicy::Vsi);
        assert_eq!(engine2.peek_value(X), x1);
        assert_eq!(engine2.peek_value(Y), y1);

        // And once more after partial installation.
        let mut engine2 = engine2;
        engine2.install_one().unwrap();
        let x2 = engine2.peek_value(X);
        let y2 = engine2.peek_value(Y);
        assert_eq!((x2.clone(), y2.clone()), (x1, y1));
        let (store3, wal3) = engine2.crash();
        let (engine3, _) = recover_parts(store3, wal3, RedoPolicy::Vsi);
        assert_eq!(engine3.peek_value(X), x2);
        assert_eq!(engine3.peek_value(Y), y2);
    }

    #[test]
    fn committed_flush_txn_completed_after_crash() {
        // Build a log with a committed flush txn whose in-place writes were
        // lost: handcraft via engine internals.
        let metrics = Metrics::new();
        let store = StableStore::new(metrics.clone());
        let mut wal = Wal::new(metrics.clone());
        wal.append(&LogRecord::FlushTxnBegin { objs: vec![X, Y] });
        wal.append(&LogRecord::FlushTxnValue {
            obj: X,
            value: Value::from("fx"),
            vsi: Lsn(5),
        });
        wal.append(&LogRecord::FlushTxnValue {
            obj: Y,
            value: Value::from("fy"),
            vsi: Lsn(6),
        });
        wal.append(&LogRecord::FlushTxnCommit);
        wal.force();
        // crash happened right after commit: no in-place writes occurred.
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.ftxn_replayed, 2);
        assert_eq!(recovered.read_value(X), Value::from("fx"));
        assert_eq!(recovered.read_value(Y), Value::from("fy"));
    }

    #[test]
    fn uncommitted_flush_txn_is_ignored() {
        let metrics = Metrics::new();
        let store = StableStore::new(metrics.clone());
        let mut wal = Wal::new(metrics.clone());
        wal.append(&LogRecord::FlushTxnBegin { objs: vec![X] });
        wal.append(&LogRecord::FlushTxnValue {
            obj: X,
            value: Value::from("fx"),
            vsi: Lsn(5),
        });
        // no commit
        wal.force();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.ftxn_replayed, 0);
        assert!(recovered.read_value(X).is_empty());
    }

    #[test]
    fn old_flush_txn_never_regresses_newer_state() {
        let metrics = Metrics::new();
        let mut store = StableStore::new(metrics.clone());
        store.write(X, Value::from("newer"), Lsn(100));
        let mut wal = Wal::new(metrics.clone());
        wal.append(&LogRecord::FlushTxnBegin { objs: vec![X] });
        wal.append(&LogRecord::FlushTxnValue {
            obj: X,
            value: Value::from("older"),
            vsi: Lsn(5),
        });
        wal.append(&LogRecord::FlushTxnCommit);
        wal.force();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.ftxn_replayed, 0);
        assert_eq!(recovered.read_value(X), Value::from("newer"));
    }

    #[test]
    fn torn_tail_truncates_recovery_cleanly() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "v1");
        e.wal_mut().force();
        exec_physical(&mut e, 2, "v2"); // this record will be torn
        let (store, wal) = e.crash_torn(6);
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert!(out.torn_tail);
        assert_eq!(out.redone, 1);
        assert_eq!(recovered.read_value(X), Value::from("v1"));
        assert!(recovered.read_value(Y).is_empty());
    }

    #[test]
    fn checkpoint_bounds_the_analysis_scan() {
        let mut e = fresh_engine();
        for i in 0..20 {
            exec_physical(&mut e, i % 3, "v");
        }
        e.install_all().unwrap();
        e.checkpoint(true).unwrap();
        exec_physical(&mut e, 7, "tail");
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (_, out) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        // Analysis starts at the checkpoint: only checkpoint + tail records.
        assert!(
            out.analysis_scanned <= 4,
            "scanned {} records",
            out.analysis_scanned
        );
        assert_eq!(out.redone, 1);
    }

    #[test]
    fn recovery_continues_into_normal_operation() {
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0);
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut recovered, _) = recover_parts(store, wal, RedoPolicy::Vsi);
        // Keep going: new ops, install everything, verify stability.
        exec_logical(&mut recovered, &[2], &[1], 1);
        recovered.install_all().unwrap();
        assert!(recovered.dirty_table().is_empty());
        assert!(recovered.store().peek(X).is_some());
        assert!(recovered.store().peek(Y).is_some());
    }

    /// Everything the differential oracle compares between two recovered
    /// engines.
    fn engine_fingerprint(e: &Engine) -> impl PartialEq + std::fmt::Debug {
        (
            e.store().snapshot(),
            e.dirty_table().clone(),
            e.live_op_ids(),
            (0..8u64)
                .map(|i| e.peek_value(ObjectId(i)))
                .collect::<Vec<_>>(),
        )
    }

    /// Build a small mixed workload: two disjoint logical chains, a shared
    /// chain, a physical write and a partial install, then crash.
    fn mixed_workload() -> (StableStore, Wal) {
        let mut e = fresh_engine();
        for salt in 0..4 {
            exec_logical(&mut e, &[1], &[1], salt);
            exec_logical(&mut e, &[2], &[2], salt + 10);
            exec_logical(&mut e, &[1, 3], &[3], salt + 20);
        }
        exec_physical(&mut e, 4, "p");
        e.install_one().unwrap();
        e.wal_mut().force();
        exec_logical(&mut e, &[4], &[4], 99); // unforced: lost
        e.crash()
    }

    type RecoverFn = fn(
        StableStore,
        Wal,
        TransformRegistry,
        EngineConfig,
        RedoPolicy,
    ) -> Result<(Engine, RecoveryOutcome)>;

    /// The pipeline and its reference, in the order the differential tests
    /// run them.
    const BOTH: [(&str, RecoverFn); 2] = [("recover", recover), ("two_pass", recover_two_pass)];

    /// Run `recover` and `recover_two_pass` over clones of one crash image,
    /// assert outcome and state agree, and return the pipeline's result.
    fn recover_both_ways(
        store: &StableStore,
        wal: &Wal,
        config: EngineConfig,
        policy: RedoPolicy,
    ) -> (Engine, RecoveryOutcome) {
        let [(e, o), (ref_e, ref_o)] = BOTH.map(|(_, f)| {
            f(
                store.clone(),
                wal.clone(),
                TransformRegistry::with_builtins(),
                config,
                policy,
            )
            .unwrap()
        });
        assert_eq!(o, ref_o, "{policy:?}: outcome diverged from two-pass");
        assert_eq!(
            engine_fingerprint(&e),
            engine_fingerprint(&ref_e),
            "{policy:?}: state diverged from two-pass"
        );
        (e, o)
    }

    #[test]
    fn recover_agrees_with_the_two_pass_reference() {
        for policy in [RedoPolicy::Naive, RedoPolicy::Vsi, RedoPolicy::RsiExposed] {
            let (store, wal) = mixed_workload();
            recover_both_ways(&store, &wal, config(), policy);
        }
    }

    /// Uninstalled ops under a `checkpoint(false)`, and a live tail past
    /// it — crashed with an unforced loss.
    fn checkpointed_workload() -> (StableStore, Wal) {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, &"x".repeat(120));
        exec_physical(&mut e, 2, "small");
        for salt in 0..3 {
            exec_logical(&mut e, &[1], &[1], salt);
            exec_logical(&mut e, &[1, 2], &[2], salt + 10);
            exec_logical(&mut e, &[3], &[3], salt + 20);
        }
        e.install_one().unwrap();
        e.checkpoint(false).unwrap();
        exec_logical(&mut e, &[2], &[4], 77);
        exec_physical(&mut e, 5, "p");
        e.wal_mut().force();
        exec_logical(&mut e, &[4], &[4], 99); // unforced: lost
        e.crash()
    }

    #[test]
    fn checkpoint_table_behind_the_scan_start_takes_the_gap_rescan() {
        // `checkpoint(false)` with uninstalled ops writes a dirty table whose
        // rSIs lie below the checkpoint's own LSN. Analysis starts at the
        // checkpoint, so the ring cannot cover `[redo_start, checkpoint)`:
        // those ops must come from the gap rescan, the rest from the ring.
        let (store, wal) = checkpointed_workload();
        let cp_lsn = wal.master_checkpoint().expect("workload checkpoints");
        let metrics = store.metrics().clone();
        metrics.reset();
        let (_, o) = recover(
            store.clone(),
            wal.clone(),
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        let s = metrics.snapshot();
        assert!(o.redo_start < cp_lsn, "dirty table must reach behind");
        let replayed = o.redone + o.skipped + o.voided + o.deletes_applied;
        assert!(s.recovery_ring_reused > 0, "the tail comes from the ring");
        assert!(
            s.recovery_ring_reused < replayed,
            "ring {} covered all {replayed} replayed ops: no gap was taken",
            s.recovery_ring_reused
        );
        assert!(
            s.recovery_records_decoded > o.analysis_scanned,
            "the gap is re-decoded"
        );
        recover_both_ways(&store, &wal, config(), RedoPolicy::Vsi);
    }

    #[test]
    fn single_pass_decodes_each_record_exactly_once() {
        let (store, wal) = mixed_workload();
        let metrics = store.metrics().clone();
        for ((_, f), decodes_twice) in BOTH.into_iter().zip([false, true]) {
            metrics.reset();
            let (_, o) = f(
                store.clone(),
                wal.clone(),
                TransformRegistry::with_builtins(),
                config(),
                RedoPolicy::Vsi,
            )
            .unwrap();
            let s = metrics.snapshot();
            assert!(s.recovery_analysis_ns > 0 && s.recovery_redo_ns > 0);
            if decodes_twice {
                assert_eq!(
                    s.recovery_records_decoded,
                    o.analysis_scanned + o.redo_scanned,
                    "two-pass decodes the redo range twice"
                );
                assert!(o.redo_scanned > 0);
                assert_eq!(s.recovery_ring_reused, 0);
            } else {
                assert_eq!(
                    s.recovery_records_decoded, o.analysis_scanned,
                    "recover must decode each stable record exactly once"
                );
                assert!(s.recovery_ring_reused > 0);
            }
        }
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_torn_tail() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "first-batch");
        e.wal_mut().force();
        exec_physical(&mut e, 2, "second-batch");
        e.wal_mut().force();
        let (store, mut wal) = e.crash();
        // Rot a bit inside the *first* force batch: far before the last
        // force boundary, so this is media damage, not a torn tail.
        wal.corrupt_stable_bit(Lsn(1), 12);
        for (name, f) in BOTH {
            let r = f(
                store.clone(),
                wal.clone(),
                TransformRegistry::with_builtins(),
                config(),
                RedoPolicy::Vsi,
            );
            match r {
                Err(LlogError::Corrupt { offset, .. }) => {
                    assert!(!wal.corruption_is_torn_tail(offset))
                }
                Err(other) => panic!("{name}: expected Corrupt error, got {other}"),
                Ok((_, o)) => panic!("{name}: mid-log corruption accepted: {o:?}"),
            }
        }
    }

    #[test]
    fn corruption_in_last_force_batch_still_recovers_as_torn_tail() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "stable");
        e.wal_mut().force();
        exec_physical(&mut e, 2, "rotted");
        e.wal_mut().force();
        let (store, mut wal) = e.crash();
        let guard = wal.forced_lsn();
        // Rot inside the *last* batch: indistinguishable from a tear.
        wal.corrupt_stable_bit(Lsn(guard.0 - 3), 1);
        let (mut recovered, o) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert!(o.torn_tail);
        assert_eq!(recovered.read_value(X), Value::from("stable"));
    }

    #[test]
    fn installs_above_the_store_bound_are_not_trusted() {
        // A writes X, B reads it into Y, C blindly overwrites X. B's node
        // installs first, then A's with X unexposed: an Install record
        // advances X's rSI to C's lSI.
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "a");
        exec_logical(&mut e, &[1], &[2], 7);
        exec_physical(&mut e, 1, "c");
        e.wal_mut().force();
        let expected_y = e.read_value(Y);
        // The store as its device last saw it: before the installs below.
        let mut device_store = e.store().clone();
        device_store.set_installed_through(e.wal().end_lsn());
        e.install_all().unwrap();
        e.wal_mut().force();
        let (_, wal) = e.crash();
        for (name, f) in BOTH {
            let (mut r, o) = f(
                device_store.clone(),
                wal.clone(),
                TransformRegistry::with_builtins(),
                config(),
                RedoPolicy::Vsi,
            )
            .unwrap();
            assert_eq!(o.redone, 3, "{name}");
            assert_eq!(r.read_value(X), Value::from("c"), "{name}");
            assert_eq!(r.read_value(Y), expected_y, "{name}");
            assert_eq!(r.store().installed_through(), Lsn::MAX, "{name}");
        }
        // Trusting the Install record skips A, so B is redone over a store
        // that never held A's X.
        device_store.set_installed_through(Lsn::MAX);
        let (mut r, o) = recover_parts(device_store, wal, RedoPolicy::Vsi);
        assert_eq!(o.redone, 2);
        assert_ne!(r.read_value(Y), expected_y);
    }

    /// A delete installed before the crash removes its object from the
    /// store, so no vSI is left to witness the updates its flush
    /// installed: the Install record must carry the object.
    #[test]
    fn a_flushed_delete_keeps_the_ops_before_it_installed() {
        let audit = EngineConfig {
            audit: true,
            ..config()
        };
        let mut e = Engine::new(audit, TransformRegistry::with_builtins());
        exec_physical(&mut e, 1, "a"); // A
        exec_logical(&mut e, &[1], &[2], 7); // B reads X into Y
        e.install_all().unwrap();
        e.execute(
            OpKind::Delete,
            vec![],
            vec![X],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap(); // D
        e.install_all().unwrap();
        exec_physical(&mut e, 3, "t"); // T: stable, never installed
        e.wal_mut().force();
        check_engine_inv(&e).unwrap();
        e.audit_all().unwrap();
        let expected_y = e.read_value(Y);
        // The model: redo exactly the operations live at the crash (T);
        // skip every installed one the redo scan meets. Y's vSI witnesses
        // B and D's record clears X, so the scan starts at T.
        let live = e.live_op_ids().len() as u64;
        let (store, wal) = e.crash();
        assert!(store.peek(X).is_none(), "D's flush removed X");

        let (mut r, o) = recover_both_ways(&store, &wal, audit, RedoPolicy::RsiExposed);
        assert_eq!(live, 1);
        assert_eq!(
            (o.redone, o.deletes_applied, o.voided, o.skipped),
            (live, 0, 0, 0),
            "{o:?}"
        );
        check_engine_inv(&r).unwrap();
        assert!(r.read_value(X).is_empty());
        assert_eq!(r.read_value(Y), expected_y);
        assert_eq!(r.read_value(ObjectId(3)), Value::from("t"));
    }

    /// An identity write that breaks up a flush set is the only record of
    /// the value it unexposes: the flush waits until it is stable, so a
    /// crash that loses it leaves nothing installed that redo would need.
    #[test]
    fn a_broken_up_flush_waits_for_its_identity_writes() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "x0");
        exec_physical(&mut e, 2, "y0");
        e.install_all().unwrap();
        // The §4 cycle: Y ← f(X,Y); X ← g(Y); Y ← h(Y).
        exec_logical(&mut e, &[1, 2], &[2], 1);
        exec_logical(&mut e, &[2], &[1], 2);
        exec_logical(&mut e, &[2], &[2], 3);
        e.wal_mut().force();
        let want = (e.peek_value(X), e.peek_value(Y));
        let stable = e.wal().forced_lsn();
        let identity_writes = e.metrics().snapshot().identity_writes;
        // One installer step below the stable end, then a crash that loses
        // the unforced tail.
        let step = e.install_one_below(stable).unwrap();
        assert!(e.metrics().snapshot().identity_writes > identity_writes);
        assert!(
            matches!(step, InstallStep::NeedsStable(l) if l >= stable),
            "{step:?}"
        );
        let (store, wal) = e.crash();
        for policy in [RedoPolicy::Vsi, RedoPolicy::RsiExposed] {
            let (mut r, _) = recover_both_ways(&store, &wal, config(), policy);
            assert_eq!((r.read_value(X), r.read_value(Y)), want, "{policy:?}");
        }
    }

    #[test]
    fn deleted_objects_skip_expensive_redo() {
        // Write a big file-like object, delete it, crash. The rSI policy
        // must not redo the write.
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "big-file-contents");
        e.execute(
            OpKind::Delete,
            vec![],
            vec![X],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (_, out) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        assert_eq!(out.redone, 0, "the expensive write is bypassed");
        assert_eq!(out.skipped, 1);
        // The delete itself is applied (cheaply) so the stable state stays
        // tidy, but it does not count as re-executed work.
        assert_eq!(out.deletes_applied, 1);
    }
}
