//! The cache manager (§3–§4).
//!
//! [`Engine`] owns the volatile state: the object cache, the write graph,
//! the dirty object table (object → rSI) and the set of uninstalled
//! operations. Its duties:
//!
//! - **execute** operations against cached values under the WAL protocol,
//! - **install** operations by flushing write-graph nodes in graph order
//!   (`PurgeCache`, Figure 4),
//! - break up multi-object atomic flush sets with **identity writes**
//!   (§4) — or pay for **flush transactions** / **shadow** atomicity,
//! - maintain vSIs and the generalized rSIs that the §5 REDO test uses,
//! - **checkpoint**: log the dirty object table and truncate the log.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use llog_ops::{table1, OpKind, Operation, Transform, TransformRegistry};
use llog_storage::{Metrics, ShadowStore, StableStore, Version, VersionStore};
use llog_types::{LlogError, Lsn, ObjectId, OpId, Result, Value};
use llog_wal::{CheckpointRecord, InstallRecord, LogRecord, Wal};

use crate::media::{Backup, BackupInProgress, BackupMode};
use crate::rwgraph::{NodeId, RWGraph};
use crate::wgraph::WriteGraph;

/// Which write graph drives flushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// The write graph `W` of \[LT95\]: rebuilt per purge, `vars = Writes`,
    /// flush sets only grow.
    W,
    /// The paper's refined write graph, maintained incrementally.
    RW,
}

/// How multi-object atomic flush sets are handled when they arise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStrategy {
    /// §4: issue cache-manager identity writes until `|vars(n)| ≤ 1`, then
    /// flush one object. Only meaningful with [`GraphKind::RW`] — in `W`
    /// an identity write joins the very node it tries to shrink.
    IdentityWrites,
    /// §4 baseline: wrap the multi-object flush in a logged flush
    /// transaction (values logged, commit forced, then in-place writes).
    /// Quiesces the system for the duration.
    FlushTxn,
    /// System R baseline: shadow-page the flush set and swing the root.
    Shadow,
    /// Refuse multi-object flushes (the \[Lomet98\] restriction): callers
    /// must avoid logical writes or installation fails.
    Forbid,
}

/// What one [`Engine::install_one_below`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallStep {
    /// Nothing is left to install.
    Idle,
    /// One write-graph node was installed.
    Installed,
    /// The next node holds an operation at this LSN, which the stable log
    /// has not passed yet: nothing was installed or logged.
    NeedsStable(Lsn),
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Which write graph drives flushing.
    pub graph: GraphKind,
    /// How multi-object atomic flush sets are handled.
    pub flush: FlushStrategy,
    /// Retain the full history and installed set so tests can run the
    /// explainability oracle against the live engine.
    pub audit: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    value: Value,
    /// vSI: lSI of the last operation that updated the cached value.
    vsi: Lsn,
    dirty: bool,
    /// Set by a Delete operation; installation removes the object.
    deleted: bool,
    /// LRU clock tick of the last access (eviction order).
    last_access: u64,
}

#[derive(Debug, Clone)]
struct LiveOp {
    op: Operation,
    lsn: Lsn,
}

/// The recovery engine: stable store + WAL + volatile cache + write graph.
pub struct Engine {
    config: EngineConfig,
    registry: TransformRegistry,
    metrics: Arc<Metrics>,
    store: StableStore,
    wal: Wal,
    rw: RWGraph,
    cache: BTreeMap<ObjectId, CacheEntry>,
    /// Uninstalled operations, keyed by id (= arrival order).
    live_ops: BTreeMap<OpId, LiveOp>,
    /// Uninstalled writers per object, ordered by lSI (for rSI computation).
    writers: BTreeMap<ObjectId, BTreeMap<Lsn, OpId>>,
    /// The dirty object table: object → rSI.
    dirty_rsi: BTreeMap<ObjectId, Lsn>,
    next_op: u64,
    /// Bounded cache: maximum number of cached objects (None = unbounded).
    cache_capacity: Option<usize>,
    /// Reentrancy guard: capacity enforcement triggers installs, which
    /// execute identity writes, which would re-enter enforcement.
    enforcing: bool,
    /// LRU clock for cache entries.
    clock: u64,
    /// In-progress fuzzy backup, if any.
    backup: Option<BackupInProgress>,
    /// MVCC version chains for lock-free snapshot reads, once enabled.
    /// Every update that lands in the cache is also published here.
    versions: Option<Arc<VersionStore>>,
    // Audit state (only populated when config.audit).
    full_history: Vec<Operation>,
    installed_ops: BTreeSet<OpId>,
}

impl Engine {
    /// Create a new instance.
    pub fn new(config: EngineConfig, registry: TransformRegistry) -> Engine {
        let metrics = Metrics::new();
        Engine::with_parts(
            config,
            registry,
            StableStore::new(metrics.clone()),
            Wal::new(metrics.clone()),
            metrics,
        )
    }

    /// Assemble an engine from existing parts (the recovery path).
    pub fn with_parts(
        config: EngineConfig,
        registry: TransformRegistry,
        store: StableStore,
        wal: Wal,
        metrics: Arc<Metrics>,
    ) -> Engine {
        Engine {
            config,
            registry,
            metrics,
            store,
            wal,
            rw: RWGraph::new(),
            cache: BTreeMap::new(),
            live_ops: BTreeMap::new(),
            writers: BTreeMap::new(),
            dirty_rsi: BTreeMap::new(),
            next_op: 0,
            cache_capacity: None,
            enforcing: false,
            clock: 0,
            backup: None,
            versions: None,
            full_history: Vec::new(),
            installed_ops: BTreeSet::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }
    /// The shared cost ledger.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
    /// The stable object store.
    pub fn store(&self) -> &StableStore {
        &self.store
    }
    /// The write-ahead log (read-only view).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }
    /// Mutable access to the write-ahead log (forcing, crash simulation).
    pub fn wal_mut(&mut self) -> &mut Wal {
        &mut self.wal
    }
    /// The live refined write graph.
    pub fn rw_graph(&self) -> &RWGraph {
        &self.rw
    }
    /// The transform registry used for execution and replay.
    pub fn registry(&self) -> &TransformRegistry {
        &self.registry
    }
    /// The dirty object table (object → rSI).
    pub fn dirty_table(&self) -> &BTreeMap<ObjectId, Lsn> {
        &self.dirty_rsi
    }
    /// Number of uninstalled (live) operations.
    pub fn uninstalled_count(&self) -> usize {
        self.live_ops.len()
    }
    /// Number of dirty objects in cache.
    pub fn dirty_count(&self) -> usize {
        self.cache.values().filter(|e| e.dirty).count()
    }
    /// Next operation id to be assigned (recovery seeds this).
    pub fn set_next_op(&mut self, next: u64) {
        self.next_op = next;
    }

    /// Turn on MVCC version publication and return the shared store.
    ///
    /// Seeds the chains from the engine's current state — the stable image
    /// first (each object at its installed `vSI`), then the cache overlay
    /// (uninstalled updates at their `lSI`s) — so calling this right after
    /// recovery reconstructs exactly the versions a pre-crash reader could
    /// still need. From then on every executed or replayed update
    /// publishes its outputs as immutable versions keyed by its `lSI`.
    ///
    /// The store image is seeded in bulk with the overlay
    /// ([`cached_versions`](Self::cached_versions)) on top, in one
    /// [`VersionStore::seed`].
    pub fn enable_versions(&mut self) -> Arc<VersionStore> {
        let vs = VersionStore::new(self.metrics.clone());
        self.adopt_versions(vs.clone(), || {});
        vs
    }

    /// [`enable_versions`](Self::enable_versions) into an existing store:
    /// every chain `vs` held is replaced by this engine's state, and
    /// `publish_cut` runs while readers of `vs` are excluded. A shard whose
    /// engine is replaced wholesale keeps its store this way, so lock-free
    /// readers see the old state or the new one, never a mix.
    pub fn adopt_versions(&mut self, vs: Arc<VersionStore>, publish_cut: impl FnOnce()) {
        let image = self.store.iter().map(|(&x, stored)| {
            let version = Version {
                si: stored.vsi,
                value: stored.value.clone(),
                tombstone: false,
            };
            (x, version)
        });
        vs.seed(image, self.cached_versions(), publish_cut);
        self.versions = Some(vs);
    }

    /// The cache overlay as versions: each cached object's value at its
    /// `vSI`, a tombstone when deleted, in id order.
    pub fn cached_versions(&self) -> impl Iterator<Item = (ObjectId, Version)> + '_ {
        self.cache.iter().map(|(&x, e)| {
            let version = Version {
                si: e.vsi,
                value: e.value.clone(),
                tombstone: e.deleted,
            };
            (x, version)
        })
    }

    /// The MVCC version store, if [`enable_versions`](Self::enable_versions)
    /// has been called.
    pub fn versions(&self) -> Option<&Arc<VersionStore>> {
        self.versions.as_ref()
    }

    /// The engine's current view of an object: cache, else stable store.
    pub fn read_value(&mut self, x: ObjectId) -> Value {
        self.read_entry(x).value
    }

    /// The current vSI of an object (cache, else stable store; faulting it
    /// in counts as an I/O, like reading a page header). The REDO tests use
    /// this.
    pub fn current_vsi(&mut self, x: ObjectId) -> Lsn {
        self.read_entry(x).vsi
    }

    /// Ids of the uninstalled (live) operations.
    pub fn live_op_ids(&self) -> BTreeSet<OpId> {
        self.live_ops.keys().copied().collect()
    }

    /// The engine's view without promoting into cache or counting I/O
    /// (test/oracle use).
    pub fn peek_value(&self, x: ObjectId) -> Value {
        if let Some(e) = self.cache.get(&x) {
            return e.value.clone();
        }
        self.store
            .peek(x)
            .map(|o| o.value.clone())
            .unwrap_or_else(Value::empty)
    }

    fn read_entry(&mut self, x: ObjectId) -> CacheEntry {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.cache.get_mut(&x) {
            e.last_access = clock;
            return e.clone();
        }
        let stored = self.store.read(x);
        let entry = CacheEntry {
            value: stored.value,
            vsi: stored.vsi,
            dirty: false,
            deleted: false,
            last_access: clock,
        };
        self.cache.insert(x, entry.clone());
        self.enforce_capacity();
        entry
    }

    /// Bound the cache to `capacity` objects (`None` = unbounded). Under
    /// pressure, clean objects are evicted in LRU order; if everything is
    /// dirty, minimal write-graph nodes are installed to create clean
    /// entries ("the volatile state can be (nearly) full, requiring that
    /// objects currently present be removed to make room", §3).
    pub fn set_cache_capacity(&mut self, capacity: Option<usize>) {
        self.cache_capacity = capacity;
        self.enforce_capacity();
    }

    /// Number of objects currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    fn enforce_capacity(&mut self) {
        let Some(cap) = self.cache_capacity else {
            return;
        };
        if self.enforcing {
            return; // re-entered from an install's own identity writes
        }
        self.enforcing = true;
        let mut install_budget = 64usize;
        while self.cache.len() > cap {
            // Evict the least-recently-used clean object.
            let victim = self
                .cache
                .iter()
                .filter(|(_, e)| !e.dirty)
                .min_by_key(|(_, e)| e.last_access)
                .map(|(&x, _)| x);
            if let Some(x) = victim {
                self.cache.remove(&x);
                Metrics::bump(&self.metrics.evictions, 1);
                continue;
            }
            // Everything is dirty: install to create clean entries.
            install_budget = install_budget.saturating_sub(1);
            match self.install_one() {
                Ok(true) if install_budget > 0 => continue,
                // Nothing left to install (or budget spent): unexposed
                // objects legitimately stay dirty; accept the overshoot.
                _ => break,
            }
        }
        self.enforcing = false;
    }

    /// Execute a new operation: read its inputs, apply its transform, log it
    /// (buffered), update the cache and the write graph. Returns the
    /// operation id and its lSI.
    pub fn execute(
        &mut self,
        kind: OpKind,
        reads: Vec<ObjectId>,
        writes: Vec<ObjectId>,
        transform: Transform,
    ) -> Result<(OpId, Lsn)> {
        let id = OpId(self.next_op);
        let op = Operation::new(id, kind, reads, writes, transform);
        let inputs: Vec<Value> = op.reads.iter().map(|&x| self.read_entry(x).value).collect();
        let outputs = self
            .registry
            .apply(op.id, &op.transform, &inputs, op.writes.len())?;
        // Inputs validated; the op is now part of the history.
        self.next_op += 1;
        let lsn = self.wal.append(&LogRecord::Op(op.clone()));
        self.apply_outputs(&op, lsn, outputs);
        self.add_to_graph(&op);
        self.live_ops.insert(
            id,
            LiveOp {
                op: op.clone(),
                lsn,
            },
        );
        if self.config.audit {
            self.full_history.push(op);
        }
        Ok((id, lsn))
    }

    /// `addop_rW`: enter an executed or replayed operation into the
    /// write graph (`GraphKind::W` rebuilds its graph at install time).
    fn add_to_graph(&mut self, op: &Operation) {
        if self.config.graph == GraphKind::RW {
            let before = self.rw.nodes_visited();
            self.rw.add_op(op);
            Metrics::bump(
                &self.metrics.rw_nodes_visited,
                self.rw.nodes_visited() - before,
            );
        }
    }

    /// Re-attach a logged operation during recovery: same cache effects as
    /// [`execute`](Self::execute) but nothing is appended to the log and the
    /// original lSI is kept. The caller has already decided (via the REDO
    /// test) that the operation must be redone.
    pub fn apply_logged(&mut self, op: &Operation, lsn: Lsn) -> Result<()> {
        let inputs: Vec<Value> = op.reads.iter().map(|&x| self.read_entry(x).value).collect();
        let outputs = self
            .registry
            .apply(op.id, &op.transform, &inputs, op.writes.len())?;
        self.apply_outputs(op, lsn, outputs);
        self.add_to_graph(op);
        self.live_ops.insert(
            op.id,
            LiveOp {
                op: op.clone(),
                lsn,
            },
        );
        self.next_op = self.next_op.max(op.id.0 + 1);
        if self.config.audit {
            self.full_history.push(op.clone());
        }
        Ok(())
    }

    fn apply_outputs(&mut self, op: &Operation, lsn: Lsn, outputs: Vec<Value>) {
        let deleted = op.kind == OpKind::Delete;
        for (&x, v) in op.writes.iter().zip(outputs) {
            self.clock += 1;
            if let Some(vs) = &self.versions {
                vs.publish(x, lsn, v.clone(), deleted);
            }
            self.cache.insert(
                x,
                CacheEntry {
                    value: v,
                    vsi: lsn,
                    dirty: true,
                    deleted,
                    last_access: self.clock,
                },
            );
            self.dirty_rsi.entry(x).or_insert(lsn);
            self.writers.entry(x).or_default().insert(lsn, op.id);
        }
        self.enforce_capacity();
    }

    /// Convenience: execute a cache-manager identity write `W_IP(x)` (§4).
    /// Logs the object's current value as a physical record.
    pub fn identity_write(&mut self, x: ObjectId) -> Result<(OpId, Lsn)> {
        let current = self.read_entry(x).value;
        let op = table1::identity_write(OpId(0), x, current);
        Metrics::bump(&self.metrics.identity_writes, 1);
        self.execute(op.kind, op.reads, op.writes, op.transform)
    }

    // ------------------------------------------------------------------
    // Installation (PurgeCache, Figure 4)
    // ------------------------------------------------------------------

    /// Install the minimal write-graph node whose earliest operation is
    /// oldest, forcing the in-memory log (this engine's stable log) as the
    /// WAL protocol needs; false if there was nothing to install.
    pub fn install_one(&mut self) -> Result<bool> {
        loop {
            match self.install_one_below(self.wal.forced_lsn())? {
                InstallStep::NeedsStable(_) => self.wal.force(),
                step => return Ok(step == InstallStep::Installed),
            }
        }
    }

    /// [`Engine::install_one`] with the WAL protocol as a precondition, not
    /// a force: the node installs only if its operations lie below
    /// `stable`, the caller's end of stable log.
    pub fn install_one_below(&mut self, stable: Lsn) -> Result<InstallStep> {
        match self.config.graph {
            GraphKind::RW => match self.oldest_minimal() {
                None => Ok(InstallStep::Idle),
                Some(n) => self.install_rw_node_below(n, stable),
            },
            GraphKind::W => self.install_w_minimal(stable),
        }
    }

    /// Pick the minimal rW node whose earliest operation is oldest.
    fn oldest_minimal(&self) -> Option<NodeId> {
        Metrics::bump(&self.metrics.rw_nodes_visited, 1);
        self.rw.oldest_minimal()
    }

    /// Install everything: drain the write graph (normal-shutdown path and
    /// the "sharp checkpoint" used by experiments).
    pub fn install_all(&mut self) -> Result<()> {
        while self.install_one()? {}
        Ok(())
    }

    /// Install a specific rW node (must be minimal when called), forcing
    /// the in-memory log as the WAL protocol needs.
    pub fn install_rw_node(&mut self, mut n: NodeId) -> Result<()> {
        let rep_op = self.rw.node(n).and_then(|nd| nd.ops().first().copied());
        while self.install_rw_node_below(n, self.wal.forced_lsn())? != InstallStep::Installed {
            self.wal.force();
            // A breakup may have merged the node into a fresh one.
            n = rep_op.and_then(|op| self.rw.node_of_op(op)).unwrap_or(n);
        }
        Ok(())
    }

    /// Install rW node `n` (must be minimal) if its operations lie below
    /// `stable`; never [`InstallStep::Idle`].
    ///
    /// With the identity-write strategy, breaking up the flush set can make
    /// the node non-minimal again: turning `Lastw(n,x)` unexposed surfaces
    /// *inverse write-read* predecessors — nodes that read that version and
    /// must install first. Those predecessors are installed (recursively)
    /// before `n`; the recursion terminates because every step installs a
    /// node of an acyclic graph. `stable` is checked before every step, so
    /// no identity write is logged for a node that cannot install yet; the
    /// flush then waits for the identity writes themselves to be stable.
    fn install_rw_node_below(&mut self, n: NodeId, stable: Lsn) -> Result<InstallStep> {
        let node = self
            .rw
            .node(n)
            .ok_or_else(|| LlogError::CacheProtocol(format!("no rW node {n:?}")))?;
        if !node.preds().is_empty() {
            return Err(LlogError::CacheProtocol(format!(
                "rW node {n:?} is not minimal"
            )));
        }
        // The identity writes below mutate the graph: they can surface
        // inverse write-read predecessors, and their cycle collapses can
        // merge the node into a fresh one. Track it through a
        // representative operation.
        let rep_op = *node.ops().first().expect("node has operations");
        let mut current = n;
        loop {
            let node = self
                .rw
                .node(current)
                .ok_or_else(|| LlogError::CacheProtocol("node lost during breakup".into()))?;
            if let Some(lsn) = self.unstable_op(node.ops(), stable) {
                return Ok(InstallStep::NeedsStable(lsn));
            }
            let vars: Vec<ObjectId> = node.vars().iter().copied().collect();

            // §4: break up a multi-object flush set with identity writes.
            if vars.len() > 1 && self.config.flush == FlushStrategy::IdentityWrites {
                // Keep one object to be flushed directly ("we can avoid the
                // need to log at least one object of the set"): keep the
                // largest, so the smaller values are the ones logged.
                let keep = *vars
                    .iter()
                    .max_by_key(|&&x| self.peek_value(x).len())
                    .expect("nonempty vars");
                for x in vars {
                    // Re-check membership: earlier identity writes may have
                    // reshaped the node.
                    let here = self.rw.node_of_op(rep_op).ok_or_else(|| {
                        LlogError::CacheProtocol("node lost during breakup".into())
                    })?;
                    let still_in = self.rw.node(here).is_some_and(|nd| nd.vars().contains(&x));
                    if x != keep && still_in {
                        self.identity_write(x)?;
                    }
                }
                current = self
                    .rw
                    .node_of_op(rep_op)
                    .ok_or_else(|| LlogError::CacheProtocol("node lost during breakup".into()))?;
                continue;
            }

            // Readers of now-unexposed values must install before us: clear
            // any predecessors the breakup surfaced by installing other
            // minimal nodes (the graph is acyclic, so progress is
            // guaranteed).
            if !node.preds().is_empty() {
                let m = self.oldest_minimal().ok_or_else(|| {
                    LlogError::CacheProtocol("no installable predecessor for broken-up node".into())
                })?;
                if let step @ InstallStep::NeedsStable(_) = self.install_rw_node_below(m, stable)? {
                    return Ok(step);
                }
                current = self
                    .rw
                    .node_of_op(rep_op)
                    .ok_or_else(|| LlogError::CacheProtocol("node lost during breakup".into()))?;
                continue;
            }

            let vars: Vec<ObjectId> = node.vars().iter().copied().collect();
            let ops: Vec<OpId> = node.ops().to_vec();
            let notx: Vec<ObjectId> = node.notx().into_iter().collect();
            // Once the flush overwrites what redoing `n` would read, an
            // unexposed object's value survives only in the record of the
            // later write that unexposed it — a blind write, or an identity
            // write the breakup above just logged. That record must be
            // stable before the flush.
            if !vars.is_empty() {
                if let Some(lsn) = self.unstable_writer(&notx, stable) {
                    return Ok(InstallStep::NeedsStable(lsn));
                }
            }
            self.do_install(&ops, &vars, &notx)?;
            self.rw.remove_node(current);
            return Ok(InstallStep::Installed);
        }
    }

    /// W-mode: rebuild `W` from the live operations, install one minimal
    /// node if its operations lie below `stable`.
    fn install_w_minimal(&mut self, stable: Lsn) -> Result<InstallStep> {
        let ops_in_order: Vec<Operation> = self.live_ops.values().map(|l| l.op.clone()).collect();
        if ops_in_order.is_empty() {
            return Ok(InstallStep::Idle);
        }
        let w = WriteGraph::build(&ops_in_order);
        let minimals = w.minimal_nodes();
        let &n = minimals.first().expect("nonempty W has a minimal node");
        let node = &w.nodes()[n];
        if let Some(lsn) = self.unstable_op(&node.ops, stable) {
            return Ok(InstallStep::NeedsStable(lsn));
        }
        let ops = node.ops.clone();
        let vars: Vec<ObjectId> = node.vars.iter().copied().collect();
        // In W, vars(n) = Writes(n): nothing is unexposed.
        self.do_install(&ops, &vars, &[])?;
        Ok(InstallStep::Installed)
    }

    /// The LSN of the last live write to any of `objs` if the stable log,
    /// which ends at `stable`, does not hold it yet.
    fn unstable_writer(&self, objs: &[ObjectId], stable: Lsn) -> Option<Lsn> {
        let last = objs
            .iter()
            .filter_map(|x| self.writers.get(x)?.keys().next_back().copied());
        last.max().filter(|&lsn| lsn >= stable)
    }

    /// The LSN of the last of `ops` if the stable log, which ends at
    /// `stable`, does not hold it yet.
    fn unstable_op(&self, ops: &[OpId], stable: Lsn) -> Option<Lsn> {
        let last = ops
            .iter()
            .filter_map(|id| self.live_ops.get(id))
            .map(|l| l.lsn);
        last.max().filter(|&lsn| lsn >= stable)
    }

    /// The shared installation core, for operations on the stable log:
    /// flush `vars` (atomically if multi-object), advance rSIs for
    /// `vars ∪ notx`, retire the operations, and log the installation of
    /// the objects the store cannot vouch for.
    fn do_install(&mut self, ops: &[OpId], vars: &[ObjectId], notx: &[ObjectId]) -> Result<()> {
        Metrics::bump(&self.metrics.install_vars_objects, vars.len() as u64);
        Metrics::bump(&self.metrics.install_notx_objects, notx.len() as u64);

        // A flush that removes an object leaves it no vSI to witness the
        // installed updates, so the log must carry its rSI.
        let removed: Vec<ObjectId> = vars
            .iter()
            .copied()
            .filter(|x| self.cache.get(x).is_some_and(|e| e.deleted))
            .collect();

        // Flush vars.
        match vars.len() {
            0 => {}
            1 => self.flush_single(vars[0]),
            _ => self.flush_atomic(vars)?,
        }

        // Retire the operations before computing new rSIs.
        for id in ops {
            let live = self.live_ops.remove(id).expect("live op");
            for &x in &live.op.writes {
                if let Some(map) = self.writers.get_mut(&x) {
                    map.remove(&live.lsn);
                    if map.is_empty() {
                        self.writers.remove(&x);
                    }
                }
            }
            if self.config.audit {
                self.installed_ops.insert(*id);
            }
        }

        // New rSIs: lSI of the first still-uninstalled writer (MAX = clean).
        let new_rsi = |engine: &Engine, x: ObjectId| {
            engine
                .writers
                .get(&x)
                .and_then(|m| m.keys().next().copied())
                .unwrap_or(Lsn::MAX)
        };
        let mut install = InstallRecord::default();
        for &x in vars {
            let rsi = new_rsi(self, x);
            if removed.contains(&x) {
                install.objs.push((x, rsi));
            }
            if rsi == Lsn::MAX {
                // Clean: flushed value is current; leaves the dirty table.
                self.dirty_rsi.remove(&x);
                if let Some(e) = self.cache.get_mut(&x) {
                    e.dirty = false;
                }
            } else {
                self.dirty_rsi.insert(x, rsi);
            }
        }
        for &x in notx {
            // Unexposed: installed without flushing; stays dirty in cache
            // (the cached value belongs to a later, uninstalled writer).
            let rsi = new_rsi(self, x);
            install.objs.push((x, rsi));
            if rsi == Lsn::MAX {
                self.dirty_rsi.remove(&x);
            } else {
                self.dirty_rsi.insert(x, rsi);
            }
        }
        // Log the installation (§5) where the store cannot show it. A
        // flushed object still in the store needs no record: its vSI makes
        // the REDO test skip every update the flush installed. Lazy: not
        // forced; the vSI test covers the window until the next force.
        if !install.objs.is_empty() {
            self.wal.append(&LogRecord::Install(install));
        }
        Ok(())
    }

    /// Flush one object in place (single-object writes are atomic).
    fn flush_single(&mut self, x: ObjectId) {
        if let Some(b) = self.backup.as_mut() {
            b.before_overwrite(&self.store, x);
        }
        let entry = self.cache.get(&x).expect("flushing uncached object");
        if entry.deleted {
            self.store.remove(x);
            self.cache.remove(&x);
        } else {
            self.store.write(x, entry.value.clone(), entry.vsi);
        }
    }

    /// Flush several objects atomically via the configured §4 baseline.
    fn flush_atomic(&mut self, vars: &[ObjectId]) -> Result<()> {
        match self.config.flush {
            FlushStrategy::Forbid | FlushStrategy::IdentityWrites => {
                // IdentityWrites should have reduced |vars| before we got
                // here; reaching this arm is a protocol error.
                Err(LlogError::AtomicityUnavailable {
                    objects: vars.len(),
                })
            }
            FlushStrategy::FlushTxn => {
                // Freeze the system for the duration (§4).
                Metrics::bump(&self.metrics.quiesces, 1);
                Metrics::bump(&self.metrics.atomic_groups, 1);
                Metrics::bump(&self.metrics.atomic_group_objects, vars.len() as u64);
                self.wal.append(&LogRecord::FlushTxnBegin {
                    objs: vars.to_vec(),
                });
                for &x in vars {
                    let e = self.cache.get(&x).expect("flushing uncached object");
                    self.wal.append(&LogRecord::FlushTxnValue {
                        obj: x,
                        value: e.value.clone(),
                        vsi: e.vsi,
                    });
                }
                self.wal.append(&LogRecord::FlushTxnCommit);
                self.wal.force(); // commit point
                                  // In-place writes, one I/O each, safe now that the txn is
                                  // committed (recovery completes them from the log).
                for &x in vars {
                    if let Some(b) = self.backup.as_mut() {
                        b.before_overwrite(&self.store, x);
                    }
                    let e = self
                        .cache
                        .get(&x)
                        .expect("flushing uncached object")
                        .clone();
                    if e.deleted {
                        self.store.remove(x);
                        self.cache.remove(&x);
                    } else {
                        self.store.write(x, e.value, e.vsi);
                    }
                }
                Ok(())
            }
            FlushStrategy::Shadow => {
                let mut sh = ShadowStore::new();
                let mut deletes = Vec::new();
                for &x in vars {
                    if let Some(b) = self.backup.as_mut() {
                        b.before_overwrite(&self.store, x);
                    }
                    let e = self
                        .cache
                        .get(&x)
                        .expect("flushing uncached object")
                        .clone();
                    if e.deleted {
                        deletes.push(x);
                    } else {
                        sh.stage(&self.store, x, e.value, e.vsi);
                    }
                }
                sh.commit(&mut self.store);
                for x in deletes {
                    self.store.remove(x);
                    self.cache.remove(&x);
                }
                Ok(())
            }
        }
    }

    /// Evict a clean object from the cache to make room. Dirty objects must
    /// be installed first ("we continue to require that an object be clean
    /// before it can be dropped from the cache").
    pub fn evict(&mut self, x: ObjectId) -> Result<()> {
        match self.cache.get(&x) {
            None => Ok(()),
            Some(e) if !e.dirty => {
                self.cache.remove(&x);
                Ok(())
            }
            Some(_) => Err(LlogError::CacheProtocol(format!(
                "evicting dirty object {x}"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Write a fuzzy checkpoint: log the dirty object table and force. If
    /// `truncate`, also discard the log prefix before the redo-scan start
    /// point (only installed operations are dropped).
    pub fn checkpoint(&mut self, truncate: bool) -> Result<Lsn> {
        let redo_start = self
            .dirty_rsi
            .values()
            .copied()
            .min()
            .unwrap_or_else(|| self.wal.end_lsn());
        let cp = CheckpointRecord {
            dirty: self.dirty_rsi.iter().map(|(&x, &rsi)| (x, rsi)).collect(),
            redo_start,
        };
        let lsn = self.wal.append(&LogRecord::Checkpoint(cp));
        self.wal.force();
        if truncate {
            // An in-progress backup pins the log at its redo start: media
            // recovery will need to replay from there.
            let mut cut = redo_start.min(lsn);
            if let Some(b) = &self.backup {
                cut = cut.min(b.redo_start);
            }
            if cut > self.wal.start_lsn() {
                self.wal.truncate_to(cut)?;
            }
        }
        Ok(lsn)
    }

    // ------------------------------------------------------------------
    // Fuzzy backups (media recovery, §1 / [Lomet, Media Recovery])
    // ------------------------------------------------------------------

    /// Begin a fuzzy backup of the stable database. Forces the log first so
    /// the backup-start point is durable. At most one backup runs at a
    /// time.
    pub fn begin_backup(&mut self, mode: BackupMode) -> Result<()> {
        if self.backup.is_some() {
            return Err(LlogError::CacheProtocol(
                "backup already in progress".into(),
            ));
        }
        self.wal.force();
        let start_lsn = self.wal.forced_lsn();
        let redo_start = self
            .dirty_rsi
            .values()
            .copied()
            .min()
            .unwrap_or(start_lsn)
            .max(self.wal.start_lsn());
        let sweep: Vec<ObjectId> = self.store.iter().map(|(&x, _)| x).collect();
        self.backup = Some(BackupInProgress::new(mode, start_lsn, redo_start, sweep));
        Ok(())
    }

    /// Copy up to `n` more objects into the in-progress backup.
    pub fn backup_step(&mut self, n: usize) -> Result<usize> {
        let b = self
            .backup
            .as_mut()
            .ok_or_else(|| LlogError::CacheProtocol("no backup in progress".into()))?;
        Ok(b.step(&self.store, n))
    }

    /// Finish the backup: drains the sweep and returns the restorable
    /// [`Backup`].
    pub fn finish_backup(&mut self) -> Result<Backup> {
        let b = self
            .backup
            .take()
            .ok_or_else(|| LlogError::CacheProtocol("no backup in progress".into()))?;
        Ok(b.finish(&self.store))
    }

    /// The redo-start LSN the in-progress backup pins, if any.
    pub fn backup_redo_start(&self) -> Option<Lsn> {
        self.backup.as_ref().map(|b| b.redo_start)
    }

    /// Apply a physically-logged flushed value (flush-transaction redo
    /// during media recovery): write it stably and cache it clean.
    pub fn apply_flushed_value(&mut self, x: ObjectId, value: Value, vsi: Lsn) {
        self.store.write(x, value.clone(), vsi);
        self.clock += 1;
        self.cache.insert(
            x,
            CacheEntry {
                value,
                vsi,
                dirty: false,
                deleted: false,
                last_access: self.clock,
            },
        );
    }

    /// Like [`checkpoint`](Self::checkpoint) with truncation, but the
    /// discarded log prefix moves into `archive` so media recovery can
    /// still roll a backup forward across it. An in-progress backup's
    /// redo-start pin is honored.
    pub fn checkpoint_archiving(&mut self, archive: &mut llog_wal::LogArchive) -> Result<Lsn> {
        let lsn = self.checkpoint(false)?;
        let mut cut = self
            .dirty_rsi
            .values()
            .copied()
            .min()
            .unwrap_or(lsn)
            .min(lsn);
        if let Some(b) = &self.backup {
            cut = cut.min(b.redo_start);
        }
        if cut > self.wal.start_lsn() {
            self.wal.truncate_to_archiving(cut, archive)?;
        }
        Ok(lsn)
    }

    // ------------------------------------------------------------------
    // Crash & teardown
    // ------------------------------------------------------------------

    /// Crash: drop all volatile state; the stable store and the forced log
    /// prefix survive. Returns the surviving parts.
    pub fn crash(mut self) -> (StableStore, Wal) {
        self.wal.crash();
        (self.store, self.wal)
    }

    /// Crash with a torn log tail (`partial` buffered bytes hit the disk).
    pub fn crash_torn(mut self, partial: usize) -> (StableStore, Wal) {
        self.wal.crash_torn(partial);
        (self.store, self.wal)
    }

    /// Orderly shutdown: install everything, checkpoint, and return parts.
    pub fn shutdown(mut self) -> Result<(StableStore, Wal)> {
        self.install_all()?;
        self.checkpoint(false)?;
        Ok((self.store, self.wal))
    }

    // ------------------------------------------------------------------
    // Audit (test oracle hooks; require config.audit)
    // ------------------------------------------------------------------

    /// The full history executed through this engine (audit mode).
    pub fn audit_history(&self) -> &[Operation] {
        assert!(self.config.audit, "audit mode disabled");
        &self.full_history
    }

    /// Ids of operations this engine has installed (audit mode).
    pub fn audit_installed(&self) -> &BTreeSet<OpId> {
        assert!(self.config.audit, "audit mode disabled");
        &self.installed_ops
    }

    /// Does the engine's installed set explain the stable store? (§2's
    /// central invariant; checked by tests after every install.)
    pub fn audit_explainable(&self) -> Result<bool> {
        assert!(self.config.audit, "audit mode disabled");
        let state: BTreeMap<ObjectId, Value> = self
            .store
            .iter()
            .map(|(&x, o)| (x, o.value.clone()))
            .collect();
        crate::exposed::explains(
            &self.full_history,
            &self.installed_ops,
            &BTreeMap::new(),
            &state,
            &self.registry,
        )
    }

    /// Audit both graph consistency and stable-state explainability.
    pub fn audit_all(&self) -> Result<()> {
        self.rw.check_consistency();
        if !self.audit_explainable()? {
            return Err(LlogError::Unexplainable(
                "installed set does not explain stable store".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::builtin;

    const X: ObjectId = ObjectId(1);
    const Y: ObjectId = ObjectId(2);
    const B: ObjectId = ObjectId(3);

    fn engine(flush: FlushStrategy) -> Engine {
        Engine::new(
            EngineConfig {
                graph: GraphKind::RW,
                flush,
                audit: true,
            },
            TransformRegistry::with_builtins(),
        )
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

    fn exec_physical(e: &mut Engine, x: u64, v: &str) -> (OpId, Lsn) {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(x)],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
        )
        .unwrap()
    }

    #[test]
    fn execute_updates_cache_and_dirty_table() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        let (_, lsn) = exec_physical(&mut e, 1, "v1");
        assert_eq!(e.read_value(X), Value::from("v1"));
        assert_eq!(e.dirty_table().get(&X), Some(&lsn));
        assert_eq!(e.dirty_count(), 1);
        // Nothing flushed yet.
        assert!(e.store().peek(X).is_none());
    }

    #[test]
    fn install_flushes_and_cleans() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v1");
        assert!(e.install_one().unwrap());
        assert_eq!(e.store().peek(X).unwrap().value, Value::from("v1"));
        assert!(e.dirty_table().is_empty());
        assert_eq!(e.dirty_count(), 0);
        assert!(!e.install_one().unwrap());
        e.audit_all().unwrap();
    }

    /// The WAL protocol as a precondition: a node with an operation at or
    /// above the stable bound is neither installed nor broken up, and the
    /// step names the operation the stable log must pass.
    #[test]
    fn install_below_an_unstable_op_installs_nothing_and_reports_its_lsn() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        let (_, x_lsn) = exec_physical(&mut e, 1, "x0");
        let stable = e.wal().forced_lsn();
        assert_eq!(
            e.install_one_below(stable).unwrap(),
            InstallStep::NeedsStable(x_lsn)
        );
        assert!(e.store().peek(X).is_none());
        e.wal_mut().force();
        let stable = e.wal().forced_lsn();
        assert_eq!(e.install_one_below(stable).unwrap(), InstallStep::Installed);
        exec_physical(&mut e, 2, "y0");
        e.install_all().unwrap();

        // §4's cycle needs identity writes to install: none may be logged
        // while its operations are not stable.
        let stable = e.wal().forced_lsn();
        exec_logical(&mut e, &[1, 2], &[2], 0);
        exec_logical(&mut e, &[2], &[1], 1);
        let (_, last) = exec_logical(&mut e, &[2], &[2], 2);
        let (end, before) = (e.wal().end_lsn(), e.store().snapshot());
        assert_eq!(
            e.install_one_below(stable).unwrap(),
            InstallStep::NeedsStable(last)
        );
        assert_eq!(e.wal().end_lsn(), end, "nothing logged");
        assert_eq!(e.metrics().snapshot().identity_writes, 0);
        assert_eq!(e.store().snapshot(), before);
        assert_eq!(e.uninstalled_count(), 3);
        e.install_all().unwrap();
        assert!(e.metrics().snapshot().identity_writes >= 1);
        e.audit_all().unwrap();
    }

    #[test]
    fn wal_forced_before_flush() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v1");
        assert_eq!(e.metrics().snapshot().log_forces, 0);
        e.install_one().unwrap();
        assert!(e.metrics().snapshot().log_forces >= 1);
    }

    #[test]
    fn figure_one_flush_order_enforced() {
        // A: Y ← f(X,Y); B: X ← g(Y). Installing must flush Y's node first.
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        exec_logical(&mut e, &[2], &[1], 1); // B
        assert!(e.install_one().unwrap());
        // After one install, Y must be stable, X must not be.
        assert!(e.store().peek(Y).is_some());
        assert!(e.store().peek(X).is_none());
        e.audit_all().unwrap();
        assert!(e.install_one().unwrap());
        assert!(e.store().peek(X).is_some());
        e.audit_all().unwrap();
    }

    #[test]
    fn identity_writes_break_multi_object_set() {
        // One op writes {X, Y}: vars = 2. IdentityWrites strategy must
        // install without any atomic group.
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.atomic_groups, 0, "no atomic multi-object flush");
        assert_eq!(m.identity_writes, 1, "one identity write for a pair");
        assert!(e.store().peek(X).is_some());
        assert!(e.store().peek(Y).is_some());
        e.audit_all().unwrap();
    }

    #[test]
    fn flush_txn_strategy_quiesces_and_double_writes() {
        let mut e = engine(FlushStrategy::FlushTxn);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.quiesces, 1);
        assert_eq!(m.atomic_groups, 1);
        assert_eq!(m.atomic_group_objects, 2);
        assert_eq!(m.identity_writes, 0);
        e.audit_all().unwrap();
    }

    #[test]
    fn shadow_strategy_counts_root_write() {
        let mut e = engine(FlushStrategy::Shadow);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.shadow_commits, 1);
        e.audit_all().unwrap();
    }

    #[test]
    fn forbid_strategy_rejects_multi_object_sets() {
        let mut e = engine(FlushStrategy::Forbid);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        assert!(matches!(
            e.install_all(),
            Err(LlogError::AtomicityUnavailable { objects: 2 })
        ));
    }

    #[test]
    fn figure_seven_unexposed_object_installed_without_flush() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1, 2], 0); // A writes X,Y
        exec_logical(&mut e, &[1], &[3], 1); // B reads X
        exec_physical(&mut e, 1, "blind"); // C blindly writes X

        // Install B's node, then A's node (flushing only Y).
        assert!(e.install_one().unwrap()); // B (minimal)
        assert!(e.install_one().unwrap()); // A via Y only
        assert!(e.store().peek(Y).is_some());
        // X was installed unexposed: not flushed, still dirty with C's value.
        assert!(e.store().peek(X).is_none());
        assert_eq!(e.peek_value(X), Value::from("blind"));
        assert_eq!(e.dirty_count(), 1);
        e.audit_all().unwrap();

        // rSI of X advanced to C's lSI.
        let c_lsn = e.dirty_table()[&X];
        assert!(e.install_one().unwrap()); // C's node flushes X
        assert!(e.dirty_table().is_empty());
        assert_eq!(e.store().peek(X).unwrap().vsi, c_lsn);
        e.audit_all().unwrap();
    }

    /// Every record appended from `from` on, once forced.
    fn records_from(e: &mut Engine, from: Lsn) -> Vec<LogRecord> {
        e.wal_mut().force();
        e.wal().scan(from).map(|r| r.unwrap().1).collect()
    }

    #[test]
    fn installing_a_blind_write_appends_no_record() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        let (_, lsn) = exec_physical(&mut e, 1, "v1");
        e.wal_mut().force();
        let from = e.wal().end_lsn();
        e.install_all().unwrap();
        // The store's vSI shows the install; the log says nothing more.
        assert_eq!(e.store().peek(X).unwrap().vsi, lsn);
        assert!(e.dirty_table().is_empty());
        assert_eq!(records_from(&mut e, from), vec![]);
    }

    #[test]
    fn an_unexposed_install_logs_only_its_notx_objects() {
        // Figure 7: A writes X,Y; B reads X; C blindly writes X.
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        exec_logical(&mut e, &[1], &[3], 1);
        let (_, c_lsn) = exec_physical(&mut e, 1, "blind");
        e.wal_mut().force();
        let from = e.wal().end_lsn();
        assert!(e.install_one().unwrap()); // B: flushes B
        assert!(e.install_one().unwrap()); // A: flushes Y, X unexposed
        assert!(e.install_one().unwrap()); // C: flushes X
        assert!(e.dirty_table().is_empty());
        // Only A's unexposed X needs the log; Y and B are in the store.
        assert_eq!(
            records_from(&mut e, from),
            vec![LogRecord::Install(InstallRecord {
                objs: vec![(X, c_lsn)],
            })]
        );
        e.audit_all().unwrap();
    }

    #[test]
    fn delete_removes_object_at_install() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "data");
        e.install_all().unwrap();
        assert!(e.store().peek(X).is_some());

        e.execute(
            OpKind::Delete,
            vec![],
            vec![X],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap();
        e.wal_mut().force();
        let from = e.wal().end_lsn();
        e.install_all().unwrap();
        assert!(e.store().peek(X).is_none());
        assert!(e.dirty_table().is_empty());
        // No vSI is left to show the delete installed: the log says it.
        assert_eq!(
            records_from(&mut e, from),
            vec![LogRecord::Install(InstallRecord {
                objs: vec![(X, Lsn::MAX)],
            })]
        );
    }

    #[test]
    fn eviction_requires_clean() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v");
        assert!(e.evict(X).is_err());
        e.install_all().unwrap();
        e.evict(X).unwrap();
        // Read faults it back in from stable state.
        assert_eq!(e.read_value(X), Value::from("v"));
    }

    #[test]
    fn checkpoint_truncates_installed_prefix() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        for i in 0..5 {
            exec_physical(&mut e, i, "v");
        }
        e.install_all().unwrap();
        let before = e.wal().stable_len();
        e.checkpoint(true).unwrap();
        let after = e.wal().stable_len();
        assert!(after < before, "log should shrink: {before} -> {after}");
        // The checkpoint record itself survives.
        assert!(e.wal().master_checkpoint().is_some());
    }

    #[test]
    fn checkpoint_preserves_uninstalled_ops() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "a");
        e.install_all().unwrap();
        let (_, keep_lsn) = exec_physical(&mut e, 2, "b"); // uninstalled
        e.checkpoint(true).unwrap();
        assert!(
            e.wal().start_lsn() <= keep_lsn,
            "uninstalled op truncated away"
        );
    }

    #[test]
    fn explainability_holds_after_every_install() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        // A tangle of logical ops.
        exec_logical(&mut e, &[1, 2], &[2], 0);
        exec_logical(&mut e, &[2], &[1], 1);
        exec_logical(&mut e, &[2], &[2], 2);
        exec_logical(&mut e, &[1], &[3], 3);
        exec_physical(&mut e, 1, "blind");
        loop {
            e.audit_all().unwrap();
            if !e.install_one().unwrap() {
                break;
            }
        }
        e.audit_all().unwrap();
        assert!(e.dirty_table().is_empty());
    }

    #[test]
    fn next_op_monotone_across_logged_ops() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        let (id0, _) = exec_physical(&mut e, 1, "a");
        let (id1, _) = exec_physical(&mut e, 2, "b");
        assert!(id1 > id0);
        let op = Operation::physical(10, 3, Value::from("c"));
        e.apply_logged(&op, Lsn(9999)).unwrap();
        let (id2, _) = exec_physical(&mut e, 4, "d");
        assert!(id2.0 > 10);
    }

    #[test]
    fn peek_value_sees_cache_over_store() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v1");
        e.install_all().unwrap();
        exec_physical(&mut e, 1, "v2");
        assert_eq!(e.peek_value(X), Value::from("v2"));
        assert_eq!(e.store().peek(X).unwrap().value, Value::from("v1"));
    }

    #[test]
    fn w_mode_installs_atomically_with_flush_txn() {
        let mut e = Engine::new(
            EngineConfig {
                graph: GraphKind::W,
                flush: FlushStrategy::FlushTxn,
                audit: true,
            },
            TransformRegistry::with_builtins(),
        );
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        exec_logical(&mut e, &[2], &[1], 1); // B
        exec_logical(&mut e, &[2], &[2], 2); // C: cycle in W ⇒ one node {X,Y}
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.atomic_groups, 1);
        assert_eq!(m.atomic_group_objects, 2);
        assert!(e.store().peek(X).is_some());
        assert!(e.store().peek(Y).is_some());
    }

    #[test]
    fn identity_write_logs_value_physically() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "current-value");
        let before = e.metrics().snapshot().log_bytes;
        e.identity_write(X).unwrap();
        let after = e.metrics().snapshot().log_bytes;
        assert!(
            after - before >= "current-value".len() as u64,
            "identity write must log the value"
        );
        assert_eq!(e.read_value(X), Value::from("current-value"));
    }

    #[test]
    fn blind_overwrite_in_cache_keeps_unexposed_dirty() {
        // After installing an unexposed object, its cache entry must remain
        // dirty (stable copy differs).
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1, 2], 0); // writes X,Y
        exec_physical(&mut e, 1, "newer"); // blind write X
        assert!(e.install_one().unwrap()); // installs first node, flushes Y
        let entry_dirty = e.dirty_count();
        assert!(entry_dirty >= 1, "X must stay dirty");
        assert_ne!(
            e.store().peek(X).map(|o| o.value.clone()),
            Some(Value::from("newer"))
        );
    }

    #[test]
    fn bounded_cache_evicts_clean_lru() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        e.set_cache_capacity(Some(4));
        for i in 0..12 {
            exec_physical(&mut e, i, "v");
            e.install_all().unwrap(); // everything becomes clean
        }
        assert!(e.cache_len() <= 4, "cache at {}", e.cache_len());
        assert!(e.metrics().snapshot().evictions >= 8);
        // Evicted objects fault back in correctly.
        assert_eq!(e.read_value(ObjectId(0)), Value::from("v"));
    }

    #[test]
    fn bounded_cache_installs_under_dirty_pressure() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        e.set_cache_capacity(Some(3));
        for i in 0..10 {
            exec_physical(&mut e, i, "v"); // all dirty, no manual installs
        }
        // The cache manager had to install on its own to make room.
        assert!(e.metrics().snapshot().obj_writes > 0);
        assert!(e.cache_len() <= 4, "cache at {}", e.cache_len());
    }

    #[test]
    fn bounded_cache_keeps_recovery_correct() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        e.set_cache_capacity(Some(3));
        exec_logical(&mut e, &[1, 2], &[2], 0);
        exec_logical(&mut e, &[2], &[1], 1);
        exec_physical(&mut e, 3, "c");
        exec_logical(&mut e, &[3, 1], &[4], 2);
        let want: Vec<Value> = (1..=4).map(|i| e.peek_value(ObjectId(i))).collect();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (rec, _) = crate::recover::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            crate::redo::RedoPolicy::RsiExposed,
        )
        .unwrap();
        let got: Vec<Value> = (1..=4).map(|i| rec.peek_value(ObjectId(i))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn b_node_reading_unexposed_version_installs_first() {
        // The inverse write-read edge ordering is enforced end to end.
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1], 0); // w1 writes X
        exec_logical(&mut e, &[1], &[3], 1); // r reads X, writes B
        exec_physical(&mut e, 1, "blind"); // w2 blind-writes X
        assert!(e.install_one().unwrap());
        // First install must be r's node (B stable), not w1's.
        assert!(e.store().peek(B).is_some());
        e.audit_all().unwrap();
        e.install_all().unwrap();
        e.audit_all().unwrap();
    }
}
