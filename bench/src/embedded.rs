//! `embedded_logical`: the paper's own ground. No server, no sharding —
//! one `Engine` driven by one thread through `llog-domains` (B-tree with
//! logical splits, files with logical copy and sort, a queue whose
//! consumed messages are transients, a recoverable VM), on a file backend
//! with real fsync. Single-threaded with no timers, so every count
//! repeats exactly for one seed.
//!
//! The harness is the application: it commits (`force` + `persist_wal`),
//! installs when the write graph reaches the sharded engine's
//! `install_high_water`, and checkpoints + persists the store device
//! every [`CHECKPOINT_EVERY`] ops. The crash image leaves a tail of
//! uninstalled, uncheckpointed ops for every restart to redo.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use llog_core::{recover, Engine, EngineConfig, RecoveryOutcome, RedoPolicy};
use llog_domains::appvm::{Instr, RecoverableVm, VmState};
use llog_domains::btree::BTree;
use llog_domains::fs::FileSystem;
use llog_domains::queue::Queue;
use llog_ops::{OpKind, TransformRegistry};
use llog_storage::device::DeviceConfig;
use llog_storage::{Metrics, MetricsSnapshot, StableStore};
use llog_testkit::TestRng;
use llog_types::{LlogError, Lsn, ObjectId, Result};
use llog_wal::{DurabilityBackend, LogRecord, Wal};

use crate::gen::{bytes_of, value_of};
use crate::report::{EndToEnd, Report};
use crate::stats::{in_even_segment, CYCLES, SLICES};
use crate::trace::{Tracer, NONE};
use crate::{affinity, dir_bytes, Env};

/// Install when this many operations are uninstalled — the sharded
/// engine's `install_high_water`.
const INSTALL_AT: usize = 64;
/// Checkpoint (truncating) and persist the store device this often.
const CHECKPOINT_EVERY: usize = 8_192;
/// Ops per commit in the pipelined phase.
pub const BATCH: usize = 16;
/// Ops in each small batch that walks the store device to its next fold
/// (see the crash cycles).
const FOLD_OPS: usize = 64;
const BTREE_ORDER: usize = 32;
const BTREE_VALUE: usize = 64;
const BTREE_META: ObjectId = ObjectId(1);
const VM_STATE: ObjectId = ObjectId(3);
const VM_BUDGET: u32 = 64;
const SOURCE_FILES: usize = 16;
const DERIVED_FILES: usize = 8;
const FILE_CAP: usize = 4096;
const FILE_KEEP: u32 = 1024;
const FILE_RECORD: usize = 32;
const QUEUE_PAYLOAD: usize = 48;

/// Op counts at the reference run length ([`crate::REF_SECONDS`]).
#[derive(Debug, Clone, Copy)]
pub struct EmbeddedSpec {
    pub name: &'static str,
    /// B-tree key space.
    pub keys: usize,
    pub preload: usize,
    pub lockstep: usize,
    pub pipelined: usize,
    /// Ops left uninstalled and uncheckpointed at each kill.
    pub tail: usize,
}

pub const EMBEDDED_LOGICAL: EmbeddedSpec = EmbeddedSpec {
    name: "embedded_logical",
    keys: 40_000,
    preload: 120_000,
    lockstep: 110_000,
    pipelined: 340_000,
    tail: 2_000,
};

/// One application-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EOp {
    BtInsert {
        key: u64,
        version: u32,
    },
    BtRemove {
        key: u64,
    },
    /// `held`: the version the model holds (0 = absent).
    BtGet {
        key: u64,
        held: u32,
    },
    FsAppend {
        file: usize,
        seed: u64,
    },
    /// Takes an append's place when the file is at its 4 KiB cap.
    FsTruncate {
        file: usize,
    },
    FsCopy {
        src: usize,
        dst: usize,
    },
    FsSort {
        src: usize,
        dst: usize,
    },
    QEnqueue {
        seed: u64,
    },
    /// `seed`: the payload the head message must carry.
    QAck {
        seed: u64,
    },
    VmStep,
}

impl EOp {
    fn is_read(&self) -> bool {
        matches!(self, EOp::BtGet { .. })
    }

    /// The span / metric name of the domain call behind this op.
    fn span(&self) -> &'static str {
        match self {
            EOp::BtInsert { .. } => "domains.btree_insert",
            EOp::BtRemove { .. } => "domains.btree_remove",
            EOp::BtGet { .. } => "domains.btree_get",
            EOp::FsAppend { .. } | EOp::FsTruncate { .. } => "domains.fs_append",
            EOp::FsCopy { .. } => "domains.fs_copy",
            EOp::FsSort { .. } => "domains.fs_sort",
            EOp::QEnqueue { .. } => "domains.queue_enqueue",
            EOp::QAck { .. } => "domains.queue_ack",
            EOp::VmStep => "domains.appvm_step",
        }
    }
}

fn file_path(index: usize) -> String {
    if index < SOURCE_FILES {
        format!("f{index:02}")
    } else if index < SOURCE_FILES + DERIVED_FILES {
        format!("c{}", index - SOURCE_FILES)
    } else {
        format!("s{}", index - SOURCE_FILES - DERIVED_FILES)
    }
}

/// A loop that never grows the machine state: counter, xor, multiply.
fn vm_program() -> Vec<Instr> {
    vec![
        Instr::LoadConst(0, 1),
        Instr::LoadConst(1, 0x9E37_79B9_7F4A_7C15),
        Instr::Add(2, 0),
        Instr::Xor(3, 2),
        Instr::Mul(3, 1),
        Instr::Jmp(2),
    ]
}

/// The generator and the oracle in one: it produces the next op from the
/// state the previous ops left, so after any prefix of the op list it
/// holds exactly what the program must hold.
pub struct Model {
    rng: TestRng,
    keys: u64,
    tree: BTreeMap<u64, u32>,
    versions: BTreeMap<u64, u32>,
    files: Vec<Vec<u8>>,
    queue: VecDeque<u64>,
    vm: VmState,
}

impl Model {
    fn new(rng: TestRng, keys: u64) -> Model {
        Model {
            rng,
            keys,
            tree: BTreeMap::new(),
            versions: BTreeMap::new(),
            files: vec![Vec::new(); SOURCE_FILES + 2 * DERIVED_FILES],
            queue: VecDeque::new(),
            vm: VmState::new(vm_program()),
        }
    }

    /// A present key at or after a random point (wrapping), if any.
    fn present_key(&mut self) -> Option<u64> {
        let from = self.rng.random_range(0..self.keys);
        self.tree
            .range(from..)
            .next()
            .or_else(|| self.tree.iter().next())
            .map(|(k, _)| *k)
    }

    fn insert(&mut self, key: u64) -> EOp {
        let v = self.versions.entry(key).or_insert(0);
        *v += 1;
        self.tree.insert(key, *v);
        EOp::BtInsert { key, version: *v }
    }

    /// The mix: 30 % insert, 10 % remove, 20 % get, 10 % append, 3 % copy,
    /// 2 % sort, 8 % enqueue, 7 % ack, 10 % VM step.
    fn next_op(&mut self) -> EOp {
        let roll = self.rng.random_range(0..100u32);
        match roll {
            0..=29 => {
                let key = self.rng.random_range(0..self.keys);
                self.insert(key)
            }
            30..=39 => match self.present_key() {
                Some(key) => {
                    self.tree.remove(&key);
                    EOp::BtRemove { key }
                }
                None => self.insert(0),
            },
            40..=59 => {
                let key = if self.rng.ratio(0.8) {
                    self.present_key().unwrap_or(0)
                } else {
                    self.rng.random_range(0..self.keys)
                };
                EOp::BtGet {
                    key,
                    held: self.tree.get(&key).copied().unwrap_or(0),
                }
            }
            60..=69 => {
                let file = self.rng.random_range(0..SOURCE_FILES);
                if self.files[file].len() + FILE_RECORD > FILE_CAP {
                    self.files[file].truncate(FILE_KEEP as usize);
                    EOp::FsTruncate { file }
                } else {
                    let seed = self.rng.next_u64();
                    self.files[file].extend_from_slice(&bytes_of(seed, FILE_RECORD));
                    EOp::FsAppend { file, seed }
                }
            }
            70..=72 => {
                let src = self.rng.random_range(0..SOURCE_FILES);
                let dst = SOURCE_FILES + self.rng.random_range(0..DERIVED_FILES);
                self.files[dst] = self.files[src].clone();
                EOp::FsCopy { src, dst }
            }
            73..=74 => {
                let src = self.rng.random_range(0..SOURCE_FILES);
                let dst = SOURCE_FILES + DERIVED_FILES + self.rng.random_range(0..DERIVED_FILES);
                let mut sorted = self.files[src].clone();
                sorted.sort_unstable();
                self.files[dst] = sorted;
                EOp::FsSort { src, dst }
            }
            75..=82 => self.enqueue(),
            83..=89 => match self.queue.pop_front() {
                Some(seed) => EOp::QAck { seed },
                None => self.enqueue(),
            },
            _ => {
                self.vm.run(VM_BUDGET);
                EOp::VmStep
            }
        }
    }

    fn enqueue(&mut self) -> EOp {
        let seed = self.rng.next_u64();
        self.queue.push_back(seed);
        EOp::QEnqueue { seed }
    }

    fn ops(&mut self, n: usize) -> Vec<EOp> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// Bytes of live user data: keys and values in the tree, file
    /// contents, queued payloads, the VM state.
    fn live_bytes(&self) -> u64 {
        let tree = self.tree.len() * (8 + BTREE_VALUE);
        let files: usize = self.files.iter().map(Vec::len).sum();
        let queue = self.queue.len() * QUEUE_PAYLOAD;
        (tree + files + queue + self.vm.encode().len()) as u64
    }
}

fn registry() -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    llog_domains::register_domain_transforms(&mut r);
    r
}

fn device_config() -> DeviceConfig {
    DeviceConfig::default().with_fast_segments(2)
}

/// Stage times of one embedded restart.
#[derive(Debug, Default, Clone)]
pub struct RestartTimes {
    pub open_ns: u64,
    pub load_ns: u64,
    pub store_load_ns: u64,
    pub recover_ns: u64,
    pub outcome: RecoveryOutcome,
    pub recovery: MetricsSnapshot,
}

/// Per-op-kind and maintenance accounting the traced run reports.
#[derive(Debug, Default, Clone)]
pub struct EmbeddedTrace {
    pub rates: Vec<f64>,
    pub persist_ns: Vec<u64>,
    pub install_ns: u64,
    pub installed_ops: u64,
    pub checkpoint_ns: Vec<u64>,
    pub store_ckpt_ns: Vec<u64>,
    pub flush_sets: Vec<usize>,
    pub write_call_ns: u64,
    pub write_call_records: u64,
    pub measured_ops: u64,
    pub measured: MetricsSnapshot,
    /// Device counters over the measured phases.
    pub device: MetricsSnapshot,
    /// `TransformRegistry::apply` probe: total ns, applications.
    pub apply_probe: (u64, usize),
    pub restarts: Vec<RestartTimes>,
    pub uninstalled_at_crash: usize,
    /// The first records of the measured phases, for the layer probes.
    pub sample_records: Vec<LogRecord>,
}

/// The program under test plus the harness's bookkeeping around it.
struct Program {
    engine: Engine,
    backend: DurabilityBackend,
    /// The `Metrics` the backend's devices count on (fsyncs, bytes,
    /// segment rotation); the engine's own ledger never sees those.
    device: Arc<Metrics>,
    tree: BTree,
    queue: Queue,
    vm: RecoverableVm,
    since_checkpoint: usize,
    /// Post-image accounting cursor: records below it are counted.
    counted_to: Lsn,
    user_bytes: u64,
    /// Time spent in the harness's own accounting, excluded from timings.
    accounting_ns: u64,
    trace: EmbeddedTrace,
}

impl Program {
    fn assemble(
        engine: Engine,
        backend: DurabilityBackend,
        device: Arc<Metrics>,
        tree: BTree,
        vm: RecoverableVm,
    ) -> Program {
        Program {
            // Nothing logged so far is user work of a measured phase.
            counted_to: engine.wal().end_lsn(),
            engine,
            backend,
            device,
            tree,
            queue: Queue::new(1),
            vm,
            since_checkpoint: 0,
            user_bytes: 0,
            accounting_ns: 0,
            trace: EmbeddedTrace::default(),
        }
    }

    fn create(dir: &Path) -> Result<Program> {
        let mut engine = Engine::new(EngineConfig::default(), registry());
        let device = Metrics::new();
        let backend = DurabilityBackend::file(dir, device.clone(), &device_config())?;
        let tree = BTree::create(&mut engine, BTREE_META, BTREE_ORDER, true)?;
        let vm = RecoverableVm::start(&mut engine, VM_STATE, vm_program())?;
        Ok(Program::assemble(engine, backend, device, tree, vm))
    }

    /// The embedded reboot: `DurabilityBackend::file` → `load` →
    /// `recover`, then the tree re-opened from its meta object.
    fn restart(dir: &Path, tracer: &Tracer) -> Result<(Program, RestartTimes)> {
        let t0 = tracer.now();
        let device = Metrics::new();
        let backend = DurabilityBackend::file(dir, device.clone(), &device_config())?;
        let t_open = tracer.now();
        let metrics = Metrics::new();
        let store = backend.store_device().load_store(metrics.clone())?;
        let t_store = tracer.now();
        let wal = Wal::load_from_device(backend.log(), metrics.clone())?;
        let t_load = tracer.now();
        let (mut engine, outcome) = recover(
            store.unwrap_or_else(|| StableStore::new(metrics.clone())),
            wal.unwrap_or_else(|| Wal::new(metrics)),
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )?;
        let t_recovered = tracer.now();
        let tree = BTree::open(&mut engine, BTREE_META, BTREE_ORDER, true)?;
        let times = RestartTimes {
            open_ns: t_open - t0,
            load_ns: t_load - t0,
            store_load_ns: t_store - t_open,
            recover_ns: t_recovered - t_load,
            outcome,
            recovery: engine.metrics().snapshot(),
        };
        let vm = RecoverableVm::attach(VM_STATE);
        Ok((Program::assemble(engine, backend, device, tree, vm), times))
    }

    /// Run the domain call behind `op`. `Ok(Err(why))` is a wrong answer.
    fn call(&mut self, op: &EOp) -> Result<std::result::Result<(), String>> {
        let e = &mut self.engine;
        let verdict = match op {
            EOp::BtInsert { key, version } => {
                self.tree
                    .insert(e, *key, &value_of(*key, *version, BTREE_VALUE))?;
                Ok(())
            }
            EOp::BtRemove { key } => match self.tree.remove(e, *key)? {
                true => Ok(()),
                false => Err(format!("btree remove: key {key} was not there")),
            },
            EOp::BtGet { key, held } => {
                let got = self.tree.get(e, *key)?;
                let want = (*held > 0).then(|| value_of(*key, *held, BTREE_VALUE));
                if got == want {
                    Ok(())
                } else {
                    Err(format!("btree get: key {key} is not at v{held}"))
                }
            }
            EOp::FsAppend { file, seed } => {
                FileSystem::append(e, &file_path(*file), &bytes_of(*seed, FILE_RECORD))?;
                Ok(())
            }
            EOp::FsTruncate { file } => {
                FileSystem::truncate(e, &file_path(*file), FILE_KEEP)?;
                Ok(())
            }
            EOp::FsCopy { src, dst } => {
                FileSystem::copy(e, &file_path(*src), &file_path(*dst))?;
                Ok(())
            }
            EOp::FsSort { src, dst } => {
                FileSystem::sort(e, &file_path(*src), &file_path(*dst))?;
                Ok(())
            }
            EOp::QEnqueue { seed } => {
                self.queue.enqueue(e, &bytes_of(*seed, QUEUE_PAYLOAD))?;
                Ok(())
            }
            EOp::QAck { seed } => match self.queue.ack(e)? {
                Some(p) if p.as_bytes() == bytes_of(*seed, QUEUE_PAYLOAD) => Ok(()),
                other => Err(format!("queue ack: wrong head message {other:?}")),
            },
            EOp::VmStep => {
                self.vm.step(e, VM_BUDGET)?;
                Ok(())
            }
        };
        Ok(verdict)
    }

    /// The commit: force the log, persist its tail to the log device.
    fn commit(&mut self, tracer: &mut Tracer, parent: u32, op_id: u32) -> Result<()> {
        let t0 = tracer.now();
        self.engine.wal_mut().force();
        self.backend.persist_wal(self.engine.wal(), None)?;
        let t1 = tracer.now();
        if tracer.on() {
            self.trace.persist_ns.push(t1 - t0);
        }
        tracer.record("wal.persist", t0, t1, parent, op_id);
        Ok(())
    }

    /// Post-image accounting (the harness's own work, kept out of every
    /// timing): for each operation record committed since the last call,
    /// the bytes of every object it wrote — what a physical log would
    /// have had to carry. Cache-manager identity writes are not user ops.
    fn account(&mut self, tracer: &Tracer) {
        let t0 = tracer.now();
        let sampling = tracer.on() && self.trace.sample_records.len() < crate::PROBE_OPS;
        for item in self.engine.wal().scan(self.counted_to) {
            let Ok((_, rec)) = item else { break };
            if let LogRecord::Op(op) = &rec {
                if op.kind != OpKind::IdentityWrite {
                    self.user_bytes += op
                        .writes
                        .iter()
                        .map(|x| self.engine.peek_value(*x).len() as u64)
                        .sum::<u64>();
                }
            }
            if sampling {
                self.trace.sample_records.push(rec);
            }
        }
        self.counted_to = self.engine.wal().forced_lsn();
        self.accounting_ns += tracer.now() - t0;
    }

    /// Installs and checkpoints, at a commit boundary. `installs`: false
    /// inside a crash-cycle tail, whose ops must stay uninstalled.
    fn maintain(&mut self, tracer: &mut Tracer, installs: bool) -> Result<()> {
        if !installs {
            return Ok(());
        }
        if self.engine.uninstalled_count() >= INSTALL_AT {
            self.install(tracer)?;
        }
        if self.since_checkpoint >= CHECKPOINT_EVERY {
            self.checkpoint(tracer)?;
        }
        Ok(())
    }

    fn install(&mut self, tracer: &mut Tracer) -> Result<()> {
        let t0 = tracer.now();
        if tracer.on() {
            self.trace
                .flush_sets
                .extend(self.engine.rw_graph().flush_set_sizes());
            self.trace.installed_ops += self.engine.uninstalled_count() as u64;
        }
        let t1 = tracer.now();
        self.engine.install_all()?;
        let t2 = tracer.now();
        // Reading the flush sets is the harness's work, not the program's.
        self.accounting_ns += t1 - t0;
        self.trace.install_ns += t2 - t1;
        tracer.record("core.install", t1, t2, NONE, NONE);
        Ok(())
    }

    /// `checkpoint(true)` + `backend.persist`: the log is truncated and
    /// the store device catches up with every install so far.
    fn checkpoint(&mut self, tracer: &mut Tracer) -> Result<()> {
        let t0 = tracer.now();
        self.engine.checkpoint(true)?;
        let t1 = tracer.now();
        self.backend
            .persist(self.engine.store(), self.engine.wal(), None)?;
        let t2 = tracer.now();
        self.since_checkpoint = 0;
        // Everything below was counted at the last commit; what the
        // checkpoint itself appended (and truncated) is not user work.
        self.counted_to = self.engine.wal().forced_lsn();
        if tracer.on() {
            self.trace.checkpoint_ns.push(t2 - t0);
            self.trace.store_ckpt_ns.push(t2 - t1);
        }
        let span = tracer.record("core.checkpoint", t0, t2, NONE, NONE);
        tracer.record("storage.ckpt", t1, t2, span, NONE);
        Ok(())
    }

    /// Everything the program holds against everything the model holds.
    fn verify(&mut self, model: &Model, report: &mut Report, when: &str) -> Result<()> {
        let e = &mut self.engine;
        let mut bad = 0u64;
        let mut first: Option<String> = None;
        let mut miss = |why: String| {
            bad += 1;
            first.get_or_insert(why);
        };
        let held = self.tree.scan_all(e)?;
        report.attempted += model.tree.len().max(held.len()) as u64;
        if held.len() != model.tree.len() {
            miss(format!(
                "btree holds {} keys, model {}",
                held.len(),
                model.tree.len()
            ));
        }
        for (key, value) in &held {
            match model.tree.get(key) {
                Some(v) if *value == value_of(*key, *v, BTREE_VALUE) => {}
                Some(v) => miss(format!("btree key {key} is not at v{v}")),
                None => miss(format!("btree key {key} should be gone")),
            }
        }
        let tree = self.tree.clone();
        let invariants =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tree.check_invariants(e)));
        report.attempted += 1;
        if !matches!(invariants, Ok(Ok(()))) {
            miss("btree invariants violated".into());
        }
        for (i, want) in model.files.iter().enumerate() {
            report.attempted += 1;
            if FileSystem::read(e, &file_path(i)).as_bytes() != want.as_slice() {
                miss(format!("file {} differs from the model", file_path(i)));
            }
        }
        report.attempted += 2;
        if self.queue.len(e)? != model.queue.len() as u64 {
            miss("queue backlog differs from the model".into());
        }
        let head = self.queue.peek(e)?.map(|p| p.as_bytes().to_vec());
        if head != model.queue.front().map(|s| bytes_of(*s, QUEUE_PAYLOAD)) {
            miss("queue head differs from the model".into());
        }
        report.attempted += 1;
        if self.vm.state(e)? != model.vm {
            miss("VM state differs from the model".into());
        }
        report.fail(bad, || format!("{when}: {}", first.unwrap_or_default()));
        Ok(())
    }
}

/// How a phase commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pace {
    /// Commit after every write; record every op's latency.
    Lockstep,
    /// Commit every [`BATCH`] ops; read the clock at `segments` boundaries.
    Pipelined { segments: usize, installs: bool },
}

#[derive(Default)]
struct PhaseRun {
    lat_ns: Vec<u64>,
    /// Program time (accounting excluded) of each segment, with its ops.
    segments: Vec<(usize, u64)>,
}

fn run_phase(
    p: &mut Program,
    ops: &[EOp],
    pace: Pace,
    tracer: &mut Tracer,
    report: &mut Report,
    phase: &str,
) -> Result<PhaseRun> {
    let n = ops.len();
    let mut run = PhaseRun::default();
    let (segments, installs) = match pace {
        Pace::Lockstep => (1, true),
        Pace::Pipelined { segments, installs } => (segments, installs),
    };
    let per = (n / segments).max(1);
    let on = tracer.on();
    let mut seg_start = tracer.now();
    let mut seg_accounting = p.accounting_ns;
    let mut seg_first = 0;
    let mut uncommitted = 0;
    let mut bad = 0u64;
    let mut first_bad: Option<String> = None;
    let mut quiet = tracer.muted();
    let log_records = |p: &Program| p.engine.metrics().log_records.load(Ordering::Relaxed);
    for (i, op) in ops.iter().enumerate() {
        // With tracing on, spans cover the even segments only; the odd
        // ones run bare so the two can be compared (trace.overhead_pct).
        let traced = on && in_even_segment(i, per, segments);
        let t = if traced { &mut *tracer } else { &mut quiet };
        let t0 = t.now();
        let records_before = if traced { log_records(p) } else { 0 };
        let span = t.begin("client.op", NONE, i as u32);
        let c0 = t.now();
        let verdict = p.call(op)?;
        let c1 = t.now();
        t.record(op.span(), c0, c1, span, i as u32);
        if let Err(why) = verdict {
            bad += 1;
            first_bad.get_or_insert(why);
        }
        uncommitted += usize::from(!op.is_read());
        p.since_checkpoint += 1;
        let commit_now = match pace {
            Pace::Lockstep => !op.is_read(),
            Pace::Pipelined { .. } => (i + 1) % BATCH == 0 || i + 1 == n,
        };
        if commit_now && uncommitted > 0 {
            p.commit(t, span, i as u32)?;
            uncommitted = 0;
        }
        t.end(span);
        let t1 = t.now();
        if traced && !op.is_read() {
            p.trace.write_call_ns += c1 - c0;
            p.trace.write_call_records += log_records(p) - records_before;
        }
        if pace == Pace::Lockstep {
            run.lat_ns.push(t1 - t0);
        }
        if commit_now {
            p.account(t);
            p.maintain(t, installs)?;
        }
        let done = i + 1;
        if done == n || (done % per == 0 && done / per < segments) {
            let now = t.now();
            let accounting = p.accounting_ns - seg_accounting;
            run.segments.push((
                done - seg_first,
                (now - seg_start).saturating_sub(accounting),
            ));
            seg_start = now;
            seg_accounting = p.accounting_ns;
            seg_first = done;
        }
    }
    report.attempted += n as u64;
    report.fail(bad, || {
        format!("{phase}: {}", first_bad.unwrap_or_default())
    });
    Ok(run)
}

pub fn run(spec: &EmbeddedSpec, env: &Env, tracer: &mut Tracer) -> Result<(Report, EmbeddedTrace)> {
    let mut report = Report::new(spec.name);
    let mut root = TestRng::seed_from_u64(env.seed);
    let keys = env.scaled(spec.keys) as u64;
    let mut model = Model::new(root.fork(), keys);
    let dir = env.data_dir.clone();
    let io = |point: &str, e: std::io::Error| LlogError::Io {
        point: point.into(),
        reason: e.to_string(),
    };

    // Phase 1 — setup: fresh directory → open → bulk load committed.
    // The source files are ingested first (data entering the recoverable
    // world is necessarily physical), then the preload mix runs batched.
    let seeds: Vec<u64> = (0..SOURCE_FILES).map(|_| root.next_u64()).collect();
    let preload = model_preload(&mut model, &seeds, env.scaled(spec.preload));
    std::fs::create_dir_all(&dir).map_err(|e| io("create data dir", e))?;
    // One thread, asleep in fsync after every commit: which CPU it wakes
    // on decides the regime it measures, so the run phases keep to the one
    // where fsync returns fastest (see `affinity`).
    let pinned = affinity::pin_to_fastest_fsync_cpu(&dir).map_err(|e| io("cpu probe", e))?;
    let t0 = tracer.now();
    let mut p = Program::create(&dir)?;
    for (i, seed) in seeds.iter().enumerate() {
        FileSystem::ingest(
            &mut p.engine,
            &file_path(i),
            &bytes_of(*seed, FILE_KEEP as usize),
        )?;
    }
    let mut quiet = tracer.muted();
    let bulk = Pace::Pipelined {
        segments: 1,
        installs: true,
    };
    run_phase(&mut p, &preload, bulk, &mut quiet, &mut report, "setup")?;
    p.install(&mut quiet)?;
    p.checkpoint(&mut quiet)?;
    let setup_ns = tracer.now() - t0;
    tracer.record("setup", t0, t0 + setup_ns, NONE, NONE);

    // Counters at the start of the measured phases.
    let before = p.engine.metrics().snapshot();
    let device_start = p.device.snapshot();
    let device_before = p.backend_fsyncs();
    p.user_bytes = 0;
    p.trace = EmbeddedTrace::default();

    // Phase 2 — lockstep: commit per write.
    let lockstep_ops = model.ops(env.scaled(spec.lockstep));
    let t_lockstep = tracer.now();
    let lockstep = run_phase(
        &mut p,
        &lockstep_ops,
        Pace::Lockstep,
        tracer,
        &mut report,
        "lockstep",
    )?;
    let lockstep_s = (tracer.now() - t_lockstep) as f64 / 1e9;
    let device_mid = p.backend_fsyncs();
    report.require_fsyncs("lockstep", device_before, device_mid, writes(&lockstep_ops));

    // Phase 3 — pipelined: commit per 16 ops.
    let pipelined_ops = model.ops(env.scaled(spec.pipelined));
    let segments = if tracer.on() { 2 * SLICES } else { SLICES };
    let t_pipelined = tracer.now();
    let pipelined = run_phase(
        &mut p,
        &pipelined_ops,
        Pace::Pipelined {
            segments,
            installs: true,
        },
        tracer,
        &mut report,
        "pipelined",
    )?;
    let pipelined_s = (tracer.now() - t_pipelined) as f64 / 1e9;
    let after = p.engine.metrics().snapshot();
    report.require_fsyncs(
        "pipelined",
        device_mid,
        p.backend_fsyncs(),
        writes(&pipelined_ops),
    );
    let user_bytes = p.user_bytes;
    let log_bytes = after.log_bytes - before.log_bytes;
    let rates: Vec<f64> = pipelined
        .segments
        .iter()
        .map(|(ops, ns)| *ops as f64 * 1e9 / (*ns).max(1) as f64)
        .collect();

    // Phase 4 — crash cycles: bring the store device up to date, run a
    // tail that stays uninstalled and uncheckpointed, then kill, restart
    // and commit one fresh insert, ×9: one crash image, and every restart
    // faces the whole tail (plus the inserts of the restarts before it).
    let mut trace = std::mem::take(&mut p.trace);
    trace.measured = diff(&after, &before);
    trace.device = diff(&p.device.snapshot(), &device_start);
    if tracer.on() {
        trace.apply_probe = p.probe_apply(&trace.sample_records, tracer);
    }
    trace.measured_ops = (lockstep_ops.len() + pipelined_ops.len()) as u64;
    let mut restart_ns = Vec::with_capacity(CYCLES);
    let mut disk_bytes = 0;
    let mut disk_per_live = 0.0;
    let mut redo_ops = 0;
    let mut skipped_ops = 0;
    // Restarts run as the scheduler places them: recovery sizes its worker
    // pool by `available_parallelism`, which reads this thread's mask.
    let cpu = pinned.as_ref().map(|p| p.cpu);
    drop(pinned);
    let t_crash = tracer.now();
    let held_back = Pace::Pipelined {
        segments: 1,
        installs: false,
    };
    // How many deltas the store device chains behind its last full image
    // (0 to 16) is an accident of how many checkpoints the run has made.
    // Small batches, each checkpointed, until the chain has just folded:
    // the restarts then load one full image and the crash tail.
    loop {
        p.install(&mut quiet)?;
        p.checkpoint(&mut quiet)?;
        if p.backend.store_device().chain_len() == 1 {
            break;
        }
        let filler = model.ops(FOLD_OPS);
        run_phase(&mut p, &filler, held_back, &mut quiet, &mut report, "fold")?;
    }
    let tail = model.ops(env.scaled(spec.tail));
    run_phase(&mut p, &tail, held_back, &mut quiet, &mut report, "tail")?;
    trace.uninstalled_at_crash = p.engine.uninstalled_count();
    for cycle in 0..CYCLES {
        // The kill: engine and backend dropped; only device bytes survive.
        drop(p);
        if cycle == 0 {
            disk_bytes = dir_bytes(&dir);
            disk_per_live = disk_bytes as f64 / model.live_bytes().max(1) as f64;
        }
        let t0 = tracer.now();
        let (restarted, times) = Program::restart(&dir, tracer)?;
        p = restarted;
        let fresh = model.insert(keys + cycle as u64);
        let t_call = tracer.now();
        let verdict = p.call(&fresh)?;
        p.commit(&mut quiet, NONE, NONE)?;
        let t1 = tracer.now();
        report.attempted += 1;
        if let Err(why) = verdict {
            report.fail(1, || format!("restart {cycle}: {why}"));
        }
        restart_ns.push(t1 - t0);
        redo_ops += times.outcome.redone;
        skipped_ops += times.outcome.skipped;
        let span = tracer.record("restart", t0, t1, NONE, cycle as u32);
        tracer.record("engine.load", t0, t0 + times.load_ns, span, cycle as u32);
        tracer.record(
            "engine.recover",
            t0 + times.load_ns,
            t_call,
            span,
            cycle as u32,
        );
        tracer.record("client.first_ack", t_call, t1, span, cycle as u32);
        trace.restarts.push(times);
        // This restart must hold everything committed before the kill.
        p.verify(&model, &mut report, &format!("after restart {cycle}"))?;
    }
    let crash_s = (tracer.now() - t_crash) as f64 / 1e9;

    // Phase 5 — verify ran after each restart, the last one included.
    if env.corrupt_model {
        // `--corrupt-model`: the self-test that one stale key is caught.
        if let Some(v) = model.tree.values_mut().next() {
            *v += 1;
        }
        p.verify(&model, &mut report, "corrupted model")?;
    }
    drop(p);

    report.note("phase.lockstep_s", lockstep_s, "s");
    report.note("phase.pipelined_s", pipelined_s, "s");
    report.note("phase.crash_cycles_s", crash_s, "s");
    match cpu {
        Some(cpu) => report.note("phase.run_cpu", cpu as f64, "cpu"),
        None => report.note("phase.run_unpinned", 1.0, "flag"),
    }
    report.counts = vec![
        ("log_bytes", log_bytes),
        ("user_bytes", user_bytes),
        ("redo_ops", redo_ops),
        ("skipped_ops", skipped_ops),
        ("disk_bytes", disk_bytes),
    ];

    if !tracer.on() {
        report.end_to_end(EndToEnd {
            setup_ns,
            rates: &rates,
            lockstep: &[&lockstep.lat_ns],
            log_bytes,
            user_bytes,
            writes: trace.measured_ops as usize,
            disk_per_live,
            restart_ns: &restart_ns,
        });
    }
    trace.rates = rates;
    Ok((report, trace))
}

/// The preload mix, generated with the source files already holding
/// their ingested contents.
fn model_preload(model: &mut Model, seeds: &[u64], n: usize) -> Vec<EOp> {
    for (i, seed) in seeds.iter().enumerate() {
        model.files[i] = bytes_of(*seed, FILE_KEEP as usize);
    }
    model.ops(n)
}

fn writes(ops: &[EOp]) -> u64 {
    ops.iter().filter(|o| !o.is_read()).count() as u64
}

impl Program {
    /// The `ops` layer probe: `TransformRegistry::apply` alone, over the
    /// sampled operation records, each fed the current values of the
    /// objects it read (same shapes and sizes as the originals). Returns
    /// total ns and applications.
    fn probe_apply(&self, records: &[LogRecord], tracer: &Tracer) -> (u64, usize) {
        let prepared: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Op(op) if !matches!(op.kind, OpKind::IdentityWrite | OpKind::Delete) => {
                    let inputs: Vec<_> = op
                        .reads
                        .iter()
                        .map(|x| self.engine.peek_value(*x))
                        .collect();
                    Some((op, inputs))
                }
                _ => None,
            })
            .collect();
        let registry = self.engine.registry();
        let t0 = tracer.now();
        for (op, inputs) in &prepared {
            // A transform that rejects today's input still did its work.
            let _ =
                std::hint::black_box(registry.apply(op.id, &op.transform, inputs, op.writes.len()));
        }
        (tracer.now() - t0, prepared.len())
    }

    /// Device-level fsyncs issued so far.
    fn backend_fsyncs(&self) -> u64 {
        self.device.io_fsyncs.load(Ordering::Relaxed)
    }
}

/// Field-wise `after − before` of the counters the layer metrics use.
fn diff(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        log_records: after.log_records - before.log_records,
        log_bytes: after.log_bytes - before.log_bytes,
        log_forces: after.log_forces - before.log_forces,
        identity_writes: after.identity_writes - before.identity_writes,
        obj_writes: after.obj_writes - before.obj_writes,
        obj_write_bytes: after.obj_write_bytes - before.obj_write_bytes,
        io_bytes_written: after.io_bytes_written - before.io_bytes_written,
        io_fsyncs: after.io_fsyncs - before.io_fsyncs,
        segments_rotated: after.segments_rotated - before.segments_rotated,
        segments_recycled: after.segments_recycled - before.segments_recycled,
        ckpt_objects_written: after.ckpt_objects_written - before.ckpt_objects_written,
        ..MetricsSnapshot::default()
    }
}
