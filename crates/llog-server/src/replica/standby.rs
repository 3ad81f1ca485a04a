//! The warm-standby replica: attach, continuous redo and promotion (see
//! the module docs for the protocol rules).
//!
//! ## Threading model
//!
//! A replica is a standby [`ShardedEngine`] served by the ordinary
//! [`Server`]: every request takes the code path it takes on a primary.
//! `Get` resolves through the shard's version chains at its durable
//! watermark, which on a standby is the replayed one (DESIGN §15), so a
//! read never waits for replay; `Put` gets `execute`'s
//! [`LlogError::Standby`]; `Stats` is the engine's metrics snapshot;
//! `Promote` runs [`promote`].
//!
//! Beside the server, one **poller** thread owns the client connection to
//! the primary. It round-robins the shards: `Subscribe(shard,
//! stable_end)` → `SegmentChunk` → one replay step under that shard's
//! engine lock ([`ShardedEngine::replay_shard`]), which also bumps the
//! shard's `repl_*` counters, and it reports each shard's watermark back
//! with `ReplayedLsn` whenever it advances. A `SealManifest` answer
//! mid-stream means the replica fell behind a checkpoint truncation: the
//! shard is rebuilt from a fresh attach image and swapped in
//! ([`ShardedEngine::replace_shard`]). A dead primary parks the poller in
//! a reconnect loop; the replica keeps serving reads at its last
//! watermark. Promotion ends the standby state, and with it the poller.
//!
//! ## Promotion
//!
//! `Promote{source_dir}` turns the standby into a primary. With a
//! non-empty `source_dir` — the crashed primary's data directory — each
//! shard first catches up from the primary's on-disk log device: the
//! primary stages forced bytes on the device *before* acknowledging
//! (DESIGN §12), so feeding the device log's tail through a replay step
//! guarantees every acknowledged write is replayed even if the primary
//! was SIGKILLed mid-shipment. A shard whose device log was truncated
//! past the standby's stable end (the replica lagged a whole checkpoint)
//! is replaced by a wholesale recovery of the device pair instead. Then
//! [`ShardedEngine::promote`] seals every shard's log at its watermark,
//! starts the installers and accepts writes.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use llog_core::{recover, Engine, EngineConfig, RedoPolicy};
use llog_engine::ShardedEngine;
use llog_ops::TransformRegistry;
use llog_storage::device::{decode_image, DeviceConfig};
use llog_storage::{Metrics, StableStore};
use llog_types::{LlogError, Lsn, Result};
use llog_wal::{DurabilityBackend, Wal};

use super::session::replay;
use crate::proto::Response;
use crate::{boot, Client, Server, ServerConfig};

/// How long the poller sleeps when fully caught up.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// How long the poller waits between attempts to reconnect to the primary.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Shipping counters of a [`Replica`] (the receive side of the primary's
/// `repl_*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaCounters {
    /// Non-empty segment chunks received and replayed.
    pub chunks_received: u64,
    /// Stable log bytes received.
    pub bytes_received: u64,
    /// Times a shard had to re-attach from a fresh attach image: it fell
    /// behind a truncation, or a record failed to replay.
    pub reattaches: u64,
}

/// What the poller shares with the [`Replica`] handle.
struct Feed {
    engine: Arc<ShardedEngine>,
    primary: String,
    stop: AtomicBool,
    reattaches: AtomicU64,
}

impl Feed {
    fn new(engine: ShardedEngine, primary: &str) -> Arc<Feed> {
        Arc::new(Feed {
            engine: Arc::new(engine),
            primary: primary.to_string(),
            stop: AtomicBool::new(false),
            reattaches: AtomicU64::new(0),
        })
    }
}

/// A warm-standby replica of one primary server (see the module docs).
pub struct Replica {
    feed: Arc<Feed>,
    server: Server,
    poller: JoinHandle<()>,
}

impl Replica {
    /// Attach to the primary at `primary_addr` (every shard's manifest +
    /// log prefix is pulled and recovered synchronously — when this
    /// returns, the replica serves consistent reads), then serve the
    /// standby on `config.addr` and start the poller.
    pub fn start(
        primary_addr: &str,
        registry: TransformRegistry,
        config: ServerConfig,
    ) -> Result<Replica> {
        let mut client = Client::connect(primary_addr)?;
        let feed = Feed::new(attach(&mut client, &registry)?, primary_addr);
        let server = Server::serve(feed.engine.clone(), config)?;
        let poller = Poller::new(feed.clone(), client);
        Ok(Replica {
            feed,
            server,
            poller: std::thread::spawn(move || poller.run()),
        })
    }

    /// The address the replica's server is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Has a client asked this replica to shut down (`Request::Shutdown`)?
    pub fn shutdown_requested(&self) -> bool {
        self.server.shutdown_requested()
    }

    /// Shipping counters.
    pub fn counters(&self) -> ReplicaCounters {
        let a = self.feed.engine.metrics_snapshot().aggregate;
        ReplicaCounters {
            chunks_received: a.repl_segments_shipped,
            bytes_received: a.repl_bytes_shipped,
            reattaches: self.feed.reattaches.load(Ordering::Relaxed),
        }
    }

    /// Per-shard durable watermarks: the replayed ones while a standby.
    pub fn watermarks(&self) -> Vec<Lsn> {
        let engine = &self.feed.engine;
        (0..engine.shards())
            .map(|i| engine.durable_lsn(i))
            .collect()
    }

    /// Stop the replica: the poller exits, the server drains, and a
    /// promoted engine is shut down cleanly (a standby holds nothing
    /// volatile).
    pub fn stop(self) -> Result<()> {
        self.feed.stop.store(true, Ordering::SeqCst);
        let _ = self.poller.join();
        // The server must hold the engine's last handle to hand it back.
        drop(self.feed);
        let engine = self.server.shutdown();
        if !engine.is_standby() {
            engine.shutdown()?;
        }
        Ok(())
    }
}

/// Pull every shard's attach image from the primary behind `client` and
/// recover each into a standby engine.
fn attach(client: &mut Client, registry: &TransformRegistry) -> Result<ShardedEngine> {
    // Shard 0's manifest tells us the fleet size.
    let first = fetch_attach(client, 0)?;
    let shards = first.shards;
    let mut engines = vec![first.recover(Metrics::new(), registry)?];
    for i in 1..shards {
        engines.push(fetch_attach(client, i as u32)?.recover(Metrics::new(), registry)?);
    }
    Ok(ShardedEngine::standby(
        boot::server_engine_config(shards),
        engines,
    ))
}

/// One shard's attach image as shipped: the store image, the log's base
/// address and master checkpoint, and the log prefix up to the durable cut
/// the image was captured at.
struct AttachImage {
    shards: usize,
    store: Vec<u8>,
    base: Lsn,
    master: Lsn,
    log: Vec<u8>,
}

impl AttachImage {
    /// Recover the shard from this image, reporting into `metrics`.
    fn recover(self, metrics: Arc<Metrics>, registry: &TransformRegistry) -> Result<Engine> {
        let mut store = StableStore::new(metrics.clone());
        store.restore(decode_image(&self.store)?);
        let master = (self.master != Lsn::ZERO).then_some(self.master);
        let mut wal = Wal::from_shipped(metrics, self.base.0, master);
        wal.extend_stable(self.base, &self.log)?;
        recover_shard(store, wal, registry)
    }
}

/// Recover a standby shard from a shipped or on-disk `(store, log)` pair
/// and publish where its replay got to.
fn recover_shard(store: StableStore, wal: Wal, registry: &TransformRegistry) -> Result<Engine> {
    let (config, policy) = (EngineConfig::default(), RedoPolicy::RsiExposed);
    let (engine, _) = recover(store, wal, registry.clone(), config, policy)?;
    note_replayed(
        &engine,
        engine.wal().contiguous_end(engine.wal().start_lsn()),
    );
    Ok(engine)
}

/// Pull one shard's attach image and log prefix.
fn fetch_attach(client: &mut Client, shard: u32) -> Result<AttachImage> {
    // A truncation can race the prefix fetch; each retry starts from a
    // fresh manifest, and the log can only be truncated finitely often
    // while we fetch a finite prefix, so a small budget suffices.
    'attempt: for _ in 0..8 {
        let (shards, base, durable, master, mut store, store_total) =
            match client.subscribe(shard, Lsn::ZERO)? {
                Response::SealManifest {
                    shards,
                    base,
                    durable,
                    master,
                    store_total,
                    store,
                    ..
                } => (shards, base, durable, master, store, store_total),
                other => {
                    return Err(LlogError::CacheProtocol(format!(
                        "expected seal manifest for attach, got {other:?}"
                    )))
                }
            };
        // A store image bigger than one frame arrives in chunks, all
        // served from the same capture. The address check is pure
        // defence: a mismatch means the primary's capture changed
        // underneath us, so the assembled image would be garbage —
        // restart the attach.
        while (store.len() as u64) < store_total {
            match client.fetch_store(shard, store.len() as u64)? {
                Response::SealManifest {
                    base: b,
                    durable: d,
                    store_off,
                    store: chunk,
                    ..
                } => {
                    if b != base || d != durable || store_off != store.len() as u64 {
                        continue 'attempt;
                    }
                    store.extend_from_slice(&chunk);
                }
                other => {
                    return Err(LlogError::CacheProtocol(format!(
                        "expected seal manifest store chunk, got {other:?}"
                    )))
                }
            }
        }
        let mut log = Vec::new();
        while base.0 + (log.len() as u64) < durable.0 {
            match client.subscribe(shard, Lsn(base.0 + log.len() as u64))? {
                // Durable regressed (can't happen) — be safe.
                Response::SegmentChunk { bytes, .. } if bytes.is_empty() => break,
                Response::SegmentChunk { bytes, .. } => log.extend_from_slice(&bytes),
                // Fell behind a truncation: re-attach.
                Response::SealManifest { .. } => continue 'attempt,
                other => {
                    return Err(LlogError::CacheProtocol(format!(
                        "expected segment chunk, got {other:?}"
                    )))
                }
            }
        }
        return Ok(AttachImage {
            shards: shards as usize,
            store,
            base,
            master,
            log,
        });
    }
    Err(LlogError::Unexplainable(format!(
        "shard {shard}: attach kept racing log truncation"
    )))
}

/// One [`replay`] step, then the shard's replay position published in its
/// `repl_*` gauges.
fn replay_noted(e: &mut Engine, watermark: &mut Lsn, at: Lsn, bytes: &[u8]) -> Result<u64> {
    let replayed = replay(e, watermark, at, bytes);
    note_replayed(e, *watermark);
    replayed
}

/// Publish a shard's replay position in its `repl_*` gauges: the
/// watermark, and the complete frames held above it.
fn note_replayed(e: &Engine, watermark: Lsn) {
    let m = e.metrics();
    Metrics::set_gauge(&m.repl_watermark_lsn, watermark.0);
    Metrics::set_gauge(&m.repl_replay_lag_frames, e.wal().frames_from(watermark));
}

/// The shipping loop: poll every shard, replay what arrives, report
/// watermarks, rebuild shards that fell behind a truncation, and survive
/// primary restarts with a reconnect loop.
struct Poller {
    feed: Arc<Feed>,
    client: Client,
    /// The watermark last reported to the primary, per shard.
    reported: Vec<Lsn>,
}

impl Poller {
    fn new(feed: Arc<Feed>, client: Client) -> Poller {
        let reported = vec![Lsn::ZERO; feed.engine.shards()];
        Poller {
            feed,
            client,
            reported,
        }
    }

    fn run(mut self) {
        while let Some(progressed) = self.round() {
            if !progressed {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }

    /// One pass over every shard. Returns whether any shard moved, or
    /// `None` once shipping is over (the replica stopped or was promoted).
    fn round(&mut self) -> Option<bool> {
        let engine = self.feed.engine.clone();
        let mut progressed = false;
        for i in 0..engine.shards() {
            if self.feed.stop.load(Ordering::SeqCst) {
                return None;
            }
            // Refused once promoted: shipping is over.
            let from = engine
                .replay_shard(i, |e, _| Ok(e.wal().forced_lsn()))
                .ok()?;
            let Ok(resp) = self.client.subscribe(i as u32, from) else {
                // Primary unreachable: keep serving reads, retry.
                self.client = self.reconnect()?;
                return Some(false);
            };
            match resp {
                Response::SegmentChunk { at, bytes, .. } if !bytes.is_empty() => {
                    match engine.replay_shard(i, |e, wm| {
                        let m = e.metrics().clone();
                        Metrics::bump(&m.repl_segments_shipped, 1);
                        Metrics::bump(&m.repl_bytes_shipped, bytes.len() as u64);
                        replay_noted(e, wm, at, &bytes)
                    }) {
                        Ok(_) => progressed = true,
                        // A gap: refetch from the stable end next round.
                        Err(LlogError::LsnOutOfRange { .. }) => {}
                        // Replay failed mid-chunk: the shard's state may no
                        // longer match its watermark (a record can fail
                        // after mutating), so continuing would re-apply
                        // non-idempotent records and silently diverge.
                        Err(_) => progressed |= self.reattach(i),
                    }
                }
                // Fell behind a checkpoint truncation.
                Response::SealManifest { .. } => progressed |= self.reattach(i),
                _ => {}
            }
            let wm = engine.durable_lsn(i);
            if wm > self.reported[i] && self.client.report_replayed(i as u32, wm).is_ok() {
                self.reported[i] = wm;
            }
        }
        Some(progressed)
    }

    /// Rebuild shard `i` from a fresh attach image: fetched outside the
    /// engine lock, recovered under it into the shard's own metrics ledger
    /// (so its counters carry across) and swapped in. Returns whether it
    /// was.
    fn reattach(&mut self, i: usize) -> bool {
        if !self.feed.engine.is_standby() {
            return false; // promoted: shipping is over
        }
        self.feed.reattaches.fetch_add(1, Ordering::Relaxed);
        let Ok(image) = fetch_attach(&mut self.client, i as u32) else {
            return false;
        };
        let rebuilt = self.feed.engine.replace_shard(i, |old| {
            image.recover(old.metrics().clone(), old.registry())
        });
        rebuilt.is_ok()
    }

    /// Reconnect to the primary with backoff until it answers. `None` once
    /// the replica stops or is promoted.
    fn reconnect(&self) -> Option<Client> {
        let feed = &self.feed;
        while !feed.stop.load(Ordering::SeqCst) && feed.engine.is_standby() {
            if let Ok(c) = Client::connect(&feed.primary) {
                return Some(c);
            }
            std::thread::sleep(RECONNECT_BACKOFF);
        }
        None
    }
}

/// Promote the standby `engine` to primary (module docs: catch-up rules):
/// the server's answer to `Promote`.
pub(crate) fn promote(engine: &ShardedEngine, source_dir: &str) -> Result<()> {
    if !engine.is_standby() {
        return Err(LlogError::CacheProtocol(
            "not a standby: a primary, or a replica already promoted".into(),
        ));
    }
    if !source_dir.is_empty() {
        for i in 0..engine.shards() {
            device_catch_up(engine, Path::new(source_dir), i)?;
        }
    }
    engine.promote()
}

/// Feed the crashed primary's on-disk log tail for shard `i` through a
/// replay step. The primary persists forced bytes before acknowledging, so
/// after this every acknowledged write is replayed. A device log that no
/// longer reaches back to the shard's stable end replaces the shard with a
/// wholesale recovery of the device pair, which is self-sufficient by the
/// checkpoint-before-truncate discipline.
fn device_catch_up(engine: &ShardedEngine, source_dir: &Path, i: usize) -> Result<()> {
    let dir = source_dir.join(format!("shard-{i}"));
    if !dir.is_dir() {
        return Ok(()); // no device state for this shard
    }
    let (end, metrics) =
        engine.replay_shard(i, |e, _| Ok((e.wal().forced_lsn(), e.metrics().clone())))?;
    let backend = DurabilityBackend::file(&dir, Metrics::new(), &DeviceConfig::default())?;
    let Some((dstore, dwal)) = backend.load(metrics)? else {
        return Ok(()); // never persisted
    };
    if dwal.start_lsn() > end {
        return engine.replace_shard(i, |old| recover_shard(dstore, dwal, old.registry()));
    }
    if dwal.forced_lsn() > end {
        let bytes = dwal.ship_tail(end, usize::MAX)?.to_vec();
        engine.replay_shard(i, |e, wm| replay_noted(e, wm, end, &bytes))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ErrCode, Request};
    use llog_engine::GroupCommitSnapshot;
    use llog_ops::{builtin, OpKind, Transform};
    use llog_storage::MetricsSnapshot;
    use llog_types::{ObjectId, Value};

    fn start_primary(shards: usize) -> Server {
        let registry = TransformRegistry::with_builtins();
        let engine = ShardedEngine::new(boot::server_engine_config(shards), &registry);
        Server::start(engine, ServerConfig::default()).unwrap()
    }

    /// Each named counter of `wire` lies between its values in `before`
    /// and `after`, two direct reads taken around the Stats request.
    fn assert_bracketed(
        names: &[&str],
        before: &MetricsSnapshot,
        wire: &MetricsSnapshot,
        after: &MetricsSnapshot,
    ) {
        for name in names {
            let i = MetricsSnapshot::COUNTERS
                .iter()
                .position(|(n, _)| n == name)
                .unwrap();
            let (b, w, a) = (
                before.fields()[i].1,
                wire.fields()[i].1,
                after.fields()[i].1,
            );
            assert!(b.min(a) <= w && w <= b.max(a), "{name}: {b} <= {w} <= {a}");
        }
    }

    fn wait_watermarks(replica: &Replica, want: &[Lsn]) {
        for _ in 0..2000 {
            let got = replica.watermarks();
            if got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g >= w) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!(
            "replica never caught up: at {:?}, want {:?}",
            replica.watermarks(),
            want
        );
    }

    #[test]
    fn replica_tracks_live_load_and_serves_reads() {
        let server = start_primary(2);
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        for i in 0..16u64 {
            c.put(ObjectId(i), format!("pre-{i}").as_bytes()).unwrap();
        }

        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ServerConfig::default(),
        )
        .unwrap();
        for i in 16..32u64 {
            c.put(ObjectId(i), format!("live-{i}").as_bytes()).unwrap();
        }
        // Every put above is durable (acked); the replica must reach every
        // shard's durable watermark.
        let mut want = Vec::new();
        {
            let mut s = Client::connect(&addr).unwrap();
            let stats = s.stats().unwrap();
            assert_eq!(stats.shards, 2);
        }
        // Durable watermarks aren't visible through the protocol; poll the
        // replica until all 32 values read back instead.
        want.resize(2, Lsn::ZERO);
        wait_watermarks(&replica, &want);
        let raddr = replica.local_addr().to_string();
        let mut rc = Client::connect(&raddr).unwrap();
        for _ in 0..2000 {
            if rc.get(ObjectId(31)).unwrap() == b"live-31".to_vec() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for i in 0..32u64 {
            let want = if i < 16 {
                format!("pre-{i}")
            } else {
                format!("live-{i}")
            };
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                want.as_bytes().to_vec(),
                "object {i}"
            );
        }
        // Replica rejects writes pre-promotion, and shipping (no cascading
        // replication); a refusal is the caller's error, not a dead shard.
        assert!(rc.put(ObjectId(99), b"nope").is_err());
        let (shard, lsn) = (0, Lsn::ZERO);
        let subscribe = Request::Subscribe {
            req_id: rc.fresh_req_id(),
            shard,
            from: lsn,
        };
        let report = Request::ReplayedLsn {
            req_id: rc.fresh_req_id(),
            shard,
            lsn,
        };
        for req in [subscribe, report] {
            match rc.call(&req).unwrap() {
                Response::Err { code, .. } => assert_eq!(code, ErrCode::Engine),
                other => panic!("a standby shipped: {other:?}"),
            }
        }
        // Primary's shipping metrics moved.
        let stats = c.stats().unwrap();
        assert!(stats.aggregate.repl_segments_shipped > 0);
        assert!(stats.aggregate.repl_bytes_shipped > 0);

        // A standby's Stats is its engine's metrics snapshot, `repl_*`
        // counters included. The wire values are bracketed by direct reads
        // taken before and after the request.
        let engine = &replica.feed.engine;
        assert!(engine.is_standby());
        let before = engine.metrics_snapshot().aggregate;
        let rstats = rc.stats().unwrap();
        let after = engine.metrics_snapshot().aggregate;
        assert_eq!(rstats.shards, 2);
        assert_eq!(rstats.group_commit, GroupCommitSnapshot::default());
        let standby = [
            "reads_snapshot",
            "versions_retained",
            "versions_gced",
            "snapshot_oldest_si",
            "rw_nodes_visited",
        ];
        assert_bracketed(&standby, &before, &rstats.aggregate, &after);
        assert!(
            rstats.aggregate.reads_snapshot >= 32,
            "the standby served 32+ reads"
        );
        assert!(
            rstats.aggregate.versions_retained >= 32,
            "every object has a version"
        );
        let received = replica.counters();
        assert!(rstats.aggregate.repl_segments_shipped > 0);
        assert!(rstats.aggregate.repl_segments_shipped <= received.chunks_received);
        assert!(rstats.aggregate.repl_bytes_shipped <= received.bytes_received);
        assert!(rstats.aggregate.repl_watermark_lsn > 0);
        let watermarks = replica.watermarks();
        assert!(watermarks
            .iter()
            .any(|w| w.0 == rstats.aggregate.repl_watermark_lsn));

        replica.stop().unwrap();
        server.shutdown();
    }

    #[test]
    fn promotion_after_primary_death_serves_acked_writes_and_accepts_new_ones() {
        let server = start_primary(2);
        let addr = server.local_addr().to_string();
        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ServerConfig::default(),
        )
        .unwrap();

        let mut c = Client::connect(&addr).unwrap();
        let mut acked = Vec::new();
        for i in 0..24u64 {
            c.put(ObjectId(i), format!("v-{i}").as_bytes()).unwrap();
            acked.push(i);
        }
        // Let the replica drain everything acked, then kill the primary
        // abruptly (abort: no graceful drain, connections die).
        let raddr = replica.local_addr().to_string();
        let mut rc = Client::connect(&raddr).unwrap();
        for _ in 0..2000 {
            if rc.get(ObjectId(23)).unwrap() == b"v-23".to_vec() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.abort();

        rc.promote("").unwrap();
        let sealed = replica.watermarks();
        // Every acked write survives on the promoted replica.
        for &i in &acked {
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                format!("v-{i}").into_bytes(),
                "acked object {i} lost by failover"
            );
        }
        // And it now accepts writes.
        let lsn = rc.put(ObjectId(1000), b"post-failover").unwrap();
        assert!(lsn > Lsn::ZERO);
        assert_eq!(rc.get(ObjectId(1000)).unwrap(), b"post-failover".to_vec());
        // That ack rode the force barrier (which bumps the overlap counter
        // once per barrier), like a booted primary's: which force code
        // acks a put does not depend on how the node became primary.
        let engine = &replica.feed.engine;
        assert!(!engine.is_standby(), "promotion ends the standby state");
        let promoted = || engine.metrics_snapshot();
        let before = promoted();
        assert!(
            before.aggregate.double_buffer_overlap_ns > 0,
            "ack bypassed the barrier"
        );
        // A promoted replica's Stats carries the engine's aggregate and
        // group-commit counters; its `repl_*` counters stay where replay
        // left them.
        let rstats = rc.stats().unwrap();
        let after = promoted();
        let engine_counters = [
            "log_records",
            "log_bytes",
            "io_fsyncs",
            "double_buffer_overlap_ns",
            "reads_snapshot",
            "redo_ops",
        ];
        assert_bracketed(
            &engine_counters,
            &before.aggregate,
            &rstats.aggregate,
            &after.aggregate,
        );
        assert!(rstats.aggregate.log_bytes > 0 && rstats.aggregate.reads_snapshot > 0);
        let waits = (
            before.group_commit.waits,
            rstats.group_commit.waits,
            after.group_commit.waits,
        );
        assert!(
            waits.0 <= waits.1 && waits.1 <= waits.2 && waits.1 > 0,
            "{waits:?}"
        );
        assert_eq!(rstats.aggregate.repl_replay_lag_frames, 0);
        assert_eq!(
            Some(rstats.aggregate.repl_watermark_lsn),
            sealed.iter().map(|w| w.0).max(),
            "the replayed watermark is where promotion sealed"
        );
        assert_eq!(
            rstats.aggregate.repl_bytes_shipped,
            replica.counters().bytes_received
        );
        // A second promote is refused.
        assert!(rc.promote("").is_err());
        replica.stop().unwrap();
    }

    /// Attaching against a backlog several times larger than
    /// `SHIP_CHUNK_MAX` forces every prefix chunk to end mid-frame; the
    /// attach must still make progress chunk by chunk (the durable cut
    /// may never be derived from the mid-frame cursor) and converge on
    /// every acked value.
    #[test]
    fn attach_ships_multi_chunk_backlog_without_stalling() {
        let server = start_primary(1);
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        // ~600 KiB of acked, durable backlog before the replica exists.
        for i in 0..300u64 {
            c.put(ObjectId(i), &vec![(i % 251) as u8; 2048]).unwrap();
        }
        // Replica::start attaches synchronously: when it returns, the
        // whole durable prefix is replayed.
        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ServerConfig::default(),
        )
        .unwrap();
        let mut rc = Client::connect(replica.local_addr().to_string()).unwrap();
        for i in 0..300u64 {
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                vec![(i % 251) as u8; 2048],
                "object {i}"
            );
        }
        replica.stop().unwrap();
        server.shutdown();
    }

    /// A checkpointed store image bigger than one protocol frame arrives
    /// as a chunked manifest (`FetchStore`), and the replica reassembles
    /// it into a consistent attach.
    #[test]
    fn attach_assembles_multi_chunk_store_image() {
        use crate::proto::MAX_FRAME;

        let registry = TransformRegistry::with_builtins();
        let engine = ShardedEngine::new(boot::server_engine_config(1), &registry);
        // ~1.5 MiB of installed, checkpointed state: the attach image
        // cannot fit a single frame.
        for i in 0..24u64 {
            engine
                .execute(
                    OpKind::Physical,
                    vec![],
                    vec![ObjectId(i)],
                    Transform::new(
                        builtin::CONST,
                        builtin::encode_values(&[Value::from(vec![i as u8; 64 << 10])]),
                    ),
                )
                .unwrap()
                .wait();
        }
        engine.install_all().unwrap();
        engine.checkpoint_all(true).unwrap();
        let server = Server::start(engine, ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        // Raw protocol: the first manifest chunk declares a total bigger
        // than one frame and carries only a prefix of the image.
        let mut c = Client::connect(&addr).unwrap();
        match c.subscribe(0, Lsn::ZERO).unwrap() {
            Response::SealManifest {
                store_off,
                store_total,
                store,
                ..
            } => {
                assert_eq!(store_off, 0);
                assert!(
                    store_total > MAX_FRAME as u64,
                    "store image too small to exercise chunking: {store_total}"
                );
                assert!((store.len() as u64) < store_total);
            }
            other => panic!("expected seal manifest, got {other:?}"),
        }

        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ServerConfig::default(),
        )
        .unwrap();
        let mut rc = Client::connect(replica.local_addr().to_string()).unwrap();
        for i in 0..24u64 {
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                vec![i as u8; 64 << 10],
                "object {i}"
            );
        }
        replica.stop().unwrap();
        server.shutdown();
    }

    /// Puts from concurrent connections to a promoted replica ride shared
    /// force barriers: the replica's front end is the ordinary server, so
    /// no lock is held across a put's durability wait.
    #[test]
    fn a_promoted_replica_batches_puts_from_concurrent_connections() {
        let server = start_primary(2);
        let addr = server.local_addr().to_string();
        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ServerConfig::default(),
        )
        .unwrap();
        server.abort();
        let raddr = replica.local_addr().to_string();
        Client::connect(&raddr).unwrap().promote("").unwrap();

        const WINDOW: u64 = 8;
        let sent = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for conn in 0..4u64 {
                let (raddr, sent) = (&raddr, &sent);
                scope.spawn(move || {
                    let mut c = Client::connect(raddr).unwrap();
                    while c.stats().unwrap().group_commit.max_batch <= 1
                        && sent.fetch_add(WINDOW, Ordering::Relaxed) < 2000
                    {
                        for k in 0..WINDOW {
                            let req_id = c.fresh_req_id();
                            let object = ObjectId(conn << 32 | k);
                            let value = vec![k as u8];
                            c.send(&crate::Request::Put {
                                req_id,
                                object,
                                value,
                            })
                            .unwrap();
                        }
                        for _ in 0..WINDOW {
                            let resp = c.recv().unwrap();
                            assert!(matches!(resp, Some(Response::Ack { .. })), "{resp:?}");
                        }
                    }
                });
            }
        });
        let stats = Client::connect(&raddr).unwrap().stats().unwrap();
        assert!(
            stats.group_commit.max_batch > 1,
            "every barrier carried one put: {:?}",
            stats.group_commit
        );
        replica.stop().unwrap();
    }

    /// `count` objects, each put with a value tagged `tag`.
    fn put_all(c: &mut Client, count: u64, tag: &str) {
        for i in 0..count {
            c.put(ObjectId(i), format!("{tag}-{i}").as_bytes()).unwrap();
        }
    }

    fn shipped(engine: &ShardedEngine) -> (u64, u64) {
        let a = engine.metrics_snapshot().aggregate;
        (a.repl_segments_shipped, a.repl_bytes_shipped)
    }

    /// A standby that falls behind a checkpoint truncation rebuilds the
    /// shard from a fresh attach image, swapped in place: its reads match
    /// the primary's again and its shipping counters carry across the
    /// swap. The poller runs by hand, one round at a time.
    #[test]
    fn a_standby_behind_a_truncation_reattaches_in_place() {
        let registry = TransformRegistry::with_builtins();
        let primary = Arc::new(ShardedEngine::new(boot::server_engine_config(1), &registry));
        let server = Server::serve(primary.clone(), ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        put_all(&mut c, 24, "attached");

        let mut client = Client::connect(&addr).unwrap();
        let feed = Feed::new(attach(&mut client, &registry).unwrap(), &addr);
        let mut poller = Poller::new(feed.clone(), client);
        let standby = &feed.engine;
        put_all(&mut c, 24, "shipped");
        assert_eq!(poller.round(), Some(true));
        let before = shipped(standby);
        assert!(before.0 > 0 && before.1 > 0, "{before:?}");

        // Behind the standby's back: more puts, then a checkpoint that
        // truncates the primary's log past the standby's stable end.
        put_all(&mut c, 24, "truncated");
        primary.install_all().unwrap();
        primary.checkpoint_all(true).unwrap();
        let base = primary.ship_manifest(0).unwrap().base;
        assert!(
            base > standby.durable_lsn(0),
            "the log was not truncated past the standby"
        );

        assert_eq!(poller.round(), Some(true));
        assert!(feed.reattaches.load(Ordering::Relaxed) >= 1);
        assert_eq!(standby.durable_lsn(0), primary.durable_lsn(0));
        for i in 0..24u64 {
            let x = ObjectId(i);
            let want = Value::from(format!("truncated-{i}").as_bytes());
            assert_eq!(standby.read_value_snapshot(x).unwrap(), want, "object {i}");
            assert_eq!(primary.read_value_snapshot(x).unwrap(), want, "object {i}");
        }
        let after = shipped(standby);
        assert!(
            after.0 >= before.0 && after.1 >= before.1,
            "{before:?} -> {after:?}"
        );

        drop((poller, feed, primary));
        server.shutdown();
    }

    /// Promotion from the dead primary's directory recovers a shard
    /// wholesale from its device pair when the device log was truncated
    /// past the standby's stable end, and every acked put reads back.
    #[test]
    fn promotion_recovers_a_shard_wholesale_past_a_device_truncation() {
        let dir = std::env::temp_dir().join(format!("llog-wholesale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = TransformRegistry::with_builtins();
        let primary = Arc::new(boot::open_served(&dir, 1, &registry).unwrap());
        let server = Server::serve(primary.clone(), ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        put_all(&mut c, 24, "attached");
        let standby = attach(&mut Client::connect(&addr).unwrap(), &registry).unwrap();
        let stable_end = standby.durable_lsn(0);

        // The standby never polls: puts it never sees, a checkpoint that
        // truncates the device log past its stable end, more acked puts,
        // then the primary dies.
        put_all(&mut c, 24, "checkpointed");
        primary.install_all().unwrap();
        primary.checkpoint_all(true).unwrap();
        put_all(&mut c, 24, "acked");
        drop((c, primary));
        drop(server.abort().crash());
        let device = DurabilityBackend::file(
            &dir.join("shard-0"),
            Metrics::new(),
            &DeviceConfig::default(),
        )
        .unwrap()
        .load(Metrics::new())
        .unwrap()
        .expect("the primary persisted");
        assert!(
            device.1.start_lsn() > stable_end,
            "the device log still reaches the standby"
        );

        promote(&standby, dir.to_str().unwrap()).unwrap();
        assert!(!standby.is_standby());
        for i in 0..24u64 {
            let want = Value::from(format!("acked-{i}").as_bytes());
            assert_eq!(
                standby.read_value_snapshot(ObjectId(i)).unwrap(),
                want,
                "object {i}"
            );
        }
        // The recovered shard takes writes.
        let transform = Transform::new(
            builtin::CONST,
            builtin::encode_values(&[Value::from("new")]),
        );
        let ticket = standby
            .execute(OpKind::Physical, vec![], vec![ObjectId(99)], transform)
            .unwrap();
        assert!(ticket.wait());
        standby.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
