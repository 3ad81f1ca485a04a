//! Corrupt-image matrix for the standalone store image (the device's delta
//! layout, as replica attach and backups use it) and the segmented device
//! layout.
//!
//! Every mangled image — truncated, CRC-flipped, magic-smashed, or lying
//! about its own length — must be rejected with [`LlogError::Codec`]
//! (or [`LlogError::Io`] for an unusable directory), and must **never**
//! panic.
//! The length-lie cases recompute the trailing CRC so the image sails past
//! the checksum and exercises the structural bounds checks behind it.

use std::path::{Path, PathBuf};

use llog_core::{Engine, EngineConfig};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_storage::device::{
    decode_image, encode_image, segment_name, DeviceConfig, STORE_MANIFEST, WAL_MANIFEST,
};
use llog_storage::{Metrics, StableStore};
use llog_types::{crc32c, LlogError, Lsn, ObjectId, Value};
use llog_wal::{DurabilityBackend, Wal, LOG_SUBDIR, STORE_SUBDIR};

/// A store/wal pair with real content: a few ops executed, installed and
/// forced through an engine.
fn sample_parts() -> (StableStore, Wal) {
    let mut e = Engine::new(EngineConfig::default(), TransformRegistry::with_builtins());
    for i in 0..8u64 {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(i % 3)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from(format!("v{i}").as_bytes())]),
            ),
        )
        .unwrap();
    }
    e.install_all().unwrap();
    e.wal_mut().force();
    e.crash()
}

/// Re-seal `image` with a fresh CRC over everything before the last 4
/// bytes, so structural lies survive the checksum gate.
fn reseal(image: &mut [u8]) {
    let n = image.len() - 4;
    let crc = crc32c(&image[..n]);
    image[n..].copy_from_slice(&crc.to_le_bytes());
}

fn assert_codec(r: Result<(), LlogError>, what: &str) {
    match r {
        Ok(()) => panic!("{what}: mangled image was accepted"),
        Err(LlogError::Codec { .. }) => {}
        Err(other) => panic!("{what}: expected Codec error, got {other}"),
    }
}

fn store_load(bytes: &[u8]) -> Result<(), LlogError> {
    decode_image(bytes).map(|_| ())
}

#[test]
fn store_image_matrix() {
    let (mut store, _) = sample_parts();
    // Edge entries: an empty value, the largest id, a multi-sector value.
    store.write(ObjectId(7), Value::empty(), Lsn(20));
    store.write(ObjectId(u64::MAX), Value::filled(7, 300), Lsn(30));
    let image = &encode_image(store.iter())[..];
    // Baseline: the untouched image (and an empty store's) round-trips.
    assert_eq!(decode_image(image).unwrap(), store.snapshot());
    assert!(decode_image(&encode_image([])).unwrap().is_empty());

    // 1. Truncation at every interesting boundary (including empty).
    for keep in [
        0,
        1,
        7,
        8,
        16,
        24,
        image.len() / 2,
        image.len().saturating_sub(5),
        image.len() - 1,
    ] {
        assert_codec(
            store_load(&image[..keep]),
            &format!("store: truncated to {keep}"),
        );
    }

    // 2. Flipped CRC bytes: every byte of the trailer.
    for i in image.len() - 4..image.len() {
        let mut m = image.to_vec();
        m[i] ^= 0xFF;
        assert_codec(store_load(&m), &format!("store: CRC byte {i} flipped"));
    }

    // 3. Bad magic, resealed so the CRC gate passes and the magic check
    //    itself must fire.
    let mut m = image.to_vec();
    m[..8].copy_from_slice(b"NOTMAGIC");
    reseal(&mut m);
    assert_codec(store_load(&m), "store: bad magic");

    //    Likewise a chain epoch where a standalone image has epoch 0.
    let mut m = image.to_vec();
    m[8..16].copy_from_slice(&1u64.to_le_bytes());
    reseal(&mut m);
    assert_codec(store_load(&m), "store: chain epoch");

    // 4. Single-bit rot anywhere in the body is caught by the CRC.
    for at in [8, 9, 16, 24, 32, image.len() / 2, image.len() - 5] {
        let at = at.min(image.len() - 1);
        let mut m = image.to_vec();
        m[at] ^= 0x01;
        assert_codec(store_load(&m), &format!("store: bit rot at byte {at}"));
    }

    // 5. Garbage of assorted sizes.
    for len in [0usize, 3, 19, 27, 64, 1024] {
        let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        assert_codec(store_load(&junk), &format!("store: {len} junk bytes"));
    }
}

#[test]
fn store_over_long_declared_count_is_rejected() {
    let (store, _) = sample_parts();
    let mut image = encode_image(store.iter());
    // count lives at bytes 16..24 (after magic and epoch); claim far more
    // entries than exist. With the CRC resealed this must trip the
    // per-entry bounds check, not the checksum.
    image[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut image);
    assert_codec(store_load(&image), "store: count = u64::MAX");

    let mut image = encode_image(store.iter());
    let count = u64::from_le_bytes(image[16..24].try_into().unwrap());
    image[16..24].copy_from_slice(&(count + 1).to_le_bytes());
    reseal(&mut image);
    assert_codec(store_load(&image), "store: count + 1");
}

#[test]
fn store_under_long_declared_count_leaves_trailing_bytes() {
    let (store, _) = sample_parts();
    let mut image = encode_image(store.iter());
    let count = u64::from_le_bytes(image[16..24].try_into().unwrap());
    assert!(count >= 1);
    image[16..24].copy_from_slice(&(count - 1).to_le_bytes());
    reseal(&mut image);
    assert_codec(store_load(&image), "store: count - 1");
}

/// Corruption classification during recovery: bit-rot *behind* the last
/// force boundary is mid-log damage and must fail recovery loudly — in the
/// pipeline and in its two-pass reference alike — while damage in the final force's byte range is indistinguishable
/// from a torn tail and must be clipped, not fatal.
#[test]
fn mid_log_corruption_fails_recovery_torn_tail_is_clipped() {
    use llog_core::{recover, recover_two_pass, RecoveryOutcome, RedoPolicy};

    type RecoverFn = fn(
        StableStore,
        Wal,
        TransformRegistry,
        EngineConfig,
        RedoPolicy,
    ) -> llog_types::Result<(Engine, RecoveryOutcome)>;
    let both: [(&str, RecoverFn); 2] = [("recover", recover), ("two_pass", recover_two_pass)];

    let write = |e: &mut Engine, x: u64, tag: &str| {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(x)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from(tag.as_bytes())]),
            ),
        )
        .unwrap();
    };
    let build = || {
        let mut e = Engine::new(EngineConfig::default(), TransformRegistry::with_builtins());
        for i in 0..4u64 {
            write(&mut e, i, "early");
        }
        e.wal_mut().force(); // first boundary: bytes before this are guarded
        for i in 4..8u64 {
            write(&mut e, i, "late");
        }
        e.wal_mut().force(); // final boundary
        e
    };

    // Bit-rot in the first record (well before the last force): recovery
    // must refuse the image rather than silently clip half the log.
    for (name, f) in both {
        let mut e = build();
        let first = e.wal().start_lsn();
        e.wal_mut().corrupt_stable_bit(first, 12);
        let (store, wal) = e.crash();
        match f(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        ) {
            Err(LlogError::Corrupt { .. }) => {}
            Ok(_) => panic!("{name}: mid-log corruption was silently clipped"),
            Err(other) => panic!("{name}: expected Corrupt, got {other}"),
        }
    }

    // Bit-rot inside the final force's range: looks exactly like a torn
    // tail, so recovery clips it and keeps everything durable before it.
    for (name, f) in both {
        let mut e = build();
        let boundary = {
            let mut b = e.wal().start_lsn();
            for r in e.wal().scan(e.wal().start_lsn()) {
                let (lsn, _) = r.unwrap();
                if lsn.0 <= e.wal().forced_lsn().0 && b.0 < lsn.0 {
                    b = lsn; // last record boundary at-or-before forced
                }
            }
            b
        };
        // The final force covered records appended after the first force;
        // corrupt at the last record's start, inside the guarded-tail
        // range.
        e.wal_mut().corrupt_stable_bit(boundary, 5);
        let (store, wal) = e.crash();
        let (rec, outcome) = f(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap_or_else(|err| panic!("{name}: tail corruption must clip, got {err}"));
        assert!(
            outcome.torn_tail,
            "{name}: tail corruption must classify as torn"
        );
        assert_eq!(rec.peek_value(ObjectId(0)), Value::from("early".as_bytes()));
    }
}

// ---------------------------------------------------------------------------
// Segmented device layout (`--backend file`): per-segment CRC flips, missing
// middle segments, manifest lies (truncated, resealed, stale, duplicated
// entries) and checkpoint-delta rot must all surface as `Codec` — never a
// panic — while damage confined to the *open* tail segment stays the
// torn-tail case and clips instead of killing recovery.
// ---------------------------------------------------------------------------

/// Unique per-test directory with cleanup-on-drop (panic-safe).
struct SegDir(PathBuf);

impl SegDir {
    fn new(tag: &str) -> SegDir {
        static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("llog-corrupt-seg-{tag}-{}-{n}", std::process::id()));
        assert!(!dir.exists(), "temp dir collision: {}", dir.display());
        std::fs::create_dir_all(&dir).unwrap();
        SegDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SegDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Tiny segments so the 8-op fixture spans several sealed segments and the
/// checkpoint chain folds early.
const SEG_BYTES: usize = 24;

fn seg_cfg(segment_bytes: usize) -> DeviceConfig {
    DeviceConfig {
        segment_bytes,
        compact_chain: 3,
        ..DeviceConfig::default()
    }
}

/// Persist `sample_parts()` through a file backend rooted at `dir`.
fn seg_fixture(dir: &Path, segment_bytes: usize) -> (StableStore, Wal) {
    let (store, wal) = sample_parts();
    let mut b = DurabilityBackend::file(dir, Metrics::new(), &seg_cfg(segment_bytes)).unwrap();
    b.persist(&store, &wal, None).unwrap();
    (store, wal)
}

/// Attach + load the file backend. Both steps may reject a mangled layout;
/// either way the rejection must be an error, never a panic.
fn seg_load(dir: &Path) -> Result<(), LlogError> {
    let b = DurabilityBackend::file(dir, Metrics::new(), &seg_cfg(SEG_BYTES))?;
    b.load(Metrics::new()).map(|_| ())
}

/// Sorted `seg-*.llog` paths under `dir/log`.
fn seg_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir.join(LOG_SUBDIR))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .collect();
    v.sort();
    v
}

/// Sorted `ckpt-*.llog` paths under `dir/store`.
fn delta_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir.join(STORE_SUBDIR))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .collect();
    v.sort();
    v
}

/// The open (unsealed) segment's start LSN, from the WAL manifest image
/// (bytes 24..32 of `"LLOGWMF2" | base | master | open_start | ...`).
fn manifest_open_start(dir: &Path) -> u64 {
    let raw = std::fs::read(dir.join(LOG_SUBDIR).join(WAL_MANIFEST)).unwrap();
    u64::from_le_bytes(raw[24..32].try_into().unwrap())
}

#[test]
fn segmented_pristine_layout_roundtrips() {
    let d = SegDir::new("pristine");
    let (store, wal) = seg_fixture(d.path(), SEG_BYTES);
    assert!(
        seg_files(d.path()).len() >= 3,
        "fixture too small to exercise sealed segments: {:?}",
        seg_files(d.path())
    );
    assert!(!delta_files(d.path()).is_empty(), "no checkpoint delta");
    let b = DurabilityBackend::file(d.path(), Metrics::new(), &seg_cfg(SEG_BYTES)).unwrap();
    let (s2, w2) = b.load(Metrics::new()).unwrap().unwrap();
    assert_eq!(s2.snapshot(), store.snapshot());
    assert_eq!(w2.forced_lsn(), wal.forced_lsn());
}

#[test]
fn segmented_sealed_segment_rot_is_codec() {
    let d = SegDir::new("rot");
    seg_fixture(d.path(), SEG_BYTES);
    let open = segment_name(Lsn(manifest_open_start(d.path())));
    let sealed: Vec<PathBuf> = seg_files(d.path())
        .into_iter()
        .filter(|p| p.file_name().and_then(|n| n.to_str()) != Some(open.as_str()))
        .collect();
    assert!(
        sealed.len() >= 2,
        "want several sealed segments: {sealed:?}"
    );
    for p in &sealed {
        let orig = std::fs::read(p).unwrap();
        for at in [0, orig.len() / 2, orig.len() - 1] {
            let mut m = orig.clone();
            m[at] ^= 0x10;
            std::fs::write(p, &m).unwrap();
            assert_codec(
                seg_load(d.path()),
                &format!("segmented: {} bit rot at {at}", p.display()),
            );
        }
        // Truncated sealed segment: length no longer matches the manifest.
        std::fs::write(p, &orig[..orig.len() - 1]).unwrap();
        assert_codec(
            seg_load(d.path()),
            &format!("segmented: {} truncated", p.display()),
        );
        std::fs::write(p, &orig).unwrap();
    }
    seg_load(d.path()).expect("restored layout must load again");
}

#[test]
fn segmented_missing_middle_segment_is_codec() {
    let d = SegDir::new("gap");
    seg_fixture(d.path(), SEG_BYTES);
    let open = segment_name(Lsn(manifest_open_start(d.path())));
    let sealed: Vec<PathBuf> = seg_files(d.path())
        .into_iter()
        .filter(|p| p.file_name().and_then(|n| n.to_str()) != Some(open.as_str()))
        .collect();
    assert!(sealed.len() >= 2);
    std::fs::remove_file(&sealed[1]).unwrap();
    assert_codec(seg_load(d.path()), "segmented: missing middle segment");
}

#[test]
fn segmented_wal_manifest_lies_are_codec() {
    let d = SegDir::new("manifest");
    seg_fixture(d.path(), SEG_BYTES);
    let mpath = d.path().join(LOG_SUBDIR).join(WAL_MANIFEST);
    let orig = std::fs::read(&mpath).unwrap();
    let check = |image: &[u8], what: &str| {
        std::fs::write(&mpath, image).unwrap();
        assert_codec(seg_load(d.path()), what);
    };

    // Truncations at every interesting boundary, including empty.
    for keep in [0, 1, 8, 20, orig.len() / 2, orig.len() - 1] {
        check(&orig[..keep], &format!("wal manifest truncated to {keep}"));
    }
    // Flipped CRC trailer bytes.
    for i in orig.len() - 4..orig.len() {
        let mut m = orig.clone();
        m[i] ^= 0xFF;
        check(&m, &format!("wal manifest CRC byte {i} flipped"));
    }
    // Bad magic, resealed past the checksum gate.
    let mut m = orig.clone();
    m[..8].copy_from_slice(b"NOTMAGIC");
    reseal(&mut m);
    check(&m, "wal manifest bad magic");
    // Sealed-count lie, resealed: table size check must fire.
    let mut m = orig.clone();
    let count = u64::from_le_bytes(m[32..40].try_into().unwrap());
    assert!(count >= 2, "fixture should seal several segments");
    m[32..40].copy_from_slice(&(count + 1).to_le_bytes());
    reseal(&mut m);
    check(&m, "wal manifest count + 1");
    // Duplicated sealed entry (count adjusted, resealed): the contiguity
    // check catches the repeat.
    let mut m = orig.clone();
    let crc_at = m.len() - 4;
    let last_entry = m[crc_at - 20..crc_at].to_vec();
    m.splice(crc_at..crc_at, last_entry);
    m[32..40].copy_from_slice(&(count + 1).to_le_bytes());
    reseal(&mut m);
    check(&m, "wal manifest duplicated sealed entry");
    // Open-start lie, resealed: sealed end no longer meets the open segment.
    let mut m = orig.clone();
    let open = u64::from_le_bytes(m[24..32].try_into().unwrap());
    m[24..32].copy_from_slice(&(open + 1).to_le_bytes());
    reseal(&mut m);
    check(&m, "wal manifest open_start + 1");
    // Assorted junk.
    for len in [3usize, 19, 64, 1024] {
        let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        check(&junk, &format!("wal manifest {len} junk bytes"));
    }

    std::fs::write(&mpath, &orig).unwrap();
    seg_load(d.path()).expect("restored manifest must load again");
}

#[test]
fn segmented_stale_manifest_after_reclaim_is_codec() {
    // A manifest from *before* a truncation reclaim names segment blobs the
    // reclaim deleted. If a lost manifest write leaves that stale manifest
    // in place across the delete (the orderings forbid it, but media can
    // resurrect old blocks), load must reject it — missing segment — rather
    // than silently resurrect the pre-truncation log.
    let d = SegDir::new("stale");
    let mut e = Engine::new(EngineConfig::default(), TransformRegistry::with_builtins());
    for i in 0..8u64 {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(i % 3)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from(format!("v{i}").as_bytes())]),
            ),
        )
        .unwrap();
    }
    e.install_all().unwrap();
    e.wal_mut().force();
    let mut b = DurabilityBackend::file(d.path(), Metrics::new(), &seg_cfg(SEG_BYTES)).unwrap();
    b.persist(e.store(), e.wal(), None).unwrap();
    let mpath = d.path().join(LOG_SUBDIR).join(WAL_MANIFEST);
    let stale = std::fs::read(&mpath).unwrap();
    let before = seg_files(d.path());

    // Checkpoint with truncation, persist again: whole segments reclaim.
    e.checkpoint(true).unwrap();
    b.persist(e.store(), e.wal(), None).unwrap();
    let after = seg_files(d.path());
    assert!(
        before.iter().any(|p| !after.contains(p)),
        "truncation reclaimed no segments (before={before:?} after={after:?})"
    );

    std::fs::write(&mpath, &stale).unwrap();
    assert_codec(seg_load(d.path()), "segmented: stale pre-reclaim manifest");
}

#[test]
fn segmented_checkpoint_delta_rot_is_codec() {
    let d = SegDir::new("delta");
    seg_fixture(d.path(), SEG_BYTES);
    let deltas = delta_files(d.path());
    assert!(!deltas.is_empty());
    for p in &deltas {
        let orig = std::fs::read(p).unwrap();
        for at in [0, orig.len() / 2, orig.len() - 1] {
            let mut m = orig.clone();
            m[at] ^= 0x04;
            std::fs::write(p, &m).unwrap();
            assert_codec(
                seg_load(d.path()),
                &format!("segmented: delta {} rot at {at}", p.display()),
            );
        }
        std::fs::write(p, &orig).unwrap();
    }
    // A chained delta going missing is a broken chain, not a quiet reset.
    std::fs::remove_file(&deltas[0]).unwrap();
    assert_codec(seg_load(d.path()), "segmented: missing checkpoint delta");
}

#[test]
fn segmented_store_manifest_lies_are_codec() {
    let d = SegDir::new("smanifest");
    seg_fixture(d.path(), SEG_BYTES);
    let mpath = d.path().join(STORE_SUBDIR).join(STORE_MANIFEST);
    let orig = std::fs::read(&mpath).unwrap();
    let check = |image: &[u8], what: &str| {
        std::fs::write(&mpath, image).unwrap();
        assert_codec(seg_load(d.path()), what);
    };
    for keep in [0, 1, 8, orig.len() / 2, orig.len() - 1] {
        check(
            &orig[..keep],
            &format!("store manifest truncated to {keep}"),
        );
    }
    for i in orig.len() - 4..orig.len() {
        let mut m = orig.clone();
        m[i] ^= 0xFF;
        check(&m, &format!("store manifest CRC byte {i} flipped"));
    }
    let mut m = orig.clone();
    m[..8].copy_from_slice(b"NOTMAGIC");
    reseal(&mut m);
    check(&m, "store manifest bad magic");
    for len in [3usize, 19, 64, 1024] {
        let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        check(&junk, &format!("store manifest {len} junk bytes"));
    }
    std::fs::write(&mpath, &orig).unwrap();
    seg_load(d.path()).expect("restored store manifest must load again");
}

/// Damage confined to the open (unsealed) tail segment — truncation or bit
/// rot — is indistinguishable from a torn final write: recovery must clip it
/// and keep every installed value, never fail hard, even when the damaged
/// frame straddles the sealed/open boundary.
#[test]
fn segmented_torn_open_tail_clips_not_fatal() {
    use llog_core::{recover, RedoPolicy};
    use llog_storage::device::SEG_HEADER;

    let load_dir = |dir: &Path, what: &str| {
        let b = DurabilityBackend::file(dir, Metrics::new(), &seg_cfg(SEG_BYTES)).unwrap();
        b.load(Metrics::new())
            .unwrap_or_else(|e| panic!("{what}: load failed: {e}"))
            .expect("fixture persisted")
    };
    let recover_dir = |dir: &Path, what: &str| {
        let (store, wal) = load_dir(dir, what);
        recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap_or_else(|e| panic!("{what}: open-tail damage must clip, got {e}"))
    };

    // The fixture's byte layout is deterministic, but stay robust to format
    // drift: hunt for a segment size that leaves a non-trivial open tail.
    for segment_bytes in [SEG_BYTES, 25, 26, 29, 31] {
        let d = SegDir::new(&format!("tail{segment_bytes}"));
        seg_fixture(d.path(), segment_bytes);
        let tail = d
            .path()
            .join(LOG_SUBDIR)
            .join(segment_name(Lsn(manifest_open_start(d.path()))));
        let Ok(orig) = std::fs::read(&tail) else {
            continue; // everything sealed exactly; try another size
        };
        // The blob is preallocated: its live frames end well before the
        // file does, so damage is placed relative to the live end.
        let baseline = load_dir(d.path(), "pristine").1.forced_lsn().0;
        let live = SEG_HEADER + (baseline - manifest_open_start(d.path())) as usize;
        if live < SEG_HEADER + 4 {
            continue;
        }
        // (a) Torn tail: drop trailing live bytes.
        for cut in [1usize, (live - SEG_HEADER) / 2] {
            std::fs::write(&tail, &orig[..live - cut]).unwrap();
            let forced = load_dir(d.path(), "cut").1.forced_lsn().0;
            assert!(
                forced < baseline,
                "tail cut {cut} must clip a frame ({forced} vs {baseline})"
            );
            let (rec, _) = recover_dir(d.path(), &format!("tail cut {cut}"));
            // install_all ran before the crash, so every value survives in
            // the checkpointed store no matter how much tail clips.
            assert_eq!(rec.peek_value(ObjectId(0)), Value::from("v6".as_bytes()));
            assert_eq!(rec.peek_value(ObjectId(1)), Value::from("v7".as_bytes()));
            assert_eq!(rec.peek_value(ObjectId(2)), Value::from("v5".as_bytes()));
        }
        // (b) Bit rot mid-tail: breaks a frame CRC at-or-after the guard.
        let mut m = orig.clone();
        m[(SEG_HEADER + live) / 2] ^= 0x20;
        std::fs::write(&tail, &m).unwrap();
        let (rec, outcome) = recover_dir(d.path(), "tail bit rot");
        assert!(
            outcome.torn_tail,
            "open-segment rot must classify as a torn tail"
        );
        assert_eq!(rec.peek_value(ObjectId(0)), Value::from("v6".as_bytes()));
        // (c) Deleting the open segment outright loses only the tail.
        std::fs::remove_file(&tail).unwrap();
        let (rec, _) = recover_dir(d.path(), "tail removed");
        assert_eq!(rec.peek_value(ObjectId(1)), Value::from("v7".as_bytes()));
        return;
    }
    panic!("no segment size produced a non-empty open tail segment");
}

/// Ghost bytes in a *recycled* open segment — stale frames from the blob's
/// previous life (or zero fill) beyond the live tail — sit outside the trust
/// boundary: rot there must be invisible to load, and rot in parked pool
/// blobs must be too. Damage to the *live* region of the open segment stays
/// the torn-tail case: the load-time clip shortens the log, never panics.
#[test]
fn segmented_recycled_ghost_region_is_outside_the_trust_boundary() {
    use llog_storage::device::SEG_HEADER;

    let d = SegDir::new("recycle");
    let cfg = seg_cfg(SEG_BYTES);
    let dm = Metrics::new();
    let mut e = Engine::new(EngineConfig::default(), TransformRegistry::with_builtins());
    let mut b = DurabilityBackend::file(d.path(), dm.clone(), &cfg).unwrap();
    let put = |e: &mut Engine, i: u64| {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(i % 3)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from(format!("g{i}").as_bytes())]),
            ),
        )
        .unwrap();
    };
    // Phase A rotates several segments; the fully-truncating checkpoint
    // retires them all, parking headered blobs in the recycle pool.
    for i in 0..8u64 {
        put(&mut e, i);
    }
    e.install_all().unwrap();
    e.wal_mut().force();
    b.persist(e.store(), e.wal(), None).unwrap();
    e.checkpoint(true).unwrap();
    b.persist(e.store(), e.wal(), None).unwrap();
    // Phase B rotates again: the new segments adopt parked blobs, leaving
    // their previous life's frames as ghosts beyond the live tail.
    for i in 8..16u64 {
        put(&mut e, i);
    }
    e.wal_mut().force();
    b.persist(e.store(), e.wal(), None).unwrap();
    assert!(
        dm.snapshot().segments_recycled > 0,
        "fixture never recycled a segment"
    );

    let load_forced = |what: &str| -> u64 {
        let b = DurabilityBackend::file(d.path(), Metrics::new(), &cfg).unwrap();
        let (_, w) = b
            .load(Metrics::new())
            .unwrap_or_else(|err| panic!("{what}: load failed: {err}"))
            .expect("fixture persisted");
        w.forced_lsn().0
    };
    let baseline = load_forced("pristine recycle fixture");
    let open_start = manifest_open_start(d.path());
    let tail = d
        .path()
        .join(LOG_SUBDIR)
        .join(segment_name(Lsn(open_start)));
    let orig = std::fs::read(&tail).unwrap();
    let live = SEG_HEADER + (baseline - open_start) as usize;
    assert!(
        live < orig.len(),
        "open blob not preallocated past the live tail ({live} vs {})",
        orig.len()
    );

    // (a) Rot anywhere in the ghost region: load ignores it completely.
    for at in [live, (live + orig.len()) / 2, orig.len() - 1] {
        let mut m = orig.clone();
        m[at] ^= 0x55;
        std::fs::write(&tail, &m).unwrap();
        assert_eq!(
            load_forced(&format!("ghost rot at {at}")),
            baseline,
            "ghost rot at {at} must not move the durable end"
        );
    }
    std::fs::write(&tail, &orig).unwrap();

    // (b) Parked pool blobs hold only retired bytes: rot or deletion there
    // never touches the log.
    let pool: Vec<PathBuf> = std::fs::read_dir(d.path().join(LOG_SUBDIR))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("pool-"))
        })
        .collect();
    for p in &pool {
        let porig = std::fs::read(p).unwrap();
        let mut m = porig.clone();
        m[porig.len() / 2] ^= 0xFF;
        std::fs::write(p, &m).unwrap();
        assert_eq!(load_forced("pool blob rot"), baseline);
        std::fs::remove_file(p).unwrap();
        assert_eq!(load_forced("pool blob removed"), baseline);
        std::fs::write(p, &porig).unwrap();
    }

    // (c) Rot in the live region of the open segment is a torn tail: the
    // clip walks frame CRCs and cuts at the damaged frame.
    let mut m = orig.clone();
    m[live - 1] ^= 0x55;
    std::fs::write(&tail, &m).unwrap();
    let clipped = load_forced("live-tail rot");
    assert!(
        clipped < baseline,
        "live-tail rot must clip the durable end ({clipped} vs {baseline})"
    );
    assert!(
        clipped >= open_start,
        "the clip never cuts below the open segment"
    );
    std::fs::write(&tail, &orig).unwrap();
    assert_eq!(load_forced("restored layout"), baseline);
}

#[test]
fn missing_files_surface_as_io_not_panic() {
    let dir = SegDir::new("missing");
    // A directory that does not exist yet attaches as an empty layout and
    // loads as "nothing persisted" — never a fabricated database.
    let b = DurabilityBackend::file(
        &dir.path().join("does-not-exist"),
        Metrics::new(),
        &seg_cfg(SEG_BYTES),
    )
    .unwrap();
    assert!(b.load(Metrics::new()).unwrap().is_none());
    // A root that cannot be a directory (a file is in the way) is `Io`.
    let blocked = dir.path().join("blocked");
    std::fs::write(&blocked, b"not a directory").unwrap();
    match DurabilityBackend::file(&blocked, Metrics::new(), &seg_cfg(SEG_BYTES)) {
        Err(LlogError::Io { .. }) => {}
        other => panic!("attach under a plain file: {other:?}"),
    }
}
