//! Opening a served database directory: file-backed shards, reboot
//! recovery, and the engine configuration a server wants.
//!
//! Layout under the root: one backend per shard at `<dir>/shard-<i>/`
//! (each with `log/` and `store/` subdirectories — see
//! [`llog_wal::DurabilityBackend::file`]). The shard count is discovered
//! from the existing `shard-*` directories on reopen, so a restart cannot
//! silently re-partition the object space.

use std::path::Path;

use llog_engine::{recover_sharded_from_backends, ShardedConfig, ShardedEngine};
use llog_ops::TransformRegistry;
use llog_storage::device::DeviceConfig;
use llog_storage::Metrics;
use llog_types::{LlogError, Result};
use llog_wal::DurabilityBackend;

/// Engine configuration for a served database: the engine's defaults —
/// group commit on demand (pipelined acks ride one force barrier), which
/// stages the log tail on the attached device and acknowledges only what
/// the device reports durable — at the given shard count.
pub fn server_engine_config(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        ..ShardedConfig::default()
    }
}

/// Count the `shard-<i>` directories under `dir` (0 when none exist).
pub fn existing_shards(dir: &Path) -> usize {
    (0..usize::MAX)
        .take_while(|i| dir.join(format!("shard-{i}")).is_dir())
        .count()
}

/// Open (or create) a served database at `dir` with `shards` file-backed
/// shards, recovering whatever the devices hold. On reopen the existing
/// shard count wins over the argument — re-partitioning a populated
/// database would strand objects on shards that no longer own them.
///
/// Each shard boots in its own recovery-pool job
/// ([`recover_sharded_from_backends`]): the job opens the shard's backend,
/// which reads its manifests and reads and CRC-checks its log once, then
/// loads the store, recovers and seeds the version chains. Nothing of a
/// shard's boot runs before the pool; the first error in shard order fails
/// the open once every job has finished.
pub fn open_served(
    dir: &Path,
    shards: usize,
    registry: &TransformRegistry,
) -> Result<ShardedEngine> {
    let existing = existing_shards(dir);
    let shards = if existing > 0 {
        existing
    } else {
        shards.max(1)
    };
    let cfg = DeviceConfig::default();
    let openers = (0..shards)
        .map(|i| {
            let shard = dir.join(format!("shard-{i}"));
            move || DurabilityBackend::file(&shard, Metrics::new(), &cfg)
        })
        .collect();
    let (engine, outcomes, backends) =
        recover_sharded_from_backends(openers, registry, server_engine_config(shards))?;
    if outcomes.len() != shards {
        return Err(LlogError::Unexplainable(format!(
            "recovered {} shards, expected {shards}",
            outcomes.len()
        )));
    }
    engine.attach_backends(backends);
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A served engine is the default engine: destructuring keeps this
    /// test honest when `ShardedConfig` gains or loses a field.
    #[test]
    fn server_config_is_the_default_config_at_the_given_shard_count() {
        let ShardedConfig {
            shards,
            max_uninstalled,
            install_high_water,
        } = server_engine_config(3);
        let d = ShardedConfig::default();
        assert_eq!(shards, 3);
        assert_eq!(max_uninstalled, d.max_uninstalled);
        assert_eq!(install_high_water, d.install_high_water);
    }

    #[test]
    fn reopen_keeps_the_existing_shard_count() {
        let dir = std::env::temp_dir().join(format!("llog-boot-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let reg = TransformRegistry::with_builtins();
        let e = open_served(&dir, 3, &reg).unwrap();
        assert_eq!(e.shards(), 3);
        e.persist_all().unwrap();
        drop(e);
        // Ask for 8; the on-disk layout says 3.
        let e = open_served(&dir, 8, &reg).unwrap();
        assert_eq!(e.shards(), 3);
        drop(e);
        std::fs::remove_dir_all(&dir).ok();
    }
}
