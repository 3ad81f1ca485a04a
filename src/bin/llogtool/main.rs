//! `llogtool` — run, inspect, recover and verify llog databases on disk.
//!
//! A database directory holds the segmented device layout (`log/` +
//! `store/` subdirectories — append-only WAL segments, incremental
//! checkpoint deltas). Commands:
//!
//! ```text
//! llogtool demo <dir> [ops] [seed]   run a workload and crash mid-flight
//! llogtool shard-demo <dir> [shards] [ops] [seed]
//!                                    sharded run + group commit + parallel recovery
//! llogtool dump <dir>                print every stable log record
//! llogtool stats <dir|addr>          store/log statistics + backend I/O counters
//!                                    (an addr queries a live server's counters)
//! llogtool recover <dir> [policy]    recover (vsi|rsi), install, save back
//! llogtool verify <dir>              recover in memory and check the oracle
//! llogtool serve <dir> [shards] [addr]  run the TCP front end (DESIGN §12)
//! llogtool replicate <dir> <primary> [addr]  warm-standby replica (DESIGN §13)
//! llogtool promote <addr> [--from-dir <dir>] promote a replica to primary
//! llogtool lag <addr>                replication watermark/lag counters
//! llogtool load <addr> [ops] [seed] [conns]   seeded put workload, acked
//! llogtool check <addr> [ops] [seed] [conns]  verify a load's pairs
//! llogtool stop <addr>               ask a server to drain and exit
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod cli;

use cli::{
    cmd_backup, cmd_demo, cmd_dump, cmd_lag, cmd_load, cmd_media_recover, cmd_promote, cmd_recover,
    cmd_replicate, cmd_serve, cmd_server_stats, cmd_shard_demo, cmd_stats, cmd_stop, cmd_verify,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: llogtool <demo|shard-demo|dump|stats|recover|verify|backup|media-recover|serve|replicate|promote|lag|load|check|stop> <dir|addr> [args]\n\
         \n\
         demo <dir> [ops=200] [seed=42]   run a workload, crash, save the image\n\
         shard-demo <dir> [n=4] [ops] [seed] sharded run, group commit, crash, parallel recovery\n\
         dump <dir>                       print the stable log records\n\
         stats <dir|addr>                 store and log statistics (+ backend I/O counters);\n\
                                          an addr prints a live server's commit counters\n\
         recover <dir> [vsi|rsi]          recover, install everything, save back\n\
         verify <dir>                     recover in memory, compare to the oracle\n\
         backup <dir> <file>              archive a snapshot backup\n\
         media-recover <dir> <file>       restore from backup + surviving log\n\
         serve <dir> [shards=4] [addr=127.0.0.1:0]  run the TCP front end until `stop`;\n\
                                          writes the bound address to <dir>/server.addr\n\
         replicate <dir> <primary> [addr=127.0.0.1:0]  warm-standby replica of a running\n\
                                          server; writes its address to <dir>/replica.addr\n\
         promote <addr> [--from-dir <dir>] promote a replica to primary, optionally\n\
                                          catching up from the dead primary's directory\n\
         lag <addr>                       replication watermark/lag counters\n\
         load <addr> [ops=500] [seed=42] [conns=2]  seeded puts; exit 0 = all acked durable\n\
         check <addr> [ops=500] [seed=42] [conns=2] read the same pairs back, verify\n\
         stop <addr>                      ask a running server to drain and exit"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, dir) = match (args.first(), args.get(1)) {
        (Some(c), Some(d)) => (c.as_str(), PathBuf::from(d)),
        _ => return usage(),
    };
    let result = match cmd {
        "demo" => {
            let ops = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(200);
            let seed = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
            cmd_demo(&dir, ops, seed)
        }
        "shard-demo" => {
            let shards = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
            let ops = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(200);
            let seed = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(42);
            cmd_shard_demo(&dir, shards, ops, seed)
        }
        "dump" => cmd_dump(&dir),
        "stats" => match args.get(1).filter(|a| a.contains(':')) {
            Some(addr) => cmd_server_stats(addr),
            None => cmd_stats(&dir),
        },
        "recover" => {
            let policy = args.get(2).map(String::as_str).unwrap_or("rsi");
            cmd_recover(&dir, policy)
        }
        "verify" => cmd_verify(&dir),
        "backup" => match args.get(2) {
            Some(f) => cmd_backup(&dir, Path::new(f)),
            None => return usage(),
        },
        "media-recover" => match args.get(2) {
            Some(f) => cmd_media_recover(&dir, Path::new(f)),
            None => return usage(),
        },
        "serve" => {
            let shards = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
            let addr = args.get(3).map(String::as_str).unwrap_or("127.0.0.1:0");
            cmd_serve(&dir, shards, addr)
        }
        "replicate" => match args.get(2) {
            Some(primary) => {
                let addr = args.get(3).map(String::as_str).unwrap_or("127.0.0.1:0");
                cmd_replicate(&dir, primary, addr)
            }
            None => return usage(),
        },
        "promote" => {
            let addr = args.get(1).map(String::as_str).unwrap_or_default();
            let from_dir = match args.iter().position(|a| a == "--from-dir") {
                Some(i) => match args.get(i + 1) {
                    Some(d) => Some(PathBuf::from(d)),
                    None => return usage(),
                },
                None => None,
            };
            cmd_promote(addr, from_dir.as_deref())
        }
        "lag" => cmd_lag(args.get(1).map(String::as_str).unwrap_or_default()),
        "load" | "check" => {
            // Here the second positional is an address, not a directory.
            let addr = args.get(1).map(String::as_str).unwrap_or_default();
            let ops = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(500);
            let seed = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
            let conns = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(2);
            cmd_load(addr, ops, seed, conns, cmd == "check")
        }
        "stop" => cmd_stop(args.get(1).map(String::as_str).unwrap_or_default()),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("llogtool {cmd} {}: {e}", Path::display(&dir));
            ExitCode::FAILURE
        }
    }
}
