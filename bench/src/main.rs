//! The repo benchmark: run → kill → restart on three workloads.
//!
//! `llog-repo-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, the driver's JSON
//! object; without `--workload` it runs all three. See `README.md` for the
//! metric and workload definitions and `BENCHMARK.json` for the contract.

mod affinity;
mod embedded;
mod gen;
mod layers;
mod report;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

/// The run length the op counts in the specs were calibrated for; other
/// `--seconds` scale every count linearly. Counts, not time, size a run.
pub const REF_SECONDS: u32 = 22;

/// Ops (or log records) a layer probe replays, and the engine twin applies.
pub const PROBE_OPS: usize = 20_000;

pub const WORKLOADS: [&str; 3] = ["served_put", "served_read_heavy", "embedded_logical"];

/// What a workload run is given.
pub struct Env {
    pub data_dir: PathBuf,
    pub seed: u64,
    pub seconds: u32,
    pub corrupt_model: bool,
}

impl Env {
    /// An op count calibrated at [`REF_SECONDS`], scaled to this run.
    pub fn scaled(&self, at_ref: usize) -> usize {
        (at_ref as u64 * u64::from(self.seconds) / u64::from(REF_SECONDS)).max(64) as usize
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    out: PathBuf,
    corrupt_model: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: REF_SECONDS,
        trace: false,
        out: PathBuf::from("bench/out"),
        corrupt_model: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--corrupt-model" => args.corrupt_model = true,
            // `--trace` alone (run.sh) or `--trace <0|1>` (the driver).
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// Removes a workload's data directory at start (stale ones too) and on
/// exit, however the run ends.
struct DataDir(PathBuf);

impl DataDir {
    fn fresh(out: &Path, workload: &str) -> std::io::Result<DataDir> {
        let root = out.join("data");
        std::fs::create_dir_all(&root)?;
        for e in std::fs::read_dir(&root)?.flatten() {
            if e.file_name()
                .to_string_lossy()
                .starts_with(&format!("{workload}-"))
            {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
        Ok(DataDir(
            root.join(format!("{workload}-{}", std::process::id())),
        ))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(name: &'static str, args: &Args) -> Result<Report, String> {
    let data = DataDir::fresh(&args.out, name).map_err(|e| format!("data dir: {e}"))?;
    let env = Env {
        data_dir: data.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        corrupt_model: args.corrupt_model,
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut sheet = layers::Sheet::new();
    let served = |spec, tracer: &mut Tracer, sheet: &mut layers::Sheet| {
        let (report, trace) = served::run(spec, &env, tracer)?;
        if tracer.on() {
            layers::served(&trace, &env, tracer, sheet)?;
        }
        Ok(report)
    };
    let result: llog_types::Result<Report> = match name {
        "served_put" => served(&served::SERVED_PUT, &mut tracer, &mut sheet),
        "served_read_heavy" => served(&served::SERVED_READ_HEAVY, &mut tracer, &mut sheet),
        "embedded_logical" => embedded::run(&embedded::EMBEDDED_LOGICAL, &env, &mut tracer)
            .and_then(|(report, trace)| {
                if tracer.on() {
                    layers::embedded(&trace, &env, &mut tracer, &mut sheet)?;
                }
                Ok(report)
            }),
        _ => unreachable!("workload names are checked at parse time"),
    };
    let mut report = result.map_err(|e| format!("{name}: {e}"))?;
    if !args.trace {
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            report::END_TO_END,
            "every end-to-end metric, in order"
        );
    } else {
        // Per-layer numbers come from the traced run only; end-to-end
        // metrics from the untraced run only.
        sheet.set("trace.spans", tracer.len() as f64, 1);
        sheet.into_report(&mut report);
        let path = args.out.join(format!("trace.{name}.json"));
        tracer
            .write_json(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("llog-repo-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| match args.workload.as_deref() {
            Some(only) => only == *w,
            None => true,
        })
        .collect();
    let mut ok = true;
    for name in names {
        match run_workload(name, &args) {
            Ok(report) => {
                print!("{}", report.lines());
                println!("{}", report.json());
                ok &= report.correct();
            }
            Err(e) => {
                eprintln!("llog-repo-bench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
