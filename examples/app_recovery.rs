//! Application recovery (§1, Table 1): a stateful application reads a
//! large input file, computes, and writes results — all recoverable, with
//! logical logging keeping the log tiny.
//!
//! ```sh
//! cargo run --example app_recovery
//! ```

use llog::core::{recover, Engine, EngineConfig, RedoPolicy};
use llog::domains::app::{Application, WriteMode};
use llog::ops::{builtin, OpKind, Transform, TransformRegistry};
use llog::types::{ObjectId, Value};
use llog_bench::sim::human_bytes;

const APP: ObjectId = ObjectId(100);
const INPUT: ObjectId = ObjectId(1);
const OUTPUT: ObjectId = ObjectId(2);

fn run_session(mode: WriteMode) -> (u64, Value) {
    let registry = TransformRegistry::with_builtins();
    let mut engine = Engine::new(EngineConfig::default(), registry.clone());

    // A 256 KiB input file.
    engine
        .execute(
            OpKind::Physical,
            vec![],
            vec![INPUT],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::filled(42, 256 * 1024)]),
            ),
        )
        .unwrap();
    engine.install_all().unwrap();
    engine.metrics().reset();

    // The application session: execute, read the input, compute, write the
    // result. Each interaction is one log record.
    let mut app = Application::new(APP, mode);
    app.step(&mut engine).unwrap(); // Ex(A)
    app.read_from(&mut engine, INPUT).unwrap(); // R(A, INPUT)
    app.step(&mut engine).unwrap(); // Ex(A)
    app.write_to(&mut engine, OUTPUT).unwrap(); // W(A, OUTPUT)

    let log_bytes = engine.metrics().snapshot().log_bytes;

    // Crash mid-session (log forced, nothing installed) and recover.
    engine.wal_mut().force();
    let want = engine.peek_value(OUTPUT);
    let (store, wal) = engine.crash();
    let (mut recovered, outcome) = recover(
        store,
        wal,
        registry,
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    assert_eq!(
        recovered.read_value(OUTPUT),
        want,
        "output lost in recovery"
    );
    assert!(outcome.redone > 0);
    (log_bytes, want)
}

fn main() {
    println!("application session over a 256 KiB input, crash, recover:\n");
    let (logical_bytes, out_l) = run_session(WriteMode::Logical);
    let (physical_bytes, out_p) = run_session(WriteMode::Physical);
    assert_eq!(out_l, out_p, "both modes compute the same result");

    println!(
        "  logical writes W_L(A,X)   (this paper): {:>10} logged",
        human_bytes(logical_bytes)
    );
    println!(
        "  physical writes W_P(X,v)   ([Lomet98]): {:>10} logged",
        human_bytes(physical_bytes)
    );
    println!(
        "\nthe session recovers identically in both modes; logical logging is {:.0}x cheaper",
        physical_bytes as f64 / logical_bytes as f64
    );
}
