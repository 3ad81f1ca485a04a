//! Application recovery (§1, \[Lomet98\]).
//!
//! The application's entire state — program counter, heap, input/output
//! buffers — is one recoverable object `A`. Interactions with the outside
//! world are logged operations:
//!
//! - `Ex(A)`: execution between recoverable events, `A ← f(A)`
//!   (physiological; only the step parameters are logged);
//! - `R(A,X)`: read object `X` into the input buffer, `A ← f(A,X)`
//!   (logical; neither `X`'s value nor `A`'s new state is logged);
//! - `W_L(A,X)`: write the output buffer to `X`, `X ← g(A)` (logical —
//!   this paper's addition; `X`'s value is not logged);
//! - `W_P(X, v)`: the \[Lomet98\] fallback this paper improves on — the
//!   written value goes to the log.
//!
//! [`Application::write_to`] picks between the last two according to
//! [`WriteMode`], which is exactly the ablation experiment E7 sweeps.

use llog_core::Engine;
use llog_ops::{builtin, OpKind, Transform};
use llog_types::{Lsn, ObjectId, OpId, Result, Value};

/// How application writes are logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// `W_L(A,X)`: logical — log only ids (this paper).
    Logical,
    /// `W_P(X, v)`: physical — log the value (\[Lomet98\], avoids flush
    /// cycles at heavy logging cost).
    Physical,
}

/// A recoverable application: a handle over its state object.
#[derive(Debug, Clone)]
pub struct Application {
    state: ObjectId,
    write_mode: WriteMode,
    step: u64,
}

impl Application {
    /// Start (or re-open after recovery) an application whose state lives in
    /// object `state`.
    pub fn new(state: ObjectId, write_mode: WriteMode) -> Application {
        Application {
            state,
            write_mode,
            step: 0,
        }
    }

    /// `Ex(A)`: one execution step between recoverable events.
    pub fn step(&mut self, engine: &mut Engine) -> Result<(OpId, Lsn)> {
        let step = self.step;
        self.step += 1;
        engine.execute(
            OpKind::Physiological,
            vec![self.state],
            vec![self.state],
            Transform::new(builtin::HASH_MIX, Value::from_slice(&step.to_le_bytes())),
        )
    }

    /// `R(A,X)`: read `x` into the application's input buffer. The new
    /// application state embeds the input, so it grows to (at least) the
    /// input's size — which is what makes logging it physically expensive.
    /// `x` leads the readset so the mixing transform sizes the new state
    /// like the input.
    pub fn read_from(&mut self, engine: &mut Engine, x: ObjectId) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Logical,
            vec![x, self.state],
            vec![self.state],
            Transform::new(builtin::HASH_MIX, Value::from_slice(b"R")),
        )
    }

    /// Write the application's output buffer to `x`, logged per the
    /// configured [`WriteMode`]. The "output buffer" is modelled as a
    /// deterministic function of the application state (a copy), so both
    /// modes write the same value and differ only in logging cost.
    pub fn write_to(&mut self, engine: &mut Engine, x: ObjectId) -> Result<(OpId, Lsn)> {
        match self.write_mode {
            WriteMode::Logical => engine.execute(
                OpKind::Logical,
                vec![self.state],
                vec![x],
                Transform::new(builtin::COPY, Value::empty()),
            ),
            WriteMode::Physical => {
                let v = engine.read_value(self.state);
                engine.execute(
                    OpKind::Physical,
                    vec![],
                    vec![x],
                    Transform::new(builtin::CONST, builtin::encode_values(&[v])),
                )
            }
        }
    }

    /// Terminate the application: its state object is deleted, so none of
    /// its operations need redo after the delete is logged (§5).
    pub fn terminate(self, engine: &mut Engine) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Delete,
            vec![],
            vec![self.state],
            Transform::new(builtin::DELETE, Value::empty()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_core::{EngineConfig, FlushStrategy, GraphKind, RedoPolicy};
    use llog_ops::TransformRegistry;

    const A: ObjectId = ObjectId(100);
    const X: ObjectId = ObjectId(1);
    const Y: ObjectId = ObjectId(2);

    fn engine() -> Engine {
        Engine::new(
            EngineConfig {
                graph: GraphKind::RW,
                flush: FlushStrategy::IdentityWrites,
                audit: true,
            },
            TransformRegistry::with_builtins(),
        )
    }

    fn seed(e: &mut Engine, x: ObjectId, v: &str) {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![x],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
        )
        .unwrap();
    }

    /// Run a read-compute-write session; return (final A, final Y).
    fn session(e: &mut Engine, mode: WriteMode) -> (Value, Value) {
        let mut app = Application::new(A, mode);
        app.step(e).unwrap();
        app.read_from(e, X).unwrap();
        app.step(e).unwrap();
        app.write_to(e, Y).unwrap();
        (e.read_value(A), e.read_value(Y))
    }

    #[test]
    fn both_write_modes_produce_identical_state() {
        let mut e1 = engine();
        seed(&mut e1, X, "input");
        let r1 = session(&mut e1, WriteMode::Logical);
        let mut e2 = engine();
        seed(&mut e2, X, "input");
        let r2 = session(&mut e2, WriteMode::Physical);
        assert_eq!(r1, r2);
        // And Y really is the app's output buffer (a copy of A).
        assert_eq!(r1.0, r1.1);
    }

    #[test]
    fn logical_writes_log_far_fewer_bytes() {
        let mut e1 = engine();
        seed(&mut e1, X, &"x".repeat(4096));
        session(&mut e1, WriteMode::Logical);
        let logical_bytes = e1.metrics().snapshot().log_bytes;

        let mut e2 = engine();
        seed(&mut e2, X, &"x".repeat(4096));
        session(&mut e2, WriteMode::Physical);
        let physical_bytes = e2.metrics().snapshot().log_bytes;

        // The app state embeds 4 KiB of input; the physical write logs it
        // all, the logical write logs ids.
        assert!(
            physical_bytes > logical_bytes + 4000,
            "physical {physical_bytes} vs logical {logical_bytes}"
        );
    }

    #[test]
    fn app_session_survives_crash_with_logical_writes() {
        let mut e = engine();
        seed(&mut e, X, "input-data");
        let (want_a, want_y) = session(&mut e, WriteMode::Logical);
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut rec, _) = llog_core::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig {
                graph: GraphKind::RW,
                flush: FlushStrategy::IdentityWrites,
                audit: false,
            },
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(rec.read_value(A), want_a);
        assert_eq!(rec.read_value(Y), want_y);
    }

    #[test]
    fn terminated_app_is_not_recovered() {
        let mut e = engine();
        seed(&mut e, X, "input");
        let mut app = Application::new(A, WriteMode::Logical);
        app.step(&mut e).unwrap();
        app.read_from(&mut e, X).unwrap();
        app.terminate(&mut e).unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (_, out) = llog_core::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        // The seed of X is redone (X is live); every op on A is bypassed
        // (dead: the application terminated) and the delete applied cheaply.
        assert_eq!(out.redone, 1);
        assert_eq!(out.skipped, 2);
        assert_eq!(out.deletes_applied, 1);
    }

    #[test]
    fn session_installs_cleanly_despite_write_cycles() {
        // R(A,X); W_L(A,X) back to the same object; Ex(A): the op pattern
        // §4 warns can create rW cycles. Identity writes must cope.
        let mut e = engine();
        seed(&mut e, X, "input");
        let mut app = Application::new(A, WriteMode::Logical);
        app.read_from(&mut e, X).unwrap(); // A ← f(A, X)
        app.write_to(&mut e, X).unwrap(); // X ← g(A)
        app.step(&mut e).unwrap(); // A ← h(A)
        e.install_all().unwrap();
        e.audit_all().unwrap();
        assert!(e.dirty_table().is_empty());
    }
}
