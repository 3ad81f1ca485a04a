//! A recoverable virtual machine: the application-recovery domain made
//! concrete.
//!
//! The paper's application model (§1, Table 1) treats the application's
//! entire state as one recoverable object and its execution between
//! recoverable events as a physiological operation `Appl = Ex(Appl)` whose
//! log record stores only the parameters of the step. This module
//! implements that literally: a small deterministic register machine whose
//! **complete** state — program, program counter, registers, input and
//! output buffers — serializes into the application object. Replaying
//! `Ex` re-runs the same instructions; replaying `R(A,X)` re-feeds the same
//! input; nothing about the computation is ever logged beyond ids and the
//! step budget.
//!
//! Instruction set (all arithmetic is wrapping, all behavior total — a
//! recoverable program can never make replay panic):
//!
//! | instr | effect |
//! |---|---|
//! | `LoadConst(r, k)` | `reg[r] = k` |
//! | `Add/Sub/Mul/Xor(r, s)` | `reg[r] ∘= reg[s]` |
//! | `ReadInput(r)` | pop 8 input bytes into `reg[r]` (stalls if empty) |
//! | `Emit(r)` | append `reg[r]` to the output buffer |
//! | `EmitHash` | append a hash of all registers to the output buffer |
//! | `Jmp(t)` | `pc = t` |
//! | `JmpIfZero(r, t)` | `pc = t` when `reg[r] == 0` |
//! | `Halt` | stop forever |

use llog_core::Engine;
use llog_ops::{builtin, OpKind, Transform, TransformFn, TransformRegistry};
use llog_types::{FnId, LlogError, Lsn, ObjectId, OpId, Result, Value};

use std::sync::Arc;

/// `Ex(A)`: run up to `params` (u32) instructions.
pub const VM_EX: FnId = FnId(110);
/// `R(A, X)`: append X's bytes to the VM's input buffer.
pub const VM_READ: FnId = FnId(111);
/// `W_L(A, X)`: X receives the VM's output buffer.
pub const VM_OUTPUT: FnId = FnId(112);

const N_REGS: usize = 8;

/// One VM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `reg[r] = k`.
    LoadConst(u8, u64),
    /// `reg[r] += reg[s]` (wrapping).
    Add(u8, u8),
    /// `reg[r] -= reg[s]` (wrapping).
    Sub(u8, u8),
    /// `reg[r] *= reg[s]` (wrapping).
    Mul(u8, u8),
    /// `reg[r] ^= reg[s]`.
    Xor(u8, u8),
    /// Pop 8 bytes of input into `reg[r]`; stalls when input is empty.
    ReadInput(u8),
    /// Append `reg[r]` (little-endian) to the output buffer.
    Emit(u8),
    /// Append an 8-byte hash of every register to the output buffer.
    EmitHash,
    /// Unconditional jump to instruction `t`.
    Jmp(u16),
    /// Jump to `t` when `reg[r]` is zero.
    JmpIfZero(u8, u16),
    /// Stop forever.
    Halt,
}

impl Instr {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Instr::LoadConst(r, k) => {
                out.push(0);
                out.push(r);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Instr::Add(r, s) => {
                out.push(1);
                out.push(r);
                out.push(s);
            }
            Instr::Sub(r, s) => {
                out.push(2);
                out.push(r);
                out.push(s);
            }
            Instr::Mul(r, s) => {
                out.push(3);
                out.push(r);
                out.push(s);
            }
            Instr::Xor(r, s) => {
                out.push(4);
                out.push(r);
                out.push(s);
            }
            Instr::ReadInput(r) => {
                out.push(5);
                out.push(r);
            }
            Instr::Emit(r) => {
                out.push(6);
                out.push(r);
            }
            Instr::EmitHash => out.push(7),
            Instr::Jmp(t) => {
                out.push(8);
                out.extend_from_slice(&t.to_le_bytes());
            }
            Instr::JmpIfZero(r, t) => {
                out.push(9);
                out.push(r);
                out.extend_from_slice(&t.to_le_bytes());
            }
            Instr::Halt => out.push(10),
        }
    }

    fn decode(bytes: &[u8], at: &mut usize) -> Result<Instr> {
        let err = |reason: &str| LlogError::Codec {
            reason: format!("vm instr: {reason}"),
        };
        let take = |at: &mut usize, n: usize| -> Result<&[u8]> {
            let s = bytes
                .get(*at..*at + n)
                .ok_or_else(|| err("truncated instruction"))?;
            *at += n;
            Ok(s)
        };
        let op = take(at, 1)?[0];
        Ok(match op {
            0 => {
                let r = take(at, 1)?[0];
                let k = u64::from_le_bytes(take(at, 8)?.try_into().unwrap());
                Instr::LoadConst(r, k)
            }
            1 => Instr::Add(take(at, 1)?[0], take(at, 1)?[0]),
            2 => Instr::Sub(take(at, 1)?[0], take(at, 1)?[0]),
            3 => Instr::Mul(take(at, 1)?[0], take(at, 1)?[0]),
            4 => Instr::Xor(take(at, 1)?[0], take(at, 1)?[0]),
            5 => Instr::ReadInput(take(at, 1)?[0]),
            6 => Instr::Emit(take(at, 1)?[0]),
            7 => Instr::EmitHash,
            8 => Instr::Jmp(u16::from_le_bytes(take(at, 2)?.try_into().unwrap())),
            9 => {
                let r = take(at, 1)?[0];
                let t = u16::from_le_bytes(take(at, 2)?.try_into().unwrap());
                Instr::JmpIfZero(r, t)
            }
            10 => Instr::Halt,
            other => return Err(err(&format!("unknown opcode {other}"))),
        })
    }
}

/// The complete machine state — what lives in the application object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmState {
    /// The loaded program (immutable once started).
    pub program: Vec<Instr>,
    /// Program counter (index into `program`).
    pub pc: u32,
    /// Permanently stopped (ran `Halt` or fell off the program).
    pub halted: bool,
    /// General-purpose registers.
    pub regs: [u64; N_REGS],
    /// Unconsumed input bytes (fed by `R(A, X)`).
    pub input: Vec<u8>,
    /// Accumulated output bytes (drained by `W_L(A, X)` readers).
    pub output: Vec<u8>,
    /// Instructions executed so far (diagnostics; part of the state so
    /// replay reproduces it).
    pub executed: u64,
}

impl VmState {
    /// A fresh machine loaded with `program`.
    pub fn new(program: Vec<Instr>) -> VmState {
        VmState {
            program,
            pc: 0,
            halted: false,
            regs: [0; N_REGS],
            input: Vec::new(),
            output: Vec::new(),
            executed: 0,
        }
    }

    /// Serialize to the application-object value.
    pub fn encode(&self) -> Value {
        let mut out = Vec::with_capacity(64);
        out.push(1u8); // version
        out.extend_from_slice(&self.pc.to_le_bytes());
        out.push(self.halted as u8);
        for r in self.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.executed.to_le_bytes());
        out.extend_from_slice(&(self.input.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.input);
        out.extend_from_slice(&(self.output.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.output);
        out.extend_from_slice(&(self.program.len() as u32).to_le_bytes());
        for i in &self.program {
            i.encode(&mut out);
        }
        Value::from(out)
    }

    /// Parse back from the application-object value.
    pub fn decode(bytes: &[u8]) -> Result<VmState> {
        let err = |reason: &str| LlogError::Codec {
            reason: format!("vm state: {reason}"),
        };
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8]> {
            let s = bytes.get(*at..*at + n).ok_or_else(|| err("truncated"))?;
            *at += n;
            Ok(s)
        };
        if take(&mut at, 1)?[0] != 1 {
            return Err(err("unknown version"));
        }
        let pc = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
        let halted = take(&mut at, 1)?[0] != 0;
        let mut regs = [0u64; N_REGS];
        for r in &mut regs {
            *r = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
        }
        let executed = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
        let in_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
        let input = take(&mut at, in_len)?.to_vec();
        let out_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
        let output = take(&mut at, out_len)?.to_vec();
        let n_instr = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
        let mut program = Vec::with_capacity(n_instr);
        for _ in 0..n_instr {
            program.push(Instr::decode(bytes, &mut at)?);
        }
        if at != bytes.len() {
            return Err(err("trailing bytes"));
        }
        Ok(VmState {
            program,
            pc,
            halted,
            regs,
            input,
            output,
            executed,
        })
    }

    fn fnv(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in self.regs {
            for b in r.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Execute up to `budget` instructions. Returns how many ran. Stops
    /// early on `Halt`, on falling off the program, or when `ReadInput`
    /// finds the input buffer empty (the stall leaves `pc` pointing at the
    /// read so a later `R(A,X)` resumes it).
    pub fn run(&mut self, budget: u32) -> u32 {
        let mut ran = 0;
        while ran < budget && !self.halted {
            let Some(&instr) = self.program.get(self.pc as usize) else {
                self.halted = true;
                break;
            };
            let reg = |r: u8| (r as usize) % N_REGS;
            match instr {
                Instr::LoadConst(r, k) => self.regs[reg(r)] = k,
                Instr::Add(r, s) => {
                    self.regs[reg(r)] = self.regs[reg(r)].wrapping_add(self.regs[reg(s)])
                }
                Instr::Sub(r, s) => {
                    self.regs[reg(r)] = self.regs[reg(r)].wrapping_sub(self.regs[reg(s)])
                }
                Instr::Mul(r, s) => {
                    self.regs[reg(r)] = self.regs[reg(r)].wrapping_mul(self.regs[reg(s)])
                }
                Instr::Xor(r, s) => self.regs[reg(r)] ^= self.regs[reg(s)],
                Instr::ReadInput(r) => {
                    if self.input.len() < 8 {
                        break; // stall: wait for more input
                    }
                    let chunk: Vec<u8> = self.input.drain(..8).collect();
                    self.regs[reg(r)] = u64::from_le_bytes(chunk.try_into().unwrap());
                }
                Instr::Emit(r) => self
                    .output
                    .extend_from_slice(&self.regs[reg(r)].to_le_bytes()),
                Instr::EmitHash => {
                    let h = self.fnv();
                    self.output.extend_from_slice(&h.to_le_bytes());
                }
                Instr::Jmp(t) => {
                    self.pc = t as u32;
                    ran += 1;
                    self.executed += 1;
                    continue;
                }
                Instr::JmpIfZero(r, t) => {
                    if self.regs[reg(r)] == 0 {
                        self.pc = t as u32;
                        ran += 1;
                        self.executed += 1;
                        continue;
                    }
                }
                Instr::Halt => {
                    self.halted = true;
                    break;
                }
            }
            self.pc += 1;
            ran += 1;
            self.executed += 1;
        }
        ran
    }
}

// ---------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------

struct ExT;
impl TransformFn for ExT {
    fn name(&self) -> &'static str {
        "vm_ex"
    }
    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        if inputs.len() != 1 || n_outputs != 1 || params.len() != 4 {
            return Err(LlogError::Codec {
                reason: "vm_ex takes the state and a u32 budget".into(),
            });
        }
        let budget = u32::from_le_bytes(params.try_into().unwrap());
        let mut state = VmState::decode(inputs[0].as_bytes())?;
        state.run(budget);
        Ok(vec![state.encode()])
    }
}

struct ReadT;
impl TransformFn for ReadT {
    fn name(&self) -> &'static str {
        "vm_read"
    }
    fn apply(&self, _params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        if inputs.len() != 2 || n_outputs != 1 {
            return Err(LlogError::Codec {
                reason: "vm_read takes (state, source)".into(),
            });
        }
        let mut state = VmState::decode(inputs[0].as_bytes())?;
        state.input.extend_from_slice(inputs[1].as_bytes());
        Ok(vec![state.encode()])
    }
}

struct OutputT;
impl TransformFn for OutputT {
    fn name(&self) -> &'static str {
        "vm_output"
    }
    fn apply(&self, _params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        if inputs.len() != 1 || n_outputs != 1 {
            return Err(LlogError::Codec {
                reason: "vm_output takes the state".into(),
            });
        }
        let state = VmState::decode(inputs[0].as_bytes())?;
        Ok(vec![Value::from(state.output)])
    }
}

/// Register the VM transforms.
pub fn register_transforms(registry: &mut TransformRegistry) {
    registry.register(VM_EX, Arc::new(ExT));
    registry.register(VM_READ, Arc::new(ReadT));
    registry.register(VM_OUTPUT, Arc::new(OutputT));
}

// ---------------------------------------------------------------------
// The recoverable application handle
// ---------------------------------------------------------------------

/// A handle to a VM whose state lives in one recoverable object.
#[derive(Debug, Clone, Copy)]
pub struct RecoverableVm {
    state_obj: ObjectId,
}

impl RecoverableVm {
    /// Start a fresh VM: its initial state (program included) is written
    /// physically — the only time any of the application's data is logged.
    pub fn start(
        engine: &mut Engine,
        state_obj: ObjectId,
        program: Vec<Instr>,
    ) -> Result<RecoverableVm> {
        let init = VmState::new(program).encode();
        engine.execute(
            OpKind::Physical,
            vec![],
            vec![state_obj],
            Transform::new(builtin::CONST, builtin::encode_values(&[init])),
        )?;
        Ok(RecoverableVm { state_obj })
    }

    /// Re-attach to an already-started VM (e.g. after recovery).
    pub fn attach(state_obj: ObjectId) -> RecoverableVm {
        RecoverableVm { state_obj }
    }

    /// `Ex(A)`: run up to `budget` instructions. Only the budget is logged.
    pub fn step(&self, engine: &mut Engine, budget: u32) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Physiological,
            vec![self.state_obj],
            vec![self.state_obj],
            Transform::new(VM_EX, Value::from_slice(&budget.to_le_bytes())),
        )
    }

    /// `R(A, X)`: feed object `x`'s bytes into the input buffer (logical —
    /// the bytes are not logged).
    pub fn feed(&self, engine: &mut Engine, x: ObjectId) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Logical,
            vec![self.state_obj, x],
            vec![self.state_obj],
            Transform::new(VM_READ, Value::empty()),
        )
    }

    /// `W_L(A, X)`: write the output buffer to `x` (logical).
    pub fn write_output(&self, engine: &mut Engine, x: ObjectId) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Logical,
            vec![self.state_obj],
            vec![x],
            Transform::new(VM_OUTPUT, Value::empty()),
        )
    }

    /// Terminate the application (delete its state object, §5).
    pub fn terminate(self, engine: &mut Engine) -> Result<(OpId, Lsn)> {
        engine.execute(
            OpKind::Delete,
            vec![],
            vec![self.state_obj],
            Transform::new(builtin::DELETE, Value::empty()),
        )
    }

    /// Inspect the current machine state (not a logged operation).
    pub fn state(&self, engine: &mut Engine) -> Result<VmState> {
        VmState::decode(engine.read_value(self.state_obj).as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_core::{recover, EngineConfig, RedoPolicy};

    const A: ObjectId = ObjectId(500);
    const IN: ObjectId = ObjectId(501);
    const OUT: ObjectId = ObjectId(502);

    fn registry() -> TransformRegistry {
        let mut r = TransformRegistry::with_builtins();
        register_transforms(&mut r);
        r
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default(), registry())
    }

    /// Sum `n` u64 inputs, emit the total, halt.
    fn summing_program(n: u64) -> Vec<Instr> {
        vec![
            Instr::LoadConst(0, 0), // 0: acc = 0
            Instr::LoadConst(1, n), // 1: remaining = n
            Instr::JmpIfZero(1, 7), // 2: while remaining != 0
            Instr::ReadInput(2),    // 3:   r2 = next input
            Instr::Add(0, 2),       // 4:   acc += r2
            Instr::LoadConst(3, 1), // 5:   (r3 = 1)
            Instr::Sub(1, 3),       // 6:   remaining -= 1 ; loop
            // 7 is reached when remaining == 0 via the jump below.
            Instr::Emit(0), // 7: emit acc
            Instr::Halt,    // 8
        ]
    }

    // The loop above needs a back-jump; rebuild with explicit layout.
    fn summing_program_fixed(n: u64) -> Vec<Instr> {
        vec![
            Instr::LoadConst(0, 0), // 0
            Instr::LoadConst(1, n), // 1
            Instr::LoadConst(3, 1), // 2
            Instr::JmpIfZero(1, 8), // 3: done?
            Instr::ReadInput(2),    // 4
            Instr::Add(0, 2),       // 5
            Instr::Sub(1, 3),       // 6
            Instr::Jmp(3),          // 7
            Instr::Emit(0),         // 8
            Instr::Halt,            // 9
        ]
    }

    #[test]
    fn state_codec_roundtrips() {
        let mut s = VmState::new(summing_program(3));
        s.regs[0] = 42;
        s.input = vec![1, 2, 3];
        s.output = vec![9; 20];
        s.pc = 4;
        s.executed = 17;
        let decoded = VmState::decode(s.encode().as_bytes()).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn corrupted_state_rejected() {
        let s = VmState::new(vec![Instr::Halt]);
        let bytes = s.encode();
        for cut in [0, 5, bytes.len() - 1] {
            assert!(VmState::decode(&bytes.as_bytes()[..cut]).is_err());
        }
    }

    #[test]
    fn vm_sums_inputs() {
        let mut s = VmState::new(summing_program_fixed(3));
        for v in [10u64, 20, 12] {
            s.input.extend_from_slice(&v.to_le_bytes());
        }
        s.run(1000);
        assert!(s.halted);
        assert_eq!(s.output, 42u64.to_le_bytes());
    }

    #[test]
    fn read_input_stalls_and_resumes() {
        let mut s = VmState::new(summing_program_fixed(2));
        s.input.extend_from_slice(&5u64.to_le_bytes());
        s.run(1000);
        assert!(!s.halted, "must stall waiting for the second input");
        s.input.extend_from_slice(&6u64.to_le_bytes());
        s.run(1000);
        assert!(s.halted);
        assert_eq!(s.output, 11u64.to_le_bytes());
    }

    #[test]
    fn stepwise_execution_equals_one_shot() {
        let run_chunked = |chunk: u32| {
            let mut s = VmState::new(summing_program_fixed(4));
            for v in [1u64, 2, 3, 4] {
                s.input.extend_from_slice(&v.to_le_bytes());
            }
            while !s.halted {
                s.run(chunk);
            }
            s
        };
        let a = run_chunked(1);
        let b = run_chunked(1000);
        assert_eq!(a.output, b.output);
        assert_eq!(a.regs, b.regs);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn recoverable_session_end_to_end() {
        let mut e = engine();
        // Input: three u64s ingested physically.
        let mut input = Vec::new();
        for v in [100u64, 200, 42] {
            input.extend_from_slice(&v.to_le_bytes());
        }
        e.execute(
            OpKind::Physical,
            vec![],
            vec![IN],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from(input)]),
            ),
        )
        .unwrap();

        let vm = RecoverableVm::start(&mut e, A, summing_program_fixed(3)).unwrap();
        vm.feed(&mut e, IN).unwrap();
        // Run in small logged steps (several Ex records).
        for _ in 0..10 {
            vm.step(&mut e, 3).unwrap();
        }
        assert!(vm.state(&mut e).unwrap().halted);
        vm.write_output(&mut e, OUT).unwrap();
        assert_eq!(e.read_value(OUT), Value::from_slice(&342u64.to_le_bytes()));

        // Crash and recover: the whole session replays from ids + budgets.
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut rec, out) = recover(
            store,
            wal,
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert!(out.redone > 0);
        assert_eq!(
            rec.read_value(OUT),
            Value::from_slice(&342u64.to_le_bytes())
        );
        let vm = RecoverableVm::attach(A);
        assert!(vm.state(&mut rec).unwrap().halted);
    }

    #[test]
    fn session_logs_only_ids_and_budgets() {
        let mut e = engine();
        // A large input object.
        e.execute(
            OpKind::Physical,
            vec![],
            vec![IN],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::filled(7, 64 * 1024)]),
            ),
        )
        .unwrap();
        e.install_all().unwrap();
        e.metrics().reset();

        let vm = RecoverableVm::start(&mut e, A, summing_program_fixed(1)).unwrap();
        let start_bytes = e.metrics().snapshot().log_bytes; // program image
        vm.feed(&mut e, IN).unwrap(); // 64 KiB enters the VM state...
        vm.step(&mut e, 100).unwrap();
        vm.write_output(&mut e, OUT).unwrap();
        let session_bytes = e.metrics().snapshot().log_bytes - start_bytes;
        assert!(
            session_bytes < 256,
            "session logged {session_bytes} bytes despite 64 KiB of state"
        );
    }

    #[test]
    fn terminated_vm_is_skipped_at_recovery() {
        let mut e = engine();
        let vm = RecoverableVm::start(&mut e, A, summing_program_fixed(0)).unwrap();
        vm.step(&mut e, 100).unwrap();
        vm.terminate(&mut e).unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (_, out) = recover(
            store,
            wal,
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(out.redone, 0, "terminated app fully bypassed: {out:?}");
    }

    #[test]
    fn crash_at_every_step_boundary_resumes_exactly() {
        // Golden run.
        let golden = {
            let mut e = engine();
            let mut input = Vec::new();
            for v in 0..6u64 {
                input.extend_from_slice(&v.to_le_bytes());
            }
            e.execute(
                OpKind::Physical,
                vec![],
                vec![IN],
                Transform::new(
                    builtin::CONST,
                    builtin::encode_values(&[Value::from(input)]),
                ),
            )
            .unwrap();
            let vm = RecoverableVm::start(&mut e, A, summing_program_fixed(6)).unwrap();
            vm.feed(&mut e, IN).unwrap();
            while !vm.state(&mut e).unwrap().halted {
                vm.step(&mut e, 2).unwrap();
            }
            vm.state(&mut e).unwrap()
        };

        // Crash after each prefix of the same schedule; recovery + resume
        // must converge to the same machine state.
        for crash_after in 0..12 {
            let mut e = engine();
            let mut input = Vec::new();
            for v in 0..6u64 {
                input.extend_from_slice(&v.to_le_bytes());
            }
            e.execute(
                OpKind::Physical,
                vec![],
                vec![IN],
                Transform::new(
                    builtin::CONST,
                    builtin::encode_values(&[Value::from(input)]),
                ),
            )
            .unwrap();
            let vm = RecoverableVm::start(&mut e, A, summing_program_fixed(6)).unwrap();
            vm.feed(&mut e, IN).unwrap();
            for _ in 0..crash_after {
                if vm.state(&mut e).unwrap().halted {
                    break;
                }
                vm.step(&mut e, 2).unwrap();
            }
            e.wal_mut().force();
            let (store, wal) = e.crash();
            let (mut rec, _) = recover(
                store,
                wal,
                registry(),
                EngineConfig::default(),
                RedoPolicy::RsiExposed,
            )
            .unwrap();
            let vm = RecoverableVm::attach(A);
            while !vm.state(&mut rec).unwrap().halted {
                vm.step(&mut rec, 2).unwrap();
            }
            let final_state = vm.state(&mut rec).unwrap();
            assert_eq!(
                final_state.output, golden.output,
                "crash_after={crash_after}"
            );
            assert_eq!(final_state.regs, golden.regs);
        }
    }
}
