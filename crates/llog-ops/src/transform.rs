//! Replayable deterministic transforms.
//!
//! A logical log record names a function (the `f` of `Y ← f(X,Y)` in
//! Figure 1) rather than carrying values. For replay to regenerate the same
//! values, the function must be deterministic and registered under a stable
//! [`FnId`] in a [`TransformRegistry`] shared by normal execution and
//! recovery — the same contract a real system satisfies by shipping the redo
//! routines with the engine.

use std::collections::HashMap;
use std::sync::Arc;

use llog_types::{ByteReader, ByteWriter, FnId, LlogError, ObjectId, OpId, Result, Value};

/// A deterministic transformation of object values.
///
/// `apply` receives the operation's parameter bytes (from the log record),
/// the values of `readset` objects in declaration order, and the number of
/// outputs the operation's writeset requires. It must be a pure function of
/// these arguments.
pub trait TransformFn: Send + Sync {
    /// Stable human-readable name (diagnostics only).
    fn name(&self) -> &'static str;

    /// Compute the writeset values. Must return exactly `n_outputs` values
    /// or an error; recovery treats errors as a voided trial execution
    /// (paper §5, case 2c).
    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>>;
}

/// A reference to a registered transform plus its logged parameters.
///
/// This pair — not the data values — is what a logical log record carries.
#[derive(Clone, PartialEq, Eq)]
pub struct Transform {
    /// Which registered function performs the transformation.
    pub fn_id: FnId,
    /// Parameter bytes stored in the log record. For physical writes these
    /// are the written values themselves (that is their logging cost); for
    /// logical operations they are small (a split key, a record, a count).
    pub params: Value,
}

impl std::fmt::Debug for Transform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}({} param bytes)", self.fn_id, self.params.len())
    }
}

impl Transform {
    /// Create a new instance.
    pub fn new(fn_id: FnId, params: Value) -> Transform {
        Transform { fn_id, params }
    }
}

/// Maps [`FnId`]s to transform implementations for replay.
///
/// ```
/// use llog_ops::{builtin, Transform, TransformRegistry};
/// use llog_types::{OpId, Value};
///
/// let registry = TransformRegistry::with_builtins();
/// let copy = Transform::new(builtin::COPY, Value::empty());
/// let out = registry
///     .apply(OpId(0), &copy, &[Value::from("source")], 1)
///     .unwrap();
/// assert_eq!(out[0], Value::from("source"));
/// ```
#[derive(Clone)]
pub struct TransformRegistry {
    map: HashMap<FnId, Arc<dyn TransformFn>>,
}

impl Default for TransformRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl TransformRegistry {
    /// An empty registry (no functions; even physical writes won't replay).
    pub fn empty() -> TransformRegistry {
        TransformRegistry {
            map: HashMap::new(),
        }
    }

    /// A registry with all [`builtin`] transforms installed.
    pub fn with_builtins() -> TransformRegistry {
        let mut r = TransformRegistry::empty();
        builtin::install(&mut r);
        r
    }

    /// Register `f` under `id`, replacing any previous registration.
    pub fn register(&mut self, id: FnId, f: Arc<dyn TransformFn>) {
        self.map.insert(id, f);
    }

    /// Look up by key/index.
    pub fn get(&self, id: FnId) -> Result<&Arc<dyn TransformFn>> {
        self.map.get(&id).ok_or(LlogError::UnknownTransform(id))
    }

    /// Apply `t` for operation `op`, validating the output arity.
    pub fn apply(
        &self,
        op: OpId,
        t: &Transform,
        inputs: &[Value],
        n_outputs: usize,
    ) -> Result<Vec<Value>> {
        let f = self.get(t.fn_id)?;
        let out = f.apply(t.params.as_bytes(), inputs, n_outputs)?;
        if out.len() != n_outputs {
            return Err(LlogError::WritesetMismatch {
                op,
                expected: n_outputs,
                got: out.len(),
            });
        }
        Ok(out)
    }
}

/// Builtin transform vocabulary.
///
/// Ids below 100 are reserved for these; domain crates register their own
/// transforms at 100 and above (see `llog-domains`).
pub mod builtin {
    use super::*;

    /// Physical write: outputs decoded from params.
    pub const CONST: FnId = FnId(0);
    /// Outputs equal inputs (arity-checked).
    pub const IDENTITY: FnId = FnId(1);
    /// Every output is a copy of the first input.
    pub const COPY: FnId = FnId(2);
    /// Concatenate all inputs (params appended).
    pub const CONCAT: FnId = FnId(3);
    /// Sort the concatenated input bytes.
    pub const SORT_BYTES: FnId = FnId(4);
    /// XOR all inputs (and params) together.
    pub const XOR_FOLD: FnId = FnId(5);
    /// Deterministic mixing with avalanche; output sized like its input.
    pub const HASH_MIX: FnId = FnId(6);
    /// Append params to the single input.
    pub const APPEND: FnId = FnId(7);
    /// Treat input as a little-endian u64 counter and add params.
    pub const INCREMENT: FnId = FnId(8);
    /// Keep the first `params` (u32) bytes of the input.
    pub const TRUNCATE: FnId = FnId(9);
    /// Produce tombstones (empty values).
    pub const DELETE: FnId = FnId(10);

    /// Encode a list of values as CONST parameters:
    /// `count varint | (len varint | bytes)*`.
    pub fn encode_values(values: &[Value]) -> Value {
        let mut out = Vec::with_capacity(10 + values.iter().map(|v| 10 + v.len()).sum::<usize>());
        out.put_varint(values.len() as u64);
        for v in values {
            out.put_varint(v.len() as u64);
            out.put_slice(v.as_bytes());
        }
        Value::from(out)
    }

    /// Decode CONST parameters back into values. A count or length the
    /// params could not hold is a `Codec` error before anything is
    /// allocated for it.
    pub fn decode_values(mut params: &[u8]) -> Result<Vec<Value>> {
        let count = params.get_count(1)?;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            let len = params.get_count(1)?;
            let (bytes, rest) = params.split_at(len);
            values.push(Value::from_slice(bytes));
            params = rest;
        }
        Ok(values)
    }

    struct Const;
    impl TransformFn for Const {
        fn name(&self) -> &'static str {
            "const"
        }
        fn apply(&self, params: &[u8], _inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            let values = decode_values(params)?;
            if values.len() != n_outputs {
                return Err(LlogError::Codec {
                    reason: format!(
                        "const carries {} values for {} outputs",
                        values.len(),
                        n_outputs
                    ),
                });
            }
            Ok(values)
        }
    }

    struct IdentityT;
    impl TransformFn for IdentityT {
        fn name(&self) -> &'static str {
            "identity"
        }
        fn apply(&self, _params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            if inputs.len() != n_outputs {
                return Err(LlogError::Codec {
                    reason: "identity arity mismatch".into(),
                });
            }
            Ok(inputs.to_vec())
        }
    }

    struct CopyT;
    impl TransformFn for CopyT {
        fn name(&self) -> &'static str {
            "copy"
        }
        fn apply(&self, _params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            let src = inputs.first().ok_or(LlogError::Codec {
                reason: "copy requires one input".into(),
            })?;
            Ok(vec![src.clone(); n_outputs])
        }
    }

    struct ConcatT;
    impl TransformFn for ConcatT {
        fn name(&self) -> &'static str {
            "concat"
        }
        fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            let mut out = Vec::new();
            for v in inputs {
                out.extend_from_slice(v.as_bytes());
            }
            out.extend_from_slice(params);
            Ok(vec![Value::from(out); n_outputs])
        }
    }

    struct SortBytesT;
    impl TransformFn for SortBytesT {
        fn name(&self) -> &'static str {
            "sort_bytes"
        }
        fn apply(&self, _params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            let mut out = Vec::new();
            for v in inputs {
                out.extend_from_slice(v.as_bytes());
            }
            out.sort_unstable();
            Ok(vec![Value::from(out); n_outputs])
        }
    }

    struct XorFoldT;
    impl TransformFn for XorFoldT {
        fn name(&self) -> &'static str {
            "xor_fold"
        }
        fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            let len = inputs
                .iter()
                .map(Value::len)
                .chain(std::iter::once(params.len()))
                .max()
                .unwrap_or(0);
            let mut out = vec![0u8; len];
            for v in inputs
                .iter()
                .map(Value::as_bytes)
                .chain(std::iter::once(params))
            {
                for (o, b) in out.iter_mut().zip(v) {
                    *o ^= b;
                }
            }
            Ok(vec![Value::from(out); n_outputs])
        }
    }

    /// FNV-1a over a byte stream.
    fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
        let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// A mixing transform with avalanche: every output byte depends on every
    /// input byte, so a wrong replay input is always visible in the output.
    /// Output `i` has the length of input `i % inputs.len()` (or 8 bytes if
    /// there are no inputs), making it a realistic in-place "computation".
    struct HashMixT;
    impl TransformFn for HashMixT {
        fn name(&self) -> &'static str {
            "hash_mix"
        }
        fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            let mut seed = fnv1a(0, params);
            for v in inputs {
                seed = fnv1a(seed, v.as_bytes());
            }
            let mut outs = Vec::with_capacity(n_outputs);
            for i in 0..n_outputs {
                let len = if inputs.is_empty() {
                    8
                } else {
                    inputs[i % inputs.len()].len().max(8)
                };
                let mut out = Vec::with_capacity(len);
                let mut h = fnv1a(seed, &(i as u64).to_le_bytes());
                while out.len() < len {
                    h = fnv1a(h, b"x");
                    let take = (len - out.len()).min(8);
                    out.extend_from_slice(&h.to_le_bytes()[..take]);
                }
                outs.push(Value::from(out));
            }
            Ok(outs)
        }
    }

    struct AppendT;
    impl TransformFn for AppendT {
        fn name(&self) -> &'static str {
            "append"
        }
        fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            if inputs.len() != 1 || n_outputs != 1 {
                return Err(LlogError::Codec {
                    reason: "append is single-object".into(),
                });
            }
            let mut out = inputs[0].as_bytes().to_vec();
            out.extend_from_slice(params);
            Ok(vec![Value::from(out)])
        }
    }

    struct IncrementT;
    impl TransformFn for IncrementT {
        fn name(&self) -> &'static str {
            "increment"
        }
        fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            if inputs.len() != 1 || n_outputs != 1 {
                return Err(LlogError::Codec {
                    reason: "increment is single-object".into(),
                });
            }
            let mut cur = [0u8; 8];
            let bytes = inputs[0].as_bytes();
            cur[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
            let mut delta = [0u8; 8];
            delta[..params.len().min(8)].copy_from_slice(&params[..params.len().min(8)]);
            let v = u64::from_le_bytes(cur).wrapping_add(u64::from_le_bytes(delta));
            Ok(vec![Value::from_slice(&v.to_le_bytes())])
        }
    }

    struct TruncateT;
    impl TransformFn for TruncateT {
        fn name(&self) -> &'static str {
            "truncate"
        }
        fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            if inputs.len() != 1 || n_outputs != 1 || params.len() != 4 {
                return Err(LlogError::Codec {
                    reason: "truncate takes one input and a u32 length".into(),
                });
            }
            let keep = u32::from_le_bytes(params.try_into().unwrap()) as usize;
            let bytes = inputs[0].as_bytes();
            Ok(vec![Value::from_slice(&bytes[..keep.min(bytes.len())])])
        }
    }

    struct DeleteT;
    impl TransformFn for DeleteT {
        fn name(&self) -> &'static str {
            "delete"
        }
        fn apply(&self, _params: &[u8], _inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
            Ok(vec![Value::empty(); n_outputs])
        }
    }

    /// Install all builtins into `r`.
    pub fn install(r: &mut TransformRegistry) {
        r.register(CONST, Arc::new(Const));
        r.register(IDENTITY, Arc::new(IdentityT));
        r.register(COPY, Arc::new(CopyT));
        r.register(CONCAT, Arc::new(ConcatT));
        r.register(SORT_BYTES, Arc::new(SortBytesT));
        r.register(XOR_FOLD, Arc::new(XorFoldT));
        r.register(HASH_MIX, Arc::new(HashMixT));
        r.register(APPEND, Arc::new(AppendT));
        r.register(INCREMENT, Arc::new(IncrementT));
        r.register(TRUNCATE, Arc::new(TruncateT));
        r.register(DELETE, Arc::new(DeleteT));
    }
}

/// Convenience: ids of objects, used pervasively in tests.
#[allow(dead_code)]
pub(crate) fn oid(n: u64) -> ObjectId {
    ObjectId(n)
}

#[cfg(test)]
mod tests {
    use super::builtin::*;
    use super::*;
    use llog_types::OpId;

    fn reg() -> TransformRegistry {
        TransformRegistry::with_builtins()
    }

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn const_roundtrip_and_apply() {
        let vals = vec![v("hello"), Value::empty(), Value::filled(7, 3)];
        let params = encode_values(&vals);
        assert_eq!(decode_values(params.as_bytes()).unwrap(), vals);

        let t = Transform::new(CONST, params);
        let out = reg().apply(OpId(0), &t, &[], 3).unwrap();
        assert_eq!(out, vals);
    }

    #[test]
    fn const_arity_mismatch_fails() {
        let t = Transform::new(CONST, encode_values(&[v("a")]));
        assert!(reg().apply(OpId(0), &t, &[], 2).is_err());
    }

    #[test]
    fn decode_rejects_truncated_params() {
        let params = encode_values(&[v("hello")]);
        let bytes = params.as_bytes();
        for cut in 0..bytes.len() {
            assert!(decode_values(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn const_params_for_one_value_cost_three_header_bytes_below_16k() {
        // count (1 B) and a length below 2^14 (2 B).
        for len in [128, 16 * 1024 - 1] {
            let params = encode_values(&[Value::filled(7, len)]);
            assert_eq!(params.len(), len + 3, "{len} B value");
        }
        assert_eq!(
            encode_values(&[Value::filled(7, 16 * 1024)]).len(),
            16 * 1024 + 4
        );
    }

    #[test]
    fn const_counts_past_the_params_are_refused_before_allocating() {
        // count 2^60 in a 9-byte varint, then nothing to back it.
        let mut huge = vec![0x80; 8];
        huge.push(0x10);
        assert!(decode_values(&huge).is_err());
        // One value claiming 2^32 bytes.
        assert!(decode_values(&[1, 0x80, 0x80, 0x80, 0x80, 0x10]).is_err());
    }

    #[test]
    fn copy_replicates_first_input() {
        let t = Transform::new(COPY, Value::empty());
        let out = reg().apply(OpId(0), &t, &[v("src")], 2).unwrap();
        assert_eq!(out, vec![v("src"), v("src")]);
    }

    #[test]
    fn concat_orders_inputs_then_params() {
        let t = Transform::new(CONCAT, v("!"));
        let out = reg().apply(OpId(0), &t, &[v("ab"), v("cd")], 1).unwrap();
        assert_eq!(out[0], v("abcd!"));
    }

    #[test]
    fn sort_bytes_sorts() {
        let t = Transform::new(SORT_BYTES, Value::empty());
        let out = reg().apply(OpId(0), &t, &[v("dcba")], 1).unwrap();
        assert_eq!(out[0], v("abcd"));
    }

    #[test]
    fn xor_fold_is_self_inverse() {
        let a = v("secret");
        let b = v("key");
        let t = Transform::new(XOR_FOLD, Value::empty());
        let once = reg()
            .apply(OpId(0), &t, &[a.clone(), b.clone()], 1)
            .unwrap();
        let twice = reg().apply(OpId(0), &t, &[once[0].clone(), b], 1).unwrap();
        // xor with the same key twice gives back `a` padded to max length.
        assert_eq!(&twice[0].as_bytes()[..a.len()], a.as_bytes());
    }

    #[test]
    fn hash_mix_depends_on_every_input() {
        let t = Transform::new(HASH_MIX, v("salt"));
        let base = reg()
            .apply(OpId(0), &t, &[v("aaaa"), v("bbbb")], 1)
            .unwrap();
        let flip_a = reg()
            .apply(OpId(0), &t, &[v("aaab"), v("bbbb")], 1)
            .unwrap();
        let flip_b = reg()
            .apply(OpId(0), &t, &[v("aaaa"), v("bbbc")], 1)
            .unwrap();
        assert_ne!(base, flip_a);
        assert_ne!(base, flip_b);
        // Deterministic.
        let again = reg()
            .apply(OpId(0), &t, &[v("aaaa"), v("bbbb")], 1)
            .unwrap();
        assert_eq!(base, again);
    }

    #[test]
    fn hash_mix_sizes_outputs_like_inputs() {
        let t = Transform::new(HASH_MIX, Value::empty());
        let big = Value::filled(1, 1000);
        let out = reg().apply(OpId(0), &t, &[big], 1).unwrap();
        assert_eq!(out[0].len(), 1000);
    }

    #[test]
    fn append_appends() {
        let t = Transform::new(APPEND, v("-rec"));
        let out = reg().apply(OpId(0), &t, &[v("page")], 1).unwrap();
        assert_eq!(out[0], v("page-rec"));
    }

    #[test]
    fn increment_wraps_u64() {
        let t = Transform::new(INCREMENT, Value::from_slice(&2u64.to_le_bytes()));
        let out = reg()
            .apply(OpId(0), &t, &[Value::from_slice(&40u64.to_le_bytes())], 1)
            .unwrap();
        assert_eq!(out[0].as_bytes(), 42u64.to_le_bytes());
    }

    #[test]
    fn increment_accepts_short_input() {
        let t = Transform::new(INCREMENT, Value::from_slice(&1u64.to_le_bytes()));
        let out = reg().apply(OpId(0), &t, &[Value::empty()], 1).unwrap();
        assert_eq!(out[0].as_bytes(), 1u64.to_le_bytes());
    }

    #[test]
    fn truncate_clamps() {
        let t = Transform::new(TRUNCATE, Value::from_slice(&100u32.to_le_bytes()));
        let out = reg().apply(OpId(0), &t, &[v("short")], 1).unwrap();
        assert_eq!(out[0], v("short"));
        let t = Transform::new(TRUNCATE, Value::from_slice(&2u32.to_le_bytes()));
        let out = reg().apply(OpId(0), &t, &[v("short")], 1).unwrap();
        assert_eq!(out[0], v("sh"));
    }

    #[test]
    fn delete_produces_tombstones() {
        let t = Transform::new(DELETE, Value::empty());
        let out = reg().apply(OpId(0), &t, &[], 1).unwrap();
        assert!(out[0].is_empty());
    }

    #[test]
    fn unknown_transform_is_an_error() {
        let t = Transform::new(FnId(999), Value::empty());
        assert_eq!(
            reg().apply(OpId(0), &t, &[], 1),
            Err(LlogError::UnknownTransform(FnId(999)))
        );
    }

    #[test]
    fn empty_registry_knows_nothing() {
        let t = Transform::new(CONST, encode_values(&[]));
        assert!(TransformRegistry::empty()
            .apply(OpId(0), &t, &[], 0)
            .is_err());
    }
}
