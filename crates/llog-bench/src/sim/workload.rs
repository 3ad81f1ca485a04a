//! Deterministic workload generation.
//!
//! A [`Workload`] describes a mix of the paper's operation shapes over a
//! bounded object population; [`Workload::generate`] expands it into a
//! schedule of [`OpSpec`]s reproducible from the seed.

use llog_ops::{builtin, OpKind, Transform};
use llog_testkit::TestRng;
use llog_types::{ObjectId, Value};

/// One operation to feed the engine.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Operation class (drives the logging cost).
    pub kind: OpKind,
    /// Readset, in transform input order.
    pub reads: Vec<ObjectId>,
    /// Writeset, in transform output order.
    pub writes: Vec<ObjectId>,
    /// The deterministic transform and its logged params.
    pub transform: Transform,
}

impl OpSpec {
    /// The i-th generated op's salt keeps transforms distinct.
    fn logical(reads: Vec<ObjectId>, writes: Vec<ObjectId>, salt: u64) -> OpSpec {
        OpSpec {
            kind: OpKind::Logical,
            reads,
            writes,
            transform: Transform::new(builtin::HASH_MIX, Value::from_slice(&salt.to_le_bytes())),
        }
    }
}

/// Operation-shape mix, as integer weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadKind {
    /// `Y ← f(X, Y)`-style logical ops (read k objects, write one of them).
    pub logical_update: u32,
    /// `X ← g(Y)`-style logical blind writes (read one, write another).
    pub logical_blind: u32,
    /// `X ← f(X)` physiological updates.
    pub physiological: u32,
    /// `X ← v` physical blind writes carrying a value.
    pub physical: u32,
    /// Object deletes (terminating lifetimes).
    pub delete: u32,
}

impl WorkloadKind {
    /// A mixed logical workload resembling application/file activity.
    pub fn app_mix() -> WorkloadKind {
        WorkloadKind {
            logical_update: 40,
            logical_blind: 25,
            physiological: 20,
            physical: 10,
            delete: 5,
        }
    }

    /// Pure physiological (the state-of-the-art baseline the paper starts
    /// from).
    pub fn physiological_only() -> WorkloadKind {
        WorkloadKind {
            logical_update: 0,
            logical_blind: 0,
            physiological: 100,
            physical: 0,
            delete: 0,
        }
    }

    fn total(&self) -> u32 {
        self.logical_update + self.logical_blind + self.physiological + self.physical + self.delete
    }
}

/// A generated-workload specification.
///
/// ```
/// use llog_bench::sim::{Workload, WorkloadKind};
///
/// let specs = Workload::new(8, 50, WorkloadKind::app_mix(), 42)
///     .with_skew(0.8)
///     .generate();
/// assert_eq!(specs.len(), 50);
/// // Deterministic under the seed:
/// let again = Workload::new(8, 50, WorkloadKind::app_mix(), 42)
///     .with_skew(0.8)
///     .generate();
/// assert_eq!(specs[0].writes, again[0].writes);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    /// Size of the object population.
    pub n_objects: u64,
    /// Number of operations to generate.
    pub n_ops: usize,
    /// Operation-shape mix.
    pub mix: WorkloadKind,
    /// Size of values carried by physical writes.
    pub value_size: usize,
    /// How many extra objects a logical update reads (fan-in).
    pub max_fan_in: usize,
    /// Zipf-style access skew exponent (0.0 = uniform; ~1.0 = heavily
    /// skewed toward low object ids — "hot objects", §4's note that hot
    /// objects are retained in cache).
    pub skew: f64,
    /// RNG seed: same seed, same schedule.
    pub seed: u64,
}

impl Workload {
    /// Create a new instance.
    pub fn new(n_objects: u64, n_ops: usize, mix: WorkloadKind, seed: u64) -> Workload {
        Workload {
            n_objects,
            n_ops,
            mix,
            value_size: 64,
            max_fan_in: 2,
            skew: 0.0,
            seed,
        }
    }

    /// Set the size of values carried by physical writes.
    pub fn with_value_size(mut self, value_size: usize) -> Workload {
        self.value_size = value_size;
        self
    }

    /// Set the Zipf access-skew exponent.
    pub fn with_skew(mut self, skew: f64) -> Workload {
        assert!(skew >= 0.0, "skew must be non-negative");
        self.skew = skew;
        self
    }

    /// Expand into a deterministic schedule.
    pub fn generate(&self) -> Vec<OpSpec> {
        assert!(self.n_objects >= 2, "need at least two objects");
        assert!(self.mix.total() > 0, "empty mix");
        let mut rng = TestRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.n_ops);
        // Zipf CDF over object ids (identity when skew = 0).
        let cdf: Vec<f64> = {
            let mut acc = 0.0;
            let weights: Vec<f64> = (0..self.n_objects)
                .map(|i| 1.0 / ((i + 1) as f64).powf(self.skew))
                .collect();
            let total: f64 = weights.iter().sum();
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect()
        };
        let pick_obj = |rng: &mut TestRng, cdf: &[f64]| {
            let u: f64 = rng.f64();
            let idx = cdf.partition_point(|&c| c < u);
            ObjectId((idx as u64).min(self.n_objects - 1))
        };
        for i in 0..self.n_ops {
            let salt = self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let pick = rng.random_range(0..self.mix.total());
            let obj = |rng: &mut TestRng| pick_obj(rng, &cdf);
            let distinct_pair = |rng: &mut TestRng| {
                let a = pick_obj(rng, &cdf);
                loop {
                    let b = pick_obj(rng, &cdf);
                    if b != a {
                        return (a, b);
                    }
                }
            };

            let mut at = self.mix.logical_update;
            if pick < at {
                // Y ← f(X₁..Xₖ, Y): read some objects plus the target.
                let y = obj(&mut rng);
                let fan = rng.random_range(1..=self.max_fan_in.max(1));
                let mut reads = vec![y];
                for _ in 0..fan {
                    let x = obj(&mut rng);
                    if !reads.contains(&x) {
                        reads.push(x);
                    }
                }
                out.push(OpSpec::logical(reads, vec![y], salt));
                continue;
            }
            at += self.mix.logical_blind;
            if pick < at {
                // X ← g(Y), X ≠ Y.
                let (y, x) = distinct_pair(&mut rng);
                out.push(OpSpec::logical(vec![y], vec![x], salt));
                continue;
            }
            at += self.mix.physiological;
            if pick < at {
                let x = obj(&mut rng);
                out.push(OpSpec {
                    kind: OpKind::Physiological,
                    reads: vec![x],
                    writes: vec![x],
                    transform: Transform::new(
                        builtin::HASH_MIX,
                        Value::from_slice(&salt.to_le_bytes()),
                    ),
                });
                continue;
            }
            at += self.mix.physical;
            if pick < at {
                let x = obj(&mut rng);
                let mut v = vec![0u8; self.value_size];
                rng.fill(&mut v[..]);
                out.push(OpSpec {
                    kind: OpKind::Physical,
                    reads: vec![],
                    writes: vec![x],
                    transform: Transform::new(
                        builtin::CONST,
                        builtin::encode_values(&[Value::from(v)]),
                    ),
                });
                continue;
            }
            // Delete.
            let x = obj(&mut rng);
            out.push(OpSpec {
                kind: OpKind::Delete,
                reads: vec![],
                writes: vec![x],
                transform: Transform::new(builtin::DELETE, Value::empty()),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let w = Workload::new(10, 50, WorkloadKind::app_mix(), 42);
        let a = w.generate();
        let b = w.generate();
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.reads, y.reads);
            assert_eq!(x.writes, y.writes);
            assert_eq!(x.transform, y.transform);
        }
    }

    #[test]
    fn seeds_differ() {
        let a = Workload::new(10, 50, WorkloadKind::app_mix(), 1).generate();
        let b = Workload::new(10, 50, WorkloadKind::app_mix(), 2).generate();
        let same = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.reads == y.reads && x.writes == y.writes)
            .count();
        assert!(same < a.len(), "different seeds should differ somewhere");
    }

    #[test]
    fn mix_is_respected() {
        let ops = Workload::new(10, 200, WorkloadKind::physiological_only(), 7).generate();
        assert!(ops.iter().all(|o| o.kind == OpKind::Physiological));
        assert!(ops.iter().all(|o| o.reads == o.writes));
    }

    #[test]
    fn blind_writes_never_self_read() {
        let mix = WorkloadKind {
            logical_update: 0,
            logical_blind: 100,
            physiological: 0,
            physical: 0,
            delete: 0,
        };
        let ops = Workload::new(5, 100, mix, 3).generate();
        for op in ops {
            assert_eq!(op.reads.len(), 1);
            assert_eq!(op.writes.len(), 1);
            assert_ne!(op.reads[0], op.writes[0]);
        }
    }

    #[test]
    fn skew_concentrates_accesses() {
        let count_hot = |skew: f64| {
            let ops = Workload::new(20, 400, WorkloadKind::app_mix(), 5)
                .with_skew(skew)
                .generate();
            ops.iter()
                .flat_map(|o| o.writes.iter().chain(o.reads.iter()))
                .filter(|x| x.0 < 4)
                .count()
        };
        let uniform = count_hot(0.0);
        let skewed = count_hot(1.2);
        assert!(skewed > uniform * 2, "skewed {skewed} vs uniform {uniform}");
    }

    #[test]
    fn skew_zero_matches_object_range() {
        let ops = Workload::new(5, 200, WorkloadKind::app_mix(), 6).generate();
        let mut seen = std::collections::BTreeSet::new();
        for op in &ops {
            seen.extend(op.writes.iter().map(|x| x.0));
        }
        assert!(seen.iter().all(|&x| x < 5));
        assert!(seen.len() >= 4, "uniform selection should hit most objects");
    }

    #[test]
    fn physical_values_sized_as_configured() {
        let mix = WorkloadKind {
            logical_update: 0,
            logical_blind: 0,
            physiological: 0,
            physical: 100,
            delete: 0,
        };
        let ops = Workload::new(5, 10, mix, 3).with_value_size(512).generate();
        for op in ops {
            assert!(op.transform.params.len() > 512);
        }
    }
}
