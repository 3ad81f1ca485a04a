//! Seeded input generation for the served workloads.
//!
//! `--seed` drives one xoshiro stream per connection
//! ([`llog_testkit::TestRng`], forked from the seed's root stream). Every
//! op list is generated before the phase's clock starts; the program only
//! ever sees the ops. Each connection owns a private key range, so the
//! model (last acked version per key) is exact whatever the interleaving
//! of the two connections.

use llog_server::Request;
use llog_testkit::TestRng;
use llog_types::ObjectId;

/// One client operation: the `Put` that writes `version` of `key`, or a
/// `Get` (`version == 0`) issued when the key held version `held`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u64,
    pub version: u32,
    /// Gets only: the version this connection had last written to `key`
    /// when the get was generated (0 = never written). In lock-step the
    /// get must return exactly this version; pipelined, this one or a
    /// later one (the read resolves after every earlier ack).
    pub held: u32,
}

impl Op {
    pub fn is_put(&self) -> bool {
        self.version != 0
    }
}

/// Extend `out` to `len` bytes with the SplitMix64 stream of `seed`.
fn fill(mut out: Vec<u8>, seed: u64, len: usize) -> Vec<u8> {
    let mut sm = llog_testkit::rng::SplitMix64::new(seed);
    out.reserve(len + 8);
    while out.len() < len {
        out.extend_from_slice(&sm.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `len` deterministic bytes for `seed` (file records, queue payloads).
pub fn bytes_of(seed: u64, len: usize) -> Vec<u8> {
    fill(Vec::new(), seed, len)
}

/// The bytes version `version` of `key` holds: key and version in the
/// first 12 bytes (so a read can be checked without knowing which version
/// it raced to), the rest a SplitMix64 stream keyed by both.
pub fn value_of(key: u64, version: u32, len: usize) -> Vec<u8> {
    debug_assert!(len >= 12 && version > 0);
    let mut head = Vec::with_capacity(len + 8);
    head.extend_from_slice(&key.to_le_bytes());
    head.extend_from_slice(&version.to_le_bytes());
    fill(head, key ^ (u64::from(version) << 40), len)
}

/// The version stamped into a value produced by [`value_of`].
pub fn version_in(value: &[u8]) -> Option<(u64, u32)> {
    let key = u64::from_le_bytes(value.get(0..8)?.try_into().ok()?);
    let version = u32::from_le_bytes(value.get(8..12)?.try_into().ok()?);
    Some((key, version))
}

/// How a connection picks keys.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// 80 % of accesses go to the hottest 10 % of the range.
    Hot80_10,
}

/// One connection's generator and model: its key range, its stream, and
/// the last version it wrote to each key (0 = never written).
#[derive(Debug)]
pub struct Lane {
    pub base: u64,
    pub keys: u64,
    pub versions: Vec<u32>,
    rng: TestRng,
}

impl Lane {
    pub fn new(rng: TestRng, base: u64, keys: u64) -> Lane {
        Lane {
            base,
            keys,
            versions: vec![0; keys as usize],
            rng,
        }
    }

    fn pick(&mut self, dist: KeyDist) -> u64 {
        match dist {
            KeyDist::Uniform => self.rng.random_range(0..self.keys),
            KeyDist::Hot80_10 => {
                let hot = (self.keys / 10).max(1);
                if self.rng.ratio(0.8) {
                    self.rng.random_range(0..hot)
                } else {
                    self.rng.random_range(hot..self.keys)
                }
            }
        }
    }

    fn put(&mut self, index: u64) -> Op {
        let v = &mut self.versions[index as usize];
        *v += 1;
        Op {
            key: self.base + index,
            version: *v,
            held: 0,
        }
    }

    /// One put per key of the range, in shuffled order (the bulk load).
    pub fn every_key(&mut self) -> Vec<Op> {
        let mut order: Vec<u64> = (0..self.keys).collect();
        self.rng.shuffle(&mut order);
        order.into_iter().map(|i| self.put(i)).collect()
    }

    /// `n` ops, `put_pct` % of them puts, keys drawn from `dist`.
    pub fn mixed(&mut self, n: usize, put_pct: u32, dist: KeyDist) -> Vec<Op> {
        (0..n)
            .map(|_| {
                let index = self.pick(dist);
                if put_pct >= 100 || self.rng.random_range(0..100u32) < put_pct {
                    self.put(index)
                } else {
                    Op {
                        key: self.base + index,
                        version: 0,
                        held: self.versions[index as usize],
                    }
                }
            })
            .collect()
    }

    /// The last version written to `key` (which must be in this lane).
    pub fn version_of(&self, key: u64) -> u32 {
        self.versions[(key - self.base) as usize]
    }

    /// Bytes of live values this lane has written so far.
    pub fn live_bytes(&self, value_len: usize) -> u64 {
        self.versions.iter().filter(|v| **v > 0).count() as u64 * value_len as u64
    }
}

/// Materialize the wire requests for `ops` (done before the clock starts).
pub fn requests(ops: &[Op], value_len: usize, first_req_id: u64) -> Vec<Request> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let req_id = first_req_id + i as u64;
            let object = ObjectId(op.key);
            if op.is_put() {
                Request::Put {
                    req_id,
                    object,
                    value: value_of(op.key, op.version, value_len),
                }
            } else {
                Request::Get { req_id, object }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let mk = || {
            let mut root = TestRng::seed_from_u64(7);
            let mut lane = Lane::new(root.fork(), 1000, 50);
            (lane.every_key(), lane.mixed(200, 10, KeyDist::Hot80_10))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn values_carry_key_and_version() {
        let v = value_of(42, 3, 128);
        assert_eq!(v.len(), 128);
        assert_eq!(version_in(&v), Some((42, 3)));
        assert_ne!(v, value_of(42, 4, 128));
    }

    #[test]
    fn every_key_writes_each_once() {
        let mut lane = Lane::new(TestRng::seed_from_u64(1), 0, 100);
        let ops = lane.every_key();
        assert_eq!(ops.len(), 100);
        assert!(lane.versions.iter().all(|v| *v == 1));
        assert_eq!(lane.live_bytes(128), 12_800);
    }
}
