//! Harness-side spans: `name, start_ns, end_ns, parent, op_id`, kept in
//! memory and written to `out/trace.json` when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer — spans inside the crates are a later change
//! (ROADMAP item 1). A tracer that is off records nothing and costs one
//! branch per call site.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// "No parent" / "no op" marker in [`Span`].
pub const NONE: u32 = u32::MAX;

/// Spans written to `trace.json`; the aggregates always use every span.
const MAX_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    name: u16,
    pub parent: u32,
    pub op_id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Client threads each own one (sharing the
/// run's epoch) and the run merges them with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// A tracer on the same clock that records nothing.
    pub fn muted(&self) -> Tracer {
        Tracer::new(false, self.epoch)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the run's epoch — the one clock every sample and
    /// span of a run is read from, tracing on or off.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Record a finished span; returns its index for use as a `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op_id: u32,
    ) -> u32 {
        if !self.on {
            return NONE;
        }
        let name = self.intern(name);
        self.spans.push(Span {
            name,
            parent,
            op_id,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span now; close it with [`Tracer::end`]. Children recorded in
    /// between name the returned index as their parent.
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u32) -> u32 {
        let now = self.now();
        self.record(name, now, now, parent, op_id)
    }

    pub fn end(&mut self, span: u32) {
        if span != NONE {
            self.spans[span as usize].end_ns = self.now();
        }
    }

    /// Merge another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let remap: Vec<u16> = other.names.iter().map(|n| self.intern(n)).collect();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            name: remap[s.name as usize],
            parent: if s.parent == NONE {
                NONE
            } else {
                s.parent + base
            },
            ..s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name as usize == id)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// For spans called `name`: total duration and total self time (the
    /// duration minus what direct children cover), in ns.
    pub fn total_and_self(&self, name: &str) -> (u64, u64) {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return (0, 0);
        };
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut total = 0;
        let mut own = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name as usize == id {
                let d = s.end_ns - s.start_ns;
                total += d;
                own += d.saturating_sub(child_ns[i]);
            }
        }
        (total, own)
    }

    /// Write the first [`MAX_WRITTEN`] spans (and the full count) as JSON.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let written = self.spans.len().min(MAX_WRITTEN);
        let mut out = String::with_capacity(written * 96 + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"total_spans\":{},\"written_spans\":{written},\"spans\":[",
            self.spans.len()
        );
        for (i, s) in self.spans[..written].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            let op = if s.op_id == NONE { -1 } else { s.op_id as i64 };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{op}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.record("client.op", 0, 100, NONE, 0);
        t.record("domains.x", 10, 70, op, 0);
        t.record("wal.persist", 70, 95, op, 0);
        assert_eq!(t.total_and_self("client.op"), (100, 15));
        assert_eq!(t.durations("domains.x"), vec![60]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true, Instant::now());
        a.record("client.op", 0, 10, NONE, 0);
        let mut b = a.sibling();
        let p = b.record("client.op", 0, 20, NONE, 1);
        b.record("engine.commit", 5, 15, p, 1);
        a.absorb(b);
        assert_eq!(a.total_and_self("client.op"), (30, 20));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("client.op", NONE, 0);
        t.end(s);
        assert!(t.durations("client.op").is_empty());
    }
}
