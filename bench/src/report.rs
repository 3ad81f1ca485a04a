//! What one workload run reports, and the two ways it is printed: one
//! `workload/metric value unit n=<samples>` line per metric, and the
//! driver's one-line JSON object.

use std::fmt::Write as _;

use crate::stats::{quiet_high, quiet_low, sliced_quantile};

/// The seven end-to-end metrics, in the order `BENCHMARK.json` lists them.
/// Every workload reports every one (untraced runs only).
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "lockstep_p50_us",
    "lockstep_p95_us",
    "log_bytes_per_user_byte",
    "disk_bytes_per_live_byte",
    "restart_first_ack_ms",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, slices or cycles).
    pub n: usize,
}

/// What the seven end-to-end metrics are computed from; every workload
/// fills one in, so the definitions live in one place
/// ([`Report::end_to_end`]).
pub struct EndToEnd<'a> {
    pub setup_ns: u64,
    /// Pipelined phase: ops per second of each slice.
    pub rates: &'a [f64],
    /// Lockstep phase: every op's latency (ns), one lane per connection.
    pub lockstep: &'a [&'a [u64]],
    /// Log bytes appended during lockstep + pipelined.
    pub log_bytes: u64,
    /// Post-image bytes of every object those ops wrote.
    pub user_bytes: u64,
    /// Write operations behind `user_bytes`.
    pub writes: usize,
    /// Bytes on disk ÷ live bytes at the first kill.
    pub disk_per_live: f64,
    /// Kill → first durable ack, one per crash cycle.
    pub restart_ns: &'a [u64],
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed as lines but not part of the JSON: how long each phase ran.
    pub info: Vec<Metric>,
    /// Printed as lines but not part of the JSON: the per-slice (or
    /// per-cycle) values a timing's quiet decile was taken over.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Exact counts that must repeat for one seed (`embedded_logical`).
    pub counts: Vec<(&'static str, u64)>,
    /// Why ops failed, first few only.
    pub failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    /// The seven end-to-end metrics, in [`END_TO_END`] order. Timings are
    /// the quiet decile over slices or cycles (see [`crate::stats`]).
    pub fn end_to_end(&mut self, e: EndToEnd<'_>) {
        let samples: usize = e.lockstep.iter().map(|l| l.len()).sum();
        let us = |ns: Vec<f64>| ns.into_iter().map(|v| v / 1e3).collect::<Vec<f64>>();
        let p50_us = us(sliced_quantile(e.lockstep, 0.50));
        let p95_us = us(sliced_quantile(e.lockstep, 0.95));
        let restart_ms: Vec<f64> = e.restart_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
        self.metric("setup_s", e.setup_ns as f64 / 1e9, "s", 1);
        self.metric("ops_per_s", quiet_high(e.rates), "ops/s", e.rates.len());
        self.metric("lockstep_p50_us", quiet_low(&p50_us), "us", samples);
        self.metric("lockstep_p95_us", quiet_low(&p95_us), "us", samples);
        self.metric(
            "log_bytes_per_user_byte",
            e.log_bytes as f64 / e.user_bytes.max(1) as f64,
            "ratio",
            e.writes,
        );
        self.metric("disk_bytes_per_live_byte", e.disk_per_live, "ratio", 1);
        self.metric(
            "restart_first_ack_ms",
            quiet_low(&restart_ms),
            "ms",
            restart_ms.len(),
        );
        self.series = vec![
            ("ops_per_s", e.rates.to_vec()),
            ("lockstep_p50_us", p50_us),
            ("lockstep_p95_us", p95_us),
            ("restart_first_ack_ms", restart_ms),
        ];
    }

    /// A line-only value (phase durations), not a contract metric.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name,
            value,
            unit,
            n: 1,
        });
    }

    /// Count `n` failed operations, keeping the first few reasons.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// A phase that acked `writes` must have synced the log device at
    /// least once between its first and last ack; if not, every write it
    /// acked counts as failed. (In this sandbox the page cache survives
    /// the kill, so a missing fsync would never show up as lost data.)
    pub fn require_fsyncs(&mut self, phase: &str, before: u64, after: u64, writes: u64) {
        if writes > 0 && after == before {
            self.fail(writes, || {
                format!("{phase}: {writes} writes acked with zero log-device fsyncs")
            });
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(
                out,
                "{}/{} {} {} n={}",
                self.workload,
                m.name,
                fmt_value(m.value),
                m.unit,
                m.n
            );
        }
        for (name, values) in &self.series {
            let _ = write!(out, "{}/slices.{name}", self.workload);
            for v in values {
                let _ = write!(out, " {v:.1}");
            }
            out.push('\n');
        }
        for (name, v) in &self.counts {
            let _ = writeln!(out, "{}/count.{name} {v} count n=1", self.workload);
        }
        let _ = writeln!(
            out,
            "{}/attempted {} ops n=1\n{}/failed {} ops n=1",
            self.workload, self.attempted, self.workload, self.failed
        );
        for f in &self.failures {
            let _ = writeln!(out, "{}/FAILURE {f}", self.workload);
        }
        out
    }

    /// The driver's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A number as measured, with all its digits, and always valid JSON.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = Report::new("w");
        r.attempted = 10;
        r.metric("setup_s", 1.25, "s", 1);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        r.fail(2, || "lost ack".into());
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
        assert!(r.lines().contains("w/setup_s 1.25 s n=1"));
    }
}
