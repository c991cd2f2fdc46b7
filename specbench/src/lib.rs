//! End-to-end and per-layer benchmark of the SpecPMT reproduction.
//!
//! Three workloads, each driven by one closed-loop client thread: `kv-read`
//! and `kv-write` ([`kv`]) on the sharded KV service, and `stamp`
//! ([`stamp`]) on the paper's fig12/fig13 pipeline. A run with tracing off
//! reports the end-to-end metrics; a traced run reports the per-layer ones
//! from spans the benchmark records around calls into each layer
//! ([`trace`]). See `README.md` beside this crate for the workload choice,
//! the metric predictions and the noise fixes.

#![forbid(unsafe_code)]

pub mod kv;
pub mod procfs;
pub mod stamp;
pub mod stats;
pub mod trace;

/// Named metrics with units, in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|&(_, v, _)| v)
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`. Values
    /// print with all their digits; a non-finite value prints as 0.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops the client attempted in the measured phase.
    pub attempted: u64,
    /// Of those, ops that failed (admission rejections, `TableFull`,
    /// failed STAMP verifications).
    pub failed: u64,
    /// Metrics to report.
    pub metrics: Metrics,
    /// Correctness-gate failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Diagnostic lines printed before the result.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed correctness gate (the first few in detail).
    pub fn fail(&mut self, msg: String) {
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }

    /// Records a gate that must hold.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// How a run measures: end-to-end metrics with tracing off, or per-layer
/// metrics from a traced run next to an untraced one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off; end-to-end metrics.
    EndToEnd,
    /// Traced run; per-layer metrics.
    Traced,
}

/// The median of `k` timings of `f`, in seconds, and the last value `f`
/// built (each earlier one is dropped before the next call).
pub fn median_setup<T>(k: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        drop(last.take());
        let t0 = std::time::Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("k >= 1"))
}
