//! Shared plumbing: run arguments, failure accounting, order statistics,
//! process clocks, and the metric report printed as the last output line.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cinm_workloads::data::SplitMix64;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Args {
    /// The measured phase length.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A sub-seed for one purpose, so independent inputs of one run never
    /// share a random stream.
    pub fn sub_seed(&self, tag: u64) -> u64 {
        let mut rng =
            SplitMix64::seed_from_u64(self.seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64()
    }
}

/// Operations attempted and failed, plus the outcome of every check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub broken_properties: Vec<String>,
}

impl Tally {
    /// Runs one operation; a panic or an `Err` counts it as failed and the
    /// run goes on.
    pub fn attempt<R, E: std::fmt::Display>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Option<R> {
        self.attempted += 1;
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                self.fail(what, &e.to_string());
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into());
                self.fail(what, &msg);
                None
            }
        }
    }

    /// Counts an attempted operation as failed.
    pub fn fail(&mut self, what: &str, msg: &str) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("perfbench: {what} failed: {msg}");
        }
    }

    /// Records a result that differs from its golden.
    pub fn mismatch(&mut self, what: &str) {
        self.mismatches += 1;
        if self.mismatches <= 3 {
            eprintln!("perfbench: {what}: result differs from the cpu-sim golden");
        }
    }

    /// Records a property of the method that must hold.
    pub fn require(&mut self, holds: bool, property: &str) {
        if !holds && !self.broken_properties.iter().any(|p| p == property) {
            eprintln!("perfbench: property violated: {property}");
            self.broken_properties.push(property.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.broken_properties.is_empty()
    }
}

/// Accumulated time of one kind of call in the traced run. Disabled
/// timers run the call without reading the clock, so the untraced
/// phases measure the bare program.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    pub on: bool,
    pub total: Duration,
    pub calls: u64,
}

impl Timer {
    pub fn new(on: bool) -> Self {
        Timer {
            on,
            ..Timer::default()
        }
    }

    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.total += t.elapsed();
        self.calls += 1;
        r
    }

    /// Microseconds per `ops`.
    pub fn us_per(&self, ops: u64) -> f64 {
        self.total.as_secs_f64() * 1e6 / ops.max(1) as f64
    }

    /// Microseconds per call.
    pub fn us_per_call(&self) -> f64 {
        self.us_per(self.calls)
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

/// Log-bucketed latency histogram with 0.1% bucket width, so a run of
/// millions of requests keeps its order statistics in fixed memory (the
/// harness's own allocations stay out of `peak_rss_mb`).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    const GROWTH: f64 = 1.001;
    /// Lower edge of bucket 0, in milliseconds.
    const FLOOR_MS: f64 = 1e-4;
    /// Covers 0.1 µs .. 100 s.
    const BUCKETS: usize = 20_800;

    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, ms: f64) {
        let b = ((ms / Self::FLOOR_MS).ln() / Self::GROWTH.ln()).floor();
        let b = if b.is_finite() && b > 0.0 {
            b as usize
        } else {
            0
        };
        self.counts[b.min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile, reported at the bucket's geometric centre
    /// (within 0.05% of the recorded value).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::FLOOR_MS * Self::GROWTH.powf(b as f64 + 0.5);
            }
        }
        f64::NAN
    }
}

/// One window of a measured loop.
#[derive(Debug, Clone)]
struct Window {
    hist: LatencyHistogram,
    sum_ms: f64,
    ops: u64,
    wall: Duration,
    cpu: Duration,
}

impl Window {
    fn merge(&mut self, o: &Window) {
        for (a, b) in self.hist.counts.iter_mut().zip(&o.hist.counts) {
            *a += b;
        }
        self.hist.total += o.hist.total;
        self.sum_ms += o.sum_ms;
        self.ops += o.ops;
        self.wall += o.wall;
        self.cpu += o.cpu;
    }
}

/// Per-op walls of a measured loop, cut into windows of at least
/// `MIN_OPS` ops and `MIN_SPAN` of wall (about a dozen windows per run on
/// every loop workload); a shorter tail joins the last window. Every figure is the median over windows of that window's
/// figure, so a burst of interference from outside the process (the
/// machine is shared) moves one window rather than the run.
#[derive(Debug)]
pub struct Windows {
    closed: Vec<Window>,
    current: Window,
    start: Instant,
    cpu0: Duration,
}

/// The figures of a measured loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopSummary {
    pub mean_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub ops: u64,
}

impl Windows {
    const MIN_OPS: u64 = 100;
    const MIN_SPAN: Duration = Duration::from_secs(2);

    pub fn start() -> Self {
        Windows {
            closed: Vec::new(),
            current: Self::empty(),
            start: Instant::now(),
            cpu0: process_cpu(),
        }
    }

    fn empty() -> Window {
        Window {
            hist: LatencyHistogram::new(),
            sum_ms: 0.0,
            ops: 0,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
        }
    }

    pub fn record(&mut self, op_ms: f64) {
        self.current.hist.record(op_ms);
        self.current.sum_ms += op_ms;
        self.current.ops += 1;
        // Read the clocks once per 64 ops, not per op.
        if self.current.ops >= Self::MIN_OPS && self.current.ops.is_multiple_of(64) {
            let wall = self.start.elapsed();
            if wall >= Self::MIN_SPAN {
                self.close(wall);
            }
        }
    }

    fn close(&mut self, wall: Duration) {
        let cpu = process_cpu();
        self.current.wall = wall;
        self.current.cpu = cpu.saturating_sub(self.cpu0);
        self.closed
            .push(std::mem::replace(&mut self.current, Self::empty()));
        self.start = Instant::now();
        self.cpu0 = cpu;
    }

    pub fn finish(mut self) -> LoopSummary {
        let wall = self.start.elapsed();
        self.current.wall = wall;
        self.current.cpu = process_cpu().saturating_sub(self.cpu0);
        let tail = std::mem::replace(&mut self.current, Self::empty());
        let short = tail.ops < Self::MIN_OPS || wall < Self::MIN_SPAN;
        match self.closed.last_mut() {
            Some(last) if short => last.merge(&tail),
            _ => self.closed.push(tail),
        }
        let per = |f: &dyn Fn(&Window) -> f64| -> f64 {
            median(
                &self
                    .closed
                    .iter()
                    .filter(|w| w.ops > 0)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        LoopSummary {
            mean_ms: per(&|w| w.sum_ms / w.ops as f64),
            p90_ms: per(&|w| w.hist.quantile(0.90)),
            p99_ms: per(&|w| w.hist.quantile(0.99)),
            ops_per_s: per(&|w| w.ops as f64 / w.wall.as_secs_f64()),
            cpu_ms_per_op: per(&|w| w.cpu.as_secs_f64() * 1e3 / w.ops as f64),
            ops: self.closed.iter().map(|w| w.ops).sum(),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process (user + system, every thread).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Hands the allocator's free memory back to the kernel (glibc), so the
/// next set-up starts from a heap as cold as the first one's. Without it
/// the first few set-ups of a run page-fault their buffers in and later
/// ones reuse freed memory at a third of the cost, and the median set-up
/// flips between the two.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes no pointers and only returns unused heap
    // memory to the kernel; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The metrics of one run, printed as one JSON object.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line. A metric that came out non-finite is a fault of
    /// the run: it prints as 0 and the run is marked incorrect.
    pub fn to_json(&self, tally: &mut Tally) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                tally.require(value.is_finite(), &format!("{name} is finite"));
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.correct(),
            tally.attempted,
            tally.failed,
            body.join(", ")
        )
    }
}
