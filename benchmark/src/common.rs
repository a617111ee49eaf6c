//! Shared machinery: the metric report, the in-memory span tracer, the
//! host-time stamping sink, and small statistics helpers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use varuna_obs::{Event, EventSink};

/// One reported metric: its value, unit, and the number of samples the
/// value summarises (1 for a count or a single measurement).
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Every metric one run produces, by name.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable descriptions of failed checks, for the log.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Counts one checked operation; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

/// Host time of the set-up layers, ms (0 where a workload has none).
pub struct SetupTimes {
    pub calibrate_ms: f64,
    pub trace_gen_ms: f64,
}

/// Set-ups timed in one process: untimed warm-ups while caches are cold,
/// then at least `SETUP_REPS` set-ups and `SETUP_MIN_S` seconds.
const SETUP_WARMUP: usize = 3;
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.2;

/// Times `setup` in this process. Returns the medians of the set-up's
/// seconds and of its calibration and trace-generation milliseconds.
pub fn time_setups(mut setup: impl FnMut() -> SetupTimes) -> [f64; 3] {
    for _ in 0..SETUP_WARMUP {
        setup();
    }
    let started = Instant::now();
    let (mut total_s, mut calibrate_ms, mut trace_gen_ms) = (Vec::new(), Vec::new(), Vec::new());
    while total_s.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t = Instant::now();
        let layers = setup();
        total_s.push(t.elapsed().as_secs_f64());
        calibrate_ms.push(layers.calibrate_ms);
        trace_gen_ms.push(layers.trace_gen_ms);
    }
    [
        median(&total_s),
        median(&calibrate_ms),
        median(&trace_gen_ms),
    ]
}

/// Samples a workload's set-up time, each sample in a fresh child process
/// (this program with `--setup-only`) that runs `time_setups`.
///
/// A set-up takes 0.1 to 20 ms. On a shared host one core can run it up
/// to 1.7x slower than the other, in states that last seconds to
/// minutes, and a process tends to stay on its core: timed within the
/// main process, set-up reads fast or slow as a whole. Child processes
/// land on either core, and samples taken before the passes and after
/// each one are spread over the run.
pub struct SetupSampler {
    workload: String,
    seed: u64,
    samples: Vec<[f64; 3]>,
}

impl SetupSampler {
    pub fn new(workload: &str, seed: u64) -> Self {
        SetupSampler {
            workload: workload.to_string(),
            seed,
            samples: Vec::new(),
        }
    }

    /// Runs one child process to completion and records its medians.
    pub fn sample(&mut self) {
        let exe = std::env::current_exe().expect("the benchmark's own path");
        let out = std::process::Command::new(exe)
            .args([
                "--workload",
                &self.workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .arg("--setup-only")
            .output()
            .expect("set-up child process failed to run");
        let text = String::from_utf8_lossy(&out.stdout);
        let values: Vec<f64> = text
            .split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect();
        assert!(
            out.status.success() && values.len() == 3,
            "set-up child process failed: {} {text}",
            out.status
        );
        self.samples.push([values[0], values[1], values[2]]);
    }

    /// The median over samples of field `i` (0: set-up seconds,
    /// 1: calibration ms, 2: trace-generation ms), and the sample count.
    pub fn median_of(&self, i: usize) -> (f64, usize) {
        let xs: Vec<f64> = self.samples.iter().map(|s| s[i]).collect();
        (median(&xs), xs.len())
    }
}

/// A point in a timed pass: the wall clock and this process's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub wall: Instant,
    pub cpu_s: f64,
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// The lap from this mark to `end`.
    pub fn to(&self, end: Mark) -> Lap {
        Lap {
            wall_s: (end.wall - self.wall).as_secs_f64(),
            cpu_s: end.cpu_s - self.cpu_s,
        }
    }
}

/// One lap of a pass: wall seconds, and the CPU seconds this process
/// (every thread) spent over the same interval. A pass is timed as a list
/// of laps that do the same work, in the same order, in every pass.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// The consecutive laps between successive marks.
pub fn laps(marks: &[Mark]) -> Vec<Lap> {
    marks.windows(2).map(|w| w[0].to(w[1])).collect()
}

/// A run's `run_s`: the sum over laps of each lap's median CPU time across
/// the run's passes. `None` when the passes split into different numbers
/// of laps.
///
/// On a shared host the same code runs up to 1.5x slower for stretches of
/// seconds, which slow some laps of one pass. A lap's median leaves them
/// out while fewer than half of its samples were slowed; the median of
/// whole passes needs fewer than half of the passes touched anywhere, and
/// the longest workloads fit only three or four passes in a run.
pub fn sum_of_lap_medians(passes: &[Vec<Lap>]) -> Option<f64> {
    let first = passes.first()?;
    if passes.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| median(&passes.iter().map(|p| p[i].cpu_s).collect::<Vec<_>>()))
            .sum(),
    )
}

/// CPU time of this process, all threads, in seconds: the kernel's task
/// clock (`CLOCK_PROCESS_CPUTIME_ID`). It leaves out time a thread waits
/// for a core and, on a guest with paravirtual steal-time accounting,
/// time the hypervisor ran another guest on the core.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec in the layout of 64-bit Linux,
    // and the clock id is one the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Median and other quantiles by linear interpolation between order
/// statistics. Returns NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: a tiny deterministic generator for seed-derived choices
/// (kill points, jitter seeds) that must not depend on any crate's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The manager decision the span belongs to, when it belongs to one.
    pub decision: Option<u64>,
}

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out as JSON lines; per-layer metrics are sums over them.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        decision: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.stack.last().copied(),
            decision,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an already-measured interval as a span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        decision: Option<u64>,
    ) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            decision,
        };
        self.spans.push(span);
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn count_all(&self) -> usize {
        self.spans.len()
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    pub fn busy_ms(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"decision\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.decision.map_or("null".to_string(), |d| d.to_string()),
            )?;
        }
        out.flush()
    }
}

/// A bus sink that stamps host time on every event it sees. Attached next
/// to the capture sinks, it attributes host time between consecutive bus
/// events, and so to each manager decision.
#[derive(Clone, Default)]
pub struct StampSink {
    stamps: Rc<RefCell<Vec<Mark>>>,
}

impl StampSink {
    pub fn take(&self) -> Vec<Mark> {
        std::mem::take(&mut *self.stamps.borrow_mut())
    }
}

impl EventSink for StampSink {
    fn record(&mut self, _event: &Event) {
        self.stamps.borrow_mut().push(Mark::now());
    }
}
