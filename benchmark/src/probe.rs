//! Measurement probes: process CPU clocks and an aggregating telemetry
//! sink.
//!
//! The shipped crates already emit spans and counters into any
//! [`Telemetry`] passed through their public API. [`AggSink`] is such a
//! sink: it keeps per-name totals in memory (no I/O on the measured path)
//! and samples the process CPU clock at every span boundary, so each span
//! also yields a CPU-over-wall ratio — how many cores the layer kept busy.

use cocktail_obs::{Event, EventKind, Telemetry};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// CPU time consumed so far by this process, all threads, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time (user + system) consumed so far by process `pid`, in seconds,
/// read from `/proc/<pid>/stat`.
pub fn child_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name may contain spaces; fields resume after its ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // after ')': state is field 3 of stat(5), utime 14 and stime 15
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf takes an integer selector and has no memory effects.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    (ticks > 0).then(|| (utime + stime) / ticks as f64)
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    pub count: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

#[derive(Default)]
struct Totals {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanTotal>,
    /// CPU clock at each open span's start, per name (spans of one name
    /// nest at most on one thread in the shipped code).
    open: BTreeMap<String, Vec<f64>>,
}

/// An in-memory telemetry sink that keeps only per-name totals.
#[derive(Default)]
pub struct AggSink {
    totals: Mutex<Totals>,
}

impl AggSink {
    /// Sum of every increment of counter `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Totals of span `name` (zero when it never closed).
    pub fn span(&self, name: &str) -> SpanTotal {
        self.lock().spans.get(name).copied().unwrap_or_default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Totals> {
        // totals are plain sums, valid after any partial update
        self.totals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Telemetry for AggSink {
    fn record(&self, event: Event) {
        match event.kind {
            EventKind::SpanStart => {
                let cpu = process_cpu_s();
                self.lock().open.entry(event.name).or_default().push(cpu);
            }
            EventKind::SpanEnd => {
                let cpu = process_cpu_s();
                let mut t = self.lock();
                let start = t.open.get_mut(&event.name).and_then(Vec::pop);
                let total = t.spans.entry(event.name).or_default();
                total.count += 1;
                total.wall_s += event.duration_us.unwrap_or(0) as f64 * 1e-6;
                total.cpu_s += start.map_or(0.0, |s| cpu - s);
            }
            EventKind::Counter => {
                *self.lock().counters.entry(event.name).or_default() += event.delta.unwrap_or(0);
            }
            EventKind::Histogram | EventKind::Point => {}
        }
    }
}

/// CPU over wall of a set of span totals: the mean number of busy cores.
pub fn cpu_per_wall(spans: &[SpanTotal]) -> f64 {
    let wall: f64 = spans.iter().map(|s| s.wall_s).sum();
    let cpu: f64 = spans.iter().map(|s| s.cpu_s).sum();
    if wall > 0.0 {
        cpu / wall
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_obs::Span;

    #[test]
    fn sink_totals_spans_and_counters() {
        let sink = AggSink::default();
        for _ in 0..2 {
            let _s = Span::enter(&sink, "stage");
            sink.counter("work", 3);
        }
        assert_eq!(sink.counter_total("work"), 6);
        assert_eq!(sink.counter_total("absent"), 0);
        let s = sink.span("stage");
        assert_eq!(s.count, 2);
        assert!(s.wall_s >= 0.0 && s.cpu_s >= 0.0);
        assert_eq!(sink.span("absent").count, 0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
        assert!(child_cpu_s(std::process::id()).is_some());
    }
}
