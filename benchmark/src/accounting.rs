//! The benchmark's own bookkeeping: percentiles, medians and the
//! per-request ledger of the windowed socket client.
//!
//! Everything here is pure (no I/O, no clocks of its own), so the unit
//! tests at the bottom pin down exactly how the reported numbers are
//! derived from raw samples.

use cocktail_serve::wire::{ResponseRec, STATUS_BACKPRESSURE, STATUS_OK, STATUS_OK_FALLBACK};
use std::collections::HashMap;
use std::time::Instant;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it. `None` for an
/// empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // ceil(p/100 · n) as a 1-based rank, clamped into 1..=n
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// `failed / attempted`, and 0 for nothing attempted.
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One request's reference: its state and the bit-exact control the
/// per-sample path (`loadgen::expected_control`) produces for it.
pub struct Probe {
    pub state: Vec<f64>,
    pub expected: Vec<f64>,
}

/// Why a request counted as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Refused with backpressure.
    pub rejected: u64,
    /// Any other error status.
    pub errors: u64,
    /// Answered by the fallback expert instead of the network.
    pub fallbacks: u64,
    /// Answered OK, but not bit-equal to the reference control.
    pub mismatches: u64,
    /// A reply whose id was never issued.
    pub unknown_ids: u64,
    /// A second reply for an id that was already answered.
    pub duplicate_ids: u64,
    /// Issued, but never answered before the client gave up.
    pub lost: u64,
}

impl Failures {
    /// Failed requests. Stray replies (unknown or duplicate ids) count too:
    /// each one means the server answered something it was not asked.
    pub fn total(&self) -> u64 {
        self.rejected
            + self.errors
            + self.fallbacks
            + self.mismatches
            + self.unknown_ids
            + self.duplicate_ids
            + self.lost
    }
}

/// The windowed client's ledger: which ids are in flight, and what each
/// answered request measured. Ids are issued sequentially from 0, so an id
/// at or past `next_id` was never issued and one below it that is not in
/// flight was already answered.
pub struct Ledger {
    in_flight: HashMap<u64, (Instant, usize)>,
    next_id: u64,
    ok: u64,
    failures: Failures,
    latencies_us: Vec<f64>,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            in_flight: HashMap::new(),
            next_id: 0,
            ok: 0,
            failures: Failures::default(),
            latencies_us: Vec::new(),
        }
    }

    /// Issues the next id for probe `index`, sent at `at`.
    pub fn issue(&mut self, index: usize, at: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.insert(id, (at, index));
        id
    }

    /// Accounts one reply received at `at`.
    pub fn settle(&mut self, rec: &ResponseRec, at: Instant, probes: &[Probe]) {
        let Some((sent, index)) = self.in_flight.remove(&rec.id) else {
            if rec.id < self.next_id {
                self.failures.duplicate_ids += 1;
            } else {
                self.failures.unknown_ids += 1;
            }
            return;
        };
        match rec.status {
            STATUS_OK => {
                let expected = &probes[index].expected;
                let exact = rec.control().len() == expected.len()
                    && rec
                        .control()
                        .iter()
                        .zip(expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if exact {
                    self.ok += 1;
                    self.latencies_us
                        .push(at.duration_since(sent).as_secs_f64() * 1e6);
                } else {
                    self.failures.mismatches += 1;
                }
            }
            STATUS_OK_FALLBACK => self.failures.fallbacks += 1,
            STATUS_BACKPRESSURE => self.failures.rejected += 1,
            _ => self.failures.errors += 1,
        }
    }

    /// Gives up on every request still in flight.
    pub fn abandon_in_flight(&mut self) {
        self.failures.lost += self.in_flight.len() as u64;
        self.in_flight.clear();
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Requests issued so far.
    pub fn attempted(&self) -> u64 {
        self.next_id
    }

    /// Replies that were OK and bit-exact.
    pub fn ok(&self) -> u64 {
        self.ok
    }

    pub fn failures(&self) -> Failures {
        self.failures
    }

    /// Round trips of the OK replies, in microseconds, in the order they
    /// were settled.
    pub fn latencies_us(&self) -> &[f64] {
        &self.latencies_us
    }
}

/// What one measured window saw: how long it lasted, and the round trips
/// of its OK, bit-exact replies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    pub secs: f64,
    pub latencies_us: Vec<f64>,
}

impl Window {
    /// OK, bit-exact replies per second.
    pub fn rps(&self) -> f64 {
        self.latencies_us.len() as f64 / self.secs
    }

    /// Nearest-rank percentile `p` of the round trips, microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p).unwrap_or(f64::NAN)
    }
}

/// The sessions of a run, one [`Window`] each. Every figure is the median
/// of the sessions' figures, so a few seconds of a noisy host spoil a few
/// sessions, not the run.
#[derive(Default)]
pub struct Sessions(pub Vec<Window>);

impl Sessions {
    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let v: Vec<f64> = self.0.iter().map(f).collect();
        median(&v).unwrap_or(f64::NAN)
    }

    /// OK, bit-exact replies per second.
    pub fn rps(&self) -> f64 {
        self.median_of(Window::rps)
    }

    /// Nearest-rank percentile `p` of the round trips, microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        self.median_of(|s| s.latency_us(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_serve::wire::STATUS_SHUTDOWN;
    use std::time::Duration;

    fn probes() -> Vec<Probe> {
        vec![
            Probe {
                state: vec![0.1, 0.2],
                expected: vec![1.5],
            },
            Probe {
                state: vec![0.3, 0.4],
                expected: vec![-2.25],
            },
        ]
    }

    #[test]
    fn nearest_rank_on_one_and_two_samples() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 0.0), Some(7.0));
        // rank ceil(0.5 · 2) = 1: the lower sample is the median
        assert_eq!(nearest_rank(&[3.0, 9.0], 50.0), Some(3.0));
        assert_eq!(nearest_rank(&[3.0, 9.0], 51.0), Some(9.0));
        assert_eq!(nearest_rank(&[3.0, 9.0], 99.0), Some(9.0));
        assert_eq!(nearest_rank(&[3.0, 9.0], 100.0), Some(9.0));
    }

    #[test]
    fn nearest_rank_p99_needs_the_hundredth_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn failure_share_counts_against_attempted() {
        assert_eq!(failure_share(0, 0), 0.0);
        assert_eq!(failure_share(0, 10), 0.0);
        assert_eq!(failure_share(1, 4), 0.25);
        assert_eq!(failure_share(3, 3), 1.0);
    }

    #[test]
    fn ledger_accepts_only_bit_exact_ok_replies() {
        let p = probes();
        let mut l = Ledger::new();
        let t0 = Instant::now();
        let a = l.issue(0, t0);
        let b = l.issue(1, t0);
        let c = l.issue(0, t0);
        let d = l.issue(1, t0);
        let later = t0 + Duration::from_micros(40);
        l.settle(&ResponseRec::ok(a, &[1.5], false), later, &p);
        // one ulp off the reference is a mismatch, not a success
        let off = f64::from_bits((-2.25f64).to_bits() + 1);
        l.settle(&ResponseRec::ok(b, &[off], false), later, &p);
        l.settle(&ResponseRec::ok(c, &[1.5], true), later, &p);
        l.settle(&ResponseRec::err(d, STATUS_BACKPRESSURE), later, &p);
        assert_eq!(l.attempted(), 4);
        assert_eq!(l.ok(), 1);
        let f = l.failures();
        assert_eq!((f.mismatches, f.fallbacks, f.rejected), (1, 1, 1));
        assert_eq!(f.total(), 3);
        assert_eq!(l.latencies_us(), &[40.0]);
    }

    #[test]
    fn window_rates_and_percentiles() {
        let w = Window {
            secs: 2.0,
            latencies_us: vec![20.0, 5.0, 400.0, 1.0, 10.0, 3.0],
        };
        assert_eq!(w.rps(), 3.0);
        // sorted 1, 3, 5, 10, 20, 400: rank ceil(0.5 · 6) = 3
        assert_eq!(w.latency_us(50.0), 5.0);
        assert_eq!(w.latency_us(90.0), 400.0);
        assert_eq!(w.latency_us(80.0), 20.0);
        assert!(Window::default().latency_us(50.0).is_nan());
    }

    #[test]
    fn sessions_take_the_median_session() {
        let session = |ok, latency| Window {
            secs: 1.0,
            latencies_us: vec![latency; ok],
        };
        // one stalled session out of three does not move the figures
        let s = Sessions(vec![
            session(100, 50.0),
            session(3, 900.0),
            session(110, 48.0),
        ]);
        assert_eq!(s.rps(), 100.0);
        assert_eq!(s.latency_us(90.0), 50.0);
        assert!(Sessions::default().rps().is_nan());
    }

    #[test]
    fn ledger_counts_stray_ids_and_lost_requests() {
        let p = probes();
        let mut l = Ledger::new();
        let t0 = Instant::now();
        let a = l.issue(0, t0);
        let _b = l.issue(1, t0);
        let c = l.issue(1, t0);
        l.settle(&ResponseRec::ok(a, &[1.5], false), t0, &p);
        // the same id again: a duplicate, and the success is not undone
        l.settle(&ResponseRec::ok(a, &[1.5], false), t0, &p);
        // an id the client never issued
        l.settle(&ResponseRec::ok(99, &[1.5], false), t0, &p);
        l.settle(&ResponseRec::err(c, STATUS_SHUTDOWN), t0, &p);
        assert_eq!(l.in_flight(), 1);
        l.abandon_in_flight();
        assert_eq!(l.in_flight(), 0);
        let f = l.failures();
        assert_eq!(f.duplicate_ids, 1);
        assert_eq!(f.unknown_ids, 1);
        assert_eq!(f.errors, 1);
        assert_eq!(f.lost, 1);
        assert_eq!(l.ok(), 1);
        assert_eq!(f.total(), 4);
        assert_eq!(l.attempted(), 3);
    }
}
