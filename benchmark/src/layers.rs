//! Single-layer probes of the serving path, timed from the benchmark's own
//! calls into the public API: the batched NN forward and the wire codec.

use crate::accounting::Probe;
use cocktail_math::Matrix;
use cocktail_nn::{BatchCache, Mlp};
use cocktail_serve::wire::{
    decode_request, decode_response, encode_request_into, encode_response_into, ResponseRec,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls between clock reads, so the clock is not what gets measured.
const INNER: usize = 256;

/// Microseconds per row of `net.forward_batch_cached` at `batch` rows of
/// probe states, for about `budget`.
pub fn forward_us_per_row(net: &Mlp, probes: &[Probe], batch: usize, budget: Duration) -> f64 {
    let batch = batch.max(1);
    let x = Matrix::from_fn(batch, net.input_dim(), |r, c| {
        probes[r % probes.len()].state[c]
    });
    let mut cache = BatchCache::new();
    net.forward_batch_cached(&x, &mut cache);
    let mut rows = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..INNER {
            net.forward_batch_cached(black_box(&x), &mut cache);
            black_box(cache.output());
        }
        rows += INNER * batch;
    }
    start.elapsed().as_secs_f64() * 1e6 / rows as f64
}

/// Nanoseconds per frame to encode and decode one request frame (a probe's
/// state) and one response frame (its control), each through reused
/// buffers, for about `budget`.
pub fn wire_ns_per_frame(probes: &[Probe], budget: Duration) -> f64 {
    let mut buf = Vec::with_capacity(1024);
    let mut state = Vec::with_capacity(64);
    let mut rec = ResponseRec::err(0, 0);
    let mut frames = 0usize;
    let mut id = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..INNER {
            let probe = &probes[id as usize % probes.len()];
            buf.clear();
            encode_request_into(id, black_box(&probe.state), &mut buf);
            black_box(decode_request(&buf, &mut state).ok());
            buf.clear();
            encode_response_into(&ResponseRec::ok(id, &probe.expected, false), &mut buf);
            black_box(decode_response(&buf, &mut rec).ok());
            id += 1;
        }
        frames += 2 * INNER;
    }
    start.elapsed().as_secs_f64() * 1e9 / frames as f64
}
