//! Perf harness: measures the batched/parallel kernels plus the serving
//! runtime and writes the machine-readable baseline (`BENCH_pr10.json`).
//!
//! ```text
//! cargo run --release -p cocktail-bench --bin perf [-- <output-path>]
//! ```
//!
//! Set `COCKTAIL_FAST=1` for a reduced smoke run (CI). The written file is
//! read back, schema-validated and gated on timing spread (< 30% across
//! repeats) before the process exits.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "perf harness aborts on failure by design"
)]

use cocktail_bench::perf::{check_spread, run, validate, Measurement, PerfConfig, PerfReport};

fn fmt(m: Measurement) -> String {
    format!("{:.0} ±{:.1}%", m.median, 100.0 * m.spread)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr10.json".to_string());
    let fast = std::env::var("COCKTAIL_FAST").is_ok_and(|v| v == "1");
    let config = if fast {
        PerfConfig::fast()
    } else {
        PerfConfig::full()
    };
    eprintln!(
        "perf: forward_reps={} rollout_episodes={} distill_epochs={} repeats={} (fast={fast})",
        config.forward_reps, config.rollout_episodes, config.distill_epochs, config.repeats
    );

    let report = run(&config);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).expect("baseline must be writable");

    // round-trip the file on disk: the schema check CI relies on
    let parsed: PerfReport =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("baseline readable"))
            .expect("baseline deserializes");
    validate(&parsed).expect("baseline validates");
    check_spread(&parsed, 0.30).expect("timing spread stays under 30%");

    println!(
        "forward  {:>18} samples/s per-sample | {:>18} samples/s batched ({:.2}x)",
        fmt(report.forward.per_sample_samples_per_sec),
        fmt(report.forward.batched_samples_per_sec),
        report.forward.speedup
    );
    println!(
        "train    {:>18} samples/s per-sample | {:>18} samples/s batched ({:.2}x)",
        fmt(report.train_step.per_sample_samples_per_sec),
        fmt(report.train_step.batched_samples_per_sec),
        report.train_step.speedup
    );
    println!(
        "rollout  {:>18} ep/s serial      | {:>18} ep/s x{} workers ({:.2}x)",
        fmt(report.rollout.serial_episodes_per_sec),
        fmt(report.rollout.parallel_episodes_per_sec),
        report.rollout.workers,
        report.rollout.speedup
    );
    println!(
        "pipeline {:>18} ms smoke end-to-end",
        fmt(report.end_to_end.wall_ms)
    );
    println!(
        "telemetry {:>17} ep/s null sink   | {:>18} ep/s recording ({:.2}x)",
        fmt(report.telemetry.null_epochs_per_sec),
        fmt(report.telemetry.recording_epochs_per_sec),
        report.telemetry.overhead_ratio
    );
    println!(
        "serve    {:>18} ms admission    | p50 {:.1} us single-request",
        fmt(report.serve.admission_ms),
        report.serve.single_p50_latency_us.median
    );
    println!(
        "serve    loaded tails p99 {:.1} us | p999 {:.1} us (32 connections)",
        report.serve.loaded_p99_latency_us.median, report.serve.loaded_p999_latency_us.median
    );
    println!(
        "serve    {:>18} req/s x1        | {:>18} req/s x8 | {:>18} req/s x32 ({:.2}x)",
        fmt(report.serve.batch1_requests_per_sec),
        fmt(report.serve.batch8_requests_per_sec),
        fmt(report.serve.batch32_requests_per_sec),
        report.serve.batch_speedup
    );
    println!(
        "serve    {:>18} req/s 1 shard   | {:>18} req/s 4 shards ({:.2}x on {} cores)",
        fmt(report.serve.shard1_requests_per_sec),
        fmt(report.serve.shard4_requests_per_sec),
        report.serve.shard_speedup,
        report.serve.cores
    );
    println!(
        "verify   {:>18} ms certification | {} pieces (eps {:.3}), verdict {}",
        fmt(report.verify.certify_ms),
        report.verify.pieces,
        report.verify.epsilon,
        report.verify.verdict
    );
    println!("[artifact] {out}");
}
