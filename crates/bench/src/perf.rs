//! The tracked performance baseline behind `BENCH_pr10.json`.
//!
//! Four measurements, chosen to cover the layers the batched/parallel
//! kernels rewrote plus the telemetry layer:
//!
//! 1. **Forward throughput** — per-sample [`cocktail_nn::Mlp::forward`]
//!    versus [`cocktail_nn::Mlp::forward_batch_cached`] at batch 64 on the
//!    Table-1 student shape (2-24-24-1), in samples/second;
//! 2. **Rollout throughput** — Monte-Carlo evaluation of a stabilizing
//!    controller on the Van der Pol oscillator with 1 worker versus the
//!    machine's full worker count, in episodes/second;
//! 3. **End-to-end wall time** — one smoke-preset Cocktail pipeline run
//!    (PPO mixing + dataset + both distillations) on the oscillator;
//! 4. **Telemetry overhead** — robust-distillation epoch throughput under
//!    the zero-cost [`cocktail_obs::NullSink`] versus a recording
//!    [`cocktail_obs::InMemorySink`];
//! 5. **Serving** — bundle admission wall time, single-request p50
//!    latency through the micro-batching engine, loaded tail latency
//!    (p99/p999) under 32 concurrent submitters, sustained in-process
//!    throughput with 1, 8 and 32 concurrent submitters, and aggregate
//!    throughput across 1 versus 4 engine shards;
//! 6. **Verification** — wall time of one full safety certification
//!    (Bernstein certificate with partition refinement, closed-loop
//!    reachability, control-invariant fixpoint) of a student controller,
//!    the paper's Property-3 metric, with the resulting partition size
//!    and verdict recorded for trend-watching.
//!
//! Every timed section runs once untimed (warm-up) and then
//! [`PerfConfig::repeats`] times, each repeat keeping the best of a few
//! back-to-back trials (preemption on shared hosts only ever slows a
//! trial down, never speeds it up); the report carries the **median**
//! throughput and the relative **spread** `(max - min) / median` so noisy
//! hosts are visible in the artifact instead of silently skewing a single
//! sample. [`check_spread`] is the CI gate on that noise.
//!
//! The `perf` binary writes the report as JSON; re-reading it through
//! [`PerfReport`] is the schema check CI runs.

use cocktail_control::LinearFeedbackController;
use cocktail_core::experiment::Preset;
use cocktail_core::metrics::{evaluate_with_workers, EvalConfig};
use cocktail_core::pipeline::Cocktail;
use cocktail_core::SystemId;
use cocktail_distill::{DistillConfig, RobustDistillSession, TeacherDataset};
use cocktail_math::{parallel, Matrix};
use cocktail_nn::{Activation, BatchCache, MlpBuilder};
use cocktail_obs::{InMemorySink, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Schema version of [`PerfReport`]; bump on any shape change.
///
/// v2: scalar throughputs became [`Measurement`] (median + spread over
/// warm-started repeats) and the `telemetry` section was added.
/// v3: the `serve` section (admission time, serving latency/throughput)
/// was added.
/// v4: the `serve` section grew `cores`, loaded tail latencies
/// (p99/p999), and the 1-versus-4 shard aggregate throughputs with
/// `shard_speedup`; serving throughput moved to the zero-deadline
/// batching policy.
/// v5: the `forward` section grew the certified fast-tier arms (Padé
/// tanh and `f32` throughputs) with their speedups over the per-sample
/// exact path.
/// v6: the `verify` section (full safety-certification wall time with
/// partition size and verdict) was added.
/// v7: the fast-tier arms left the `forward` section with the fast
/// serving tiers themselves.
pub const SCHEMA_VERSION: u32 = 7;

/// One repeated timing: the median across repeats and the relative
/// spread `(max - min) / median`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Measurement {
    /// Median of the per-repeat values.
    pub median: f64,
    /// `(max - min) / median` across the repeats; 0 for a single repeat.
    pub spread: f64,
}

impl Measurement {
    /// Aggregates raw per-repeat values.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a non-finite value.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "measurement needs at least one repeat");
        assert!(
            samples.iter().all(|v| v.is_finite()),
            "measurement repeats must be finite"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        let spread = if median == 0.0 {
            0.0
        } else {
            (sorted[n - 1] - sorted[0]) / median
        };
        Self { median, spread }
    }
}

/// Back-to-back trials folded into one recorded repeat. On shared
/// hosts, scheduler preemption and steal time only ever make a trial
/// *slower*, so keeping the best of a few trials per repeat estimates
/// the machine's unloaded speed and keeps the spread gate (< 30%)
/// about the harness rather than about neighbor tenants.
const TRIALS_PER_REPEAT: usize = 3;

/// Long-running sections (the rollout loops take hundreds of
/// milliseconds per trial) integrate over more scheduler interference
/// per trial, so they need more chances at an unloaded run: the PR-5
/// baseline's `rollout.serial` spread hit 0.27 with best-of-3, a hair
/// under the 0.30 gate. Best-of-5 keeps those sections comfortably
/// inside it.
const SLOW_TRIALS_PER_REPEAT: usize = 5;

/// Runs `once` a single untimed warm-up pass, then `repeats` timed
/// repeats, each recording the best (highest) of `trials` back-to-back
/// trials. `once` must return a throughput — for time-valued samples use
/// [`measure_time_with`].
fn measure_with(repeats: usize, trials: usize, mut once: impl FnMut() -> f64) -> Measurement {
    let _warmup = once();
    let samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| (0..trials.max(1)).map(|_| once()).fold(f64::MIN, f64::max))
        .collect();
    Measurement::from_samples(&samples)
}

/// [`measure_with`] at the default [`TRIALS_PER_REPEAT`].
fn measure(repeats: usize, once: impl FnMut() -> f64) -> Measurement {
    measure_with(repeats, TRIALS_PER_REPEAT, once)
}

/// [`measure_with`] for time-valued samples (wall milliseconds,
/// latencies): the best of `trials` is the *minimum*.
fn measure_time_with(repeats: usize, trials: usize, mut once: impl FnMut() -> f64) -> Measurement {
    let _warmup = once();
    let samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| (0..trials.max(1)).map(|_| once()).fold(f64::MAX, f64::min))
        .collect();
    Measurement::from_samples(&samples)
}

/// [`measure_time_with`] at the default [`TRIALS_PER_REPEAT`].
fn measure_time(repeats: usize, once: impl FnMut() -> f64) -> Measurement {
    measure_time_with(repeats, TRIALS_PER_REPEAT, once)
}

/// Batched-versus-per-sample forward throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForwardBench {
    /// Network shape, e.g. `"2-24-24-1"`.
    pub shape: String,
    /// Rows per batched call.
    pub batch: usize,
    /// Per-sample `forward` throughput in samples/second.
    pub per_sample_samples_per_sec: Measurement,
    /// `forward_batch_cached` throughput in samples/second.
    pub batched_samples_per_sec: Measurement,
    /// Batched over per-sample median throughput.
    pub speedup: f64,
}

/// Batched-versus-per-sample training-step (forward + backward) throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainStepBench {
    /// Network shape, e.g. `"2-24-24-1"`.
    pub shape: String,
    /// Rows per batched step.
    pub batch: usize,
    /// Per-sample `forward_cached` + `backward` throughput in samples/second.
    pub per_sample_samples_per_sec: Measurement,
    /// `forward_batch_cached` + `backward_batch` throughput in samples/second.
    pub batched_samples_per_sec: Measurement,
    /// Batched over per-sample median throughput.
    pub speedup: f64,
}

/// Serial-versus-parallel Monte-Carlo rollout throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RolloutBench {
    /// Evaluated episodes per configuration.
    pub episodes: usize,
    /// Worker count of the parallel configuration.
    pub workers: usize,
    /// Single-worker throughput in episodes/second.
    pub serial_episodes_per_sec: Measurement,
    /// Full-worker throughput in episodes/second.
    pub parallel_episodes_per_sec: Measurement,
    /// Parallel over serial median throughput.
    pub speedup: f64,
}

/// Wall time of one full pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndToEndBench {
    /// Benchmark system.
    pub system: String,
    /// Pipeline preset.
    pub preset: String,
    /// Wall-clock milliseconds.
    pub wall_ms: Measurement,
}

/// Robust-distillation epoch throughput under the zero-cost
/// [`cocktail_obs::NullSink`] versus a recording sink.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryBench {
    /// Epochs per timed repeat.
    pub epochs: usize,
    /// Epoch throughput with the default `NullSink`.
    pub null_epochs_per_sec: Measurement,
    /// Epoch throughput with an `InMemorySink` recording every event.
    pub recording_epochs_per_sec: Measurement,
    /// Null-sink over recording-sink median throughput (≥ 1 means the
    /// disabled path is at least as fast, i.e. instrumentation is free
    /// when nobody listens).
    pub overhead_ratio: f64,
}

/// Serving-runtime measurements: how long admission takes, what one
/// request costs, what the micro-batcher sustains under concurrency, and
/// how aggregate throughput scales across engine shards.
///
/// Shard scaling is only expected to show on multi-core hosts — each
/// shard is one worker thread, so on a single hardware core the 4-shard
/// configuration measures context-switch overhead, not parallelism.
/// `cores` records what the benchmark machine offered so the artifact is
/// interpretable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBench {
    /// Requests per throughput repeat.
    pub requests: usize,
    /// Hardware threads available to the benchmark process.
    pub cores: usize,
    /// Wall time of one full admission (validation + fresh lint run +
    /// certificate recomputation + empirical sweep + safety-cert
    /// re-derivation at the bundle's own budget tier), in milliseconds.
    pub admission_ms: Measurement,
    /// p50 latency of sequential single requests through the engine
    /// (`max_batch` 1, zero deadline), in microseconds.
    pub single_p50_latency_us: Measurement,
    /// p99 per-request latency under 32 concurrent in-process
    /// connections, in microseconds.
    pub loaded_p99_latency_us: Measurement,
    /// p999 per-request latency under the same loaded drill.
    pub loaded_p999_latency_us: Measurement,
    /// Throughput with 1 blocking submitter, requests/second.
    pub batch1_requests_per_sec: Measurement,
    /// Throughput with 8 concurrent blocking submitters.
    pub batch8_requests_per_sec: Measurement,
    /// Throughput with 32 concurrent blocking submitters.
    pub batch32_requests_per_sec: Measurement,
    /// 32-submitter over 1-submitter median throughput.
    pub batch_speedup: f64,
    /// Aggregate throughput of 32 submitters over 1 engine shard.
    pub shard1_requests_per_sec: Measurement,
    /// Aggregate throughput of the same 32 submitters over 4 shards.
    pub shard4_requests_per_sec: Measurement,
    /// 4-shard over 1-shard median throughput.
    pub shard_speedup: f64,
}

/// Wall time of one full safety certification — Bernstein certificate
/// with partition refinement, closed-loop reachability, and the
/// control-invariant fixpoint — of a student controller on the Van der
/// Pol oscillator (the paper's Property-3 measurement). The certificate
/// is asserted bit-identical across repeats: certification is
/// deterministic, so the bench doubles as a re-derivation drill.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifyBench {
    /// Student shape, e.g. `"2-12-1"`.
    pub shape: String,
    /// Bernstein partition pieces of the resulting certificate — the
    /// paper's verification-cost driver.
    pub pieces: usize,
    /// Largest per-piece Bernstein approximation error of the result.
    pub epsilon: f64,
    /// Verdict label of the result (`"safe"` / `"not-proven"`).
    pub verdict: String,
    /// Wall-clock milliseconds of one full certification.
    pub certify_ms: Measurement,
}

/// The full machine-readable perf baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Must equal [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Forward-kernel measurement.
    pub forward: ForwardBench,
    /// Training-step measurement.
    pub train_step: TrainStepBench,
    /// Rollout-throughput measurement.
    pub rollout: RolloutBench,
    /// End-to-end pipeline measurement.
    pub end_to_end: EndToEndBench,
    /// Telemetry-sink overhead measurement.
    pub telemetry: TelemetryBench,
    /// Serving-runtime measurement.
    pub serve: ServeBench,
    /// Safety-certification measurement.
    pub verify: VerifyBench,
}

/// Knobs for a perf run; `fast` shrinks everything for CI smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Repetitions of the forward measurement loops (per timed repeat).
    pub forward_reps: usize,
    /// Episodes per rollout configuration.
    pub rollout_episodes: usize,
    /// Distillation epochs per telemetry repeat.
    pub distill_epochs: usize,
    /// Requests per serving-throughput repeat.
    pub serve_requests: usize,
    /// Timed repeats per section (after one untimed warm-up).
    pub repeats: usize,
}

impl PerfConfig {
    /// Full-fidelity settings for the committed baseline.
    pub fn full() -> Self {
        Self {
            forward_reps: 20_000,
            rollout_episodes: 400,
            distill_epochs: 30,
            serve_requests: 4_000,
            repeats: 5,
        }
    }

    /// Reduced settings for CI smoke runs (seconds, not minutes).
    pub fn fast() -> Self {
        Self {
            forward_reps: 2_000,
            rollout_episodes: 60,
            distill_epochs: 10,
            serve_requests: 800,
            repeats: 3,
        }
    }
}

/// Measures per-sample versus batched forward throughput at batch 64 on
/// the Table-1 student shape.
pub fn bench_forward(config: &PerfConfig) -> ForwardBench {
    let net = MlpBuilder::new(2)
        .hidden(24, Activation::Tanh)
        .hidden(24, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(2)
        .build();
    let batch = 64;
    let xs: Vec<Vec<f64>> = (0..batch)
        .map(|i| {
            (0..2)
                .map(|d| ((i * 7 + d * 13) % 23) as f64 / 11.5 - 1.0)
                .collect()
        })
        .collect();
    let x = Matrix::from_rows(xs.clone());
    let reps = config.forward_reps.max(1);
    let samples = (reps * batch) as f64;
    let mut sink = 0.0;

    let per_sample = measure(config.repeats, || {
        let t = Instant::now();
        for _ in 0..reps {
            for row in &xs {
                sink += net.forward(row)[0];
            }
        }
        samples / t.elapsed().as_secs_f64()
    });

    let mut cache = BatchCache::new();
    let batched = measure(config.repeats, || {
        let t = Instant::now();
        for _ in 0..reps {
            net.forward_batch_cached(&x, &mut cache);
            sink += cache.output().row(0)[0];
        }
        samples / t.elapsed().as_secs_f64()
    });

    assert!(sink.is_finite(), "benchmark outputs must stay finite");

    ForwardBench {
        shape: "2-24-24-1".to_string(),
        batch,
        speedup: batched.median / per_sample.median,
        per_sample_samples_per_sec: per_sample,
        batched_samples_per_sec: batched,
    }
}

/// Measures per-sample versus batched training-step throughput (forward
/// plus backward with gradient accumulation) at batch 64 on the Table-1
/// student shape.
pub fn bench_train_step(config: &PerfConfig) -> TrainStepBench {
    use cocktail_nn::{loss, GradStore};
    let net = MlpBuilder::new(2)
        .hidden(24, Activation::Tanh)
        .hidden(24, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(3)
        .build();
    let batch = 64;
    let xs: Vec<Vec<f64>> = (0..batch)
        .map(|i| {
            (0..2)
                .map(|d| ((i * 5 + d * 11) % 19) as f64 / 9.5 - 1.0)
                .collect()
        })
        .collect();
    let x = Matrix::from_rows(xs.clone());
    let reps = (config.forward_reps / 4).max(1);
    let samples = (reps * batch) as f64;
    let scale = 1.0 / batch as f64;
    let mut grads = GradStore::zeros_like(&net);

    let per_sample = measure(config.repeats, || {
        let t = Instant::now();
        for _ in 0..reps {
            grads.reset();
            for row in &xs {
                let cache = net.forward_cached(row);
                let g = loss::mse_gradient(cache.output(), &[0.5]);
                net.backward(&cache, &g, &mut grads, scale);
            }
        }
        samples / t.elapsed().as_secs_f64()
    });

    let mut cache = BatchCache::new();
    let batched = measure(config.repeats, || {
        let t = Instant::now();
        for _ in 0..reps {
            grads.reset();
            net.forward_batch_cached(&x, &mut cache);
            let mut g = Matrix::zeros(batch, 1);
            for r in 0..batch {
                g.row_mut(r)
                    .copy_from_slice(&loss::mse_gradient(cache.output().row(r), &[0.5]));
            }
            net.backward_batch(&cache, &g, &mut grads, scale);
        }
        samples / t.elapsed().as_secs_f64()
    });

    TrainStepBench {
        shape: "2-24-24-1".to_string(),
        batch,
        speedup: batched.median / per_sample.median,
        per_sample_samples_per_sec: per_sample,
        batched_samples_per_sec: batched,
    }
}

/// Measures Monte-Carlo rollout throughput with 1 worker versus the full
/// worker count on the Van der Pol oscillator.
pub fn bench_rollout(config: &PerfConfig) -> RolloutBench {
    let sys = cocktail_env::systems::VanDerPol::new();
    let controller = LinearFeedbackController::new(Matrix::from_rows(vec![vec![3.0, 4.0]]));
    let episodes = config.rollout_episodes.max(1);
    let eval_cfg = EvalConfig {
        samples: episodes,
        seed: 7,
        ..Default::default()
    };
    let workers = parallel::default_workers();

    let mut serial_eval = None;
    let serial = measure_with(config.repeats, SLOW_TRIALS_PER_REPEAT, || {
        let t = Instant::now();
        serial_eval = Some(evaluate_with_workers(&sys, &controller, &eval_cfg, 1));
        episodes as f64 / t.elapsed().as_secs_f64()
    });

    let mut par_eval = None;
    let par = measure_with(config.repeats, SLOW_TRIALS_PER_REPEAT, || {
        let t = Instant::now();
        par_eval = Some(evaluate_with_workers(&sys, &controller, &eval_cfg, workers));
        episodes as f64 / t.elapsed().as_secs_f64()
    });

    assert_eq!(
        serial_eval, par_eval,
        "parallel evaluation must be bit-identical"
    );
    RolloutBench {
        episodes,
        workers,
        speedup: par.median / serial.median,
        serial_episodes_per_sec: serial,
        parallel_episodes_per_sec: par,
    }
}

/// Times one smoke-preset pipeline run on the oscillator, per repeat.
pub fn bench_end_to_end(config: &PerfConfig) -> EndToEndBench {
    let sys = SystemId::Oscillator;
    let experts = cocktail_core::experts::cloned_experts(sys, 0);
    let wall_ms = measure_time(config.repeats, || {
        let t = Instant::now();
        let result = Cocktail::new(sys, experts.clone())
            .with_config(Preset::Smoke.config())
            .run();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(result.kappa_star.lipschitz_constant().is_finite());
        ms
    });
    EndToEndBench {
        system: "oscillator".to_string(),
        preset: "smoke".to_string(),
        wall_ms,
    }
}

/// Measures robust-distillation epoch throughput with the default
/// `NullSink` against an `InMemorySink` recording every event. The
/// trained students are asserted bit-identical: telemetry observes, it
/// never perturbs.
pub fn bench_telemetry(config: &PerfConfig) -> TelemetryBench {
    let sys = SystemId::Oscillator.dynamics();
    let teacher = LinearFeedbackController::new(Matrix::from_rows(vec![vec![3.0, 4.0]]));
    let data = TeacherDataset::sample_uniform(&teacher, &sys.verification_domain(), 512, 9);
    let distill = DistillConfig {
        epochs: config.distill_epochs.max(1),
        hidden: 16,
        ..Default::default()
    };
    let epochs = distill.epochs;

    let run_with = |tel: Option<Arc<dyn Telemetry>>| -> (f64, Vec<u8>) {
        let mut session = RobustDistillSession::new(&data, &distill);
        if let Some(tel) = tel {
            session.set_telemetry(tel);
        }
        let t = Instant::now();
        while !session.is_complete() {
            session.step_epoch(&data);
        }
        let rate = epochs as f64 / t.elapsed().as_secs_f64();
        let fingerprint = serde_json::to_string(&session.finish().network())
            .expect("network serializes")
            .into_bytes();
        (rate, fingerprint)
    };

    let mut null_print = None;
    let null = measure(config.repeats, || {
        let (rate, print) = run_with(None);
        null_print = Some(print);
        rate
    });
    let mut rec_print = None;
    let recording = measure(config.repeats, || {
        let (rate, print) = run_with(Some(Arc::new(InMemorySink::new())));
        rec_print = Some(print);
        rate
    });
    assert_eq!(
        null_print, rec_print,
        "telemetry must not perturb the trained student"
    );

    TelemetryBench {
        epochs,
        overhead_ratio: null.median / recording.median,
        null_epochs_per_sec: null,
        recording_epochs_per_sec: recording,
    }
}

/// Measures the serving runtime: admission wall time, single-request p50
/// latency, loaded tail latency (p99/p999) under 32 in-process
/// connections, sustained throughput with 1, 8 and 32 blocking
/// submitters feeding the micro-batcher, and the aggregate throughput of
/// 32 submitters over 1 versus 4 engine shards.
///
/// # Panics
///
/// Panics if the benchmark student fails packaging or admission, or if
/// any served request errors or mismatches the per-sample reference —
/// the bench doubles as a smoke test.
#[allow(
    clippy::too_many_lines,
    reason = "one measurement block per ServeBench field; splitting would scatter the shared engine setup"
)]
pub fn bench_serve(config: &PerfConfig) -> ServeBench {
    use cocktail_obs::NullSink;
    use cocktail_serve::bundle::{fnv1a_64, ControllerBundle, Provenance};
    use cocktail_serve::loadgen::LoadGenConfig;
    use cocktail_serve::{admit, loadgen, Engine, EngineConfig};
    use std::time::Duration;

    let net = MlpBuilder::new(2)
        .hidden(24, Activation::Tanh)
        .hidden(24, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(4)
        .build();
    // the bundle ships the coarse `fast_params` safety certificate:
    // admission re-derives whatever tier the bundle carries, and since
    // v3 that re-derivation dominates admission wall time — the
    // *certification* cost at a fixed tier is bench_verify's
    // measurement, while admission_ms tracks the gate overhead around
    // it (export-quality budgets would also make the debug-mode bench
    // tests take minutes per admission)
    let safety_params = cocktail_verify::fast_params(SystemId::Oscillator.dynamics().as_ref());
    let bundle = ControllerBundle::package_with(
        SystemId::Oscillator,
        net,
        vec![20.0],
        Provenance {
            seed: 4,
            config_hash: fnv1a_64(b"bench-serve"),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
        },
        Some(&safety_params),
        &NullSink,
    )
    .expect("benchmark student packages");
    let requests = config.serve_requests.max(32);
    let states = loadgen::generate_states(&bundle, requests, 0xBE7C);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let admission_ms = measure_time(config.repeats, || {
        let t = Instant::now();
        admit(bundle.clone()).expect("benchmark bundle admits");
        t.elapsed().as_secs_f64() * 1e3
    });
    let admitted = admit(bundle.clone()).expect("benchmark bundle admits");

    // single-request p50: no batching, sequential submits
    let single = Engine::start_with(
        &admitted,
        EngineConfig {
            max_batch: 1,
            batch_deadline: Duration::ZERO,
            ..EngineConfig::default()
        },
        None,
        Arc::new(NullSink),
    )
    .expect("engine starts");
    let handle = single.handle();
    let single_p50_latency_us = measure_time(config.repeats, || {
        let mut latencies: Vec<f64> = states
            .iter()
            .map(|s| {
                let t = Instant::now();
                handle.submit(s).expect("request serves");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        latencies[latencies.len() / 2]
    });
    drop(single);

    // sustained throughput: zero-deadline serve-what-is-queued batching,
    // submitters shard-pinned the way TCP connections are
    let throughput_with = |submitters: usize, shards: usize| -> Measurement {
        let engine = Engine::start_with(
            &admitted,
            EngineConfig {
                max_batch: submitters.max(1),
                batch_deadline: Duration::ZERO,
                queue_capacity: 4 * submitters.max(1),
                shards,
                ..EngineConfig::default()
            },
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts");
        let handle = engine.handle();
        measure(config.repeats, || {
            let t = Instant::now();
            std::thread::scope(|scope| {
                for w in 0..submitters {
                    let pinned = handle.pinned(w as u64);
                    let states = &states;
                    scope.spawn(move || {
                        for s in states.iter().skip(w).step_by(submitters) {
                            pinned.submit(s).expect("request serves");
                        }
                    });
                }
            });
            #[allow(
                clippy::cast_precision_loss,
                reason = "request counts are far below 2^52"
            )]
            {
                states.len() as f64 / t.elapsed().as_secs_f64()
            }
        })
    };
    let batch1 = throughput_with(1, 1);
    let batch8 = throughput_with(8, 1);
    let batch32 = throughput_with(32, 1);
    // the 1-shard arm of the shard comparison IS the 32-submitter run:
    // same submitters, same engine config, shards is the only variable
    let shard1 = batch32;
    let shard4 = throughput_with(32, 4);

    // loaded tails: the loadgen drill doubles as a correctness oracle, so
    // a mismatch or fallback here fails the bench outright
    let loaded = Engine::start_with(
        &admitted,
        EngineConfig {
            queue_capacity: 4 * 32,
            ..EngineConfig::default()
        },
        None,
        Arc::new(NullSink),
    )
    .expect("engine starts");
    let loaded_handle = loaded.handle();
    let drill_cfg = LoadGenConfig {
        requests,
        connections: 32,
        seed: 0xBE7C,
        ..LoadGenConfig::default()
    };
    let drill = || {
        let report = loadgen::run_in_process(&bundle, &loaded_handle, &drill_cfg)
            .expect("mlp bundle drills");
        assert!(report.is_clean(), "loaded drill must be clean: {report:?}");
        (report.p99_latency_us, report.p999_latency_us)
    };
    let _warmup = drill();
    let mut p99s = Vec::with_capacity(config.repeats.max(1));
    let mut p999s = Vec::with_capacity(config.repeats.max(1));
    for _ in 0..config.repeats.max(1) {
        let (mut best99, mut best999) = (f64::MAX, f64::MAX);
        for _ in 0..TRIALS_PER_REPEAT {
            let (p99, p999) = drill();
            best99 = best99.min(p99);
            best999 = best999.min(p999);
        }
        p99s.push(best99);
        p999s.push(best999);
    }
    drop(loaded);

    ServeBench {
        requests,
        cores,
        admission_ms,
        single_p50_latency_us,
        loaded_p99_latency_us: Measurement::from_samples(&p99s),
        loaded_p999_latency_us: Measurement::from_samples(&p999s),
        batch_speedup: batch32.median / batch1.median,
        shard_speedup: shard4.median / shard1.median,
        batch1_requests_per_sec: batch1,
        batch8_requests_per_sec: batch8,
        batch32_requests_per_sec: batch32,
        shard1_requests_per_sec: shard1,
        shard4_requests_per_sec: shard4,
    }
}

/// Measures the wall time of one full safety certification on a small
/// student over the Van der Pol oscillator, using the coarse `fast_params`
/// verification budgets (the default budgets answer a different question —
/// export quality — and would dominate the whole perf run). Every repeat
/// must produce the identical certificate.
///
/// # Panics
///
/// Panics if certification fails its budget or produces a different
/// certificate across repeats.
pub fn bench_verify(config: &PerfConfig) -> VerifyBench {
    use cocktail_obs::NullSink;
    use cocktail_verify::{certify_controller, fast_params, SafetyCert};

    let sys = SystemId::Oscillator.dynamics();
    let net = MlpBuilder::new(2)
        .hidden(12, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(4)
        .build();
    let scale = vec![20.0];
    let params = fast_params(sys.as_ref());
    let workers = parallel::default_workers();
    let mut last: Option<SafetyCert> = None;
    let certify_ms = measure_time(config.repeats, || {
        let t = Instant::now();
        let cert = certify_controller(sys.as_ref(), &net, &scale, &params, workers, &NullSink)
            .expect("bench budgets certify");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(prev) = &last {
            assert!(
                prev.matches(&cert, 0.0),
                "certification must be deterministic across repeats"
            );
        }
        last = Some(cert);
        ms
    });
    let cert = last.expect("at least one certification ran");
    VerifyBench {
        shape: "2-12-1".to_string(),
        pieces: cert.pieces,
        epsilon: cert.epsilon,
        verdict: cert.verdict.label().to_string(),
        certify_ms,
    }
}

/// Runs all measurements.
pub fn run(config: &PerfConfig) -> PerfReport {
    PerfReport {
        schema_version: SCHEMA_VERSION,
        forward: bench_forward(config),
        train_step: bench_train_step(config),
        rollout: bench_rollout(config),
        end_to_end: bench_end_to_end(config),
        telemetry: bench_telemetry(config),
        serve: bench_serve(config),
        verify: bench_verify(config),
    }
}

/// The named measurements of a report, for validation and spread checks.
fn measurements(report: &PerfReport) -> Vec<(&'static str, Measurement)> {
    vec![
        (
            "forward.per_sample",
            report.forward.per_sample_samples_per_sec,
        ),
        ("forward.batched", report.forward.batched_samples_per_sec),
        (
            "train_step.per_sample",
            report.train_step.per_sample_samples_per_sec,
        ),
        (
            "train_step.batched",
            report.train_step.batched_samples_per_sec,
        ),
        ("rollout.serial", report.rollout.serial_episodes_per_sec),
        ("rollout.parallel", report.rollout.parallel_episodes_per_sec),
        ("end_to_end.wall_ms", report.end_to_end.wall_ms),
        ("telemetry.null", report.telemetry.null_epochs_per_sec),
        (
            "telemetry.recording",
            report.telemetry.recording_epochs_per_sec,
        ),
        ("serve.admission_ms", report.serve.admission_ms),
        ("serve.single_p50", report.serve.single_p50_latency_us),
        ("serve.loaded_p99", report.serve.loaded_p99_latency_us),
        ("serve.loaded_p999", report.serve.loaded_p999_latency_us),
        ("serve.batch1", report.serve.batch1_requests_per_sec),
        ("serve.batch8", report.serve.batch8_requests_per_sec),
        ("serve.batch32", report.serve.batch32_requests_per_sec),
        ("serve.shard1", report.serve.shard1_requests_per_sec),
        ("serve.shard4", report.serve.shard4_requests_per_sec),
        ("verify.certify_ms", report.verify.certify_ms),
    ]
}

/// Measurements [`check_spread`] does not gate: tail percentiles are
/// extreme order statistics of a deliberately loaded drill, so their
/// run-to-run spread reflects scheduler jitter by construction, not
/// harness instability. They stay in the artifact (and in [`validate`])
/// for trend-watching; gating them would make every CI run a coin flip.
const SPREAD_EXEMPT: &[&str] = &["serve.loaded_p99", "serve.loaded_p999"];

/// Structural validity of a (re-)parsed report: right schema version,
/// finite positive medians, finite non-negative spreads, positive ratios.
pub fn validate(report: &PerfReport) -> Result<(), String> {
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    for (name, m) in measurements(report) {
        if !(m.median.is_finite() && m.median > 0.0) {
            return Err(format!(
                "{name}.median must be finite and positive, got {}",
                m.median
            ));
        }
        if !(m.spread.is_finite() && m.spread >= 0.0) {
            return Err(format!(
                "{name}.spread must be finite and non-negative, got {}",
                m.spread
            ));
        }
    }
    for (name, v) in [
        ("forward.speedup", report.forward.speedup),
        ("train_step.speedup", report.train_step.speedup),
        ("rollout.speedup", report.rollout.speedup),
        ("telemetry.overhead_ratio", report.telemetry.overhead_ratio),
        ("serve.batch_speedup", report.serve.batch_speedup),
        ("serve.shard_speedup", report.serve.shard_speedup),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("{name} must be finite and positive, got {v}"));
        }
    }
    if report.forward.batch == 0
        || report.rollout.episodes == 0
        || report.telemetry.epochs == 0
        || report.serve.requests == 0
        || report.serve.cores == 0
        || report.verify.pieces == 0
    {
        return Err(
            "batch, episode, epoch, request, core and piece counts must be positive".to_string(),
        );
    }
    if !(report.verify.epsilon.is_finite() && report.verify.epsilon >= 0.0) {
        return Err(format!(
            "verify.epsilon must be finite and non-negative, got {}",
            report.verify.epsilon
        ));
    }
    Ok(())
}

/// The timing-stability gate: every measurement's spread must stay below
/// `max_spread` (CI uses 0.30), except the [`SPREAD_EXEMPT`] tail
/// percentiles. Kept separate from [`validate`] so tiny in-test configs
/// can check structure without flaking on timer noise.
pub fn check_spread(report: &PerfReport, max_spread: f64) -> Result<(), String> {
    let noisy: Vec<String> = measurements(report)
        .into_iter()
        .filter(|(name, m)| !SPREAD_EXEMPT.contains(name) && m.spread >= max_spread)
        .map(|(name, m)| format!("{name} spread {:.3}", m.spread))
        .collect();
    if noisy.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "measurement spread exceeds {max_spread}: {}",
            noisy.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            forward_reps: 20,
            rollout_episodes: 8,
            distill_epochs: 4,
            serve_requests: 32,
            repeats: 3,
        }
    }

    #[test]
    fn fast_perf_run_produces_a_valid_report() {
        let report = run(&tiny_config());
        validate(&report).expect("fresh report validates");
        assert_eq!(report.forward.batch, 64);
    }

    #[test]
    fn committed_baseline_parses_validates_and_is_stable() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
        let json = std::fs::read_to_string(path).expect("committed BENCH_pr10.json exists");
        let report: PerfReport = serde_json::from_str(&json).expect("baseline deserializes");
        validate(&report).expect("baseline validates");
        // the committed baseline must come from a quiet machine: CI's
        // spread gate applies to it verbatim
        check_spread(&report, 0.30).expect("baseline timings are stable");
    }

    #[test]
    fn validate_rejects_wrong_schema_version() {
        let mut report = run(&tiny_config());
        report.schema_version = 99;
        assert!(validate(&report).is_err());
    }

    #[test]
    fn median_and_spread_aggregate_repeats() {
        let m = Measurement::from_samples(&[10.0, 12.0, 11.0]);
        assert!((m.median - 11.0).abs() < 1e-12);
        assert!((m.spread - 2.0 / 11.0).abs() < 1e-12);
        let even = Measurement::from_samples(&[1.0, 3.0]);
        assert!((even.median - 2.0).abs() < 1e-12);
        let single = Measurement::from_samples(&[5.0]);
        assert_eq!(single.spread, 0.0);
    }

    #[test]
    fn spread_gate_flags_noisy_measurements() {
        let mut report = run(&tiny_config());
        report.rollout.serial_episodes_per_sec.spread = 0.9;
        let err = check_spread(&report, 0.30).expect_err("noisy spread rejected");
        assert!(err.contains("rollout.serial"), "{err}");
    }

    #[test]
    fn spread_gate_exempts_loaded_tail_percentiles() {
        let mut report = run(&tiny_config());
        // force every gated measurement quiet, then make only the tails
        // noisy: the gate must still pass
        report.rollout.serial_episodes_per_sec.spread = 0.0;
        report.serve.loaded_p99_latency_us.spread = 5.0;
        report.serve.loaded_p999_latency_us.spread = 5.0;
        if let Err(err) = check_spread(&report, 0.30) {
            assert!(
                !err.contains("loaded_p99"),
                "tails must not be gated: {err}"
            );
        }
        let mut quiet = report.clone();
        for m in [
            &mut quiet.forward.per_sample_samples_per_sec,
            &mut quiet.forward.batched_samples_per_sec,
            &mut quiet.train_step.per_sample_samples_per_sec,
            &mut quiet.train_step.batched_samples_per_sec,
            &mut quiet.rollout.serial_episodes_per_sec,
            &mut quiet.rollout.parallel_episodes_per_sec,
            &mut quiet.end_to_end.wall_ms,
            &mut quiet.telemetry.null_epochs_per_sec,
            &mut quiet.telemetry.recording_epochs_per_sec,
            &mut quiet.serve.admission_ms,
            &mut quiet.serve.single_p50_latency_us,
            &mut quiet.serve.batch1_requests_per_sec,
            &mut quiet.serve.batch8_requests_per_sec,
            &mut quiet.serve.batch32_requests_per_sec,
            &mut quiet.serve.shard1_requests_per_sec,
            &mut quiet.serve.shard4_requests_per_sec,
            &mut quiet.verify.certify_ms,
        ] {
            m.spread = 0.0;
        }
        check_spread(&quiet, 0.30).expect("only-exempt-noisy report passes the gate");
    }

    #[test]
    fn null_sink_keeps_distillation_fast_and_unperturbed() {
        // the bit-identity assertion lives inside bench_telemetry; here we
        // additionally pin the zero-cost claim: a disabled sink must not be
        // meaningfully slower than a recording one (it skips all event
        // construction, so anything below ~parity means the enabled() gate
        // broke)
        let bench = bench_telemetry(&PerfConfig {
            distill_epochs: 6,
            repeats: 3,
            ..tiny_config()
        });
        assert!(
            bench.overhead_ratio > 0.7,
            "NullSink path slower than recording path: ratio {}",
            bench.overhead_ratio
        );
    }
}
