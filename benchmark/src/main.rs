//! End-to-end benchmark of the Cocktail workspace: the trained-κ* pipeline
//! arc, and the `cocktail-serve serve` binary answering a socket client in
//! lockstep or with a pipelined window. See `README.md` beside this crate
//! for the workloads, the metrics and the layer each one belongs to.
//!
//! ```text
//! cocktail-e2e-bench --workload <pipeline|serve-pipelined>
//!     --seed <n> --seconds <n> --trace <0|1> --server-bin <path>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A `context` line
//! before it records what the numbers were measured on.

mod accounting;
mod arc;
mod layers;
mod probe;
mod serving;

use accounting::{failure_share, median, Ledger, Probe, Sessions};
use arc::{ArcRun, ArcSinks};
use cocktail_serve::engine::{Engine, EngineConfig};
use cocktail_serve::loadgen::{expected_control, generate_states};
use cocktail_serve::ControllerBundle;
use probe::{child_cpu_s, cpu_per_wall, AggSink};
use serving::{closed_loop, first_ok, EngineLink, LoopRun, PinnedThread, ServerProc, SocketLink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed claims are tuned on, and the held-out seed they must also hold on.
pub const TUNING_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 2;

/// Distinct request states a serving run cycles through.
const PROBES: usize = 4096;
/// Requests in flight on the pipelined connection.
const PIPELINED_WINDOW: usize = 64;
/// Unmeasured closed-loop traffic before each measured window.
const WARMUP: Duration = Duration::from_millis(300);
/// Serving sessions of a traced run's untraced baseline.
const TRACED_SESSIONS: u32 = 4;
/// Serving time of each half of a traced run's overhead comparison.
const SHORT_SERVE: Duration = Duration::from_secs(2);
/// Time per single-layer probe in a traced run.
const LAYER_BUDGET: Duration = Duration::from_millis(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Pipeline,
    ServePipelined,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pipeline" => Ok(Self::Pipeline),
            "serve-pipelined" => Ok(Self::ServePipelined),
            other => Err(format!(
                "unknown workload `{other}` (pipeline, serve-pipelined)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Pipeline => "pipeline",
            Self::ServePipelined => "serve-pipelined",
        }
    }

    /// Requests kept in flight on the serving connection: one plant in
    /// lockstep, or a gateway's pipelined window.
    fn window(self) -> usize {
        match self {
            Self::Pipeline => 1,
            Self::ServePipelined => PIPELINED_WINDOW,
        }
    }

    /// Measured serving time of the session that follows each arc: the
    /// `pipeline` workload spends about a fifth of its run serving, the
    /// serving workload about a third.
    fn session(self) -> Duration {
        match self {
            Self::Pipeline => Duration::from_secs(1),
            Self::ServePipelined => Duration::from_secs(2),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        raw.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seconds = number("--seconds", get("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Workload::parse(&get("--workload")?)?,
        seed: number("--seed", get("--seed")?)?,
        seconds,
        trace,
        server_bin: PathBuf::from(get("--server-bin")?),
    })
}

/// A work directory under the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Everything one run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Arcs run, each also counted in `attempted`.
    arcs: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(key, JSON value)` pairs of the context line.
    context: Vec<(&'static str, String)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.context.push((key, value.to_string()));
    }

    fn note_str(&mut self, key: &'static str, value: &str) {
        let quoted = serde_json::to_string(value).unwrap_or_else(|_| "\"?\"".into());
        self.context.push((key, quoted));
    }

    /// Counts one more arc; it fails unless it reproduced `reference`
    /// bit-for-bit (κ* weights, and the bundle up to `safety.verify_ms`).
    fn arc_repeat(&mut self, reference: &ArcRun, again: &ArcRun) {
        again.log();
        self.arcs += 1;
        self.attempted += 1;
        if again.weights != reference.weights || again.canonical != reference.canonical {
            eprintln!("correctness: a second arc at the same seed gave a different κ* or bundle");
            self.failed += 1;
        }
    }

    fn requests(&mut self, ledger: &Ledger) {
        self.attempted += ledger.attempted();
        self.failed += ledger.failures().total();
        if ledger.failures().total() > 0 {
            eprintln!("correctness: serving failures {:?}", ledger.failures());
        }
    }

    fn print(&self) -> Result<(), String> {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("context {{{}}}", fields.join(", "));
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(())
    }
}

fn probes_of(bundle: &ControllerBundle, seed: u64) -> Result<Vec<Probe>, String> {
    generate_states(bundle, PROBES, seed)
        .into_iter()
        .map(|state| {
            let expected = expected_control(bundle, &state).map_err(|e| e.to_string())?;
            Ok(Probe { state, expected })
        })
        .collect()
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// Warms the connection up, then keeps the workload's window in flight
/// for `duration`. Warm-up requests count towards correctness too.
fn serve_window(
    report: &mut Report,
    link: &mut dyn serving::Link,
    probes: &[Probe],
    window: usize,
    duration: Duration,
) -> Result<LoopRun, String> {
    report.requests(&closed_loop(link, probes, window, WARMUP)?.ledger);
    let run = closed_loop(link, probes, window, duration)?;
    report.requests(&run.ledger);
    Ok(run)
}

/// Starts a server and times spawn → first OK, bit-exact reply.
fn start_server(
    args: &Args,
    bundle: &Path,
    telemetry: Option<&Path>,
    probe: &Probe,
) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(&args.server_bin, bundle, telemetry)?;
    first_ok(server.addr, probe)?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Everything the socket sessions of a run measured.
#[derive(Default)]
struct Served {
    /// The CPU every session runs on ([`serving::serving_cpu`]).
    cpu: usize,
    sessions: Sessions,
    spawn_s: Vec<f64>,
    transport: String,
    attempted: u64,
    failed: u64,
    server_cpu_s: f64,
    server_wall_s: f64,
}

impl Served {
    /// Starts a server with its shipped defaults, confines it and this
    /// thread to the serving CPU once it has answered, keeps the workload's
    /// window of requests in flight on one connection for `duration`, and
    /// stops it.
    fn session(
        &mut self,
        report: &mut Report,
        args: &Args,
        bundle: &Path,
        probes: &[Probe],
        duration: Duration,
    ) -> Result<(), String> {
        let (server, secs) = start_server(args, bundle, None, &probes[0])?;
        self.spawn_s.push(secs);
        self.transport.clone_from(&server.transport);
        server.pin(self.cpu)?;
        let _pinned = PinnedThread::to(self.cpu)?;
        let mut link = SocketLink::connect(server.addr)?;
        let (cpu0, t) = (child_cpu_s(server.pid()), Instant::now());
        let run = serve_window(report, &mut link, probes, args.workload.window(), duration)?;
        if let (Some(a), Some(b)) = (cpu0, child_cpu_s(server.pid())) {
            self.server_cpu_s += b - a;
            self.server_wall_s += t.elapsed().as_secs_f64();
        }
        self.attempted += run.ledger.attempted();
        self.failed += run.ledger.failures().total();
        eprintln!(
            "session: start {secs:.3}s rps {:.0} p50 {:.1}us p90 {:.1}us",
            run.window.rps(),
            run.window.latency_us(50.0),
            run.window.latency_us(90.0)
        );
        self.sessions.0.push(run.window);
        Ok(())
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::create(args)?;
    let bundle_path = work.0.join("kappa_star.bundle.json");
    let window = args.workload.window();
    let start = Instant::now();
    let mut r = Report::default();
    r.note_str("workload", args.workload.name());
    r.note("seed", args.seed);
    r.note("train_seed", arc::TRAIN_SEED);
    r.note("tuning_seed", TUNING_SEED);
    r.note("held_out_seed", HELD_OUT_SEED);
    r.note("trace", u8::from(args.trace));
    r.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );

    // ---- the arc: experts → admitted, certified bundle on disk
    let t = Instant::now();
    let experts = arc::experts();
    let mut expert_s = vec![t.elapsed().as_secs_f64()];
    let first = arc::run_arc(&experts, &bundle_path, None)?;
    first.log();
    r.arcs += 1;
    r.attempted += 1;
    let probes = probes_of(&first.admitted.bundle, args.seed)?;
    let mut served = Served {
        cpu: serving::serving_cpu()?,
        ..Served::default()
    };
    let mut pipeline_s = vec![first.pipeline_s()];
    let mut certify_s = first.certify_samples().to_vec();
    let sinks = ArcSinks::default();
    let mut traced_arc = None;
    if args.trace {
        let traced = arc::run_arc(&experts, &bundle_path, Some(&sinks))?;
        r.arc_repeat(&first, &traced);
        let untraced = arc::run_arc(&experts, &bundle_path, None)?;
        r.arc_repeat(&first, &untraced);
        pipeline_s = vec![untraced.pipeline_s()];
        traced_arc = Some(traced);
        for _ in 0..TRACED_SESSIONS {
            served.session(
                &mut r,
                args,
                &bundle_path,
                &probes,
                SHORT_SERVE / TRACED_SESSIONS,
            )?;
        }
    } else {
        // the run is a sequence of cycles, each a fresh expert
        // construction, an arc and a serving session on a fresh server, so
        // every figure samples the whole run and a slow spell of the host
        // spoils a few samples of each, not one figure
        let budget = Duration::from_secs(args.seconds);
        served.session(&mut r, args, &bundle_path, &probes, args.workload.session())?;
        while start.elapsed() < budget {
            let t = Instant::now();
            let experts = arc::experts();
            expert_s.push(t.elapsed().as_secs_f64());
            let again = arc::run_arc(&experts, &bundle_path, None)?;
            r.arc_repeat(&first, &again);
            pipeline_s.push(again.pipeline_s());
            certify_s.extend_from_slice(&again.certify_samples());
            served.session(&mut r, args, &bundle_path, &probes, args.workload.session())?;
        }
    }
    r.note("arcs", r.arcs);
    r.note_str("kappa_star_shape", &first.shape());
    r.note_str("bundle_hash", &format!("{:016x}", first.bundle_hash()));
    r.note_str("cert_verdict", first.cert.verdict.label());
    r.note("cert_pieces", first.cert.pieces);
    r.note_str(
        "cert_invariant_alive",
        &format!(
            "{}/{}",
            first.cert.invariant_alive, first.cert.invariant_cells
        ),
    );
    let (safe_rate, energy) = arc::robustness(&first.student, args.seed);
    r.note_str("transport", &served.transport);
    r.note("sessions", served.sessions.0.len());

    if !args.trace {
        let alive = first.cert.invariant_alive as f64 / first.cert.invariant_cells.max(1) as f64;
        let setup_s = match args.workload {
            Workload::Pipeline => &expert_s,
            Workload::ServePipelined => &served.spawn_s,
        };
        r.metric("setup_s", med(setup_s), "s");
        r.metric("pipeline_s", med(&pipeline_s), "s");
        r.metric("certify_s", med(&certify_s), "s");
        r.metric("safe_rate_pct", safe_rate, "%");
        r.metric("energy", energy, "energy");
        r.metric("invariant_dead_pct", 100.0 * (1.0 - alive), "%");
        r.metric("rps", served.sessions.rps(), "1/s");
        r.metric("p50_us", served.sessions.latency_us(50.0), "us");
        r.metric("p90_us", served.sessions.latency_us(90.0), "us");
        return Ok(r);
    }

    // ---- traced run: the same serving phase against a traced server
    let traced = traced_arc.ok_or("traced arc missing")?;
    let tel_path = work.0.join("serve.telemetry.jsonl");
    let (traced_server, _) = start_server(args, &bundle_path, Some(&tel_path), &probes[0])?;
    traced_server.pin(served.cpu)?;
    let pinned = PinnedThread::to(served.cpu)?;
    let mut link = SocketLink::connect(traced_server.addr)?;
    let served_traced = serve_window(&mut r, &mut link, &probes, window, SHORT_SERVE)?;
    drop(link);
    drop(traced_server);
    let batches = serving::batch_stats(&tel_path)?;
    let _ = std::fs::remove_file(&tel_path);

    // the in-process engine on the reactor's reply path, same window and
    // CPU (its shard worker inherits the pinned thread's confinement)
    let engine = Engine::start(&first.admitted, EngineConfig::default())
        .map_err(|e| format!("engine: {e}"))?;
    let mut link = EngineLink::new(engine.handle().pinned(0));
    let in_process = serve_window(&mut r, &mut link, &probes, window, SHORT_SERVE)?;
    drop(link);
    engine.shutdown();
    drop(pinned);
    let engine_p50 = in_process.window.latency_us(50.0);

    let net = first.student.network();
    let mean_batch = batches.rows_mean.round().max(1.0) as usize;

    traced_layer_metrics(&mut r, &traced, &sinks);
    let served_failed = served.failed + served_traced.ledger.failures().total();
    let served_attempted = served.attempted + served_traced.ledger.attempted();
    r.metric("serve.engine_p50_us", engine_p50, "us");
    r.metric(
        "nn.forward_us_per_row_b1",
        layers::forward_us_per_row(net, &probes, 1, LAYER_BUDGET),
        "us",
    );
    r.metric(
        "nn.forward_us_per_row_bmean",
        layers::forward_us_per_row(net, &probes, mean_batch, LAYER_BUDGET),
        "us",
    );
    r.metric(
        "serve.wire_ns_per_frame",
        layers::wire_ns_per_frame(&probes, LAYER_BUDGET),
        "ns",
    );
    r.metric(
        "serve.transport_residual_us",
        served_traced.window.latency_us(50.0) - engine_p50,
        "us",
    );
    r.metric("serve.batch_rows_mean", batches.rows_mean, "rows");
    r.metric("serve.queue_depth_p50", batches.queue_depth_p50, "requests");
    r.metric(
        "serve.failed_share",
        failure_share(served_failed, served_attempted),
        "share",
    );
    r.metric(
        "serve.cpu_per_wall",
        served.server_cpu_s / served.server_wall_s,
        "cores",
    );
    r.metric(
        "trace.overhead_p50_us",
        served_traced.window.latency_us(50.0) - served.sessions.latency_us(50.0),
        "us",
    );
    r.metric(
        "trace.overhead_rps",
        served_traced.window.rps() - served.sessions.rps(),
        "1/s",
    );
    r.metric(
        "trace.overhead_pipeline_s",
        traced.pipeline_s() - med(&pipeline_s),
        "s",
    );
    Ok(r)
}

/// Per-layer figures of the traced arc: the benchmark's own timings of
/// each phase, plus the spans and counters the shipped crates emitted into
/// the phase's sink.
fn traced_layer_metrics(r: &mut Report, traced: &ArcRun, sinks: &ArcSinks) {
    let train: &AggSink = &sinks.train;
    let ppo = train.span("pipeline/ppo-mixing");
    let dataset = train.span("pipeline/dataset");
    let direct = train.span("pipeline/direct-distill");
    let robust = train.span("pipeline/robust-distill");
    let pkg = &sinks.package;
    let bernstein = pkg.span("verify/bernstein");
    let reach = pkg.span("verify/reach");
    let invariant = pkg.span("verify/invariant");
    let batch_size = arc::distill_batch_size();
    let rows_seen = train.counter_total("distill.minibatch_updates") as f64 * batch_size as f64;
    let cert = &traced.cert;

    r.metric("core.train_s", traced.train_s, "s");
    r.metric("rl.ppo_s", ppo.wall_s, "s");
    r.metric(
        "rl.env_steps_per_s",
        train.counter_total("ppo.samples") as f64 / ppo.wall_s,
        "1/s",
    );
    r.metric("rl.cpu_per_wall", cpu_per_wall(&[ppo]), "cores");
    r.metric("distill.dataset_s", dataset.wall_s, "s");
    r.metric("distill.direct_s", direct.wall_s, "s");
    r.metric("distill.robust_s", robust.wall_s, "s");
    r.metric(
        "distill.cpu_per_wall",
        cpu_per_wall(&[dataset, direct, robust]),
        "cores",
    );
    r.metric(
        "distill.fgsm_share",
        train.counter_total("distill.fgsm_applied") as f64 / rows_seen,
        "share",
    );
    r.metric("verify.bernstein_s", bernstein.wall_s, "s");
    r.metric("verify.reach_s", reach.wall_s, "s");
    r.metric("verify.invariant_s", invariant.wall_s, "s");
    r.metric("verify.pieces", cert.pieces as f64, "count");
    r.metric(
        "verify.cells_refined",
        pkg.counter_total("verify.cells_refined") as f64,
        "count",
    );
    r.metric(
        "verify.invariant_alive_pct",
        100.0 * cert.invariant_alive as f64 / cert.invariant_cells.max(1) as f64,
        "%",
    );
    r.metric(
        "verify.cpu_per_wall",
        cpu_per_wall(&[bernstein, reach, invariant]),
        "cores",
    );
    r.metric("serve.package_s", traced.package_s, "s");
    r.metric("serve.bundle_io_s", traced.bundle_io_s, "s");
    r.metric("serve.admit_s", traced.admit_s, "s");
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| run(&args)?.print());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cocktail-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
