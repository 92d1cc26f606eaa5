//! The paper's whole arc on the oscillator, through the public API only:
//! cloned experts → `Cocktail::try_run` (PPO mixing, dataset, `κ_D` and `κ*`
//! distillation) → `ControllerBundle::package_with` (lint, Lipschitz claim,
//! fast-tier cert, safety cert at `default_params`) → `save` → `load` →
//! cold `admit_with`.

use crate::probe::AggSink;
use cocktail_control::{Controller, NnController};
use cocktail_core::experiment::pipeline_config;
use cocktail_core::experts::cloned_experts;
use cocktail_core::{evaluate, Cocktail, EvalConfig, Preset, SystemId};
use cocktail_distill::AttackModel;
use cocktail_obs::{NullSink, Telemetry};
use cocktail_serve::bundle::{fnv1a_64, ControllerBundle, Provenance};
use cocktail_serve::{admit_with, AdmissionConfig, Admitted};
use cocktail_verify::SafetyCert;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The plant every workload runs on.
pub const SYSTEM: SystemId = SystemId::Oscillator;

/// The arc's preset: the one `oscillator_pipeline` exports by default
/// under `COCKTAIL_FAST=1`.
pub const PRESET: Preset = Preset::Fast;

/// Seed of the experts and of the arc's training config: the κ*
/// `oscillator_pipeline` exports. Training seeds change how much work
/// certification does (2.5x in certification time and 0-83% invariant cells
/// alive across seeds 1-6), so the workload seed selects the states κ* is
/// evaluated and served on instead, and every run trains the same κ*.
pub const TRAIN_SEED: u64 = 0;

/// FGSM amplitude as a fraction of the state bound, as in the repository's
/// Table II regenerator.
pub const ATTACK_FRACTION: f64 = 0.12;

/// Evaluation sample count of the robustness and energy figures (the
/// Fast preset's).
pub const EVAL_SAMPLES: usize = 250;

/// Sinks for a traced arc, one per phase so spans of the same name (the
/// certification inside packaging and its re-derivation at admission) stay
/// apart.
#[derive(Default)]
pub struct ArcSinks {
    pub train: Arc<AggSink>,
    pub package: AggSink,
    pub admit: AggSink,
}

/// What one pass of the arc produced and how long each phase took.
pub struct ArcRun {
    pub train_s: f64,
    pub package_s: f64,
    /// `save` plus `load`.
    pub bundle_io_s: f64,
    pub admit_s: f64,
    pub student: Arc<NnController>,
    /// The reloaded bundle as admission accepted it.
    pub admitted: Admitted,
    /// The certificate admission re-derived.
    pub cert: SafetyCert,
    /// The bundle's JSON with `safety.verify_ms` zeroed: equal across runs
    /// of one seed.
    pub canonical: String,
    /// κ*'s weights as JSON (round-trip exact floats).
    pub weights: String,
}

impl ArcRun {
    /// Experts → admitted, certified bundle on disk.
    pub fn pipeline_s(&self) -> f64 {
        self.train_s + self.package_s + self.bundle_io_s + self.admit_s
    }

    /// Wall-clocks of κ*'s two certifications, as each certificate records
    /// it: the one `package_with` ships and the one admission re-derives.
    pub fn certify_samples(&self) -> [f64; 2] {
        let shipped = self
            .admitted
            .bundle
            .safety
            .as_ref()
            .map_or(f64::NAN, |c| c.verify_ms);
        [shipped / 1e3, self.cert.verify_ms / 1e3]
    }

    /// One stderr line with the phase times, for reading a run by eye.
    pub fn log(&self) {
        let [shipped, rederived] = self.certify_samples();
        eprintln!(
            "arc: train {:.3}s package {:.3}s io {:.4}s admit {:.3}s \
             (certify {shipped:.3}s at export, {rederived:.3}s at admission)",
            self.train_s, self.package_s, self.bundle_io_s, self.admit_s
        );
    }

    /// FNV-1a of [`Self::canonical`].
    pub fn bundle_hash(&self) -> u64 {
        fnv1a_64(self.canonical.as_bytes())
    }

    /// Layer widths of κ*, input first, e.g. `2-24-24-1`.
    pub fn shape(&self) -> String {
        let net = self.student.network();
        let mut dims = vec![net.input_dim().to_string()];
        dims.extend(net.layers().iter().map(|l| l.output_dim().to_string()));
        dims.join("-")
    }
}

/// Minibatch rows of robust distillation at [`PRESET`].
pub fn distill_batch_size() -> usize {
    pipeline_config(SYSTEM, PRESET, TRAIN_SEED)
        .distill
        .batch_size
}

/// The experts the arc mixes: the deterministic behaviour-cloned pair.
pub fn experts() -> Vec<Arc<dyn Controller>> {
    cloned_experts(SYSTEM, TRAIN_SEED)
}

fn canonical_json(bundle: &ControllerBundle) -> Result<String, String> {
    let mut b = bundle.clone();
    if let Some(cert) = b.safety.as_mut() {
        cert.verify_ms = 0.0;
    }
    serde_json::to_string(&b).map_err(|e| format!("bundle serializes: {e}"))
}

/// Runs the arc once at [`TRAIN_SEED`], writing the bundle to `path`.
/// Every failure — training, export gate, I/O, a refused or mismatching
/// admission — is an error.
pub fn run_arc(
    experts: &[Arc<dyn Controller>],
    path: &Path,
    sinks: Option<&ArcSinks>,
) -> Result<ArcRun, String> {
    let null = NullSink;
    let (train_tel, package_tel, admit_tel): (Arc<dyn Telemetry>, &dyn Telemetry, &dyn Telemetry) =
        match sinks {
            Some(s) => (s.train.clone(), &s.package, &s.admit),
            None => (Arc::new(NullSink), &null, &null),
        };
    let config = pipeline_config(SYSTEM, PRESET, TRAIN_SEED);

    let t = Instant::now();
    let result = Cocktail::new(SYSTEM, experts.to_vec())
        .with_config(config.clone())
        .with_telemetry(train_tel)
        .try_run()
        .map_err(|e| format!("pipeline: {e}"))?;
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let provenance = Provenance {
        seed: TRAIN_SEED,
        config_hash: fnv1a_64(format!("{config:?}").as_bytes()),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
    };
    let packaged = ControllerBundle::package_with(
        SYSTEM,
        result.kappa_star.network().clone(),
        result.kappa_star.scale().to_vec(),
        provenance,
        None,
        package_tel,
    )
    .map_err(|e| format!("package: {e}"))?;
    let package_s = t.elapsed().as_secs_f64();
    let shipped = packaged
        .safety
        .clone()
        .ok_or("package: κ* shipped without a safety certificate")?;

    let t = Instant::now();
    packaged.save(path).map_err(|e| format!("save: {e}"))?;
    let reloaded = ControllerBundle::load(path).map_err(|e| format!("load: {e}"))?;
    let bundle_io_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let admitted = admit_with(reloaded.clone(), &AdmissionConfig::default(), admit_tel)
        .map_err(|e| format!("admission refused the fresh bundle: {e}"))?;
    let admit_s = t.elapsed().as_secs_f64();
    let cert = admitted
        .safety
        .clone()
        .ok_or("admission: no re-derived certificate")?;
    if let Some(field) = shipped.diff(&cert, 0.0) {
        return Err(format!("admission re-derived a different cert: {field}"));
    }

    let canonical = canonical_json(&reloaded)?;
    if canonical != canonical_json(&packaged)? {
        return Err("bundle changed across save/load".into());
    }
    let weights = serde_json::to_string(result.kappa_star.network())
        .map_err(|e| format!("weights serialize: {e}"))?;
    Ok(ArcRun {
        train_s,
        package_s,
        bundle_io_s,
        admit_s,
        student: result.kappa_star,
        admitted,
        cert,
        canonical,
        weights,
    })
}

/// κ*'s safe control rate (percent) and mean control energy under the
/// Table-II FGSM attack, from initial states and attack noise drawn with
/// `seed`.
pub fn robustness(student: &NnController, seed: u64) -> (f64, f64) {
    let sys = SYSTEM.dynamics();
    let eval = evaluate(
        sys.as_ref(),
        student,
        &EvalConfig {
            samples: EVAL_SAMPLES,
            seed,
            attack: AttackModel::scaled_to(&sys.verification_domain(), ATTACK_FRACTION, true),
            ..Default::default()
        },
    );
    (eval.safe_rate_percent(), eval.mean_energy)
}
