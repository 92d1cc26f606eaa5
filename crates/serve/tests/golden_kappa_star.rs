//! Golden certificate: the committed fixture is the seed-0 Fast-preset
//! `κ*` exported by `oscillator_pipeline --export-bundle`, certificate and
//! all. Admission re-derives the certificate from the shipped weights, so
//! any change to the certifier that alters a single field of the result
//! (piece count, refinement, reach, the invariant bitmap digest, ε, L)
//! fails here at tolerance zero.
//!
//! Regenerate only when a certificate change is intended:
//!
//! ```sh
//! COCKTAIL_FAST=1 cargo run --release --example oscillator_pipeline -- \
//!     --export-bundle crates/serve/tests/fixtures/kappa_star_seed0_fast.bundle.json
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code; panics are failures"
)]

use cocktail_serve::admit;
use cocktail_serve::bundle::ControllerBundle;
use cocktail_verify::SafetyVerdict;
use std::path::Path;

fn fixture() -> ControllerBundle {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/kappa_star_seed0_fast.bundle.json");
    ControllerBundle::load(&path).expect("fixture loads")
}

#[test]
fn golden_kappa_star_certificate_rederives_exactly() {
    let bundle = fixture();
    let shipped = bundle.safety.clone().expect("fixture ships a certificate");
    assert_eq!(shipped.pieces, 2923);
    assert_eq!(shipped.invariant_cells, 1024);
    assert_eq!(shipped.invariant_alive, 0);
    assert_eq!(shipped.verdict, SafetyVerdict::NotProven);

    let admitted = admit(bundle).expect("the golden κ* is admitted");
    let rederived = admitted
        .safety
        .expect("admission re-derives the certificate");
    assert_eq!(shipped.diff(&rederived, 0.0), None);
    assert_eq!(rederived.pieces, 2923);
    assert_eq!(
        (rederived.invariant_alive, rederived.invariant_cells),
        (0, 1024)
    );
}
