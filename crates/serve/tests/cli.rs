//! Command-line contract of the `cocktail-serve` binary: every command
//! names the flags it reads and refuses any other with exit code 2, so a
//! stale or misspelt flag is never silently ignored.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code; panics are failures"
)]

use std::process::{Command, Output};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/kappa_star_seed0_fast.bundle.json"
);

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cocktail-serve"))
        .args(args)
        .output()
        .expect("the binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_stale_tier_flag_is_refused_not_ignored() {
    let out = run(&["check", "--bundle", FIXTURE, "--tier", "f32"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown flag --tier for check"),
        "{}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "nothing ran before the refusal");
}

#[test]
fn flags_of_other_commands_are_refused() {
    // --addr is a serve/loadgen flag and a bare switch is refused the same way
    for (args, flag) in [
        (
            &["check", "--bundle", FIXTURE, "--addr", "127.0.0.1:0"][..],
            "addr",
        ),
        (&["verify", "--bundle", FIXTURE, "--dry-run"][..], "dry-run"),
        (
            &["loadgen", "--bundle", FIXTURE, "--shards", "2"][..],
            "shards",
        ),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let expected = format!("unknown flag --{flag} for {}", args[0]);
        assert!(
            stderr(&out).contains(&expected),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn accepted_flags_pass_the_gate() {
    // known flags reach the command, which then fails on the missing file
    // with the ordinary error exit, not the usage exit
    let out = run(&[
        "verify",
        "--bundle",
        "/nonexistent/student.bundle.json",
        "--allow-uncertified",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(!stderr(&out).contains("unknown flag"), "{}", stderr(&out));
}
