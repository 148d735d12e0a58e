//! `camps run` has one run path: plain, checkpointed, recoverable and
//! traced runs all build the same machine on the engine `--engine`
//! names, and `camps sweep`, which has no engine choice, refuses the
//! flag instead of ignoring it.

use camps::metrics::RunResult;
use std::path::PathBuf;
use std::process::{Command, Output};

const CAMPS: &str = env!("CARGO_BIN_EXE_camps");

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camps-cli-run-paths-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn camps(args: &[&str]) -> Output {
    Command::new(CAMPS).args(args).output().unwrap()
}

/// Runs `camps run HM1 campsmod --scale tiny --json` plus `extra` and
/// returns its single result.
fn run_json(extra: &[&str]) -> RunResult {
    let mut args = vec!["run", "HM1", "campsmod", "--scale", "tiny", "--json"];
    args.extend_from_slice(extra);
    let out = camps(&args);
    assert!(
        out.status.success(),
        "camps {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut results: Vec<RunResult> =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("JSON results");
    assert_eq!(results.len(), 1);
    results.pop().unwrap()
}

/// The serialized result without the blocks only an observed run
/// carries.
fn simulated(mut r: RunResult) -> String {
    r.stage_latency = None;
    r.profile = None;
    serde_json::to_string(&r).unwrap()
}

#[test]
fn every_run_path_gives_the_same_result_under_both_engines() {
    let dir = scratch();
    let ckpt = dir.join("paths.ckpt.json");
    let trace = dir.join("paths.trace.json");
    let ckpt = ckpt.to_str().unwrap();
    let trace = trace.to_str().unwrap();
    let reference = simulated(run_json(&[]));
    for engine in ["polling", "event"] {
        for extra in [
            &[][..],
            &["--checkpoint-every", "2000", "--checkpoint-path", ckpt][..],
            &["--max-recoveries", "1"][..],
            &["--trace-out", trace][..],
        ] {
            let mut args = vec!["--engine", engine];
            args.extend_from_slice(extra);
            assert_eq!(
                simulated(run_json(&args)),
                reference,
                "`camps run {args:?}` diverged from the plain run"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recoverable_run_honours_the_polling_engine() {
    let r = run_json(&["--engine", "polling", "--max-recoveries", "1", "--profile"]);
    let profile = r.profile.expect("--profile reports a profile");
    assert!(!profile.vault_ticks.is_empty(), "no vault tick counts");
    for (cube, ticks) in profile.vault_ticks.iter().enumerate() {
        assert_eq!(
            ticks.skipped, 0,
            "cube {cube}: the polling engine ticks every vault every cycle"
        );
    }
}

#[test]
fn sweep_refuses_the_engine_flag() {
    let out = camps(&[
        "sweep",
        "--mixes",
        "HM1",
        "--schemes",
        "nopf",
        "--scale",
        "tiny",
        "--engine",
        "polling",
    ]);
    assert!(
        !out.status.success(),
        "`camps sweep --engine` must fail, not be ignored"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--engine"), "stderr: {stderr}");
}
