//! One way to run a mix: a [`RunSpec`] says where the run starts and
//! how it is driven, and [`run`] executes it.
//!
//! Every run has the paper's shape (§4.1): build the machine, warm the
//! caches, then simulate in detail. Each simulation is single-threaded
//! and deterministic; [`run_sweep`](crate::sweep::run_sweep) fans
//! independent runs out over the host cores.

use crate::metrics::RunResult;
use crate::recovery::{
    read_snapshot, restore_run, run_with_recovery, scheme_from_name, RecoveryPolicy, RecoveryReport,
};
use crate::system::{Engine, RunState, System};
use camps_obs::ObsConfig;
use camps_prefetch::SchemeKind;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::error::SimError;
use camps_types::snapshot::SnapshotManifest;
use camps_workloads::Mix;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// How long to warm up and measure, mirroring the paper's methodology
/// (§4.1: fast-forward, warm caches, then detailed simulation) at
/// laptop-tractable scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunLength {
    /// Functional cache-warmup instructions per core.
    pub warmup_instructions: u64,
    /// Detailed instructions per core.
    pub instructions: u64,
    /// Hard cycle cap (hang guard; generous relative to expected IPC).
    pub max_cycles: Cycle,
}

impl RunLength {
    /// Smoke-test scale: fractions of a second per run. Used by the
    /// sweep kill/resume tests and the CI `sweep-smoke` job, where many
    /// full matrices run back to back.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            warmup_instructions: 2_000,
            instructions: 2_000,
            max_cycles: 500_000,
        }
    }

    /// Unit/integration-test scale: seconds per run.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup_instructions: 60_000,
            instructions: 60_000,
            max_cycles: 3_000_000,
        }
    }

    /// Experiment scale used for the EXPERIMENTS.md numbers.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            warmup_instructions: 500_000,
            instructions: 500_000,
            max_cycles: 40_000_000,
        }
    }

    /// Long runs for low-variance final numbers.
    #[must_use]
    pub fn thorough() -> Self {
        Self {
            warmup_instructions: 1_000_000,
            instructions: 2_000_000,
            max_cycles: 200_000_000,
        }
    }
}

/// Where a run starts.
#[derive(Debug, Clone)]
pub enum Start {
    /// Build `mix` under `scheme` from `seed`, warm up, then simulate
    /// for `len`.
    Fresh {
        /// The Table II mix the cores run.
        mix: Mix,
        /// The prefetching scheme every vault runs.
        scheme: SchemeKind,
        /// Warmup and detailed-run lengths.
        len: RunLength,
        /// Workload seed.
        seed: u64,
    },
    /// Continue the checkpointed run in this snapshot file. The machine
    /// is rebuilt from the config plus the manifest's mix, scheme and
    /// seed, and the checkpointed state is overlaid; warmup is skipped,
    /// since the snapshot holds the warmed machine. The config must
    /// match the snapshot's config hash.
    Resume(PathBuf),
}

/// One run: where it starts and how it is driven.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// A fresh mix or a checkpoint to resume.
    pub start: Start,
    /// Stepping strategy; both engines give bit-identical results.
    pub engine: Engine,
    /// Observability to install. `None` installs no handle;
    /// `Some(ObsConfig::default())` installs one that collects only the
    /// stage-latency breakdown.
    pub obs: Option<ObsConfig>,
    /// Checkpointing and rollback-and-retry. The default takes no
    /// checkpoints and lets the first error propagate.
    pub recovery: RecoveryPolicy,
}

impl RunSpec {
    /// A fresh run of `mix` under `scheme`: default engine, no
    /// observability, no recovery.
    #[must_use]
    pub fn fresh(mix: &Mix, scheme: SchemeKind, len: RunLength, seed: u64) -> Self {
        Self::starting(Start::Fresh {
            mix: *mix,
            scheme,
            len,
            seed,
        })
    }

    /// Resumes the checkpoint at `path`: default engine, no
    /// observability, no recovery.
    #[must_use]
    pub fn resume(path: impl Into<PathBuf>) -> Self {
        Self::starting(Start::Resume(path.into()))
    }

    fn starting(start: Start) -> Self {
        Self {
            start,
            engine: Engine::default(),
            obs: None,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Runs `spec` on a machine built from `cfg` and returns its metrics
/// plus what the recovery driver did.
///
/// Observability exports are written even when the run fails (a trace
/// of a wedged run is the whole point of tracing), but an export failure
/// never masks a run error.
///
/// # Errors
/// Configuration, setup, integrity and watchdog errors from [`System`]
/// (an invalid address mapping surfaces as [`SimError::Config`]);
/// [`SimError::Snapshot`] for an unreadable, corrupt or mismatched
/// snapshot and for checkpoint I/O; [`SimError::Io`] when an export path
/// cannot be written (including when the crate was built without the
/// `obs` feature). With recovery on, the original error propagates once
/// the budget is spent.
pub fn run(cfg: &SystemConfig, spec: &RunSpec) -> Result<(RunResult, RecoveryReport), SimError> {
    let snapshot;
    let (mix, scheme, seed, origin) = match &spec.start {
        Start::Fresh {
            mix,
            scheme,
            len,
            seed,
        } => (*mix, *scheme, *seed, Origin::Warmup(len)),
        Start::Resume(path) => {
            snapshot = read_snapshot(path)?;
            let (manifest, state) = &snapshot;
            let mix = Mix::by_id(&manifest.mix_id).ok_or_else(|| SimError::Snapshot {
                reason: format!("snapshot names unknown mix `{}`", manifest.mix_id),
            })?;
            let scheme = scheme_from_name(&manifest.scheme)?;
            (
                *mix,
                scheme,
                manifest.seed,
                Origin::Snapshot(manifest, state),
            )
        }
    };
    let obs = spec.obs.as_ref();
    let (mut sys, state) = prepare(cfg, &mix, scheme, seed, spec.engine, obs, origin)?;
    let outcome = run_with_recovery(&mut sys, state, mix.id, seed, &spec.recovery);
    let exported = obs.map_or(Ok(()), |obs| export_obs(&sys, obs));
    let pair = outcome?;
    exported?;
    Ok(pair)
}

/// Where [`prepare`] takes the machine's starting state from.
pub(crate) enum Origin<'a> {
    /// Warm the caches, then run for this length.
    Warmup(&'a RunLength),
    /// Overlay this verified snapshot.
    Snapshot(&'a SnapshotManifest, &'a Value),
}

/// Builds a run's machine — the mix's traces, [`System::new`], the
/// engine and observability — then restores it from the snapshot or
/// warms it up. Returns the machine with its run bookkeeping, ready for
/// the step loop.
pub(crate) fn prepare(
    cfg: &SystemConfig,
    mix: &Mix,
    scheme: SchemeKind,
    seed: u64,
    engine: Engine,
    obs: Option<&ObsConfig>,
    origin: Origin<'_>,
) -> Result<(System, RunState), SimError> {
    let capacity = cfg.cube_map()?.capacity_bytes();
    let mut sys = System::new(cfg, scheme, mix.build_traces(capacity, seed)?)?;
    sys.set_engine(engine);
    if let Some(obs) = obs {
        sys.enable_obs(obs);
    }
    let run = match origin {
        Origin::Warmup(len) => {
            sys.warmup(len.warmup_instructions);
            sys.run_begin(len.instructions, len.max_cycles)
        }
        Origin::Snapshot(manifest, state) => {
            // Placeholder bookkeeping; restore_run overwrites every field.
            let mut run = sys.run_begin(0, 0);
            restore_run(&mut sys, &mut run, manifest, state)?;
            run
        }
    };
    Ok((sys, run))
}

/// Writes the installed tracer's outputs (trace JSON, metrics series,
/// folded profile) to the paths `obs_cfg` names.
fn export_obs(sys: &System, obs_cfg: &ObsConfig) -> Result<(), SimError> {
    let io_err = |path: &Path, e: std::io::Error| SimError::Io {
        path: path.display().to_string(),
        source: e,
    };
    if let Some(path) = &obs_cfg.trace_out {
        sys.obs().export_trace(path).map_err(|e| io_err(path, e))?;
    }
    if let Some(path) = &obs_cfg.metrics_out {
        sys.obs()
            .export_metrics(path)
            .map_err(|e| io_err(path, e))?;
    }
    if let Some(path) = &obs_cfg.profile_out {
        // Folded-stack lines (`path;to;leaf <excl_ns>`), directly
        // consumable by `flamegraph.pl` / speedscope / inferno.
        let folded = sys
            .profiler()
            .summary()
            .map(|p| p.render_folded())
            .unwrap_or_default();
        std::fs::write(path, folded).map_err(|e| io_err(path, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_workloads::ALL_MIXES;

    /// A tiny end-to-end smoke test: run one HM mix under NOPF and
    /// CAMPS-MOD at miniature scale and check the prefetching run serves
    /// demand from the buffer.
    #[test]
    fn camps_mod_serves_from_buffer_on_hm_mix() {
        let cfg = SystemConfig::paper_default();
        let len = RunLength {
            warmup_instructions: 8_000,
            instructions: 8_000,
            max_cycles: 2_000_000,
        };
        let mix = &ALL_MIXES[0]; // HM1
        let (camps, _) = run(&cfg, &RunSpec::fresh(mix, SchemeKind::CampsMod, len, 7)).unwrap();
        assert!(
            camps.vaults.prefetches.get() > 0,
            "CAMPS-MOD must prefetch on HM1"
        );
        assert!(
            camps.vaults.buffer_hits.get() > 0,
            "prefetches must be consumed"
        );
        assert_eq!(camps.mix_id, "HM1");
        assert_eq!(camps.ipc.len(), 8);
    }

    #[test]
    fn resumed_run_matches_the_uninterrupted_run() {
        let cfg = SystemConfig::paper_default();
        let len = RunLength {
            warmup_instructions: 2_000,
            instructions: 8_000,
            max_cycles: 2_000_000,
        };
        let mix = &ALL_MIXES[0];
        let dir = std::env::temp_dir().join("camps-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt.json");
        let policy = RecoveryPolicy {
            max_recoveries: 0,
            checkpoint_every: Some(10_000),
            checkpoint_path: Some(path.clone()),
        };
        let spec = RunSpec {
            recovery: policy,
            ..RunSpec::fresh(mix, SchemeKind::Camps, len, 3)
        };
        let (full, report) = run(&cfg, &spec).unwrap();
        assert!(
            report.checkpoints_taken > 0,
            "run must leave a checkpoint behind"
        );
        // Rebuild from the last on-disk checkpoint and continue: final
        // stats must be bit-identical to the uninterrupted run.
        let (resumed, _) = run(&cfg, &RunSpec::resume(&path)).unwrap();
        assert_eq!(full.ipc, resumed.ipc);
        assert_eq!(full.cycles, resumed.cycles);
        assert_eq!(full.vaults, resumed.vaults);
        assert_eq!(full.amat_mem, resumed.amat_mem);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_drifted_config() {
        let cfg = SystemConfig::paper_default();
        let len = RunLength {
            warmup_instructions: 1_000,
            instructions: 2_000,
            max_cycles: 1_000_000,
        };
        let dir = std::env::temp_dir().join("camps-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drift.ckpt.json");
        let policy = RecoveryPolicy {
            max_recoveries: 0,
            checkpoint_every: Some(5_000),
            checkpoint_path: Some(path.clone()),
        };
        let spec = RunSpec {
            recovery: policy,
            ..RunSpec::fresh(&ALL_MIXES[0], SchemeKind::Nopf, len, 1)
        };
        run(&cfg, &spec).unwrap();
        let mut drifted = cfg.clone();
        drifted.prefetch.entries *= 2;
        let err = run(&drifted, &RunSpec::resume(&path)).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("configuration")),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
