//! Checkpointing and rollback-and-retry recovery around the run loop.
//!
//! The driver wraps [`System::run_step`] with periodic in-memory (and
//! optionally on-disk) checkpoints. When the run fails with a
//! *recoverable* error — a watchdog trip or an integrity violation, the
//! errors fault injection produces — it rolls the machine back to the
//! most recent good checkpoint, quarantines the fault plan, and retries,
//! up to a bounded number of attempts. Every rollback is recorded in a
//! structured [`RecoveryReport`].
//!
//! Escalation: each checkpoint is consumed by at most one rollback. If a
//! retry fails again before a fresh checkpoint was taken, the next
//! rollback falls all the way back to the run's starting state — state
//! corruption already baked into a checkpoint (e.g. a request dropped
//! *before* the snapshot was taken) cannot wedge the driver in a loop.
//!
//! On-disk format (DESIGN.md §8): a single JSON document
//! `{"manifest": {...}, "checksum": N, "state": {...}}` where `checksum`
//! is FNV-1a over the compact JSON serialization of the `state` subtree
//! and the manifest pins format version, config hash, scheme, mix, seed,
//! and cycle. The loader verifies all of these before touching any state.

use crate::metrics::RunResult;
use crate::system::{RunState, System};
use camps_obs::Comp;
use camps_prefetch::SchemeKind;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::error::SimError;
use camps_types::snapshot::{field, fnv1a, Snapshot, SnapshotManifest};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

pub use camps_types::snapshot::{SnapshotManifest as Manifest, SNAPSHOT_FORMAT_VERSION};

/// Recovery knobs for [`run_with_recovery`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryPolicy {
    /// Maximum rollback-and-retry attempts before the original error
    /// propagates. 0 disables recovery entirely.
    pub max_recoveries: u32,
    /// Checkpoint interval in cycles. `None` falls back to the config's
    /// [`checkpoint_every`](camps_types::IntegrityConfig::checkpoint_every);
    /// if both are `None`, only the run-start state is checkpointed.
    pub checkpoint_every: Option<Cycle>,
    /// When set, every checkpoint is also written here (atomically
    /// replaced), so an interrupted process can be resumed with
    /// [`read_snapshot`].
    pub checkpoint_path: Option<PathBuf>,
}

/// One rollback performed by the driver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// 1-based retry number.
    pub attempt: u32,
    /// Cycle at which the run failed.
    pub failed_at: Cycle,
    /// Cycle of the checkpoint the machine was rolled back to.
    pub resumed_from: Cycle,
    /// Rendered form of the error that triggered the rollback.
    pub error: String,
}

/// What the recovery driver did during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Rollbacks performed, in order.
    pub events: Vec<RecoveryEvent>,
    /// Checkpoints taken (excluding the implicit run-start state).
    pub checkpoints_taken: u64,
}

impl RecoveryReport {
    /// True when the run needed at least one rollback to complete.
    #[must_use]
    pub fn recovered(&self) -> bool {
        !self.events.is_empty()
    }

    /// Human-readable multi-line summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "recovery report: {} checkpoint(s), {} rollback(s)\n",
            self.checkpoints_taken,
            self.events.len()
        );
        for e in &self.events {
            out.push_str(&format!(
                "  attempt {}: failed at cycle {} ({}), resumed from cycle {}\n",
                e.attempt, e.failed_at, e.error, e.resumed_from
            ));
        }
        out
    }
}

/// FNV-1a hash of the compact-JSON form of `cfg` — the manifest's
/// configuration fingerprint.
///
/// # Errors
/// [`SimError::Snapshot`] if the config fails to serialize.
pub fn config_hash(cfg: &SystemConfig) -> Result<u64, SimError> {
    let text = serde_json::to_string(cfg).map_err(|e| SimError::Snapshot {
        reason: format!("config serialization failed: {e}"),
    })?;
    Ok(fnv1a(text.as_bytes()))
}

fn scheme_name(scheme: SchemeKind) -> String {
    match scheme.to_value() {
        Value::Str(s) => s,
        other => format!("{other:?}"), // unreachable for a unit enum
    }
}

/// Parses the manifest's scheme name (the serde identifier, e.g.
/// `"CampsMod"`) back into a [`SchemeKind`].
///
/// # Errors
/// [`SimError::Snapshot`] for an unknown name.
pub fn scheme_from_name(name: &str) -> Result<SchemeKind, SimError> {
    SchemeKind::from_value(&Value::Str(name.to_string())).map_err(|_| SimError::Snapshot {
        reason: format!("manifest names unknown scheme `{name}`"),
    })
}

/// Builds the identification block for a snapshot of `sys` at its
/// current cycle.
///
/// # Errors
/// Propagates [`config_hash`] failures.
pub fn build_manifest(sys: &System, mix_id: &str, seed: u64) -> Result<SnapshotManifest, SimError> {
    Ok(SnapshotManifest {
        format: SNAPSHOT_FORMAT_VERSION,
        config_hash: config_hash(sys.config())?,
        scheme: scheme_name(sys.scheme()),
        mix_id: mix_id.to_string(),
        seed,
        cycle: sys.now(),
        build: env!("CARGO_PKG_VERSION").to_string(),
    })
}

fn state_checksum(state: &Value) -> Result<u64, SimError> {
    let text = serde_json::to_string(state).map_err(|e| SimError::Snapshot {
        reason: format!("state serialization failed: {e}"),
    })?;
    Ok(fnv1a(text.as_bytes()))
}

/// Encodes a manifest + state pair as the on-disk JSON document.
///
/// # Errors
/// [`SimError::Snapshot`] on serialization failure.
pub fn encode_snapshot(manifest: &SnapshotManifest, state: &Value) -> Result<String, SimError> {
    let doc = Value::Map(vec![
        ("manifest".into(), manifest.to_value()),
        ("checksum".into(), Value::U64(state_checksum(state)?)),
        ("state".into(), state.clone()),
    ]);
    serde_json::to_string_pretty(&doc).map_err(|e| SimError::Snapshot {
        reason: format!("snapshot serialization failed: {e}"),
    })
}

/// Decodes (and fully verifies) an on-disk snapshot document: format
/// version and state checksum are checked before anything is returned.
///
/// # Errors
/// [`SimError::Snapshot`] on malformed JSON, a format-version mismatch,
/// or a checksum mismatch.
pub fn decode_snapshot(text: &str) -> Result<(SnapshotManifest, Value), SimError> {
    let doc: Value = serde_json::from_str(text).map_err(|e| SimError::Snapshot {
        reason: format!("snapshot is not valid JSON: {e}"),
    })?;
    let manifest = SnapshotManifest::from_value(field(&doc, "manifest")?)?;
    if manifest.format != SNAPSHOT_FORMAT_VERSION {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot format v{} is not readable by this build (v{SNAPSHOT_FORMAT_VERSION})",
                manifest.format
            ),
        });
    }
    let declared: u64 = u64::from_value(field(&doc, "checksum")?)?;
    let state = field(&doc, "state")?.clone();
    let actual = state_checksum(&state)?;
    if declared != actual {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot checksum mismatch: declared {declared:#018x}, computed {actual:#018x} \
                 (truncated or corrupted file)"
            ),
        });
    }
    Ok((manifest, state))
}

/// Captures `sys` + `run` into a snapshot document string.
///
/// # Errors
/// Propagates manifest/serialization failures.
pub fn snapshot_to_string(
    sys: &System,
    run: &RunState,
    mix_id: &str,
    seed: u64,
) -> Result<String, SimError> {
    let manifest = build_manifest(sys, mix_id, seed)?;
    let state = Value::Map(vec![
        ("system".into(), sys.save_state()),
        ("run".into(), run.save_state()),
    ]);
    encode_snapshot(&manifest, &state)
}

/// Writes a verified snapshot of `sys` + `run` to `path` (write to a
/// temporary sibling, then rename, so a crash never leaves a torn file).
///
/// # Errors
/// [`SimError::Snapshot`] on serialization or I/O failure.
pub fn write_snapshot(
    path: &Path,
    sys: &System,
    run: &RunState,
    mix_id: &str,
    seed: u64,
) -> Result<(), SimError> {
    let text = snapshot_to_string(sys, run, mix_id, seed)?;
    let tmp = path.with_extension("tmp");
    let io_err = |e: std::io::Error| SimError::Snapshot {
        reason: format!("writing {}: {e}", path.display()),
    };
    std::fs::write(&tmp, text).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)?;
    Ok(())
}

/// Reads and verifies a snapshot document from `path`.
///
/// # Errors
/// [`SimError::Snapshot`] on I/O failure or any verification failure.
pub fn read_snapshot(path: &Path) -> Result<(SnapshotManifest, Value), SimError> {
    let text = std::fs::read_to_string(path).map_err(|e| SimError::Snapshot {
        reason: format!("reading {}: {e}", path.display()),
    })?;
    decode_snapshot(&text)
}

/// Overlays a decoded snapshot onto a freshly built `sys` + `run` pair,
/// after verifying the manifest matches the machine (config hash and
/// scheme). The caller is responsible for rebuilding `sys` from the same
/// config/traces the manifest describes.
///
/// # Errors
/// [`SimError::Snapshot`] on a manifest mismatch or a state-shape
/// mismatch.
pub fn restore_run(
    sys: &mut System,
    run: &mut RunState,
    manifest: &SnapshotManifest,
    state: &Value,
) -> Result<(), SimError> {
    let expect_hash = config_hash(sys.config())?;
    if manifest.config_hash != expect_hash {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot was taken under a different configuration \
                 (hash {:#018x}, this machine {expect_hash:#018x})",
                manifest.config_hash
            ),
        });
    }
    let scheme = scheme_from_name(&manifest.scheme)?;
    if scheme != sys.scheme() {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot ran scheme {}, this machine runs {:?}",
                manifest.scheme,
                sys.scheme()
            ),
        });
    }
    sys.restore_state(field(state, "system")?)?;
    run.restore_state(field(state, "run")?)?;
    Ok(())
}

fn recoverable(err: &SimError) -> bool {
    matches!(err, SimError::Watchdog(_) | SimError::Integrity(_))
}

/// Drives the run `run` (from [`System::run_begin`] or a restored
/// snapshot) to completion with periodic checkpoints and
/// rollback-and-retry recovery (see the module docs), inside the
/// profiler's `run_loop` span.
///
/// With `policy.max_recoveries == 0` this behaves exactly like
/// [`System::run`]: no in-memory snapshots are kept, and the first error
/// propagates unchanged.
///
/// # Errors
/// The original (first-un-retried or non-recoverable) [`SimError`]; disk
/// checkpoint failures surface as [`SimError::Snapshot`].
pub fn run_with_recovery(
    sys: &mut System,
    mut run: RunState,
    mix_id: &str,
    seed: u64,
    policy: &RecoveryPolicy,
) -> Result<(RunResult, RecoveryReport), SimError> {
    let interval = policy
        .checkpoint_every
        .or(sys.config().integrity.checkpoint_every);
    let recovering = policy.max_recoveries > 0;
    let baseline = recovering.then(|| (sys.now(), sys.save_state(), run.save_state()));
    // The most recent periodic checkpoint; `None` once consumed by a
    // rollback (the escalation rule in the module docs).
    let mut last_good: Option<(Cycle, Value, Value)> = None;
    let mut next_checkpoint = interval.map(|i| sys.now() + i);
    let mut report = RecoveryReport::default();
    let mut attempts = 0u32;
    sys.profiler_mut().enter(Comp::RunLoop);
    let mut drive = || loop {
        match sys.run_step(&mut run) {
            Ok(true) => {
                let Some(at) = next_checkpoint else { continue };
                if sys.now() < at {
                    continue;
                }
                if let Some(path) = &policy.checkpoint_path {
                    write_snapshot(path, sys, &run, mix_id, seed)?;
                }
                if recovering {
                    last_good = Some((sys.now(), sys.save_state(), run.save_state()));
                }
                sys.obs().mark("checkpoint", sys.now());
                report.checkpoints_taken += 1;
                next_checkpoint = Some(
                    sys.now() + interval.expect("invariant: next_checkpoint implies interval"),
                );
            }
            Ok(false) => return Ok(()),
            Err(err) if attempts < policy.max_recoveries && recoverable(&err) => {
                attempts += 1;
                let failed_at = sys.now();
                let (from_cycle, sys_state, run_state) = last_good
                    .take()
                    .or_else(|| baseline.clone())
                    .expect("invariant: recovery keeps a baseline");
                sys.restore_state(&sys_state)?;
                run.restore_state(&run_state)?;
                // A fault plan that already tripped the run once would
                // trip the retry identically (the machine is
                // deterministic) — quarantine it.
                sys.quarantine_faults();
                // The re-simulated interval shows up as a slice on the
                // trace's recovery track.
                sys.obs().window("rollback", from_cycle, failed_at);
                report.events.push(RecoveryEvent {
                    attempt: attempts,
                    failed_at,
                    resumed_from: from_cycle,
                    error: err.to_string(),
                });
            }
            Err(err) => return Err(err),
        }
    };
    let looped = drive();
    sys.profiler_mut().exit(Comp::RunLoop);
    looped?;
    let result = sys.run_finish(&run, mix_id)?;
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
    use camps_types::addr::PhysAddr;
    use camps_types::error::IntegrityError;

    fn traces(cfg: &SystemConfig) -> Vec<Box<dyn TraceSource>> {
        (0..cfg.cpu.cores)
            .map(|c| {
                let ops: Vec<TraceOp> = (0..2048u64)
                    .map(|i| {
                        TraceOp::load(2, PhysAddr((u64::from(c) << 24) + (i * 64) % (1 << 20)))
                    })
                    .collect();
                Box::new(VecTrace::new(format!("stream{c}"), ops)) as Box<dyn TraceSource>
            })
            .collect()
    }

    fn stalled_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::small();
        cfg.faults.stall_vault = 0;
        cfg.faults.stall_vault_from = 1;
        cfg.integrity.watchdog_cycles = 5_000;
        cfg
    }

    #[test]
    fn watchdog_trip_recovers_via_rollback() {
        let cfg = stalled_cfg();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let policy = RecoveryPolicy {
            max_recoveries: 2,
            checkpoint_every: Some(2_000),
            checkpoint_path: None,
        };
        let run = sys.run_begin(20_000, 2_000_000);
        let (result, report) = run_with_recovery(&mut sys, run, "recover", 0, &policy).unwrap();
        assert!(report.recovered(), "the stall must force a rollback");
        assert_eq!(report.events[0].attempt, 1);
        assert!(report.events[0].error.contains("progress"), "{report:?}");
        assert!(
            report.events[0].resumed_from <= report.events[0].failed_at,
            "rollback goes backward"
        );
        assert!(result.cycles > 0);
        for &ipc in &result.ipc {
            assert!(ipc > 0.0, "recovered run still produces IPC");
        }
        let rendered = report.render();
        assert!(rendered.contains("rollback"), "{rendered}");
    }

    #[test]
    fn zero_max_recoveries_propagates_the_original_error() {
        let cfg = stalled_cfg();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let policy = RecoveryPolicy::default(); // max_recoveries = 0
        let run = sys.run_begin(20_000, 2_000_000);
        let err = run_with_recovery(&mut sys, run, "norec", 0, &policy).unwrap_err();
        assert!(matches!(err, SimError::Watchdog(_)), "got {err}");
    }

    #[test]
    fn recovered_run_matches_a_fault_free_run() {
        // Rolling back to the pre-fault baseline and quarantining the
        // plan must yield the exact metrics of a run that never faulted.
        let clean_cfg = {
            let mut c = stalled_cfg();
            c.faults = Default::default();
            c
        };
        let mut clean = System::new(&clean_cfg, SchemeKind::Nopf, traces(&clean_cfg)).unwrap();
        let expected = clean.run(10_000, 1_000_000, "clean").unwrap();

        let cfg = stalled_cfg();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let policy = RecoveryPolicy {
            max_recoveries: 1,
            checkpoint_every: None, // only the baseline exists
            checkpoint_path: None,
        };
        let run = sys.run_begin(10_000, 1_000_000);
        let (result, report) = run_with_recovery(&mut sys, run, "clean", 0, &policy).unwrap();
        assert!(report.recovered());
        assert_eq!(result.ipc, expected.ipc);
        assert_eq!(result.cycles, expected.cycles);
        assert_eq!(result.vaults, expected.vaults);
    }

    #[test]
    fn duplicate_response_fault_recovers_as_integrity_rollback() {
        let mut cfg = SystemConfig::small();
        cfg.integrity.audit = true;
        cfg.faults.duplicate_response_every = 50;
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let policy = RecoveryPolicy {
            max_recoveries: 3,
            checkpoint_every: None,
            checkpoint_path: None,
        };
        let run = sys.run_begin(10_000, 1_000_000);
        let (_, report) = run_with_recovery(&mut sys, run, "dup", 0, &policy).unwrap();
        assert!(report.recovered());
        assert!(
            report.events[0].error.contains("twice"),
            "expected a duplicate-completion error, got {:?}",
            report.events[0]
        );
    }

    #[test]
    fn snapshot_file_round_trips_with_verification() {
        let cfg = SystemConfig::small();
        let mut sys = System::new(&cfg, SchemeKind::Camps, traces(&cfg)).unwrap();
        let mut run = sys.run_begin(10_000, 1_000_000);
        for _ in 0..2_500 {
            sys.run_step(&mut run).unwrap();
        }
        let dir = std::env::temp_dir().join("camps-recovery-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.ckpt.json");
        write_snapshot(&path, &sys, &run, "unit", 7).unwrap();
        let (manifest, state) = read_snapshot(&path).unwrap();
        assert_eq!(manifest.format, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(manifest.mix_id, "unit");
        assert_eq!(manifest.seed, 7);
        assert_eq!(manifest.cycle, sys.now());
        assert_eq!(manifest.scheme, "Camps");
        // Restore into a fresh machine and continue both to the end.
        let mut fresh = System::new(&cfg, SchemeKind::Camps, traces(&cfg)).unwrap();
        let mut fresh_run = fresh.run_begin(10_000, 1_000_000);
        restore_run(&mut fresh, &mut fresh_run, &manifest, &state).unwrap();
        while sys.run_step(&mut run).unwrap() {}
        while fresh.run_step(&mut fresh_run).unwrap() {}
        let ra = sys.run_finish(&run, "unit").unwrap();
        let rb = fresh.run_finish(&fresh_run, "unit").unwrap();
        assert_eq!(ra.ipc, rb.ipc);
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.vaults, rb.vaults);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_snapshot_is_rejected_by_checksum() {
        let cfg = SystemConfig::small();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let run = sys.run_begin(1_000, 100_000);
        let text = snapshot_to_string(&sys, &run, "unit", 0).unwrap();
        // Flip a digit inside the state payload (not the manifest).
        let state_at = text.find("\"state\"").unwrap();
        let digit_at = text[state_at..].find(|c: char| c.is_ascii_digit()).unwrap() + state_at;
        let mut corrupt = text.clone();
        let old = corrupt.as_bytes()[digit_at];
        let new = if old == b'9' { b'0' } else { old + 1 };
        // Safety: replacing one ASCII digit with another keeps it UTF-8.
        unsafe { corrupt.as_bytes_mut()[digit_at] = new };
        let err = decode_snapshot(&corrupt).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("checksum")),
            "got {err}"
        );
        // The untouched document still verifies.
        decode_snapshot(&text).unwrap();
    }

    #[test]
    fn restore_rejects_config_and_scheme_drift() {
        let cfg = SystemConfig::small();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let run = sys.run_begin(1_000, 100_000);
        let text = snapshot_to_string(&sys, &run, "unit", 0).unwrap();
        let (manifest, state) = decode_snapshot(&text).unwrap();
        // Different scheme, same config.
        let mut other = System::new(&cfg, SchemeKind::Camps, traces(&cfg)).unwrap();
        let mut other_run = other.run_begin(1_000, 100_000);
        let err = restore_run(&mut other, &mut other_run, &manifest, &state).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("scheme")),
            "got {err}"
        );
        // Different config (changed watchdog), same scheme.
        let mut drifted = cfg.clone();
        drifted.integrity.watchdog_cycles += 1;
        let mut third = System::new(&drifted, SchemeKind::Nopf, traces(&drifted)).unwrap();
        let mut third_run = third.run_begin(1_000, 100_000);
        let err = restore_run(&mut third, &mut third_run, &manifest, &state).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("configuration")),
            "got {err}"
        );
    }

    #[test]
    fn corrupt_core_id_is_a_typed_integrity_error() {
        // Directly exercise the new variant's rendering.
        let err = SimError::Integrity(IntegrityError::CorruptCoreId { core: 9, cores: 4 });
        assert!(err.to_string().contains("core 9"), "{err}");
    }
}
