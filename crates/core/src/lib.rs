//! CAMPS full-system simulator and experiment runner — the crate users
//! depend on.
//!
//! ```no_run
//! use camps::experiment::{run, RunLength, RunSpec};
//! use camps_prefetch::SchemeKind;
//! use camps_types::{SimError, SystemConfig};
//! use camps_workloads::Mix;
//!
//! fn main() -> Result<(), SimError> {
//!     let cfg = SystemConfig::paper_default();
//!     let mix = Mix::by_id("HM1").unwrap();
//!     let spec = RunSpec::fresh(mix, SchemeKind::CampsMod, RunLength::quick(), 42);
//!     let (result, _) = run(&cfg, &spec)?;
//!     println!("{}: geomean IPC {:.3}", mix.id, result.geomean_ipc());
//!     Ok(())
//! }
//! ```
//!
//! * [`hmc`] — the cube: serial links + crossbar + 32 vault controllers,
//! * [`system`] — cores + caches + cube wired together; the cycle loop,
//! * [`audit`] — request-lifetime conservation checking,
//! * [`metrics`] — per-run results ([`metrics::RunResult`]),
//! * [`experiment`] — one [`RunSpec`] and one [`run`] for every run of a
//!   mix: fresh or resumed, either engine, observed, recoverable,
//! * [`recovery`] — checkpoint/restore of a mid-flight run plus the
//!   rollback-and-retry driver that survives injected faults,
//! * [`sweep`] — the resilient parallel sweep supervisor: fault-isolated
//!   jobs, retry-with-resume, a crash-safe journal, partial results.
//!
//! Every entry point returns [`Result`](camps_types::SimError)-typed
//! errors: invalid configs, malformed traces, integrity violations, and
//! watchdog trips surface as values, never panics.

#![warn(missing_docs)]

pub mod audit;
pub mod experiment;
pub mod hmc;
pub mod metrics;
pub mod recovery;
pub mod sweep;
pub mod system;
pub mod topology;

pub use audit::RequestAuditor;
pub use experiment::{run, RunLength, RunSpec, Start};
pub use hmc::HmcDevice;
pub use metrics::{fairness, Fairness, RunResult};
pub use recovery::{
    read_snapshot, run_with_recovery, write_snapshot, RecoveryEvent, RecoveryPolicy, RecoveryReport,
};
pub use sweep::{run_sweep, JobOutcome, JobRecord, SweepPolicy, SweepReport, SweepRun};
pub use system::{Engine, System};
pub use topology::Topology;
