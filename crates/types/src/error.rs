//! Typed simulation errors: configuration, trace format, I/O, integrity
//! violations, and watchdog aborts.
//!
//! Every fallible library path reachable from `camps::experiment::run`
//! reports failures through [`SimError`] instead of panicking, so callers
//! (the `camps` CLI, benches, library users) can degrade gracefully on
//! bad inputs and fail loudly — with a diagnostic, not a backtrace — on
//! model bugs.

use crate::clock::Cycle;
use crate::request::RequestId;
use std::fmt;

/// An error raised while validating a simulator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A geometry field must be a nonzero power of two.
    NotPowerOfTwo {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A field failed a structural constraint.
    Invalid {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The forward-progress watchdog window is shorter than the worst-case
    /// legitimate DRAM access latency, so a healthy machine would be
    /// aborted as wedged.
    WatchdogTooShort {
        /// The configured `integrity.watchdog_cycles`.
        window: Cycle,
        /// Minimum legal window (worst-case access latency, CPU cycles).
        floor: Cycle,
    },
    /// A checkpoint interval of zero cycles was requested. Disabling
    /// periodic checkpoints is expressed by leaving the interval unset,
    /// never by zero.
    ZeroCheckpointInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPowerOfTwo { field, value } => {
                write!(
                    f,
                    "config field `{field}` must be a nonzero power of two, got {value}"
                )
            }
            Self::Invalid { field, reason } => {
                write!(f, "config field `{field}` invalid: {reason}")
            }
            Self::WatchdogTooShort { window, floor } => {
                write!(
                    f,
                    "integrity.watchdog_cycles = {window} is below the worst-case \
                     DRAM access latency ({floor} CPU cycles); a healthy stall \
                     would trip the watchdog"
                )
            }
            Self::ZeroCheckpointInterval => {
                write!(
                    f,
                    "checkpoint interval must be nonzero (omit it to disable \
                     periodic checkpoints)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A structural defect in a binary `.camps-trace` image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Shorter than the fixed header (magic + version + count).
    TruncatedHeader {
        /// Bytes present.
        len: usize,
    },
    /// The magic bytes are not `CAMPSTRC`.
    BadMagic {
        /// What was found instead.
        found: [u8; 8],
    },
    /// A format version this reader does not understand.
    UnsupportedVersion {
        /// Version field from the header.
        found: u32,
    },
    /// The body ended in the middle of a record.
    TruncatedRecord {
        /// Zero-based index of the incomplete record.
        index: u64,
        /// Byte offset where the record started.
        offset: usize,
    },
    /// A record kind byte outside the defined set.
    UnknownKind {
        /// Zero-based record index.
        index: u64,
        /// The rejected kind byte.
        kind: u8,
    },
    /// Bytes remain after the declared record count was decoded.
    TrailingBytes {
        /// Undecoded bytes at the tail.
        remaining: usize,
    },
    /// The header declares zero records (a trace must supply work).
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TruncatedHeader { len } => {
                write!(f, "trace truncated: {len} bytes is shorter than the header")
            }
            Self::BadMagic { found } => {
                write!(f, "not a camps trace (magic {found:02x?})")
            }
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found}")
            }
            Self::TruncatedRecord { index, offset } => {
                write!(
                    f,
                    "trace truncated inside record {index} (byte offset {offset})"
                )
            }
            Self::UnknownKind { index, kind } => {
                write!(f, "record {index} has unknown kind byte {kind}")
            }
            Self::TrailingBytes { remaining } => {
                write!(
                    f,
                    "{remaining} trailing bytes after the declared record count"
                )
            }
            Self::Empty => write!(f, "trace declares zero records"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A request-conservation violation caught by the request auditor: a
/// request was lost, duplicated, or completed twice. Any of these means
/// the model (or an injected fault) corrupted the request lifecycle —
/// IPC/AMAT numbers from such a run are meaningless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The same request id was injected twice without completing.
    DuplicateInjection {
        /// The offending id.
        id: RequestId,
    },
    /// A completion arrived for an id that was never injected (or was
    /// already retired and then completed again after being forgotten).
    UnknownCompletion {
        /// The offending id.
        id: RequestId,
    },
    /// The same request completed twice.
    DuplicateCompletion {
        /// The offending id.
        id: RequestId,
    },
    /// The memory system reported idle while requests were still
    /// outstanding — they were silently dropped.
    LostRequests {
        /// How many never completed.
        outstanding: usize,
        /// Up to eight example ids for debugging.
        examples: Vec<RequestId>,
    },
    /// A response (or MSHR waiter token) named a core the machine does
    /// not have — the request lifecycle state is corrupt.
    CorruptCoreId {
        /// The core id carried by the response.
        core: u8,
        /// How many cores the machine actually has.
        cores: usize,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateInjection { id } => {
                write!(f, "request {id:?} injected twice while outstanding")
            }
            Self::UnknownCompletion { id } => {
                write!(f, "completion for unknown request {id:?}")
            }
            Self::DuplicateCompletion { id } => {
                write!(f, "request {id:?} completed twice")
            }
            Self::LostRequests {
                outstanding,
                examples,
            } => {
                write!(
                    f,
                    "{outstanding} requests lost (memory idle while outstanding), \
                     e.g. {examples:?}"
                )
            }
            Self::CorruptCoreId { core, cores } => {
                write!(f, "response names core {core} of a {cores}-core machine")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Occupancy snapshot of one vault controller for watchdog diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VaultSnapshot {
    /// Vault index.
    pub vault: u16,
    /// Demand/prefetch read queue occupancy.
    pub read_q: usize,
    /// Write queue occupancy.
    pub write_q: usize,
    /// Host-side retry queue occupancy (packets bounced off a full vault).
    pub retry_q: usize,
    /// `(bank, row)` pairs currently open in the bank row buffers.
    pub open_rows: Vec<(u16, u32)>,
    /// Prefetch-buffer rows resident.
    pub buffer_rows: usize,
    /// Row fetch / writeback jobs in flight inside the vault.
    pub inflight_jobs: usize,
}

/// The structured diagnostic dump produced when the forward-progress
/// watchdog fires: everything needed to see *where* the machine wedged.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogReport {
    /// Cycle at which the watchdog gave up.
    pub now: Cycle,
    /// Length of the no-progress window that tripped it.
    pub stall_cycles: Cycle,
    /// Host-controller queue occupancy.
    pub host_queue: usize,
    /// Blocks in flight in the L3 MSHR file.
    pub mshr_in_flight: usize,
    /// L3 dirty victims waiting to enter the cube.
    pub writeback_queue: usize,
    /// Per-core reorder-buffer occupancy.
    pub rob_occupancy: Vec<usize>,
    /// Free token counts per request-direction link.
    pub req_link_tokens: Vec<u32>,
    /// Free token counts per response-direction link.
    pub resp_link_tokens: Vec<u32>,
    /// Every vault's queue/row/buffer state.
    pub vaults: Vec<VaultSnapshot>,
}

impl WatchdogReport {
    /// A multi-line human-readable rendering of the dump (what the CLI
    /// prints before exiting nonzero).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "watchdog: no forward progress for {} cycles (at cycle {})",
            self.stall_cycles, self.now
        );
        let _ = writeln!(
            out,
            "  host queue {} | MSHRs in flight {} | writeback queue {}",
            self.host_queue, self.mshr_in_flight, self.writeback_queue
        );
        let _ = writeln!(out, "  ROB occupancy: {:?}", self.rob_occupancy);
        let _ = writeln!(
            out,
            "  link tokens free: req {:?} resp {:?}",
            self.req_link_tokens, self.resp_link_tokens
        );
        for v in &self.vaults {
            if v.read_q + v.write_q + v.retry_q + v.inflight_jobs == 0 {
                continue; // only wedged/occupied vaults are interesting
            }
            let _ = writeln!(
                out,
                "  vault {:2}: read_q {:2} write_q {:2} retry_q {:2} jobs {} \
                 buffer rows {} open rows {:?}",
                v.vault,
                v.read_q,
                v.write_q,
                v.retry_q,
                v.inflight_jobs,
                v.buffer_rows,
                v.open_rows
            );
        }
        out
    }
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Any failure a simulation entry point can report.
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// A trace image is malformed.
    Trace(TraceError),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Run setup was inconsistent (e.g. trace count vs. core count).
    Setup {
        /// Human-readable reason.
        reason: String,
    },
    /// Request conservation was violated.
    Integrity(IntegrityError),
    /// The forward-progress watchdog aborted the run.
    Watchdog(Box<WatchdogReport>),
    /// A checkpoint could not be written, read, or applied: payload
    /// checksum mismatch, format-version mismatch, manifest/config
    /// disagreement, or a state tree whose shape the restorer rejects.
    Snapshot {
        /// Human-readable reason.
        reason: String,
    },
    /// A sweep job panicked. The sweep supervisor catches the unwind at
    /// the job boundary so one crashing job cannot tear down its
    /// siblings; the payload is preserved here for the job's record.
    Panic {
        /// The panic payload, rendered (`&str`/`String` payloads pass
        /// through; anything else becomes a placeholder).
        message: String,
    },
    /// A sweep job blew through its wall-clock deadline. Unlike the
    /// cycle-domain watchdog (which catches a *wedged* machine), this
    /// catches a *slow* one: livelock, pathological configs, or a host
    /// that is simply overloaded.
    Deadline {
        /// Wall-clock seconds the attempt had run for when it was cut.
        elapsed_secs: f64,
        /// The configured per-attempt limit, seconds.
        limit_secs: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::Trace(e) => write!(f, "bad trace: {e}"),
            Self::Io { path, source } => write!(f, "io error on `{path}`: {source}"),
            Self::Setup { reason } => write!(f, "bad run setup: {reason}"),
            Self::Integrity(e) => write!(f, "integrity violation: {e}"),
            Self::Watchdog(report) => write!(f, "{report}"),
            Self::Snapshot { reason } => write!(f, "snapshot error: {reason}"),
            Self::Panic { message } => write!(f, "job panicked: {message}"),
            Self::Deadline {
                elapsed_secs,
                limit_secs,
            } => write!(
                f,
                "job exceeded its wall-clock deadline ({elapsed_secs:.1}s elapsed, \
                 limit {limit_secs:.1}s)"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Trace(e) => Some(e),
            Self::Io { source, .. } => Some(source),
            Self::Integrity(e) => Some(e),
            Self::Setup { .. }
            | Self::Watchdog(_)
            | Self::Snapshot { .. }
            | Self::Panic { .. }
            | Self::Deadline { .. } => None,
        }
    }
}

impl From<serde::de::Error> for SimError {
    fn from(e: serde::de::Error) -> Self {
        SimError::Snapshot {
            reason: e.to_string(),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<IntegrityError> for SimError {
    fn from(e: IntegrityError) -> Self {
        SimError::Integrity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_field() {
        let e = ConfigError::NotPowerOfTwo {
            field: "vaults",
            value: 3,
        };
        assert!(e.to_string().contains("vaults"));
        let e = ConfigError::Invalid {
            field: "rob",
            reason: "zero".into(),
        };
        assert!(e.to_string().contains("rob"));
    }

    #[test]
    fn cross_field_variants_display_the_constraint() {
        let e = ConfigError::WatchdogTooShort {
            window: 100,
            floor: 1000,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("1000"), "{s}");
        let s = ConfigError::ZeroCheckpointInterval.to_string();
        assert!(s.contains("nonzero"), "{s}");
    }

    #[test]
    fn snapshot_errors_wrap_deserialization_failures() {
        let e = SimError::from(serde::de::Error::custom("missing field `rob`"));
        assert!(e.to_string().contains("snapshot error"));
        assert!(e.to_string().contains("missing field `rob`"));
    }

    #[test]
    fn sim_error_wraps_and_displays_sources() {
        let e = SimError::from(ConfigError::Invalid {
            field: "links",
            reason: "zero".into(),
        });
        assert!(e.to_string().contains("links"));
        let e = SimError::from(TraceError::UnsupportedVersion { found: 9 });
        assert!(e.to_string().contains("version 9"));
        let e = SimError::from(IntegrityError::DuplicateCompletion { id: RequestId(7) });
        assert!(e.to_string().contains("completed twice"));
    }

    #[test]
    fn watchdog_report_renders_occupied_vaults_only() {
        let report = WatchdogReport {
            now: 1234,
            stall_cycles: 100,
            host_queue: 3,
            mshr_in_flight: 2,
            writeback_queue: 0,
            rob_occupancy: vec![8, 0],
            req_link_tokens: vec![10, 10],
            resp_link_tokens: vec![0, 0],
            vaults: vec![
                VaultSnapshot {
                    vault: 0,
                    read_q: 4,
                    write_q: 0,
                    retry_q: 1,
                    open_rows: vec![(2, 77)],
                    buffer_rows: 3,
                    inflight_jobs: 1,
                },
                VaultSnapshot {
                    vault: 1,
                    read_q: 0,
                    write_q: 0,
                    retry_q: 0,
                    open_rows: vec![],
                    buffer_rows: 0,
                    inflight_jobs: 0,
                },
            ],
        };
        let text = report.render();
        assert!(text.contains("no forward progress for 100 cycles"));
        assert!(text.contains("vault  0"));
        assert!(!text.contains("vault  1"), "idle vaults are elided");
        assert!(text.contains("(2, 77)"));
    }
}
