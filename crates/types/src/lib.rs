//! Common types shared by every crate of the CAMPS simulator.
//!
//! This crate defines the vocabulary of the simulated machine:
//!
//! * [`clock`] — cycle counters and the CPU/DRAM clock-domain conversion,
//! * [`addr`] — physical addresses and the HMC address mapping
//!   (`RoRaBaVaCo` in the paper, Table I),
//! * [`request`] — memory requests/responses flowing between the cores and
//!   the cube,
//! * [`config`] — the full system configuration, whose defaults reproduce
//!   Table I of the paper, plus integrity-check knobs and a deterministic
//!   fault-injection plan,
//! * [`error`] — typed simulation errors: configuration validation, trace
//!   format defects, request-conservation violations, and watchdog reports,
//! * [`hash`] — a deterministic multiplicative hasher for integer-keyed maps.
//!
//! Nothing in here simulates anything; these are plain data types with
//! conversion helpers so the substrate crates (`camps-dram`, `camps-link`,
//! `camps-vault`, …) can interoperate without depending on each other.

#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod config;
pub mod error;
pub mod hash;
pub mod request;
pub mod snapshot;
pub mod wake;

pub use addr::{AddressMapping, DecodedAddr, MappingScheme, PhysAddr, RowKey};
pub use clock::{ClockDomain, Cycle};
pub use config::{
    CacheLevelConfig, CoreSidePrefetchConfig, CpuConfig, DramTimingConfig, EnergyConfig, FaultPlan,
    HmcGeometry, IntegrityConfig, LinkConfig, PagePolicy, PrefetchBufferConfig, SchedulerKind,
    SystemConfig, VaultConfig,
};
pub use error::{ConfigError, IntegrityError, SimError, TraceError, VaultSnapshot, WatchdogReport};
pub use hash::{IntMap, IntSet};
pub use request::{AccessKind, CoreId, MemRequest, MemResponse, RequestId, ServiceSource};
pub use snapshot::{fnv1a, Snapshot, SnapshotManifest, SNAPSHOT_FORMAT_VERSION};
pub use wake::{fold_wake, Wake};
