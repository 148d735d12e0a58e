//! The four benchmark workloads: machine, traces and run length.
//!
//! Every workload is a closed loop: each core fetches its next trace op
//! only as the simulated machine retires the previous ones, so a slower
//! memory side issues less load. One simulation runs at a time.

use camps::System;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_dram::TimingCpu;
use camps_prefetch::SchemeKind;
use camps_types::addr::PhysAddr;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_workloads::{AdversarialSpec, AdversarialTrace, AttackKind, Mix};
use std::time::Instant;

/// Workload names, as in `BENCHMARK.json`.
pub const NAMES: [&str; 4] = ["hm1", "lm1-2cube", "idle-heavy", "hammer"];

/// Functional warmup per core before every detailed run.
pub const WARMUP_INSTRUCTIONS: u64 = 100_000;

/// Loads in the idle-heavy trace (it loops).
const IDLE_LOADS: u64 = 2_048;
/// Idle-heavy stride: one DRAM row apart, so every load misses.
const IDLE_STRIDE: u64 = 1 << 19;
/// Aggressor rows per hammer stream, as in the `adversarial` bench: more
/// than the 16-row prefetch buffer holds.
const HAMMER_AGGRESSORS: u32 = 32;

#[derive(Clone, Copy)]
enum Kind {
    Mix(&'static str),
    IdleHeavy,
    Hammer,
}

/// One workload: how to build it and how long to run it.
pub struct Workload {
    /// Benchmark name (`hm1`, ...).
    pub name: &'static str,
    /// The machine.
    pub cfg: SystemConfig,
    /// Prefetching scheme of every vault.
    pub scheme: SchemeKind,
    /// Per-core retirement target of the detailed run.
    pub instructions: u64,
    /// Cycle cap of the detailed run (the horizon for `hammer`).
    pub max_cycles: Cycle,
    kind: Kind,
}

/// Host seconds spent in each step of building a warmed machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Trace generator construction.
    pub trace_build_s: f64,
    /// `System::new`.
    pub system_new_s: f64,
    /// `System::warmup`.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.trace_build_s + self.system_new_s + self.warmup_s
    }
}

impl Workload {
    /// The workload called `name`, if there is one.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        let paper = SystemConfig::paper_default();
        let w = match name {
            // Table II HM1: memory-dense, all 32 vaults busy, many
            // prefetch-buffer hits; the event engine skips almost nothing.
            "hm1" => Self {
                name: "hm1",
                cfg: paper,
                scheme: SchemeKind::CampsMod,
                instructions: 100_000,
                max_cycles: 20_000_000,
                kind: Kind::Mix("HM1"),
            },
            // Table II LM1 on a 2-cube chain: core/cache-bound, 64 mostly
            // idle vaults behind fabric hops.
            "lm1-2cube" => {
                let mut cfg = paper;
                cfg.topology.cubes = 2;
                Self {
                    name: "lm1-2cube",
                    cfg,
                    scheme: SchemeKind::CampsMod,
                    instructions: 100_000,
                    max_cycles: 20_000_000,
                    kind: Kind::Mix("LM1"),
                }
            }
            // The `throughput` bench's one narrow core whose ROB fills
            // behind every row-miss load: the machine sleeps for whole
            // memory round trips, so the wake/jump path sets host time.
            "idle-heavy" => {
                let mut cfg = paper;
                cfg.cpu.cores = 1;
                cfg.cpu.rob_entries = 64;
                Self {
                    name: "idle-heavy",
                    cfg,
                    scheme: SchemeKind::CampsMod,
                    instructions: 600_000,
                    max_cycles: 200_000_000,
                    kind: Kind::IdleHeavy,
                }
            }
            // Double-sided hammer streams, one per core on vaults 0-7,
            // 50% stores: row conflicts, CT-triggered prefetches and
            // writeback activations on 8 deep vault queues; starved cores
            // never reach a retirement target, so a cycle horizon ends
            // the run.
            "hammer" => Self {
                name: "hammer",
                cfg: paper,
                scheme: SchemeKind::CampsMod,
                instructions: u64::MAX,
                max_cycles: 500_000,
                kind: Kind::Hammer,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The per-core traces for `seed` (same seed, same traces).
    ///
    /// # Errors
    /// A trace generator rejected its parameters.
    pub fn traces(&self, seed: u64) -> Result<Vec<Box<dyn TraceSource>>, String> {
        match self.kind {
            Kind::Mix(id) => {
                let mix = Mix::by_id(id).ok_or_else(|| format!("unknown mix {id}"))?;
                let capacity = self
                    .cfg
                    .cube_map()
                    .map_err(|e| e.to_string())?
                    .capacity_bytes();
                mix.build_traces(capacity, seed).map_err(|e| e.to_string())
            }
            Kind::IdleHeavy => {
                // Each load follows enough compute to fill the ROB. The
                // seed rotates the row sequence and picks the column.
                let gap = self.cfg.cpu.rob_entries - 1;
                let column = (seed / IDLE_LOADS) % (IDLE_STRIDE / 64) * 64;
                let ops = (0..IDLE_LOADS)
                    .map(|i| {
                        let row = (i + seed) % IDLE_LOADS;
                        TraceOp::load(gap, PhysAddr(row * IDLE_STRIDE + column))
                    })
                    .collect();
                Ok(vec![
                    Box::new(VecTrace::new("idle0", ops)) as Box<dyn TraceSource>
                ])
            }
            Kind::Hammer => {
                let t_refw = TimingCpu::from_config(&self.cfg.dram, self.cfg.cpu.freq_hz).t_refi;
                (0..self.cfg.cpu.cores)
                    .map(|i| {
                        let vault = (i % self.cfg.hmc.vaults) as u16;
                        let mut spec = AdversarialSpec::preset(
                            AttackKind::HammerDouble,
                            vault,
                            seed.wrapping_add(u64::from(i)),
                        );
                        spec.aggressors = HAMMER_AGGRESSORS;
                        AdversarialTrace::new(spec, &self.cfg.hmc, t_refw)
                            .map(|t| Box::new(t) as Box<dyn TraceSource>)
                            .map_err(|e| e.to_string())
                    })
                    .collect()
            }
        }
    }

    /// Builds and warms the machine for `seed`, timing each step.
    ///
    /// # Errors
    /// Trace or machine construction failed.
    pub fn setup(&self, seed: u64) -> Result<(System, SetupTimes), String> {
        let t0 = Instant::now();
        let traces = self.traces(seed)?;
        let t1 = Instant::now();
        let mut sys = System::new(&self.cfg, self.scheme, traces).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        sys.warmup(WARMUP_INSTRUCTIONS);
        let t3 = Instant::now();
        let times = SetupTimes {
            trace_build_s: (t1 - t0).as_secs_f64(),
            system_new_s: (t2 - t1).as_secs_f64(),
            warmup_s: (t3 - t2).as_secs_f64(),
        };
        Ok((sys, times))
    }
}
