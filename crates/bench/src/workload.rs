//! The workloads the `throughput` and `profile` benches measure: the
//! paper mixes on the Table I machine, and `idle-heavy`, one narrow core
//! that sleeps through every memory round trip.

use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_types::addr::PhysAddr;
use camps_types::config::SystemConfig;
use camps_workloads::Mix;

/// The config a workload runs under. The paper mixes use the Table I
/// machine untouched; `idle-heavy` narrows it to one core so the whole
/// machine genuinely sleeps between memory round trips.
#[must_use]
pub fn config_for(workload: &str) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    if workload == "idle-heavy" {
        // One narrow core: a single outstanding row-miss load at a time,
        // with only rob/issue_width cycles of retire work per round trip —
        // the machine spends most wall-cycles fully asleep.
        cfg.cpu.cores = 1;
        cfg.cpu.rob_entries = 64;
    }
    cfg
}

/// The traces a workload feeds its cores.
///
/// # Panics
/// On a workload that is neither `idle-heavy` nor a Table II mix id.
#[must_use]
pub fn traces_for(cfg: &SystemConfig, workload: &str, seed: u64) -> Vec<Box<dyn TraceSource>> {
    if workload == "idle-heavy" {
        // Each load is preceded by enough compute to fill the ROB, so the
        // core goes quiescent for the whole memory round trip. Strided
        // across rows so every access misses the caches.
        let gap = cfg.cpu.rob_entries - 1;
        return (0..cfg.cpu.cores)
            .map(|c| {
                let ops: Vec<TraceOp> = (0..2048u64)
                    .map(|i| TraceOp::load(gap, PhysAddr((u64::from(c) << 32) + i * (1 << 19))))
                    .collect();
                Box::new(VecTrace::new(format!("idle{c}"), ops)) as Box<dyn TraceSource>
            })
            .collect();
    }
    let mix = Mix::by_id(workload).expect("known mix");
    let capacity = cfg.cube_map().expect("valid mapping").capacity_bytes();
    mix.build_traces(capacity, seed).expect("traces build")
}
