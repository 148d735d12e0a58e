//! `soak` — long-running robustness harness.
//!
//! Loops (mix, scheme) runs at miniature scale under randomly chosen
//! fault-injection plans with rollback-and-retry recovery enabled, until
//! a wall-clock budget expires. The harness fails (exits nonzero) if any
//! run aborts without recovering, and asserts that the serialized
//! machine state stays bounded across iterations (no state leak across
//! rollbacks).
//!
//! With `--adversarial` (or `SOAK_ADVERSARIAL=1`), every other iteration
//! swaps the Table II mix for a hammer/thrash/pollution attack stream
//! (see `camps-workloads`'s `adversarial` module) and runs it over a
//! fixed cycle horizon — attack streams starve cores by design, so a
//! retirement target would never be met. The zero-unrecovered-aborts
//! assertion holds for attack iterations exactly as for mix iterations.
//!
//! ```text
//! SOAK_SECONDS=90 SOAK_SEED=1 cargo run --release -p camps-bench --bin soak
//! SOAK_SECONDS=45 cargo run --release -p camps-bench --bin soak -- --adversarial
//! ```

use camps::recovery::{run_with_recovery, snapshot_to_string, RecoveryPolicy};
use camps::System;
use camps_cpu::trace::TraceSource;
use camps_dram::TimingCpu;
use camps_prefetch::SchemeKind;
use camps_types::config::SystemConfig;
use camps_workloads::{AdversarialSpec, AdversarialTrace, AttackKind, ALL_MIXES};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Cycle horizon for adversarial iterations (~6 refresh windows).
const ATTACK_CYCLES: u64 = 150_000;

/// Attack rotation for `--adversarial` iterations.
const ATTACKS: [AttackKind; 4] = [
    AttackKind::HammerDouble,
    AttackKind::HammerSingle,
    AttackKind::ConflictThrash,
    AttackKind::BufferPollution,
];

/// One attack stream per core, each hammering its own vault.
fn attack_traces(
    cfg: &SystemConfig,
    kind: AttackKind,
    seed: u64,
) -> Result<Vec<Box<dyn TraceSource>>, String> {
    let t_refw = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz).t_refi;
    (0..cfg.cpu.cores)
        .map(|i| {
            let vault = (i % cfg.hmc.vaults) as u16;
            AdversarialTrace::new(
                AdversarialSpec::preset(kind, vault, seed ^ (u64::from(i) << 32)),
                &cfg.hmc,
                t_refw,
            )
            .map(|t| Box::new(t) as Box<dyn TraceSource>)
            .map_err(|e| format!("{}: {e}", kind.as_str()))
        })
        .collect()
}

/// Snapshot-size ceiling per iteration. The small() machine serializes
/// to low single-digit MB; 64 MB means runaway state growth.
const MAX_SNAPSHOT_BYTES: usize = 64 << 20;

/// xorshift64* — deterministic, dependency-free choice of faults.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let budget = Duration::from_secs(env_u64("SOAK_SECONDS", 90));
    let seed = env_u64("SOAK_SEED", 0xCA3B5);
    let mut adversarial = env_u64("SOAK_ADVERSARIAL", 0) != 0;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--adversarial" => adversarial = true,
            other => {
                eprintln!("soak: unknown option `{other}` (try --adversarial)");
                return ExitCode::FAILURE;
            }
        }
    }
    let deadline = Instant::now() + budget;
    let mut rng = XorShift(seed | 1);

    let mut iterations = 0u64;
    let mut runs = 0u64;
    let mut attack_runs = 0u64;
    let mut faulty_runs = 0u64;
    let mut recovered_runs = 0u64;
    let mut rollbacks = 0u64;
    let mut max_snapshot = 0usize;

    while Instant::now() < deadline {
        iterations += 1;
        // paper_default: the Table II mixes need its full capacity.
        // Tight (but legal) watchdog so stalls are detected quickly.
        let mut cfg = SystemConfig::paper_default();
        cfg.integrity.audit = true;
        cfg.integrity.watchdog_cycles = cfg.worst_case_access_cycles().max(5_000);
        let fault = rng.below(3);
        match fault {
            0 => {
                // Wedge one vault mid-run: recovers via the watchdog.
                cfg.faults.stall_vault = u32::try_from(rng.below(u64::from(cfg.hmc.vaults)))
                    .expect("invariant: vault count fits u32");
                cfg.faults.stall_vault_from = 500 + rng.below(3_000);
            }
            1 => {
                // Duplicate responses: recovers via the audit ledger.
                cfg.faults.duplicate_response_every = 20 + rng.below(200);
            }
            _ => {} // clean control run
        }
        let scheme = SchemeKind::ALL[rng.below(SchemeKind::ALL.len() as u64) as usize];
        let mix = &ALL_MIXES[rng.below(ALL_MIXES.len() as u64) as usize];
        // With --adversarial, every other iteration runs an attack stream
        // instead of a mix; the attack starves cores, so it gets a fixed
        // cycle horizon rather than a retirement target.
        let attack = if adversarial && iterations.is_multiple_of(2) {
            Some(ATTACKS[rng.below(ATTACKS.len() as u64) as usize])
        } else {
            None
        };
        let label = attack.map_or(mix.id, |k| k.as_str());
        let (target_instructions, max_cycles) = match attack {
            Some(_) => (u64::MAX, ATTACK_CYCLES),
            None => (5_000, 2_000_000),
        };

        let capacity = match cfg.hmc.address_mapping() {
            Ok(m) => m.capacity_bytes(),
            Err(e) => {
                eprintln!("soak: bad config: {e}");
                return ExitCode::FAILURE;
            }
        };
        let traces = match attack {
            Some(kind) => attack_traces(&cfg, kind, seed ^ runs),
            None => mix
                .build_traces(capacity, seed ^ runs)
                .map_err(|e| e.to_string()),
        };
        let traces = match traces {
            Ok(t) => t,
            Err(e) => {
                eprintln!("soak: trace build failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut sys = match System::new(&cfg, scheme, traces) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("soak: setup failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let policy = RecoveryPolicy {
            max_recoveries: 3,
            checkpoint_every: Some(2_000),
            checkpoint_path: None,
        };
        let run = sys.run_begin(target_instructions, max_cycles);
        match run_with_recovery(&mut sys, run, label, seed, &policy) {
            Ok((result, report)) => {
                runs += 1;
                if attack.is_some() {
                    attack_runs += 1;
                }
                if fault != 2 {
                    faulty_runs += 1;
                }
                if report.recovered() {
                    recovered_runs += 1;
                    rollbacks += report.events.len() as u64;
                }
                if result.cycles == 0 {
                    eprintln!("soak: {label} {scheme:?} produced an empty run");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!(
                    "soak: UNRECOVERED abort on {label} {scheme:?} (fault class {fault}): {e}"
                );
                return ExitCode::FAILURE;
            }
        }
        // A drained machine must serialize to a bounded snapshot: growth
        // here would mean rollbacks leak state.
        let run = sys.run_begin(0, 0);
        match snapshot_to_string(&sys, &run, label, seed) {
            Ok(text) => {
                max_snapshot = max_snapshot.max(text.len());
                if text.len() > MAX_SNAPSHOT_BYTES {
                    eprintln!(
                        "soak: snapshot grew to {} bytes (cap {MAX_SNAPSHOT_BYTES})",
                        text.len()
                    );
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("soak: post-run snapshot failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "soak: {runs} runs ({attack_runs} adversarial, {faulty_runs} faulted, {recovered_runs} \
         recovered via {rollbacks} rollbacks), max snapshot {max_snapshot} bytes, \
         0 unrecovered aborts"
    );
    if runs == 0 {
        eprintln!("soak: budget too small to finish a single run");
        return ExitCode::FAILURE;
    }
    if adversarial && attack_runs == 0 {
        eprintln!("soak: --adversarial ran no attack iterations");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
