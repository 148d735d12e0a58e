//! Polling/event engine equivalence (ISSUE 4 acceptance).
//!
//! The event engine must be an *engine*, not a model: for every paper
//! scheme it must produce bit-identical results to the per-cycle polling
//! reference, and a snapshot taken under either engine must restore and
//! continue under the other. Results are compared as serialized
//! [`camps::metrics::RunResult`] values, which covers IPC, cycle counts,
//! every vault/core counter, AMAT accumulators, and the energy model.
//!
//! The event engine ticks each vault only when its own cached wake is
//! due, so the inputs below also cover the cases where a single vault's
//! wake matters most: deep double-sided hammer queues on a few vaults,
//! and a stalled vault that is released mid-run.

use camps::experiment::{run, RunLength, RunSpec};
use camps::system::Engine;
use camps::System;
use camps_cpu::trace::TraceSource;
use camps_dram::TimingCpu;
use camps_prefetch::SchemeKind;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::snapshot::Snapshot;
use camps_workloads::{AdversarialSpec, AdversarialTrace, AttackKind, Mix};

fn mini() -> RunLength {
    RunLength {
        warmup_instructions: 2_000,
        instructions: 4_000,
        max_cycles: 2_000_000,
    }
}

fn canonical(r: &camps::metrics::RunResult) -> String {
    serde_json::to_string(r).expect("RunResult serializes")
}

#[test]
fn every_paper_scheme_is_bit_identical_across_engines() {
    let cfg = SystemConfig::paper_default();
    for mix_id in ["HM1", "LM1"] {
        let mix = Mix::by_id(mix_id).unwrap();
        for scheme in SchemeKind::PAPER {
            let spec = RunSpec::fresh(mix, scheme, mini(), 11);
            let (polled, _) = run(
                &cfg,
                &RunSpec {
                    engine: Engine::Polling,
                    ..spec.clone()
                },
            )
            .unwrap();
            let (evented, _) = run(
                &cfg,
                &RunSpec {
                    engine: Engine::Event,
                    ..spec
                },
            )
            .unwrap();
            assert_eq!(
                canonical(&polled),
                canonical(&evented),
                "{mix_id}/{scheme:?}: engines diverged"
            );
        }
    }
}

#[test]
fn snapshots_cross_engines_in_both_directions() {
    let cfg = SystemConfig::paper_default();
    let capacity = cfg.hmc.address_mapping().unwrap().capacity_bytes();
    let mix = Mix::by_id("HM1").unwrap();
    for (first, second) in [
        (Engine::Event, Engine::Polling),
        (Engine::Polling, Engine::Event),
    ] {
        let mut a = System::new(
            &cfg,
            SchemeKind::Camps,
            mix.build_traces(capacity, 3).unwrap(),
        )
        .unwrap();
        a.set_engine(first);
        let mut st_a = a.run_begin(6_000, 1_000_000);
        for _ in 0..1_500 {
            assert!(a.run_step(&mut st_a).unwrap(), "{first:?}: ended too early");
        }
        let sys_state = a.save_state();
        let run_state = st_a.save_state();
        // The snapshot is engine-neutral: overlay it on a machine driven
        // by the *other* engine and continue both to completion.
        let mut b = System::new(
            &cfg,
            SchemeKind::Camps,
            mix.build_traces(capacity, 3).unwrap(),
        )
        .unwrap();
        b.set_engine(second);
        let mut st_b = b.run_begin(6_000, 1_000_000);
        b.restore_state(&sys_state).unwrap();
        st_b.restore_state(&run_state).unwrap();
        while a.run_step(&mut st_a).unwrap() {}
        while b.run_step(&mut st_b).unwrap() {}
        let ra = a.run_finish(&st_a, "cross").unwrap();
        let rb = b.run_finish(&st_b, "cross").unwrap();
        assert_eq!(
            canonical(&ra),
            canonical(&rb),
            "{first:?} snapshot did not continue identically under {second:?}"
        );
    }
}

/// One double-sided hammer stream per core on vaults 0..cores, as in the
/// `adversarial` bench: 8 deep queues, 24 idle vaults.
fn hammer_traces(cfg: &SystemConfig) -> Vec<Box<dyn TraceSource>> {
    let t_refw = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz).t_refi;
    (0..cfg.cpu.cores)
        .map(|i| {
            let mut spec =
                AdversarialSpec::preset(AttackKind::HammerDouble, i as u16, 7 + u64::from(i));
            spec.aggressors = 32;
            Box::new(AdversarialTrace::new(spec, &cfg.hmc, t_refw).unwrap()) as Box<dyn TraceSource>
        })
        .collect()
}

/// Runs a fresh machine under `engine` to completion. With
/// `quarantine_at`, the fault plan is quarantined once the run loop
/// reaches that cycle; the cycle it lands on is returned so callers can
/// check both engines released the fault together.
fn run_engine(
    cfg: &SystemConfig,
    traces: Vec<Box<dyn TraceSource>>,
    engine: Engine,
    len: &RunLength,
    quarantine_at: Option<Cycle>,
) -> (String, Option<Cycle>) {
    let mut sys = System::new(cfg, SchemeKind::CampsMod, traces).unwrap();
    sys.set_engine(engine);
    sys.warmup(len.warmup_instructions);
    let mut st = sys.run_begin(len.instructions, len.max_cycles);
    let mut released = None;
    while sys.run_step(&mut st).unwrap() {
        if released.is_none() && quarantine_at.is_some_and(|at| sys.now() >= at) {
            sys.quarantine_faults();
            released = Some(sys.now());
        }
    }
    (canonical(&sys.run_finish(&st, "equiv").unwrap()), released)
}

#[test]
fn hammer_double_streams_are_bit_identical_across_engines() {
    let cfg = SystemConfig::paper_default();
    // A cycle horizon ends the run: starved hammer cores never reach an
    // instruction target.
    let len = RunLength {
        warmup_instructions: 0,
        instructions: u64::MAX,
        max_cycles: 40_000,
    };
    let (polled, _) = run_engine(&cfg, hammer_traces(&cfg), Engine::Polling, &len, None);
    let (evented, _) = run_engine(&cfg, hammer_traces(&cfg), Engine::Event, &len, None);
    assert_eq!(polled, evented, "hammer-double: engines diverged");
}

#[test]
fn hammer_double_snapshot_restores_identically_under_both_engines() {
    let cfg = SystemConfig::paper_default();
    let horizon = 40_000;
    let machine = |engine| {
        let mut sys = System::new(&cfg, SchemeKind::CampsMod, hammer_traces(&cfg)).unwrap();
        sys.set_engine(engine);
        let st = sys.run_begin(u64::MAX, horizon);
        (sys, st)
    };
    // Snapshot mid-horizon under the event engine, with deep queues,
    // row fetches and writebacks in flight.
    let (mut a, mut st_a) = machine(Engine::Event);
    while a.now() < horizon / 2 {
        assert!(a.run_step(&mut st_a).unwrap(), "ended before the snapshot");
    }
    let sys_state = a.save_state();
    let run_state = st_a.save_state();
    while a.run_step(&mut st_a).unwrap() {}
    let reference = canonical(&a.run_finish(&st_a, "hammer").unwrap());
    for engine in [Engine::Event, Engine::Polling] {
        let (mut b, mut st_b) = machine(engine);
        b.restore_state(&sys_state).unwrap();
        st_b.restore_state(&run_state).unwrap();
        while b.run_step(&mut st_b).unwrap() {}
        let restored = canonical(&b.run_finish(&st_b, "hammer").unwrap());
        assert_eq!(
            reference, restored,
            "hammer-double snapshot did not continue identically under {engine:?}"
        );
    }
}

#[test]
fn stalled_then_quarantined_vault_is_bit_identical_across_engines() {
    let mut cfg = SystemConfig::paper_default();
    cfg.faults.stall_vault = 3;
    cfg.faults.stall_vault_from = 1;
    let capacity = cfg.cube_map().unwrap().capacity_bytes();
    let mix = Mix::by_id("HM1").unwrap();
    let release = 3_000;
    let run = |engine| {
        let traces = mix.build_traces(capacity, 11).unwrap();
        run_engine(&cfg, traces, engine, &mini(), Some(release))
    };
    let (polled, poll_at) = run(Engine::Polling);
    let (evented, ev_at) = run(Engine::Event);
    // The stalled vault is never ticked, so its calendar entry stays due
    // and the event engine visits every cycle until the release.
    assert_eq!(poll_at, Some(release));
    assert_eq!(ev_at, Some(release), "event engine jumped over the release");
    assert_eq!(polled, evented, "stall + quarantine: engines diverged");
}
