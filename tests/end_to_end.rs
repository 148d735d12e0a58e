//! End-to-end integration tests: full-system runs at miniature scale
//! asserting the paper's qualitative results and cross-crate invariants.

use camps_sim::prelude::*;

/// Miniature run length that keeps debug-build tests fast while exercising
/// warmup, detailed simulation, prefetching, and finalization.
fn tiny() -> RunLength {
    RunLength {
        warmup_instructions: 6_000,
        instructions: 6_000,
        max_cycles: 2_000_000,
    }
}

fn run(mix_id: &str, scheme: SchemeKind) -> RunResult {
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id(mix_id).expect("known mix");
    camps::experiment::run(&cfg, &RunSpec::fresh(mix, scheme, tiny(), 0xFEED))
        .expect("clean run")
        .0
}

#[test]
fn every_scheme_completes_every_class() {
    for mix in ["HM2", "LM2", "MX2"] {
        for scheme in SchemeKind::ALL {
            let r = run(mix, scheme);
            assert_eq!(r.ipc.len(), 8, "{mix}/{scheme}");
            assert!(
                r.ipc.iter().all(|&i| i > 0.0 && i <= 4.0),
                "{mix}/{scheme}: IPC out of range: {:?}",
                r.ipc
            );
            assert!(
                r.cycles > 0 && r.cycles < 2_000_000,
                "{mix}/{scheme} hit the cycle cap"
            );
        }
    }
}

#[test]
fn nopf_never_prefetches_and_others_do() {
    let nopf = run("HM1", SchemeKind::Nopf);
    assert_eq!(nopf.vaults.prefetches.get(), 0);
    assert_eq!(nopf.vaults.buffer_hits.get(), 0);
    for scheme in [SchemeKind::Base, SchemeKind::Mmd, SchemeKind::CampsMod] {
        let r = run("HM1", scheme);
        assert!(
            r.vaults.prefetches.get() > 0,
            "{scheme} must prefetch on HM1"
        );
        assert!(
            r.vaults.buffer_hits.get() > 0,
            "{scheme}'s prefetches must be consumed"
        );
    }
}

#[test]
fn base_eliminates_row_buffer_conflicts() {
    // §5.2: BASE is excluded from Figure 6 "because the whole row is
    // prefetched every time a row is opened … so there are no row-buffer
    // conflicts".
    let r = run("MX3", SchemeKind::Base);
    assert_eq!(
        r.vaults.row_conflicts.get(),
        0,
        "BASE precharges after every fetch"
    );
    // And it pays for it with the lowest accuracy (Figure 7).
    let camps = run("MX3", SchemeKind::CampsMod);
    assert!(
        r.prefetch_accuracy() < camps.prefetch_accuracy(),
        "BASE accuracy {:.2} must trail CAMPS-MOD {:.2}",
        r.prefetch_accuracy(),
        camps.prefetch_accuracy()
    );
}

#[test]
fn camps_mod_reduces_conflicts_versus_mmd() {
    // Figure 6's ordering: the conflict-aware scheme has fewer row-buffer
    // conflicts than the conflict-blind MMD.
    let mmd = run("HM2", SchemeKind::Mmd);
    let camps = run("HM2", SchemeKind::CampsMod);
    assert!(
        camps.conflict_rate() < mmd.conflict_rate(),
        "CAMPS-MOD {:.3} must be below MMD {:.3}",
        camps.conflict_rate(),
        mmd.conflict_rate()
    );
}

#[test]
fn prefetching_beats_nopf_on_high_memory_mixes() {
    let nopf = run("HM1", SchemeKind::Nopf);
    let camps = run("HM1", SchemeKind::CampsMod);
    assert!(
        camps.geomean_ipc() > nopf.geomean_ipc(),
        "CAMPS-MOD {:.3} must beat NOPF {:.3} on HM1",
        camps.geomean_ipc(),
        nopf.geomean_ipc()
    );
    // Memory-side prefetching must also cut main-memory latency.
    assert!(camps.amat_mem < nopf.amat_mem);
}

#[test]
fn runs_are_deterministic() {
    let a = run("LM3", SchemeKind::Camps);
    let b = run("LM3", SchemeKind::Camps);
    assert_eq!(a.ipc, b.ipc);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.vaults, b.vaults);
    assert_eq!(a.energy_nj, b.energy_nj);
}

#[test]
fn different_seeds_change_outcomes() {
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id("LM3").unwrap();
    let a = camps::experiment::run(&cfg, &RunSpec::fresh(mix, SchemeKind::Nopf, tiny(), 1))
        .unwrap()
        .0;
    let b = camps::experiment::run(&cfg, &RunSpec::fresh(mix, SchemeKind::Nopf, tiny(), 2))
        .unwrap()
        .0;
    assert_ne!(a.cycles, b.cycles, "seeded workloads must differ");
}

#[test]
fn speedup_table_normalizes_against_base() {
    let results: Vec<RunResult> = [SchemeKind::Base, SchemeKind::CampsMod]
        .iter()
        .map(|&s| run("MX4", s))
        .collect();
    let cells = speedup_table(&results);
    assert_eq!(cells.len(), 2);
    let base = cells.iter().find(|c| c.scheme == SchemeKind::Base).unwrap();
    assert!((base.speedup - 1.0).abs() < 1e-12);
    assert!(average_speedup(&cells, SchemeKind::CampsMod).is_some());
}

#[test]
fn hm_mixes_are_more_memory_bound_than_lm() {
    let hm = run("HM1", SchemeKind::Nopf);
    let lm = run("LM1", SchemeKind::Nopf);
    assert!(
        hm.geomean_ipc() < lm.geomean_ipc(),
        "HM1 (IPC {:.3}) must be slower than LM1 (IPC {:.3})",
        hm.geomean_ipc(),
        lm.geomean_ipc()
    );
    // And they stress memory harder.
    assert!(hm.vaults.reads.get() > lm.vaults.reads.get());
}

#[test]
fn energy_accounts_follow_activity() {
    let r = run("MX2", SchemeKind::CampsMod);
    let e = &r.vaults.energy;
    assert!(e.activates > 0 && e.read_bursts > 0);
    assert!(e.row_fetches == r.vaults.prefetches.get());
    assert!(r.energy_nj > 0.0);
    // Precharges can exceed activates by at most the open rows at the end
    // — sanity band, not equality.
    assert!(e.precharges <= e.activates + 512);
}

#[test]
fn every_paper_scheme_is_bit_for_bit_reproducible() {
    // Regression guard for the determinism contract: two runs of the
    // same (mix, scheme, seed) must produce identical metrics for every
    // paper scheme, not just one — any hidden global state (hash-map
    // iteration order, uninitialized counters) shows up here.
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id("MX1").expect("known mix");
    let len = RunLength {
        warmup_instructions: 3_000,
        instructions: 3_000,
        max_cycles: 1_000_000,
    };
    for scheme in [
        SchemeKind::Base,
        SchemeKind::BaseHit,
        SchemeKind::Mmd,
        SchemeKind::Camps,
        SchemeKind::CampsMod,
    ] {
        let a = camps::experiment::run(&cfg, &RunSpec::fresh(mix, scheme, len, 0xD0D0))
            .unwrap()
            .0;
        let b = camps::experiment::run(&cfg, &RunSpec::fresh(mix, scheme, len, 0xD0D0))
            .unwrap()
            .0;
        assert_eq!(a.ipc, b.ipc, "{scheme}: IPC diverged");
        assert_eq!(a.cycles, b.cycles, "{scheme}: cycle count diverged");
        assert_eq!(a.vaults, b.vaults, "{scheme}: vault stats diverged");
        assert_eq!(a.amat_mem.to_bits(), b.amat_mem.to_bits(), "{scheme}");
        assert_eq!(a.energy_nj.to_bits(), b.energy_nj.to_bits(), "{scheme}");
    }
}

// ---------------------------------------------------------------------
// Integrity layer: fault injection must surface as typed errors, not as
// silently-wrong numbers (and never as panics).
// ---------------------------------------------------------------------

#[test]
fn truncated_trace_file_is_a_typed_error() {
    use camps_sim::camps_cpu::trace_file::{record, FileTrace};
    use camps_sim::camps_types::FaultPlan;
    use camps_sim::camps_workloads::generator::SpecTrace;
    use camps_sim::camps_workloads::spec::profile_for;

    let dir = std::env::temp_dir().join("camps-fault-traces");
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let path = dir.join("truncated.camps-trace");

    let mut gen = SpecTrace::new(profile_for("lbm").unwrap(), 0, 1 << 30, 7);
    record(&mut gen, 256).save(&path).expect("save trace");

    // Corrupt the image the way the fault plan would: chop the tail off.
    let bytes = std::fs::read(&path).expect("read back");
    let plan = FaultPlan {
        trace_truncate_to: 40,
        ..FaultPlan::default()
    };
    std::fs::write(&path, plan.mangle_trace_bytes(bytes)).expect("rewrite");

    let Err(err) = FileTrace::load(&path) else {
        panic!("a truncated trace must not load");
    };
    assert!(
        matches!(err, SimError::Trace(TraceError::TruncatedRecord { .. })),
        "got {err}"
    );
}

#[test]
fn stalled_vault_fault_trips_the_watchdog_end_to_end() {
    let mut cfg = SystemConfig::paper_default();
    cfg.faults.stall_vault = 3;
    cfg.faults.stall_vault_from = 1;
    cfg.integrity.watchdog_cycles = 20_000;
    let mix = Mix::by_id("HM1").expect("known mix");
    let Err(err) = camps::experiment::run(
        &cfg,
        &RunSpec::fresh(mix, SchemeKind::CampsMod, tiny(), 0xFEED),
    ) else {
        panic!("a dead vault must wedge the run");
    };
    let SimError::Watchdog(report) = err else {
        panic!("expected a watchdog trip, got {err}");
    };
    assert_eq!(report.stall_cycles, 20_000);
    // The diagnostic dump is renderable and names the stalled state.
    let dump = report.render();
    assert!(dump.contains("no forward progress"), "{dump}");
}

#[test]
fn duplicate_response_fault_is_caught_by_the_auditor() {
    let mut cfg = SystemConfig::paper_default();
    cfg.integrity.audit = true;
    cfg.faults.duplicate_response_every = 100;
    let mix = Mix::by_id("HM1").expect("known mix");
    let Err(err) = camps::experiment::run(
        &cfg,
        &RunSpec::fresh(mix, SchemeKind::CampsMod, tiny(), 0xFEED),
    ) else {
        panic!("duplicated responses must fail the run");
    };
    assert!(
        matches!(
            err,
            SimError::Integrity(IntegrityError::DuplicateCompletion { .. })
        ),
        "got {err}"
    );
}

#[test]
fn dropped_request_fault_is_detected() {
    // A dropped packet either wedges a core (watchdog) or — when the run
    // still completes — leaves the books unbalanced (lost requests at
    // drain). Either way the run must NOT return Ok with quietly-wrong
    // numbers.
    let mut cfg = SystemConfig::paper_default();
    cfg.integrity.audit = true;
    cfg.integrity.watchdog_cycles = 50_000;
    cfg.faults.drop_request_every = 50;
    let mix = Mix::by_id("HM1").expect("known mix");
    let Err(err) = camps::experiment::run(
        &cfg,
        &RunSpec::fresh(mix, SchemeKind::CampsMod, tiny(), 0xFEED),
    ) else {
        panic!("dropped packets must not yield a clean result");
    };
    assert!(
        matches!(
            err,
            SimError::Watchdog(_) | SimError::Integrity(IntegrityError::LostRequests { .. })
        ),
        "got {err}"
    );
}
