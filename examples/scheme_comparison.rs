//! Scheme shoot-out on one workload: runs all six schemes (NOPF + the
//! paper's five) on a chosen Table II mix in parallel and prints a
//! Figure 5-style comparison normalized to BASE.
//!
//! ```sh
//! cargo run --release --example scheme_comparison [MIX]
//! ```

use camps_sim::prelude::*;
use rayon::prelude::*;

fn main() {
    let mix_id = std::env::args().nth(1).unwrap_or_else(|| "MX1".into());
    let mix = Mix::by_id(&mix_id).unwrap_or_else(|| {
        eprintln!("unknown mix `{mix_id}`");
        std::process::exit(1);
    });
    let cfg = SystemConfig::paper_default();
    let schemes = [
        SchemeKind::Nopf,
        SchemeKind::Base,
        SchemeKind::BaseHit,
        SchemeKind::Mmd,
        SchemeKind::Camps,
        SchemeKind::CampsMod,
    ];

    println!("running {} under {} schemes …", mix.id, schemes.len());
    let results: Vec<RunResult> = schemes
        .par_iter()
        .map(|&s| {
            let spec = RunSpec::fresh(mix, s, RunLength::quick(), 7);
            run(&cfg, &spec).expect("quick run").0
        })
        .collect();

    let base_perf = results
        .iter()
        .find(|r| r.scheme == SchemeKind::Base)
        .expect("BASE ran")
        .geomean_ipc();

    println!(
        "\n{:>10}  {:>8}  {:>8}  {:>10}  {:>9}  {:>9}  {:>9}",
        "scheme", "IPC", "vs BASE", "conflicts", "accuracy", "AMAT", "energy"
    );
    for r in &results {
        println!(
            "{:>10}  {:>8.3}  {:>7.1}%  {:>9.1}%  {:>8.1}%  {:>6.0} cy  {:>6.2} mJ",
            r.scheme.name(),
            r.geomean_ipc(),
            (r.geomean_ipc() / base_perf - 1.0) * 100.0,
            r.conflict_rate() * 100.0,
            r.prefetch_accuracy() * 100.0,
            r.amat_mem,
            r.energy_nj / 1e6,
        );
    }
    println!(
        "\nPaper's qualitative expectations: CAMPS-MOD tops BASE by ~18% on \
         average, reduces conflicts vs MMD/BASE-HIT, and BASE shows the \
         lowest prefetch accuracy (Figures 5-7)."
    );
}
