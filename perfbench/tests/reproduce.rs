//! The traced run's parts must reproduce the untraced run on every
//! workload: otherwise its per-layer numbers describe some other run.

use camps_perfbench::traced;
use camps_perfbench::workload::{Workload, NAMES};

/// A short run of `name`: the same machine and traces, fewer cycles.
fn short(name: &str) -> Workload {
    let mut w = Workload::by_name(name).expect("known workload");
    if w.instructions == u64::MAX {
        w.max_cycles = 20_000;
    } else {
        w.instructions = 3_000;
    }
    w
}

#[test]
fn every_part_reproduces_the_untraced_run() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for name in NAMES {
        let rep = traced::run(&short(name), 3).expect("traced run");
        assert!(rep.unmatched.is_empty(), "{name}: {:?}", rep.unmatched);
        camps_perfbench::check_metrics(&rep.metrics).expect("valid metrics");
        camps_perfbench::check_declared(&declared, "per_layer", &rep.metrics, true)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn metric_names_are_checked() {
    use camps_perfbench::{check_metrics, Metric};
    assert!(check_metrics(&[Metric::new("a.b-c_1", 1.0, "s")]).is_ok());
    assert!(check_metrics(&[Metric::new("a b", 1.0, "s")]).is_err());
    assert!(check_metrics(&[Metric::new("", 1.0, "s")]).is_err());
    let twice = [Metric::new("x", 1.0, "s"), Metric::new("x", 2.0, "s")];
    assert!(check_metrics(&twice).is_err());
    assert!(check_metrics(&[Metric::new("x", f64::NAN, "s")]).is_err());
}

#[test]
fn metrics_must_match_the_declared_list() {
    use camps_perfbench::{check_declared, Metric};
    let json = r#"{"per_layer": [{"name": "a.x", "unit": "s", "better": "lower"},
                                 {"name": "b", "unit": "count", "better": "higher"}]}"#;
    let a = Metric::new("a.x", 1.0, "s");
    let b = Metric::new("b", 2.0, "count");
    assert!(check_declared(json, "per_layer", &[a.clone(), b.clone()], true).is_ok());
    assert!(check_declared(json, "per_layer", std::slice::from_ref(&a), true).is_err());
    assert!(check_declared(json, "per_layer", std::slice::from_ref(&a), false).is_ok());
    let wrong_unit = Metric::new("b", 2.0, "s");
    assert!(check_declared(json, "per_layer", &[a.clone(), wrong_unit], true).is_err());
    let undeclared = Metric::new("c", 1.0, "s");
    assert!(check_declared(json, "per_layer", &[a, b, undeclared], true).is_err());
    assert!(check_declared(json, "end_to_end", &[], true).is_err());
}
