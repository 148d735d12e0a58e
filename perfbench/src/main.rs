//! `perfbench` — the CAMPS repository benchmark, one workload per run.
//!
//! ```text
//! perfbench --workload hm1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the workload is built,
//! warmed and run under the event engine, again and again until
//! `--seconds` have passed, and every run's serialized result must equal
//! the polling engine's (computed once, outside the timed region).
//! `--trace 1` makes the separate traced run instead and reports the
//! per-layer metrics (see `traced.rs`); it runs each part once, so
//! `--seconds` does not apply.
//!
//! Each metric is printed as `name value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The full result, with provenance and
//! measurement conditions, is written to `perfbench/out/`. Run it from
//! the repository root (`perfbench/run.py` does).

use camps_perfbench::workload::{Workload, NAMES, WARMUP_INSTRUCTIONS};
use camps_perfbench::{check_declared, check_metrics, median, provenance, timed, traced, Metric};
use serde::value::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// What one invocation found.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<(String, Value)>,
}

fn end_to_end(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let (reference, peak_rss_mib) = timed::polling_reference(w, args.seed)?;
    let runs = timed::measure(w, args.seed, args.seconds, &timed::canonical(&reference));
    let failures: Vec<&String> = runs
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .collect();
    let r = &reference;
    let med = |f: fn(&timed::TimedRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new(
            "sim_mcycles_per_s",
            med(|t| t.cycles as f64 / t.nominal_wall_s() / 1e6),
            "Mcycles/s",
        ),
        Metric::new("wall_s", med(timed::TimedRun::nominal_wall_s), "s"),
        Metric::new("setup_s", med(timed::TimedRun::nominal_setup_s), "s"),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        Metric::new("sim_cycles", r.cycles as f64, "cycles"),
        Metric::new("ipc_geomean", r.geomean_ipc(), "instr/cycle"),
        Metric::new("amat_mem_cycles", r.amat_mem, "cycles"),
        Metric::new("row_conflict_rate", r.conflict_rate(), "ratio"),
        Metric::new("hmc_energy_nj", r.energy_nj, "nJ"),
    ];
    let each = |f: fn(&timed::TimedRun) -> f64| {
        Value::Seq(runs.iter().map(|t| Value::F64(f(t))).collect())
    };
    let mut notes = vec![
        ("timed_runs".to_string(), Value::U64(runs.len() as u64)),
        ("raw_wall_s_each".to_string(), each(|t| t.wall_s)),
        ("raw_setup_s_each".to_string(), each(|t| t.setup.total())),
        ("host_speed_each".to_string(), each(|t| t.host_speed)),
        (
            "raw_wall_s_median".to_string(),
            Value::F64(med(|t| t.wall_s)),
        ),
    ];
    if r.vaults.prefetches.get() > 0 {
        notes.push((
            "prefetch_accuracy".into(),
            Value::F64(r.prefetch_accuracy()),
        ));
    }
    if let Some(first) = failures.first() {
        notes.push(("first_failure".into(), Value::Str((*first).clone())));
    }
    Ok(Outcome {
        metrics,
        attempted: runs.len() as u64,
        failed: failures.len() as u64,
        notes,
    })
}

fn per_layer(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let rep = traced::run(w, args.seed)?;
    for (part, reason) in &rep.unmatched {
        eprintln!("perfbench: {part} unmatched: {reason}");
    }
    let unmatched = rep
        .unmatched
        .iter()
        .map(|(p, r)| (p.clone(), Value::Str(r.clone())))
        .collect();
    Ok(Outcome {
        attempted: rep.checks,
        failed: rep.unmatched.len() as u64,
        metrics: rep.metrics,
        notes: vec![("unmatched".into(), Value::Map(unmatched))],
    })
}

fn conditions(w: &Workload, args: &Args) -> Vec<(String, Value)> {
    let s = |v: &str| Value::Str(v.to_string());
    vec![
        ("workload".into(), s(w.name)),
        ("seed".into(), Value::U64(args.seed)),
        ("engine".into(), s("event (checked against polling)")),
        ("scheme".into(), s(&w.scheme.to_string())),
        ("cores".into(), Value::U64(u64::from(w.cfg.cpu.cores))),
        ("cubes".into(), Value::U64(u64::from(w.cfg.topology.cubes))),
        (
            "warmup_instructions_per_core".into(),
            Value::U64(WARMUP_INSTRUCTIONS),
        ),
        ("instructions_per_core".into(), Value::U64(w.instructions)),
        ("max_cycles".into(), Value::U64(w.max_cycles)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "validation".into(),
            s(
                "the model is not validated against hardware: the repository holds no \
               reference measurements, so no error figure is given",
            ),
        ),
    ]
}

fn write_result(args: &Args, doc: &Value) -> Result<PathBuf, String> {
    let dir = Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::by_name(&args.workload).expect("name checked in parse_args");
    let outcome = if args.trace {
        per_layer(&w, &args)
    } else {
        end_to_end(&w, &args)
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = std::fs::read_to_string(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"));
    let outcome = outcome.and_then(|o| {
        check_metrics(&o.metrics)?;
        check_declared(&declared?, section, &o.metrics, o.failed == 0)?;
        Ok(o)
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Map(vec![
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let doc = Value::Map(vec![
        ("provenance".into(), Value::Map(provenance::collect())),
        ("conditions".into(), Value::Map(conditions(&w, &args))),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("notes".into(), Value::Map(outcome.notes.clone())),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    match write_result(&args, &doc) {
        Ok(path) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    for m in &outcome.metrics {
        println!("{} {} {} {}", args.workload, m.name, m.value, m.unit);
    }
    println!("{}", json_line(&outcome));
    ExitCode::SUCCESS
}
