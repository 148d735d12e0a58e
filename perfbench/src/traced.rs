//! The traced run: per-layer host time from spans the benchmark wraps
//! around public calls, plus exact work counts from public stats.
//!
//! It is separate from the timed runs and uses the same workload and
//! seed. Three parts:
//!
//! 1. `System` under the event engine, one span per `run_step`. The
//!    cycles it ticks become the schedule the other parts follow.
//! 2. Layered stepping: `Core`s and a `MemorySubsystem` built from the
//!    same config and traces, warmed as `System::warmup` does, and
//!    stepped on part 1's cycles in `System`'s per-cycle order, with
//!    spans around `Core::tick`, the `MemoryPort` calls,
//!    `MemorySubsystem::tick` and `Core::complete_load`.
//! 3. Cube replay: the host/cube boundary stream (see [`crate::recorder`])
//!    replayed into a standalone `Topology` (`submit`/`tick`), whose
//!    request tracer yields each request's vault-arrival cycle; then, per
//!    vault, into standalone `VaultController`s (`try_enqueue`/`tick`).
//!
//! A part's numbers are reported only if it reproduces the untraced
//! run: part 2 the per-core statistics and cycle count, part 3 the
//! per-vault statistics. Otherwise the part is listed as unmatched with
//! the reason.

use crate::recorder::{Recorder, Submit};
use crate::spans::{Layer, Spans};
use crate::timed::{canonical, run_steps, same_result, HostPace, Paced};
use crate::workload::{Workload, WARMUP_INSTRUCTIONS};
use crate::Metric;
use camps::metrics::RunResult;
use camps::system::MemorySubsystem;
use camps::topology::Topology;
use camps::System;
use camps_cache::hierarchy::{CacheHierarchy, HierarchyOutcome};
use camps_cpu::core_model::{Core, CoreStats, MemoryPort, PortResult};
use camps_obs::{ObsConfig, Profiler, ReqClass, TraceHandle};
use camps_types::addr::{AddressMapping, CubeMap, PhysAddr};
use camps_types::clock::Cycle;
use camps_types::request::{CoreId, MemRequest};
use camps_types::wake::Wake;
use camps_vault::{VaultController, VaultStats};
use serde::value::{lookup, Value};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::time::Instant;

/// Cycles the cube replay keeps ticking past the run's end so requests
/// still in flight finish and their arrival stamps reach the trace.
const FLUSH_CYCLES: Cycle = 1_000_000;

/// What the traced run found.
#[derive(Debug, Default)]
pub struct TracedReport {
    /// Per-layer metrics of every part that reproduced.
    pub metrics: Vec<Metric>,
    /// `(part, reason)` for every part that did not.
    pub unmatched: Vec<(String, String)>,
    /// Reproduction checks made.
    pub checks: u64,
}

impl TracedReport {
    /// Counts a reproduction check: the value if it passed, else the
    /// part is noted as unmatched with the reason.
    fn matched<T>(&mut self, part: &str, r: Result<T, String>) -> Option<T> {
        self.checks += 1;
        r.map_err(|reason| self.unmatched.push((part.to_string(), reason)))
            .ok()
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }
}

/// Runs all three parts on `w` with `seed`.
///
/// # Errors
/// Set-up failed, or the untraced reference run returned an error.
pub fn run(w: &Workload, seed: u64) -> Result<TracedReport, String> {
    let mut rep = TracedReport::default();

    // The untraced run every part is checked against. Host times are
    // rescaled to nominal host speed (see `timed::HostPace`) so the
    // overhead ratios compare like with like.
    let (mut sys, setup) = w.setup(seed)?;
    let mut pace = HostPace::start();
    let plain = run_steps(&mut sys, w, &mut pace, System::run_step)
        .map_err(|e| format!("untraced run: {e}"))?;
    let plain_s = pace.finish().nominal_s();
    let reference = canonical(&plain);
    let plain_vaults = vault_stats(sys.memory().topology());
    drop(sys);
    rep.push("workloads.trace_build_s", setup.trace_build_s, "s");
    rep.push("cache.warmup_s", setup.warmup_s, "s");
    rep.push("bench.span_cost_ns", span_cost_ns(), "ns");

    // The program's own self-profiler, for its overhead.
    let (mut sys, _) = w.setup(seed)?;
    sys.enable_obs(&ObsConfig {
        profile: true,
        ..ObsConfig::default()
    });
    let mut pace = HostPace::start();
    let profiled = run_steps(&mut sys, w, &mut pace, System::run_step);
    let profiled_s = pace.finish().nominal_s();
    drop(sys);
    let profiled = same_result(profiled, &reference, "the untraced run's");
    if rep.matched("obs", profiled).is_some() {
        rep.push("obs.profile_over_plain", profiled_s / plain_s, "ratio");
    }

    // Part 1: System with a span per run_step.
    let mut spans = Spans::new();
    let (mut sys, _) = w.setup(seed)?;
    let mut schedule = Vec::new();
    let mut pace = HostPace::start();
    let traced = run_steps(&mut sys, w, &mut pace, |sys, state| {
        let stepped = spans.time(Layer::SystemStep, |_| sys.run_step(state));
        if let Ok(true) = stepped {
            schedule.push(sys.now());
        }
        stepped
    })
    .map_err(|e| format!("traced System run: {e}"))?;
    let traced_s = pace.finish().nominal_s();
    drop(sys);
    let traced = same_result(Ok(traced), &reference, "the untraced run's");
    if let Some(traced) = rep.matched("system", traced) {
        let steps = spans.calls(Layer::SystemStep);
        rep.push("system.run_step.calls", steps as f64, "count");
        rep.push("system.run_step.s", spans.total_s(Layer::SystemStep), "s");
        rep.push(
            "system.cycles_per_step",
            traced.cycles as f64 / schedule.len().max(1) as f64,
            "cycles",
        );
        rep.push("bench.trace_overhead", traced_s / plain_s, "ratio");
    }
    push_counts(&mut rep, &plain);

    // Part 2: layered stepping on the real MemorySubsystem.
    let layered = layered(w, seed, &schedule).and_then(|l| {
        same_cores(&l.cores, l.end, &plain)?;
        Ok(l)
    });
    if let Some(l) = rep.matched("layered", layered) {
        let s = &l.spans;
        rep.push("cpu.tick.calls", s.calls(Layer::CpuTick) as f64, "count");
        rep.push("cpu.tick.self_s", s.self_s(Layer::CpuTick), "s");
        rep.push(
            "cpu.complete_load.s",
            s.total_s(Layer::CpuCompleteLoad),
            "s",
        );
        rep.push(
            "cache.port.calls",
            s.calls(Layer::CachePort) as f64,
            "count",
        );
        rep.push("cache.port.s", s.total_s(Layer::CachePort), "s");
        rep.push(
            "memory.tick.calls",
            s.calls(Layer::MemoryTick) as f64,
            "count",
        );
        rep.push("memory.tick.s", s.total_s(Layer::MemoryTick), "s");
        rep.push(
            "bench.layered_over_plain",
            l.paced.nominal_s() / plain_s,
            "ratio",
        );
        let retired: u64 = plain.core_stats.iter().map(|c| c.retired.get()).sum();
        rep.push("cache.l1d_hit_rate", l.l1d_hit_rate, "ratio");
        rep.push("cache.l2_hit_rate", l.l2_hit_rate, "ratio");
        rep.push(
            "cache.l3_mpki",
            l.l3_misses as f64 * 1000.0 / retired.max(1) as f64,
            "count/kinstr",
        );
        rep.push(
            "cache.warmup_l3_fill_share",
            l.warmup_l3_fill_share,
            "ratio",
        );
    }

    // Part 3: the boundary stream, then the cube and vault replays.
    let stream = record(w, seed, &schedule).and_then(|(cores, end, log)| {
        same_cores(&cores, end, &plain)?;
        Ok(log)
    });
    let Some(log) = rep.matched("recorder", stream) else {
        return Ok(rep);
    };
    let mut spans = Spans::new();
    let cube = replay_topology(w, &log, &schedule, plain.cycles, &mut spans).and_then(|(v, a)| {
        same_vaults("topology replay", &v, &plain_vaults)?;
        Ok(a)
    });
    let Some(arrivals) = rep.matched("topology-replay", cube) else {
        return Ok(rep);
    };
    rep.push("hmc.submit.s", spans.total_s(Layer::HmcSubmit), "s");
    rep.push(
        "hmc.tick.calls",
        spans.calls(Layer::HmcTick) as f64,
        "count",
    );
    rep.push("hmc.tick.s", spans.total_s(Layer::HmcTick), "s");
    let vaults = replay_vaults(w, &log, &arrivals, &schedule, plain.cycles, &mut spans).and_then(
        |(v, idle)| {
            same_vaults("vault replay", &v, &plain_vaults)?;
            Ok(idle)
        },
    );
    if let Some(idle_share) = rep.matched("vault-replay", vaults) {
        let ticks = schedule.len() as u64 * spans.calls(Layer::VaultReplay);
        rep.push(
            "vault.try_enqueue.s",
            spans.total_s(Layer::VaultEnqueue),
            "s",
        );
        rep.push(
            "vault.try_enqueue.calls",
            spans.calls(Layer::VaultEnqueue) as f64,
            "count",
        );
        rep.push("vault.tick.calls", ticks as f64, "count");
        rep.push("vault.tick.s", spans.self_s(Layer::VaultReplay), "s");
        rep.push("vault.idle_tick_share", idle_share, "ratio");
    }
    Ok(rep)
}

/// Exact work counts of the untraced run: they repeat for a seed, and a
/// simulator-speed change must leave every one of them unchanged.
fn push_counts(rep: &mut TracedReport, r: &RunResult) {
    let sum = |f: fn(&CoreStats) -> u64| r.core_stats.iter().map(f).sum::<u64>() as f64;
    rep.push("cpu.retired", sum(|c| c.retired.get()), "count");
    rep.push(
        "cpu.load_stall_cycles",
        sum(|c| c.load_stall_cycles.get()),
        "count",
    );
    rep.push("cpu.port_rejections", sum(|c| c.rejections.get()), "count");
    let v = &r.vaults;
    for (name, value) in [
        ("vault.reads", v.reads.get()),
        ("vault.writes", v.writes.get()),
        ("vault.queue_rejects", v.queue_rejects.get()),
        ("vault.row_hits", v.row_hits.get()),
        ("vault.row_misses", v.row_misses.get()),
        ("vault.row_conflicts", v.row_conflicts.get()),
        ("vault.drain_entries", v.drain_entries.get()),
        ("prefetch.issued", v.prefetches.get()),
        ("prefetch.referenced", v.prefetches_referenced.get()),
        ("prefetch.dropped", v.prefetches_dropped.get()),
        ("prefetch.buffer_hits", v.buffer_hits.get()),
        ("dram.acts.demand", v.demand_activations.get()),
        ("dram.acts.prefetch", v.prefetch_activations.get()),
        ("dram.acts.writeback", v.writeback_activations.get()),
        ("dram.refreshes", v.refreshes.get()),
        ("dram.worst_row_window_acts", v.worst_row_window_acts),
    ] {
        rep.push(name, value as f64, "count");
    }
    rep.push("prefetch.accuracy", r.prefetch_accuracy(), "ratio");
}

fn vault_stats(topo: &Topology) -> Vec<VaultStats> {
    topo.all_cubes()
        .iter()
        .flat_map(|c| c.vaults().iter().map(|v| v.stats().clone()))
        .collect()
}

fn same_cores(cores: &[Core], end: Cycle, plain: &RunResult) -> Result<(), String> {
    if end != plain.cycles {
        return Err(format!("ended at cycle {end}, System at {}", plain.cycles));
    }
    for (i, (core, want)) in cores.iter().zip(&plain.core_stats).enumerate() {
        if core.stats() != want {
            return Err(format!(
                "core {i} differs: retired {} vs {}, cycles {} vs {}",
                core.stats().retired.get(),
                want.retired.get(),
                core.stats().cycles.get(),
                want.cycles.get()
            ));
        }
    }
    Ok(())
}

fn same_vaults(what: &str, got: &[VaultStats], want: &[VaultStats]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} vaults, System has {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: vault {v} differs (reads {} vs {}, conflicts {} vs {})",
            got[v].reads.get(),
            want[v].reads.get(),
            got[v].row_conflicts.get(),
            want[v].row_conflicts.get()
        )),
    }
}

/// The memory side the layered stepping drives. `prof` is a disabled
/// profiler the program's calls require, built once by the caller
/// (building one reads the clock).
trait MemSide {
    fn tick_core(&mut self, core: &mut Core, now: Cycle, spans: &mut Spans, prof: &mut Profiler);
    fn tick_mem(
        &mut self,
        now: Cycle,
        woken: &mut Vec<(CoreId, u64)>,
        spans: &mut Spans,
        prof: &mut Profiler,
    );
}

/// The program's `MemorySubsystem` behind a port that times each call.
struct TimedPort<'a> {
    mem: &'a mut MemorySubsystem,
    spans: &'a mut Spans,
}

impl MemoryPort for TimedPort<'_> {
    fn load(
        &mut self,
        now: Cycle,
        core: CoreId,
        slot: u64,
        addr: PhysAddr,
        prof: &mut Profiler,
    ) -> PortResult {
        let mem = &mut *self.mem;
        self.spans
            .time(Layer::CachePort, |_| mem.load(now, core, slot, addr, prof))
    }

    fn store(&mut self, now: Cycle, core: CoreId, addr: PhysAddr, prof: &mut Profiler) -> bool {
        let mem = &mut *self.mem;
        self.spans
            .time(Layer::CachePort, |_| mem.store(now, core, addr, prof))
    }
}

impl MemSide for MemorySubsystem {
    fn tick_core(&mut self, core: &mut Core, now: Cycle, spans: &mut Spans, prof: &mut Profiler) {
        spans.time(Layer::CpuTick, |spans| {
            core.tick(now, &mut TimedPort { mem: self, spans }, prof);
        });
    }

    fn tick_mem(
        &mut self,
        now: Cycle,
        woken: &mut Vec<(CoreId, u64)>,
        spans: &mut Spans,
        prof: &mut Profiler,
    ) {
        spans.time(Layer::MemoryTick, |_| self.tick(now, woken, prof));
    }
}

impl MemSide for Recorder {
    fn tick_core(&mut self, core: &mut Core, now: Cycle, _: &mut Spans, prof: &mut Profiler) {
        core.tick(now, self, prof);
    }

    fn tick_mem(
        &mut self,
        now: Cycle,
        woken: &mut Vec<(CoreId, u64)>,
        _: &mut Spans,
        _: &mut Profiler,
    ) {
        self.tick(now, woken);
    }
}

/// Cores for `w` and `seed`, with their caches functionally warmed as
/// `System::warmup` does.
fn warmed_cores(w: &Workload, seed: u64, h: &mut CacheHierarchy) -> Result<Vec<Core>, String> {
    let mut cores: Vec<Core> = w
        .traces(seed)?
        .into_iter()
        .enumerate()
        .map(|(i, t)| Core::new(CoreId(i as u8), &w.cfg.cpu, t))
        .collect();
    let mut prof = Profiler::off();
    for (i, core) in cores.iter_mut().enumerate() {
        let mut done = 0;
        while done < WARMUP_INSTRUCTIONS {
            let op = core.warmup_op();
            done += op.instructions();
            if let Some((addr, kind)) = op.mem {
                let mut wb = Vec::new();
                let store = !kind.is_read();
                if let HierarchyOutcome::Miss { .. } = h.access(i, addr, store, &mut wb, &mut prof)
                {
                    h.fill(i, addr, store, &mut wb);
                }
            }
        }
    }
    Ok(cores)
}

/// Steps `cores` against `mem` on the cycles of `schedule`, in
/// `System::run_step`'s order, replaying skipped cycles with
/// `Core::skip_idle` as the event engine does. Returns the last cycle.
fn step<M: MemSide>(
    cores: &mut [Core],
    mem: &mut M,
    schedule: &[Cycle],
    spans: &mut Spans,
    pace: &mut HostPace,
) -> Result<Cycle, String> {
    let mut now: Cycle = 0;
    let mut woken = Vec::new();
    let mut prof = Profiler::off();
    for &t in schedule {
        let skipped = t - now - 1;
        if skipped > 0 {
            for core in cores.iter_mut() {
                core.skip_idle(skipped);
            }
        }
        now = t;
        for core in cores.iter_mut() {
            mem.tick_core(core, now, spans, &mut prof);
        }
        woken.clear();
        mem.tick_mem(now, &mut woken, spans, &mut prof);
        for &(core, slot) in &woken {
            let c = cores
                .get_mut(usize::from(core.0))
                .ok_or_else(|| format!("response for unknown core {}", core.0))?;
            spans.time(Layer::CpuCompleteLoad, |_| c.complete_load(slot));
        }
        pace.step();
    }
    Ok(now)
}

/// Summed over cores: L1 hits, L1 lookups, L2 hits, L2 lookups; then
/// L3 misses and L3 fills.
fn cache_totals(h: &CacheHierarchy) -> [u64; 6] {
    let mut t = [0; 6];
    for core in 0..h.cores() {
        let (l1, l2, _) = h.stats(core);
        t[0] += l1.accesses.hits.get();
        t[1] += l1.accesses.total.get();
        t[2] += l2.accesses.hits.get();
        t[3] += l2.accesses.total.get();
    }
    t[4] = h.l3_misses();
    t[5] = h.stats(0).2.fills.get();
    t
}

struct Layered {
    cores: Vec<Core>,
    end: Cycle,
    spans: Spans,
    paced: Paced,
    /// Cache statistics of the detailed run, warmup excluded.
    l1d_hit_rate: f64,
    l2_hit_rate: f64,
    l3_misses: u64,
    /// L3 fills during warmup over L3 lines: an upper bound on how full
    /// warmup leaves the L3.
    warmup_l3_fill_share: f64,
}

fn layered(w: &Workload, seed: u64, schedule: &[Cycle]) -> Result<Layered, String> {
    let mut mem = MemorySubsystem::new(&w.cfg, w.scheme).map_err(|e| e.to_string())?;
    let mut cores = warmed_cores(w, seed, mem.hierarchy_mut())?;
    let warm = cache_totals(mem.hierarchy_mut());
    let mut spans = Spans::new();
    let mut pace = HostPace::start();
    let end = step(&mut cores, &mut mem, schedule, &mut spans, &mut pace)?;
    let paced = pace.finish();
    let done = cache_totals(mem.hierarchy_mut());
    let ratio = |hits: usize, total: usize| {
        (done[hits] - warm[hits]) as f64 / (done[total] - warm[total]).max(1) as f64
    };
    let l3_lines = w.cfg.l3.size_bytes / u64::from(w.cfg.l3.line_bytes);
    Ok(Layered {
        cores,
        end,
        spans,
        paced,
        l1d_hit_rate: ratio(0, 1),
        l2_hit_rate: ratio(2, 3),
        l3_misses: done[4] - warm[4],
        warmup_l3_fill_share: (warm[5] as f64 / l3_lines as f64).min(1.0),
    })
}

/// Runs the cores against the [`Recorder`] on the same schedule and
/// returns them, the last cycle, and the boundary stream.
fn record(
    w: &Workload,
    seed: u64,
    schedule: &[Cycle],
) -> Result<(Vec<Core>, Cycle, Vec<Submit>), String> {
    let mut rec = Recorder::new(&w.cfg, w.scheme)?;
    let mut cores = warmed_cores(w, seed, rec.hierarchy_mut())?;
    let end = step(
        &mut cores,
        &mut rec,
        schedule,
        &mut Spans::new(),
        &mut HostPace::start(),
    )?;
    Ok((cores, end, rec.log))
}

/// A request's arrival at its vault, from the replay's tracer. Ordered
/// as the cube delivers same-cycle arrivals: by link launch, then by
/// submit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    /// Cycle it reached the vault.
    at: Cycle,
    /// Cycle it left the host queue onto a serial link.
    launch: Cycle,
    /// Request id: position in the boundary stream, from 1.
    id: u64,
    /// Pool-global vault index.
    vault: usize,
}

/// Replays the boundary stream into a standalone `Topology`, returning
/// its per-vault statistics at `end` and every request's arrival at its
/// vault up to `end`.
fn replay_topology(
    w: &Workload,
    log: &[Submit],
    schedule: &[Cycle],
    end: Cycle,
    spans: &mut Spans,
) -> Result<(Vec<VaultStats>, Vec<Arrival>), String> {
    let mut topo = Topology::new(&w.cfg, w.scheme).map_err(|e| e.to_string())?;
    // Only the request-link spans are kept: their end is the vault
    // arrival. Every request is opened as a traced class so stores and
    // writebacks are exported too. `trace_out` switches span recording
    // on; nothing is written to it.
    let obs = TraceHandle::new(&ObsConfig {
        trace_out: Some(PathBuf::from("unused.json")),
        trace_filter: Some("req_link".into()),
        trace_capacity: log.len() + 16,
        ..ObsConfig::default()
    });
    topo.set_obs(obs.clone());
    let mut next = 0;
    let mut out = Vec::new();
    let mut prof = Profiler::off();
    let mut tick = |topo: &mut Topology, t: Cycle, spans: &mut Spans| {
        out.clear();
        spans.time(Layer::HmcTick, |_| topo.tick(t, &mut out, &mut prof));
        for r in out.iter().filter(|r| !r.push) {
            obs.finish(r.id.0, r.source, t);
        }
    };
    for &t in schedule {
        while let Some(s) = log.get(next).filter(|s| s.at == t) {
            let r = s.req;
            obs.issue(r.id.0, r.core.0, r.addr.0, ReqClass::CorePrefetch, t, t);
            if !spans.time(Layer::HmcSubmit, |_| topo.submit(r, t)) {
                return Err(format!(
                    "replayed submit of request {} refused at cycle {t}",
                    r.id.0
                ));
            }
            next += 1;
        }
        tick(&mut topo, t, spans);
    }
    if next != log.len() {
        return Err(format!(
            "{} submits fall outside the tick schedule",
            log.len() - next
        ));
    }
    topo.finalize(end);
    let stats = vault_stats(&topo);
    let mut flush = Spans::new();
    let mut t = end;
    while topo.busy() && t < end + FLUSH_CYCLES {
        t += 1;
        tick(&mut topo, t, &mut flush);
    }
    let trace = obs
        .render_trace_json()
        .ok_or("request tracer compiled out")?;
    let arrivals = parse_arrivals(&trace, topo.vaults_per_cube())?
        .into_iter()
        .filter(|a| a.at <= end)
        .collect();
    Ok((stats, arrivals))
}

fn field_u64(e: &[(String, Value)], key: &str) -> Option<u64> {
    match lookup(e, key)? {
        Value::U64(v) => Some(*v),
        Value::Str(s) => u64::from_str_radix(s.strip_prefix("0x")?, 16).ok(),
        _ => None,
    }
}

/// Vault arrivals from the Chrome-trace JSON of the replay's tracer:
/// each `req_link` span begins at link launch and ends at the vault.
fn parse_arrivals(trace: &str, vaults_per_cube: usize) -> Result<Vec<Arrival>, String> {
    let doc: Value = serde_json::from_str(trace).map_err(|e| format!("trace JSON: {e}"))?;
    let Value::Map(top) = &doc else {
        return Err("trace JSON is not an object".into());
    };
    let Some(Value::Seq(events)) = lookup(top, "traceEvents") else {
        return Err("trace JSON has no traceEvents".into());
    };
    let mut open: HashMap<u64, (u64, usize)> = HashMap::new();
    let mut arrivals = Vec::new();
    for ev in events {
        let Value::Map(e) = ev else { continue };
        let ph = match lookup(e, "ph") {
            Some(Value::Str(p)) => p.as_str(),
            _ => continue,
        };
        if ph == "M" {
            if let Some(Value::Map(args)) = lookup(e, "args") {
                if field_u64(args, "dropped").is_some_and(|d| d > 0) {
                    return Err("request trace ring dropped records".into());
                }
            }
            continue;
        }
        let (Some(id), Some(ts)) = (field_u64(e, "id"), field_u64(e, "ts")) else {
            continue;
        };
        match ph {
            "b" => {
                let Some(Value::Map(args)) = lookup(e, "args") else {
                    return Err(format!("span {id:#x} has no args"));
                };
                let cube = field_u64(args, "cube").unwrap_or(0) as usize;
                let vault = field_u64(args, "vault").unwrap_or(0) as usize;
                open.insert(id, (ts, cube * vaults_per_cube + vault));
            }
            "e" => {
                let (launch, vault) = open
                    .remove(&id)
                    .ok_or_else(|| format!("span {id:#x} ends before it begins"))?;
                arrivals.push(Arrival {
                    at: ts,
                    launch,
                    id,
                    vault,
                });
            }
            _ => {}
        }
    }
    Ok(arrivals)
}

/// Replays each vault's arrivals into a standalone `VaultController`,
/// ticked on the schedule's cycles with the cube's enqueue/retry order.
/// Returns per-vault statistics at `end` and the share of ticks made
/// before the vault's own `next_event`.
///
/// Each vault is replayed twice: once timed, one span around its whole
/// tick loop (a span per tick would cost more clock reads than an idle
/// vault tick costs), and once untimed, asking `next_event` before each
/// tick.
fn replay_vaults(
    w: &Workload,
    log: &[Submit],
    arrivals: &[Arrival],
    schedule: &[Cycle],
    end: Cycle,
    spans: &mut Spans,
) -> Result<(Vec<VaultStats>, f64), String> {
    let per_cube = w.cfg.hmc.vaults as usize;
    let vaults = per_cube * w.cfg.topology.cubes as usize;
    let mut by_vault: Vec<Vec<Arrival>> = vec![Vec::new(); vaults];
    for a in arrivals {
        by_vault
            .get_mut(a.vault)
            .ok_or_else(|| format!("arrival at vault {} of {vaults}", a.vault))?
            .push(*a);
    }
    let feed = VaultFeed {
        log,
        schedule,
        cube_map: w.cfg.cube_map().map_err(|e| e.to_string())?,
        mapping: w.cfg.hmc.address_mapping().map_err(|e| e.to_string())?,
    };
    let new_vault = |g: usize| {
        VaultController::new((g % per_cube) as u16, &w.cfg, w.scheme).map_err(|e| e.to_string())
    };
    let mut idle = 0u64;
    let mut stats = Vec::with_capacity(vaults);
    for (g, list) in by_vault.iter_mut().enumerate() {
        list.sort_unstable();
        let mut v = new_vault(g)?;
        spans.time(Layer::VaultReplay, |spans| {
            feed.replay(&mut v, list, spans, None)
        })?;
        v.finalize(end);
        stats.push(v.stats().clone());
        feed.replay(&mut new_vault(g)?, list, &mut Spans::new(), Some(&mut idle))?;
    }
    let ticks = (schedule.len() * vaults).max(1);
    Ok((stats, idle as f64 / ticks as f64))
}

/// What a vault replay needs besides the vault and its arrivals.
struct VaultFeed<'a> {
    log: &'a [Submit],
    schedule: &'a [Cycle],
    cube_map: CubeMap,
    mapping: AddressMapping,
}

impl VaultFeed<'_> {
    /// Enqueues `arrivals` into `v` and ticks it on every scheduled
    /// cycle, retrying refused requests each cycle as the cube does.
    /// With `idle`, counts ticks made before the vault's `next_event`.
    fn replay(
        &self,
        v: &mut VaultController,
        arrivals: &[Arrival],
        spans: &mut Spans,
        mut idle: Option<&mut u64>,
    ) -> Result<(), String> {
        let mut retry = VecDeque::new();
        let mut next = 0;
        let mut out = Vec::new();
        let mut prof = Profiler::off();
        for &t in self.schedule {
            while let Some(a) = arrivals.get(next).filter(|a| a.at <= t) {
                let req =
                    a.id.checked_sub(1)
                        .and_then(|i| self.log.get(usize::try_from(i).ok()?))
                        .ok_or_else(|| format!("arrival of unknown request {}", a.id))?
                        .req;
                let local = MemRequest {
                    addr: self.cube_map.local_addr(req.addr),
                    ..req
                };
                let d = self.mapping.decode(local.addr);
                if !spans.time(Layer::VaultEnqueue, |_| v.try_enqueue(local, d, t)) {
                    retry.push_back((local, d));
                }
                next += 1;
            }
            while let Some(&(req, d)) = retry.front() {
                if !spans.time(Layer::VaultEnqueue, |_| v.try_enqueue(req, d, t)) {
                    break;
                }
                retry.pop_front();
            }
            if let Some(idle) = idle.as_deref_mut() {
                if v.next_event(t - 1).is_none_or(|wake| wake > t) {
                    *idle += 1;
                }
            }
            out.clear();
            v.tick(t, &mut out, &mut prof);
        }
        Ok(())
    }
}

/// Host nanoseconds one empty span costs: the clock reads every span
/// adds to the layer it wraps.
fn span_cost_ns() -> f64 {
    const N: u32 = 1_000_000;
    let mut spans = Spans::new();
    let t = Instant::now();
    for i in 0..N {
        spans.time(Layer::SystemStep, |_| std::hint::black_box(i));
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(N)
}
