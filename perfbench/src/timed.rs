//! The untraced, timed runs behind the end-to-end metrics.

use crate::workload::{SetupTimes, Workload};
use camps::metrics::RunResult;
use camps::system::{Engine, RunState};
use camps::System;
use camps_types::error::SimError;
use std::time::{Duration, Instant};

/// Fewest timed runs per invocation, however long each takes.
const MIN_RUNS: usize = 3;

/// The serialized result with the host-only blocks (self-profile and
/// stage-latency histograms) cleared: what two engines must agree on.
#[must_use]
pub fn canonical(result: &RunResult) -> String {
    let mut r = result.clone();
    r.profile = None;
    r.stage_latency = None;
    serde_json::to_string(&r).expect("RunResult serializes")
}

/// `result` if it ran and matches `reference` (a [`canonical`] result
/// called `what` in the error).
///
/// # Errors
/// The run failed, or its result differs.
pub(crate) fn same_result(
    result: Result<RunResult, String>,
    reference: &str,
    what: &str,
) -> Result<RunResult, String> {
    let r = result?;
    if canonical(&r) == reference {
        Ok(r)
    } else {
        Err(format!("result differs from {what}"))
    }
}

/// Runs the workload once under the polling engine, the reference every
/// timed run is checked against. Also returns the peak resident set of
/// that set-up and run in MiB: the timed runs' host-speed probes would
/// add their own table to it.
///
/// # Errors
/// Set-up failed or the run returned an error.
pub fn polling_reference(w: &Workload, seed: u64) -> Result<(RunResult, f64), String> {
    reset_peak_rss();
    let (mut sys, _) = w.setup(seed)?;
    sys.set_engine(Engine::Polling);
    let result = sys
        .run(w.instructions, w.max_cycles, w.name)
        .map_err(|e| format!("polling reference: {e}"))?;
    Ok((result, peak_rss_mib()))
}

/// Host seconds of one [`host_probe_s`] at nominal host speed, the speed
/// timings are rescaled to: about the fastest the probe ran (min of 400)
/// on the 2-vCPU Intel Xeon host the bounds were set on.
const PROBE_NOMINAL_S: f64 = 0.0024;

/// Iterations of the probe loop.
const PROBE_ITERATIONS: u32 = 800_000;

/// Wall time between host-speed probes during a timed run.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// One timed detailed run.
pub struct TimedRun {
    /// Host seconds of `System::run`.
    pub wall_s: f64,
    /// [`PROBE_NOMINAL_S`] over the mean probe time during this run:
    /// below 1 while the host runs slower than nominal.
    pub host_speed: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Set-up of this run's machine.
    pub setup: SetupTimes,
    /// The run's result, or why it failed its check.
    pub result: Result<RunResult, String>,
}

impl TimedRun {
    /// Run seconds at nominal host speed.
    #[must_use]
    pub fn nominal_wall_s(&self) -> f64 {
        self.wall_s * self.host_speed
    }

    /// Set-up seconds at nominal host speed.
    #[must_use]
    pub fn nominal_setup_s(&self) -> f64 {
        self.setup.total() * self.host_speed
    }
}

/// Builds, warms and runs the workload under the event engine until
/// `seconds` have passed (at least [`MIN_RUNS`] times), checking each
/// result against `reference`.
#[must_use]
pub fn measure(w: &Workload, seed: u64, seconds: u64, reference: &str) -> Vec<TimedRun> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed() < budget {
        runs.push(timed_run(w, seed, reference));
    }
    runs
}

fn timed_run(w: &Workload, seed: u64, reference: &str) -> TimedRun {
    let (mut sys, setup) = match w.setup(seed) {
        Ok(s) => s,
        Err(e) => {
            return TimedRun {
                wall_s: 0.0,
                host_speed: 1.0,
                cycles: 0,
                setup: SetupTimes::default(),
                result: Err(e),
            }
        }
    };
    let mut pace = HostPace::start();
    let result = run_steps(&mut sys, w, &mut pace, System::run_step);
    let paced = pace.finish();
    let cycles = result.as_ref().map_or(0, |r| r.cycles);
    let result = same_result(result, reference, "the polling engine's");
    TimedRun {
        wall_s: paced.wall_s,
        host_speed: paced.host_speed,
        cycles,
        setup,
        result,
    }
}

/// `System::run` spelled out (`run_begin`, `step` until it returns
/// false, `run_finish`) so the host can be probed between steps.
///
/// # Errors
/// The run's error, as text.
pub(crate) fn run_steps(
    sys: &mut System,
    w: &Workload,
    pace: &mut HostPace,
    mut step: impl FnMut(&mut System, &mut RunState) -> Result<bool, SimError>,
) -> Result<RunResult, String> {
    let mut state = sys.run_begin(w.instructions, w.max_cycles);
    loop {
        match step(sys, &mut state) {
            Ok(true) => pace.step(),
            Ok(false) => break,
            Err(e) => return Err(e.to_string()),
        }
    }
    sys.run_finish(&state, w.name).map_err(|e| e.to_string())
}

/// Wall time of a loop, with the host's speed probed every
/// [`PROBE_EVERY`] between iterations; probe time is not counted.
pub(crate) struct HostPace {
    wall_s: f64,
    since: Instant,
    probes: Vec<f64>,
    steps: u64,
}

/// What a [`HostPace`] measured.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Paced {
    /// Host seconds of the loop, probes excluded.
    pub wall_s: f64,
    /// [`PROBE_NOMINAL_S`] over the mean probe time.
    pub host_speed: f64,
}

impl Paced {
    /// Loop seconds at nominal host speed.
    #[must_use]
    pub fn nominal_s(&self) -> f64 {
        self.wall_s * self.host_speed
    }
}

impl HostPace {
    /// Probes once and starts the clock.
    #[must_use]
    pub fn start() -> Self {
        let probes = vec![host_probe_s()];
        Self {
            wall_s: 0.0,
            since: Instant::now(),
            probes,
            steps: 0,
        }
    }

    /// Marks one loop iteration; probes when one is due.
    #[inline]
    pub fn step(&mut self) {
        self.steps += 1;
        if self.steps.is_multiple_of(256) {
            let elapsed = self.since.elapsed();
            if elapsed >= PROBE_EVERY {
                self.wall_s += elapsed.as_secs_f64();
                self.probes.push(host_probe_s());
                self.since = Instant::now();
            }
        }
    }

    /// Stops the clock and probes once more.
    #[must_use]
    pub fn finish(mut self) -> Paced {
        self.wall_s += self.since.elapsed().as_secs_f64();
        self.probes.push(host_probe_s());
        let mean = self.probes.iter().sum::<f64>() / self.probes.len() as f64;
        Paced {
            wall_s: self.wall_s,
            host_speed: PROBE_NOMINAL_S / mean,
        }
    }
}

/// Times a fixed loop of integer arithmetic and random reads and writes
/// over a 4 MiB table. It shares no code with the simulator, so its time
/// moves only with the host's speed: on a shared host that speed drifts
/// by tens of percent over seconds, and the timed runs are rescaled by
/// the probe taken around each of them.
fn host_probe_s() -> f64 {
    const SLOTS: usize = 1 << 19;
    let mut table: Vec<u64> = (0..SLOTS as u64).collect();
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..PROBE_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (SLOTS - 1);
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next reading covers only what follows. Where the kernel refuses,
/// the reading covers the whole process, which runs one workload.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
