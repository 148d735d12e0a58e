//! The perf gate: every bench binary's `--check` reads the committed
//! baseline (`ci/perf_baseline.json`) through here.
//!
//! The file is parsed once into a typed [`Baseline`]. An unreadable or
//! malformed file is an error, and so is a key the gate needs but the
//! file lacks, so a broken baseline fails the check instead of passing
//! it.

use serde::Deserialize;

/// The committed perf baseline. Every key is optional in the file; the
/// accessors turn a missing one into an error for the gate that reads
/// it.
#[derive(Debug, Deserialize)]
pub struct Baseline {
    #[serde(default)]
    adversarial_ceiling: Option<f64>,
    #[serde(default)]
    multicube_ceiling: Option<f64>,
    #[serde(default)]
    profile_ceiling: Option<f64>,
    #[serde(default)]
    sweep_ceiling: Option<f64>,
    #[serde(default)]
    speedups: Vec<Speedup>,
    #[serde(default)]
    obs_overhead: Vec<ObsOverhead>,
}

/// One `speedups` row: event-over-polling wall-clock ratio.
#[derive(Debug, Deserialize)]
struct Speedup {
    workload: String,
    event_over_polling: f64,
}

/// One `obs_overhead` row: traced-over-plain wall-clock ratio.
#[derive(Debug, Deserialize)]
struct ObsOverhead {
    workload: String,
    obs_over_plain: f64,
}

impl Baseline {
    /// Reads and parses the baseline at `path`.
    ///
    /// # Errors
    /// A message naming the file when it cannot be read or parsed.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("baseline {path}: {e}"))
    }

    /// Parses baseline JSON text.
    fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The wall-time ceiling in seconds of the bench binary `bin`
    /// (`adversarial`, `multicube`, `profile` or `sweep`): the
    /// baseline's `<bin>_ceiling`.
    fn ceiling(&self, bin: &str) -> Result<f64, String> {
        match bin {
            "adversarial" => self.adversarial_ceiling,
            "multicube" => self.multicube_ceiling,
            "profile" => self.profile_ceiling,
            "sweep" => self.sweep_ceiling,
            _ => None,
        }
        .ok_or_else(|| format!("baseline has no {bin}_ceiling"))
    }

    /// The committed event-over-polling speedup of `workload`.
    ///
    /// # Errors
    /// When the baseline has no speedup for `workload`.
    pub fn speedup(&self, workload: &str) -> Result<f64, String> {
        self.speedups
            .iter()
            .find(|s| s.workload == workload)
            .map(|s| s.event_over_polling)
            .ok_or_else(|| format!("baseline has no {workload} speedup"))
    }

    /// The committed observability overhead of `workload`, when the
    /// baseline commits to one (that gate is optional).
    #[must_use]
    pub fn obs_over_plain(&self, workload: &str) -> Option<f64> {
        self.obs_overhead
            .iter()
            .find(|o| o.workload == workload)
            .map(|o| o.obs_over_plain)
    }

    /// The runaway guard of the four `*_ceiling` gates: prints
    /// `elapsed_secs` against `bin`'s ceiling and fails when it is over.
    ///
    /// # Errors
    /// A missing ceiling, or a wall time above it.
    pub fn check_wall_time(&self, bin: &str, elapsed_secs: f64) -> Result<(), String> {
        let ceiling = self.ceiling(bin)?;
        println!("total wall time {elapsed_secs:.1}s, ceiling {ceiling:.1}s");
        if elapsed_secs > ceiling {
            return Err("wall time exceeded the committed ceiling".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_key_is_an_error() {
        let b = Baseline::parse(r#"{"sweep_ceiling": 10}"#).unwrap();
        assert_eq!(b.ceiling("sweep"), Ok(10.0));
        assert!(b
            .ceiling("profile")
            .unwrap_err()
            .contains("profile_ceiling"));
        assert!(b.speedup("HM1").is_err());
        assert_eq!(b.obs_over_plain("HM1"), None);
        assert!(b.check_wall_time("adversarial", 0.0).is_err());
        assert!(Baseline::parse("{").is_err());
        assert!(Baseline::load("no/such/baseline.json").is_err());
    }

    #[test]
    fn over_the_ceiling_fails() {
        let b = Baseline::parse(r#"{"multicube_ceiling": 2.5}"#).unwrap();
        assert!(b.check_wall_time("multicube", 2.5).is_ok());
        assert!(b.check_wall_time("multicube", 2.6).is_err());
    }

    /// Every key the five `--check` gates read is in the committed file.
    #[test]
    fn committed_baseline_has_every_key_the_gates_read() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/perf_baseline.json");
        let b = Baseline::load(path).unwrap();
        for bin in ["adversarial", "multicube", "profile", "sweep"] {
            b.ceiling(bin).unwrap();
        }
        // `throughput --check` gates these speedups and HM1's overhead.
        for workload in ["idle-heavy", "HM1"] {
            b.speedup(workload).unwrap();
        }
        assert!(b.obs_over_plain("HM1").is_some());
    }
}
