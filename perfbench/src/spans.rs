//! Host-time spans recorded from outside the program, around calls into
//! each layer's public functions.
//!
//! Spans nest: a span's self time is its duration minus the time its
//! child spans cover. Only per-layer totals are kept (calls, total and
//! self nanoseconds): the traced runs make millions of calls.

use std::time::Instant;

/// A layer boundary the traced run wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `System::run_step`.
    SystemStep,
    /// `Core::tick`.
    CpuTick,
    /// `MemoryPort::load`/`store` into `MemorySubsystem` (caches, MSHRs).
    CachePort,
    /// `MemorySubsystem::tick`.
    MemoryTick,
    /// `Core::complete_load`.
    CpuCompleteLoad,
    /// `Topology::submit`.
    HmcSubmit,
    /// `Topology::tick`.
    HmcTick,
    /// `VaultController::try_enqueue`.
    VaultEnqueue,
    /// One vault's whole replay: its `VaultController::tick` calls and
    /// the loop around them (its `try_enqueue` spans nest inside).
    VaultReplay,
}

const LAYERS: usize = 9;

/// Per-layer span totals.
#[derive(Debug)]
pub struct Spans {
    calls: [u64; LAYERS],
    total_ns: [u64; LAYERS],
    self_ns: [u64; LAYERS],
    /// Open spans: layer, start, nanoseconds covered by children.
    open: Vec<(Layer, Instant, u64)>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// No spans yet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            calls: [0; LAYERS],
            total_ns: [0; LAYERS],
            self_ns: [0; LAYERS],
            open: Vec::with_capacity(4),
        }
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> R {
        self.open.push((layer, Instant::now(), 0));
        let r = f(self);
        let (layer, start, child_ns) = self.open.pop().expect("span opened above");
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let i = layer as usize;
        self.calls[i] += 1;
        self.total_ns[i] += ns;
        self.self_ns[i] += ns.saturating_sub(child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.2 += ns;
        }
        r
    }

    /// Completed spans of `layer`.
    #[must_use]
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Seconds inside spans of `layer`, children included.
    #[must_use]
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize] as f64 * 1e-9
    }

    /// Seconds inside spans of `layer`, children excluded.
    #[must_use]
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }
}
