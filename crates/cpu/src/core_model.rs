//! The ROB-limited core model.

use crate::trace::{TraceOp, TraceSource};
use camps_obs::Profiler;
use camps_stats::Counter;
use camps_types::addr::PhysAddr;
use camps_types::clock::Cycle;
use camps_types::config::CpuConfig;
use camps_types::hash::IntSet;
use camps_types::request::{AccessKind, CoreId};
use camps_types::snapshot::{decode, field, Snapshot};
use camps_types::wake::Wake;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};
use std::collections::VecDeque;

/// What the memory port says about an attempted load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortResult {
    /// On-chip cache hit: data ready after `latency` cycles.
    Hit {
        /// Hit latency (sum of lookup latencies).
        latency: Cycle,
    },
    /// Miss accepted into the memory system; completion arrives later via
    /// [`Core::complete_load`] keyed by the slot the core passed in.
    Accepted,
    /// Structural stall (MSHRs full, queues full) — retry next cycle.
    Rejected,
}

/// The core's window into the memory system.
///
/// Each call receives the host self-profiler so the port implementation
/// can attribute its cache-lookup and MSHR time (a no-op when profiling
/// is off or compiled out).
pub trait MemoryPort {
    /// Attempts a load for `(core, slot)`.
    fn load(
        &mut self,
        now: Cycle,
        core: CoreId,
        slot: u64,
        addr: PhysAddr,
        prof: &mut Profiler,
    ) -> PortResult;

    /// Attempts a posted store; `true` if accepted.
    fn store(&mut self, now: Cycle, core: CoreId, addr: PhysAddr, prof: &mut Profiler) -> bool;
}

/// Reorder-buffer entry states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobEntry {
    /// Completes at a known cycle (ALU ops).
    Ready(Cycle),
    /// A cache-hit load completing at a known cycle (counted as memory
    /// stall time while it blocks the head).
    HitLoad(Cycle),
    /// A load waiting for a memory response (keyed by slot).
    PendingLoad(u64),
    /// A load that could not even be *issued* yet (port rejection).
    StalledLoad(PhysAddr),
    /// A store waiting for store-buffer space.
    StalledStore(PhysAddr),
}

impl RobEntry {
    /// Snapshot encoding: the derive subset cannot express data-carrying
    /// enums, so entries serialize as `(tag, payload)` pairs.
    fn pack(self) -> (u8, u64) {
        match self {
            Self::Ready(c) => (0, c),
            Self::HitLoad(c) => (1, c),
            Self::PendingLoad(slot) => (2, slot),
            Self::StalledLoad(a) => (3, a.0),
            Self::StalledStore(a) => (4, a.0),
        }
    }

    fn unpack(tag: u8, payload: u64) -> Result<Self, de::Error> {
        Ok(match tag {
            0 => Self::Ready(payload),
            1 => Self::HitLoad(payload),
            2 => Self::PendingLoad(payload),
            3 => Self::StalledLoad(PhysAddr(payload)),
            4 => Self::StalledStore(PhysAddr(payload)),
            other => {
                return Err(de::Error::custom(format!(
                    "snapshot: unknown RobEntry tag {other}"
                )))
            }
        })
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: Counter,
    /// Cycles simulated.
    pub cycles: Counter,
    /// Loads issued to the memory port.
    pub loads: Counter,
    /// Stores issued.
    pub stores: Counter,
    /// Cycles the ROB head was an incomplete load (memory stall).
    pub load_stall_cycles: Counter,
    /// Cycles nothing retired because the ROB was empty (issue-bound).
    pub empty_cycles: Counter,
    /// Port rejections (MSHR/queue backpressure events).
    pub rejections: Counter,
}

impl CoreStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            return 0.0;
        }
        self.retired.as_f64() / self.cycles.as_f64()
    }
}

/// A 4-wide, ROB-limited, trace-driven core.
pub struct Core {
    id: CoreId,
    rob: VecDeque<RobEntry>,
    rob_cap: usize,
    issue_w: u32,
    retire_w: u32,
    store_buffer: VecDeque<PhysAddr>,
    store_cap: usize,
    /// ALU instructions from the current trace op still waiting to issue.
    pending_gap: u32,
    /// The current op's memory operation, not yet issued.
    pending_mem: Option<(PhysAddr, AccessKind)>,
    trace: Box<dyn TraceSource>,
    next_slot: u64,
    completed: IntSet<u64>,
    /// Sequence numbers of the `Stalled*` ROB entries, oldest first, so
    /// the per-cycle retry and [`Wake::next_event`] touch only stalled
    /// entries. Entry `seq` sits at ROB index `seq - popped`; retirement
    /// never pops a stalled entry, so the list stays valid. Derived from
    /// `rob`: not serialized, rebuilt on restore.
    stalled: VecDeque<u64>,
    /// ROB entries retired so far (the sequence number of the ROB head).
    popped: u64,
    /// The last tick ended with the oldest stalled entry a load the port
    /// refused. Runtime-only: reset by every tick and by restore.
    load_refused: bool,
    /// The last tick ended with the store-buffer head refused by the
    /// port. Runtime-only: reset by every tick and by restore.
    store_refused: bool,
    stats: CoreStats,
}

impl Core {
    /// Builds core `id` running `trace`.
    #[must_use]
    pub fn new(id: CoreId, cfg: &CpuConfig, trace: Box<dyn TraceSource>) -> Self {
        Self {
            id,
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            rob_cap: cfg.rob_entries as usize,
            issue_w: cfg.issue_width,
            retire_w: cfg.retire_width,
            store_buffer: VecDeque::new(),
            store_cap: cfg.store_buffer_entries as usize,
            pending_gap: 0,
            pending_mem: None,
            trace,
            next_slot: 0,
            completed: IntSet::default(),
            stalled: VecDeque::new(),
            popped: 0,
            load_refused: false,
            store_refused: false,
            stats: CoreStats::default(),
        }
    }

    /// This core's id.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Name of the benchmark this core runs.
    #[must_use]
    pub fn workload_name(&self) -> &str {
        self.trace.name()
    }

    /// Instructions currently in the reorder buffer (watchdog
    /// diagnostics: a full ROB that never drains marks the wedged core).
    #[must_use]
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Pops the next trace op *without* simulating it — used by the
    /// functional cache-warmup phase, which advances the trace cursor
    /// while priming caches outside of detailed timing.
    pub fn warmup_op(&mut self) -> TraceOp {
        self.trace.next_op()
    }

    /// Delivers a memory response for the load issued with `slot`.
    pub fn complete_load(&mut self, slot: u64) {
        self.completed.insert(slot);
    }

    /// True if the port refused any call of this core's last tick (see
    /// [`Core::refused_calls`]).
    #[must_use]
    pub fn refused(&self) -> bool {
        self.load_refused || self.store_refused
    }

    /// The port calls this core's last tick had refused, and so every
    /// further tick makes again until the memory side changes: the
    /// store-buffer head's address, then the oldest stalled load's.
    pub fn refused_calls(&self) -> impl Iterator<Item = PhysAddr> + '_ {
        let store = self.store_buffer.front().filter(|_| self.store_refused);
        let load =
            self.stalled
                .front()
                .and_then(|&seq| match self.rob[(seq - self.popped) as usize] {
                    RobEntry::StalledLoad(addr) if self.load_refused => Some(addr),
                    _ => None,
                });
        store.copied().into_iter().chain(load)
    }

    /// Accounts for `cycles` skipped cycles during which this core was
    /// quiescent (the event engine's bulk replay of what per-cycle polling
    /// would have recorded): every skipped cycle counts as simulated, and
    /// if the ROB head is an incomplete load each one is a memory stall;
    /// a core blocked on a refused load also counts one rejection per
    /// cycle — exactly what [`Core::tick`] would have done, cycle by
    /// cycle. (The refused calls' cache misses are the caller's to
    /// charge; see [`Core::refused_calls`].)
    ///
    /// Only legal when [`Wake::next_event`] deemed the core quiescent past
    /// the skipped range (debug-asserted).
    pub fn skip_idle(&mut self, cycles: u64) {
        debug_assert!(
            self.rob.len() == self.rob_cap && (self.store_buffer.is_empty() || self.store_refused),
            "skip_idle on a non-quiescent core"
        );
        self.stats.cycles.add(cycles);
        match self.rob.front() {
            Some(RobEntry::HitLoad(_) | RobEntry::StalledLoad(_)) => {
                self.stats.load_stall_cycles.add(cycles);
            }
            Some(RobEntry::PendingLoad(slot)) => {
                debug_assert!(
                    !self.completed.contains(slot),
                    "skip_idle past a completed load"
                );
                self.stats.load_stall_cycles.add(cycles);
            }
            // Ready(at > now) and StalledStore heads block retirement
            // without any stall counter (`retire`'s catch-all break).
            _ => {}
        }
        if self.load_refused {
            self.stats.rejections.add(cycles);
        }
    }

    /// Advances the core by one cycle against `port`.
    pub fn tick(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        self.stats.cycles.inc();
        self.load_refused = false;
        self.store_refused = false;
        self.drain_store_buffer(now, port, prof);
        self.retry_stalled(now, port, prof);
        self.retire(now);
        self.issue(now, port, prof);
    }

    /// Oldest-first: try to un-stall entries that were rejected earlier.
    fn retry_stalled(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        while let Some(&seq) = self.stalled.front() {
            let i = (seq - self.popped) as usize;
            match self.rob[i] {
                RobEntry::StalledLoad(addr) => {
                    match port.load(now, self.id, self.next_slot, addr, prof) {
                        PortResult::Hit { latency } => {
                            self.rob[i] = RobEntry::HitLoad(now + latency);
                            self.stats.loads.inc();
                        }
                        PortResult::Accepted => {
                            self.rob[i] = RobEntry::PendingLoad(self.next_slot);
                            self.next_slot += 1;
                            self.stats.loads.inc();
                        }
                        PortResult::Rejected => {
                            self.stats.rejections.inc();
                            self.load_refused = true;
                            return; // keep ordering: stop at first stall
                        }
                    }
                }
                RobEntry::StalledStore(addr) => {
                    if self.store_buffer.len() < self.store_cap {
                        self.store_buffer.push_back(addr);
                        self.rob[i] = RobEntry::Ready(now);
                    } else {
                        return;
                    }
                }
                other => unreachable!("stalled list points at {other:?}"),
            }
            self.stalled.pop_front();
        }
    }

    /// Queues a stalled entry at the ROB tail.
    fn push_stalled(&mut self, entry: RobEntry) {
        self.stalled.push_back(self.popped + self.rob.len() as u64);
        self.rob.push_back(entry);
    }

    /// Retires the ROB head.
    fn pop_head(&mut self) {
        self.rob.pop_front();
        self.popped += 1;
        self.stats.retired.inc();
    }

    fn drain_store_buffer(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        if let Some(&addr) = self.store_buffer.front() {
            if port.store(now, self.id, addr, prof) {
                self.store_buffer.pop_front();
                self.stats.stores.inc();
            } else {
                self.store_refused = true;
            }
        }
    }

    fn retire(&mut self, now: Cycle) {
        if self.rob.is_empty() {
            self.stats.empty_cycles.inc();
            return;
        }
        for _ in 0..self.retire_w {
            match self.rob.front() {
                Some(RobEntry::Ready(at) | RobEntry::HitLoad(at)) if *at <= now => self.pop_head(),
                Some(RobEntry::HitLoad(_)) => {
                    self.stats.load_stall_cycles.inc();
                    break;
                }
                Some(RobEntry::PendingLoad(slot)) => {
                    if self.completed.remove(slot) {
                        self.pop_head();
                    } else {
                        self.stats.load_stall_cycles.inc();
                        break;
                    }
                }
                Some(RobEntry::StalledLoad(_)) => {
                    self.stats.load_stall_cycles.inc();
                    break;
                }
                _ => break,
            }
        }
    }

    fn issue(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        for _ in 0..self.issue_w {
            if self.rob.len() == self.rob_cap {
                return;
            }
            // Refill the pending op if drained.
            if self.pending_gap == 0 && self.pending_mem.is_none() {
                let TraceOp { gap, mem } = self.trace.next_op();
                self.pending_gap = gap;
                self.pending_mem = mem;
                if gap == 0 && mem.is_none() {
                    continue; // degenerate op; pull another next slot
                }
            }
            if self.pending_gap > 0 {
                self.pending_gap -= 1;
                self.rob.push_back(RobEntry::Ready(now + 1));
                continue;
            }
            let Some((addr, kind)) = self.pending_mem.take() else {
                continue;
            };
            match kind {
                AccessKind::Read => match port.load(now, self.id, self.next_slot, addr, prof) {
                    PortResult::Hit { latency } => {
                        self.rob.push_back(RobEntry::HitLoad(now + latency));
                        self.stats.loads.inc();
                    }
                    PortResult::Accepted => {
                        self.rob.push_back(RobEntry::PendingLoad(self.next_slot));
                        self.next_slot += 1;
                        self.stats.loads.inc();
                    }
                    PortResult::Rejected => {
                        // With no older stalled entry, the next retry
                        // starts with this call.
                        self.load_refused |= self.stalled.is_empty();
                        self.push_stalled(RobEntry::StalledLoad(addr));
                        self.stats.rejections.inc();
                        return;
                    }
                },
                AccessKind::Write => {
                    if self.store_buffer.len() < self.store_cap {
                        self.store_buffer.push_back(addr);
                        self.rob.push_back(RobEntry::Ready(now + 1));
                    } else {
                        self.push_stalled(RobEntry::StalledStore(addr));
                        return;
                    }
                }
            }
        }
    }
}

impl Wake for Core {
    /// A core must tick on the very next cycle whenever anything in it can
    /// act: a store waiting to drain, ROB space to issue into (the trace
    /// never ends, so issue always makes progress), a stalled entry to
    /// retry against the port, or a retirable head. The quiescent shapes
    /// have a full ROB whose head is waiting on time (wake at its
    /// completion cycle) or on a memory response (wake on the response —
    /// an external event, so `None` here).
    ///
    /// A store or stalled entry whose port call the last tick had refused
    /// waits on an external event too: the call's outcome changes only
    /// when the memory side does (an MSHR allocated or freed, a line
    /// filled, host-queue room freed), so the driver wakes the core on
    /// that change. A stalled store behind a full store buffer waits on
    /// the store-buffer head.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.rob.len() < self.rob_cap || (!self.store_buffer.is_empty() && !self.store_refused) {
            return Some(now + 1);
        }
        if let Some(&seq) = self.stalled.front() {
            let refused = match self.rob[(seq - self.popped) as usize] {
                RobEntry::StalledLoad(_) => self.load_refused,
                _ => self.store_refused && self.store_buffer.len() == self.store_cap,
            };
            if !refused {
                return Some(now + 1);
            }
        }
        match self.rob.front() {
            Some(&(RobEntry::Ready(at) | RobEntry::HitLoad(at))) => Some(at.max(now + 1)),
            Some(&RobEntry::PendingLoad(slot)) => self.completed.contains(&slot).then_some(now + 1),
            // A stalled head is the refused entry checked above.
            Some(RobEntry::StalledLoad(_) | RobEntry::StalledStore(_)) => None,
            // An empty ROB is below capacity.
            None => Some(now + 1),
        }
    }
}

impl Snapshot for Core {
    fn save_state(&self) -> Value {
        let rob: Vec<(u8, u64)> = self.rob.iter().map(|e| e.pack()).collect();
        let mut completed: Vec<u64> = self.completed.iter().copied().collect();
        completed.sort_unstable();
        Value::Map(vec![
            ("rob".into(), rob.to_value()),
            ("store_buffer".into(), self.store_buffer.to_value()),
            ("pending_gap".into(), self.pending_gap.to_value()),
            ("pending_mem".into(), self.pending_mem.to_value()),
            ("next_slot".into(), self.next_slot.to_value()),
            ("completed".into(), completed.to_value()),
            ("stats".into(), self.stats.to_value()),
            ("trace".into(), self.trace.save_state()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        let rob_raw: Vec<(u8, u64)> = decode(state, "rob")?;
        let mut rob = VecDeque::with_capacity(self.rob_cap);
        for (tag, payload) in rob_raw {
            rob.push_back(RobEntry::unpack(tag, payload)?);
        }
        self.popped = 0;
        self.stalled = rob
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, RobEntry::StalledLoad(_) | RobEntry::StalledStore(_)))
            .map(|(i, _)| i as u64)
            .collect();
        self.rob = rob;
        self.load_refused = false;
        self.store_refused = false;
        self.store_buffer = decode(state, "store_buffer")?;
        self.pending_gap = decode(state, "pending_gap")?;
        self.pending_mem = decode(state, "pending_mem")?;
        self.next_slot = decode(state, "next_slot")?;
        let completed: Vec<u64> = decode(state, "completed")?;
        self.completed = completed.into_iter().collect();
        self.stats = decode(state, "stats")?;
        self.trace.restore_state(field(state, "trace")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;
    use camps_types::config::SystemConfig;

    /// A memory that always hits with a fixed latency.
    struct FlatMemory {
        latency: Cycle,
        loads: u64,
        stores: u64,
    }

    impl MemoryPort for FlatMemory {
        fn load(
            &mut self,
            _now: Cycle,
            _core: CoreId,
            _slot: u64,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> PortResult {
            self.loads += 1;
            PortResult::Hit {
                latency: self.latency,
            }
        }
        fn store(
            &mut self,
            _now: Cycle,
            _core: CoreId,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> bool {
            self.stores += 1;
            true
        }
    }

    /// A memory that accepts loads and completes them after a delay the
    /// test controls.
    #[derive(Default)]
    struct PendingMemory {
        accepted: Vec<(u64, Cycle)>,
        reject: bool,
    }

    impl MemoryPort for PendingMemory {
        fn load(
            &mut self,
            now: Cycle,
            _core: CoreId,
            slot: u64,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> PortResult {
            if self.reject {
                return PortResult::Rejected;
            }
            self.accepted.push((slot, now));
            PortResult::Accepted
        }
        fn store(
            &mut self,
            _now: Cycle,
            _core: CoreId,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> bool {
            !self.reject
        }
    }

    fn cfg() -> CpuConfig {
        SystemConfig::paper_default().cpu
    }

    fn run(core: &mut Core, port: &mut impl MemoryPort, cycles: u64) {
        for now in 1..=cycles {
            core.tick(now, port, &mut Profiler::off());
        }
    }

    #[test]
    fn pure_compute_reaches_issue_width_ipc() {
        let trace = VecTrace::new("alu", vec![TraceOp::compute(16)]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = FlatMemory {
            latency: 2,
            loads: 0,
            stores: 0,
        };
        run(&mut core, &mut mem, 10_000);
        let ipc = core.stats().ipc();
        assert!(ipc > 3.8 && ipc <= 4.0, "compute-bound IPC ≈ 4, got {ipc}");
    }

    #[test]
    fn long_latency_loads_throttle_ipc() {
        let trace = VecTrace::new("mem", vec![TraceOp::load(3, PhysAddr(0x40))]);
        let mut fast_core = Core::new(CoreId(0), &cfg(), Box::new(trace.clone()));
        let mut slow_core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut fast = FlatMemory {
            latency: 2,
            loads: 0,
            stores: 0,
        };
        let mut slow = FlatMemory {
            latency: 400,
            loads: 0,
            stores: 0,
        };
        run(&mut fast_core, &mut fast, 20_000);
        run(&mut slow_core, &mut slow, 20_000);
        assert!(
            fast_core.stats().ipc() > 2.0 * slow_core.stats().ipc(),
            "fast {} vs slow {}",
            fast_core.stats().ipc(),
            slow_core.stats().ipc()
        );
        assert!(slow_core.stats().load_stall_cycles.get() > 0);
    }

    #[test]
    fn rob_bounds_outstanding_loads() {
        // Pure pointer-chase trace: every instruction is a load.
        let trace = VecTrace::new("chase", vec![TraceOp::load(0, PhysAddr(0x40))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = PendingMemory::default();
        // Never complete anything: the core must stop at the ROB limit.
        run(&mut core, &mut mem, 5_000);
        assert_eq!(mem.accepted.len() as u32, cfg().rob_entries);
        assert_eq!(core.stats().retired.get(), 0);
    }

    #[test]
    fn completions_unblock_retirement_in_order() {
        let trace = VecTrace::new("mem", vec![TraceOp::load(0, PhysAddr(0x40))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = PendingMemory::default();
        run(&mut core, &mut mem, 100);
        let first_slots: Vec<u64> = mem.accepted.iter().map(|&(s, _)| s).take(8).collect();
        for s in first_slots {
            core.complete_load(s);
        }
        let before = core.stats().retired.get();
        run(&mut core, &mut mem, 10); // ticks 1..=10 again is fine: time only gates Ready
        assert_eq!(core.stats().retired.get(), before + 8);
    }

    #[test]
    fn port_rejection_stalls_issue_and_counts() {
        let trace = VecTrace::new("mem", vec![TraceOp::load(0, PhysAddr(0x40))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = PendingMemory {
            reject: true,
            ..Default::default()
        };
        run(&mut core, &mut mem, 50);
        assert!(core.stats().rejections.get() > 0);
        assert!(mem.accepted.is_empty());
        // Un-block the port: the stalled load issues.
        mem.reject = false;
        run(&mut core, &mut mem, 5);
        assert!(!mem.accepted.is_empty());
    }

    #[test]
    fn stores_post_through_store_buffer() {
        let trace = VecTrace::new("st", vec![TraceOp::store(1, PhysAddr(0x80))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = FlatMemory {
            latency: 2,
            loads: 0,
            stores: 0,
        };
        run(&mut core, &mut mem, 1_000);
        assert!(mem.stores > 0);
        // Stores never block retirement here: IPC stays near width limits.
        assert!(core.stats().ipc() > 0.9, "ipc {}", core.stats().ipc());
    }

    #[test]
    fn core_snapshot_restores_identical_execution() {
        // Mixed trace with loads, stores, and compute so the snapshot
        // covers the ROB, store buffer, pending-op state, and the trace
        // cursor mid-stream.
        let ops = vec![
            TraceOp::compute(3),
            TraceOp::load(1, PhysAddr(0x40)),
            TraceOp::store(2, PhysAddr(0x80)),
            TraceOp::load(0, PhysAddr(0xC0)),
        ];
        let trace = VecTrace::new("mix", ops.clone());
        let mut a = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem_a = FlatMemory {
            latency: 7,
            loads: 0,
            stores: 0,
        };
        run(&mut a, &mut mem_a, 137);
        let state = a.save_state();

        let mut b = Core::new(CoreId(0), &cfg(), Box::new(VecTrace::new("mix", ops)));
        b.restore_state(&state).unwrap();
        assert_eq!(a.stats(), b.stats());

        let mut mem_b = FlatMemory {
            latency: 7,
            loads: 0,
            stores: 0,
        };
        for now in 138..=400 {
            a.tick(now, &mut mem_a, &mut Profiler::off());
            b.tick(now, &mut mem_b, &mut Profiler::off());
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.rob_occupancy(), b.rob_occupancy());
    }

    /// Rejects every load before `open_at`, then accepts `per_cycle`
    /// loads a cycle as cache hits of `latency`; takes stores only from
    /// `open_at` on. Logs every load attempt as `(cycle, addr, accepted)`.
    #[derive(Clone)]
    struct GatedPort {
        open_at: Cycle,
        per_cycle: usize,
        latency: Cycle,
        used: (Cycle, usize),
        log: Vec<(Cycle, PhysAddr, bool)>,
    }

    impl GatedPort {
        fn new(open_at: Cycle, per_cycle: usize, latency: Cycle) -> Self {
            Self {
                open_at,
                per_cycle,
                latency,
                used: (0, 0),
                log: Vec::new(),
            }
        }
    }

    impl MemoryPort for GatedPort {
        fn load(
            &mut self,
            now: Cycle,
            _core: CoreId,
            _slot: u64,
            addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> PortResult {
            if self.used.0 != now {
                self.used = (now, 0);
            }
            let ok = now >= self.open_at && self.used.1 < self.per_cycle;
            self.used.1 += usize::from(ok);
            self.log.push((now, addr, ok));
            if ok {
                PortResult::Hit {
                    latency: self.latency,
                }
            } else {
                PortResult::Rejected
            }
        }
        fn store(&mut self, now: Cycle, _core: CoreId, _addr: PhysAddr, _: &mut Profiler) -> bool {
            now >= self.open_at
        }
    }

    /// Checks that in every cycle the re-attempted loads are a prefix of
    /// the still-stalled loads in program order, ending at the first
    /// rejection. Returns the most stalled loads un-stalled in one cycle.
    fn assert_retries_oldest_first(log: &[(Cycle, PhysAddr, bool)]) -> usize {
        let mut stalled: VecDeque<PhysAddr> = VecDeque::new();
        let mut most = 0;
        for cycle in log.chunk_by(|a, b| a.0 == b.0) {
            let now = cycle[0].0;
            let retries = cycle.iter().take_while(|e| stalled.contains(&e.1)).count();
            for (k, &(_, addr, ok)) in cycle[..retries].iter().enumerate() {
                assert_eq!(addr, stalled[k], "cycle {now}: retry {k} out of order");
                assert!(
                    ok || k + 1 == retries,
                    "cycle {now}: retried past a rejection"
                );
            }
            let unstalled = cycle[..retries].iter().filter(|e| e.2).count();
            stalled.drain(..unstalled);
            most = most.max(unstalled);
            for &(_, addr, ok) in &cycle[retries..] {
                assert!(
                    !stalled.contains(&addr),
                    "cycle {now}: retry after a new load"
                );
                if !ok {
                    stalled.push_back(addr);
                }
            }
        }
        most
    }

    #[test]
    fn stalled_entries_retry_oldest_first_and_survive_a_snapshot() {
        let mut c = cfg();
        c.store_buffer_entries = 4;
        // Unique addresses (the trace never wraps here): three loads, then
        // a store, each behind one ALU op.
        let ops: Vec<TraceOp> = (0..2_000u64)
            .map(|i| match i % 4 {
                3 => TraceOp::store(1, PhysAddr(0x100_0000 + i * 64)),
                _ => TraceOp::load(1, PhysAddr(0x1000 + i * 64)),
            })
            .collect();
        let mut a = Core::new(CoreId(0), &c, Box::new(VecTrace::new("gated", ops.clone())));
        let mut port_a = GatedPort::new(60, 2, 3);
        run(&mut a, &mut port_a, 40);

        // Mid-stall: ALU ops separate the stalled loads, and the full
        // store buffer has left stores stalled too.
        let at: Vec<usize> = a.stalled.iter().map(|&s| (s - a.popped) as usize).collect();
        let is_load = |&i: &usize| matches!(a.rob[i], RobEntry::StalledLoad(_));
        assert!(at.iter().filter(|i| is_load(i)).count() >= 2, "{at:?}");
        assert!(at.iter().any(|i| !is_load(i)), "no stalled store: {at:?}");
        assert!(at.windows(2).any(|w| w[1] > w[0] + 1), "contiguous: {at:?}");

        let state = a.save_state();
        let mut b = Core::new(CoreId(0), &c, Box::new(VecTrace::new("gated", ops)));
        b.restore_state(&state).unwrap();
        let rebuilt: Vec<usize> = b.stalled.iter().map(|&s| (s - b.popped) as usize).collect();
        assert_eq!(rebuilt, at);
        let mut port_b = port_a.clone();
        for now in 41..=400 {
            a.tick(now, &mut port_a, &mut Profiler::off());
            b.tick(now, &mut port_b, &mut Profiler::off());
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(port_a.log, port_b.log);
        assert!(a.stalled.len() < at.len(), "the stall never cleared");
        assert!(a.stats().retired.get() > 200, "{:?}", a.stats());
        // Opening the port un-stalls two loads in one cycle, then stops.
        assert_eq!(assert_retries_oldest_first(&port_a.log), 2);
    }

    /// Ticks two identical cores on `ops` through cycle `setup`, against
    /// `port_at(now)` each cycle, until both are blocked on refused port
    /// calls with wake `wake`. Then one ticks `n` more cycles and the
    /// other calls `skip_idle(n)`: their statistics must agree. Returns
    /// the skipped core.
    fn assert_refused_skip(
        c: &CpuConfig,
        ops: &[TraceOp],
        port_at: impl Fn(Cycle) -> GatedPort,
        setup: Cycle,
        wake: Option<Cycle>,
    ) -> Core {
        let core = || {
            Core::new(
                CoreId(0),
                c,
                Box::new(VecTrace::new("refused", ops.to_vec())),
            )
        };
        let (mut ticked, mut skipped) = (core(), core());
        for now in 1..=setup {
            ticked.tick(now, &mut port_at(now), &mut Profiler::off());
            skipped.tick(now, &mut port_at(now), &mut Profiler::off());
        }
        assert_eq!(skipped.rob_occupancy(), c.rob_entries as usize);
        assert!(skipped.refused_calls().next().is_some(), "nothing refused");
        assert_eq!(skipped.next_event(setup), wake);
        let n = 40;
        for now in setup + 1..=setup + n {
            ticked.tick(now, &mut port_at(now), &mut Profiler::off());
        }
        skipped.skip_idle(n);
        assert_eq!(ticked.stats(), skipped.stats());
        skipped
    }

    #[test]
    fn refused_stalled_load_sleeps_and_skips_like_ticks() {
        let ops: Vec<TraceOp> = (0..1_000u64)
            .map(|i| TraceOp::load(3, PhysAddr(0x1000 + i * 64)))
            .collect();
        let closed = |_| GatedPort::new(Cycle::MAX, 1, 3);
        let core = assert_refused_skip(&cfg(), &ops, closed, 100, None);
        assert!(matches!(core.rob.front(), Some(RobEntry::StalledLoad(_))));
        assert!(core.stats().rejections.get() > 40);
    }

    #[test]
    fn refused_store_drain_sleeps_and_skips_like_ticks() {
        let mut c = cfg();
        c.store_buffer_entries = 4;
        let ops: Vec<TraceOp> = (0..1_000u64)
            .map(|i| TraceOp::store(1, PhysAddr(0x1000 + i * 64)))
            .collect();
        let closed = |_| GatedPort::new(Cycle::MAX, 1, 3);
        let core = assert_refused_skip(&c, &ops, closed, 200, None);
        // The full store buffer holds a stalled store at the ROB head.
        assert_eq!(core.store_buffer.len(), 4);
        assert!(matches!(core.rob.front(), Some(RobEntry::StalledStore(_))));
        assert_eq!(core.refused_calls().count(), 1);
    }

    #[test]
    fn refused_load_behind_a_timed_head_wakes_at_the_head() {
        // The first load hits with a long latency; every later one is
        // refused, so the ROB fills behind a head that is ready at 501.
        let ops: Vec<TraceOp> = std::iter::once(TraceOp::load(0, PhysAddr(0x40)))
            .chain((0..1_000u64).map(|i| TraceOp::load(3, PhysAddr(0x1000 + i * 64))))
            .collect();
        let port_at = |now| GatedPort::new(if now == 1 { 1 } else { Cycle::MAX }, 1, 500);
        let core = assert_refused_skip(&cfg(), &ops, port_at, 100, Some(501));
        assert_eq!(core.rob.front(), Some(&RobEntry::HitLoad(501)));
    }

    #[test]
    fn restore_forgets_refused_calls() {
        let ops: Vec<TraceOp> = (0..1_000u64)
            .map(|i| TraceOp::load(3, PhysAddr(0x1000 + i * 64)))
            .collect();
        let closed = |_| GatedPort::new(Cycle::MAX, 1, 3);
        let refused = assert_refused_skip(&cfg(), &ops, closed, 100, None);
        let mut restored = Core::new(CoreId(0), &cfg(), Box::new(VecTrace::new("refused", ops)));
        restored.restore_state(&refused.save_state()).unwrap();
        // The refusal belongs to a memory side the snapshot does not
        // pin down: the restored core retries on its next cycle.
        assert_eq!(restored.refused_calls().count(), 0);
        assert_eq!(restored.next_event(140), Some(141));
    }

    #[test]
    fn core_restore_rejects_garbage_shapes() {
        let trace = VecTrace::new("x", vec![TraceOp::compute(1)]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        assert!(core.restore_state(&Value::U64(1)).is_err());
        // A valid map with a corrupt ROB tag is also a typed error.
        let mut state = match Core::new(
            CoreId(0),
            &cfg(),
            Box::new(VecTrace::new("x", vec![TraceOp::compute(1)])),
        )
        .save_state()
        {
            Value::Map(m) => m,
            other => panic!("expected map, got {other:?}"),
        };
        for entry in &mut state {
            if entry.0 == "rob" {
                entry.1 = vec![(9u8, 0u64)].to_value();
            }
        }
        let err = core.restore_state(&Value::Map(state)).unwrap_err();
        assert!(err.to_string().contains("RobEntry tag"));
    }

    #[test]
    fn ipc_zero_before_any_cycle() {
        let trace = VecTrace::new("x", vec![TraceOp::compute(1)]);
        let core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        assert_eq!(core.stats().ipc(), 0.0);
    }
}
