//! A recording mirror of `MemorySubsystem`'s host side.
//!
//! The cube-replay part of the traced run needs every request that
//! crosses the host/cube boundary: demand reads, store fills and L3
//! writebacks, with the cycle each entered the cube pool. The program's
//! request tracer exports lifecycles only for demand reads and core-side
//! prefetches, and only once they finish, so stores and writebacks never
//! reach its output. This mirror rebuilds the boundary stream from the
//! same public parts `MemorySubsystem` is made of (cache hierarchy, MSHR
//! file, cube pool), making the same calls in the same order, and logs
//! each submit.
//!
//! It is checked, not trusted: the traced run reports the cube replay
//! only if the cores it drives retire exactly as under `System`, and the
//! replayed vaults end with exactly `System`'s per-vault statistics.

use camps::topology::Topology;
use camps_cache::hierarchy::{CacheHierarchy, HierarchyOutcome};
use camps_cache::mshr::MshrFile;
use camps_cpu::core_model::{MemoryPort, PortResult};
use camps_obs::Profiler;
use camps_prefetch::SchemeKind;
use camps_types::addr::PhysAddr;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::request::{AccessKind, CoreId, MemRequest, MemResponse, RequestId};
use std::collections::{HashSet, VecDeque};

/// MSHR waiter token of a store fill (wakes no core), as in the program.
const STORE_WAITER: u64 = u64::MAX;
const SLOT_MASK: u64 = 0xFFFF_FFFF_FFFF;

/// One request entering the cube pool.
#[derive(Debug, Clone, Copy)]
pub struct Submit {
    /// Cycle of `Topology::submit`.
    pub at: Cycle,
    /// The request, with its global address.
    pub req: MemRequest,
}

/// Mirror of the host side of `MemorySubsystem`, logging submits.
pub struct Recorder {
    hierarchy: CacheHierarchy,
    mshrs: MshrFile,
    topo: Topology,
    dirty_fills: HashSet<u64>,
    writeback_q: VecDeque<PhysAddr>,
    wbs: Vec<PhysAddr>,
    responses: Vec<MemResponse>,
    next_id: u64,
    block_bytes: u64,
    /// Disabled; built once because building one reads the clock.
    prof: Profiler,
    /// Every submit so far, in order.
    pub log: Vec<Submit>,
}

impl Recorder {
    /// A cold mirror of the memory side of `cfg`.
    ///
    /// # Errors
    /// The configuration is invalid, or uses the core-side prefetcher,
    /// which this mirror does not model.
    pub fn new(cfg: &SystemConfig, scheme: SchemeKind) -> Result<Self, String> {
        if cfg.core_prefetch.enable {
            return Err("the recorder does not mirror the core-side prefetcher".into());
        }
        Ok(Self {
            hierarchy: CacheHierarchy::new(cfg),
            mshrs: MshrFile::new(cfg.l3.mshrs, cfg.l3.line_bytes),
            topo: Topology::new(cfg, scheme).map_err(|e| e.to_string())?,
            dirty_fills: HashSet::new(),
            writeback_q: VecDeque::new(),
            wbs: Vec::new(),
            responses: Vec::new(),
            next_id: 0,
            block_bytes: u64::from(cfg.hmc.block_bytes),
            prof: Profiler::off(),
            log: Vec::new(),
        })
    }

    /// The cache hierarchy, for functional warmup.
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    fn submit(
        &mut self,
        now: Cycle,
        kind: AccessKind,
        core: CoreId,
        addr: PhysAddr,
        created_at: Cycle,
    ) {
        self.next_id += 1;
        let req = MemRequest {
            id: RequestId(self.next_id),
            addr,
            kind,
            core,
            created_at,
        };
        let accepted = self.topo.submit(req, now);
        debug_assert!(accepted, "headroom was checked");
        self.log.push(Submit { at: now, req });
    }

    fn access(&mut self, core: CoreId, addr: PhysAddr, is_write: bool) -> HierarchyOutcome {
        let outcome = self.hierarchy.access(
            usize::from(core.0),
            addr,
            is_write,
            &mut self.wbs,
            &mut self.prof,
        );
        self.writeback_q.extend(self.wbs.drain(..));
        outcome
    }

    /// Advances the mirror one cycle, as `MemorySubsystem::tick` does:
    /// drain writebacks into the pool, tick the pool, fill the caches.
    pub fn tick(&mut self, now: Cycle, woken: &mut Vec<(CoreId, u64)>) {
        while let Some(&wb) = self.writeback_q.front() {
            if self.topo.headroom_for(wb) == 0 {
                break;
            }
            self.submit(now, AccessKind::Write, CoreId(0), wb, now);
            self.writeback_q.pop_front();
        }
        let mut responses = std::mem::take(&mut self.responses);
        responses.clear();
        self.topo.tick(now, &mut responses, &mut self.prof);
        for resp in &responses {
            if resp.push {
                self.hierarchy.fill_llc_only(resp.addr, &mut self.wbs);
                self.writeback_q.extend(self.wbs.drain(..));
                continue;
            }
            if !resp.kind.is_read() {
                continue;
            }
            let block = resp.addr.block_base(self.block_bytes).0;
            let dirty = self.dirty_fills.remove(&block);
            let core = usize::from(resp.core.0);
            if core >= self.hierarchy.cores() {
                continue;
            }
            let waiters = self.mshrs.complete(resp.addr);
            self.hierarchy.fill(core, resp.addr, dirty, &mut self.wbs);
            self.writeback_q.extend(self.wbs.drain(..));
            for waiter in waiters {
                if waiter != STORE_WAITER {
                    woken.push((CoreId((waiter >> 48) as u8), waiter & SLOT_MASK));
                }
            }
        }
        self.responses = responses;
    }
}

impl MemoryPort for Recorder {
    fn load(
        &mut self,
        now: Cycle,
        core: CoreId,
        slot: u64,
        addr: PhysAddr,
        _: &mut Profiler,
    ) -> PortResult {
        let lookup_latency = match self.access(core, addr, false) {
            HierarchyOutcome::Hit { latency, .. } => return PortResult::Hit { latency },
            HierarchyOutcome::Miss { lookup_latency } => lookup_latency,
        };
        let token = (u64::from(core.0) << 48) | (slot & SLOT_MASK);
        if self.mshrs.contains(addr) {
            self.mshrs.allocate(addr, token);
            return PortResult::Accepted;
        }
        if self.mshrs.is_full() || self.topo.headroom_for(addr) == 0 {
            return PortResult::Rejected;
        }
        self.mshrs.allocate(addr, token);
        let block = addr.block_base(self.block_bytes);
        self.submit(now, AccessKind::Read, core, block, now + lookup_latency);
        PortResult::Accepted
    }

    fn store(&mut self, now: Cycle, core: CoreId, addr: PhysAddr, _: &mut Profiler) -> bool {
        let lookup_latency = match self.access(core, addr, true) {
            HierarchyOutcome::Hit { .. } => return true,
            HierarchyOutcome::Miss { lookup_latency } => lookup_latency,
        };
        let block = addr.block_base(self.block_bytes);
        if self.mshrs.contains(addr) {
            self.mshrs.allocate(addr, STORE_WAITER);
            self.dirty_fills.insert(block.0);
            return true;
        }
        if self.mshrs.is_full() || self.topo.headroom_for(addr) == 0 {
            return false;
        }
        self.mshrs.allocate(addr, STORE_WAITER);
        self.dirty_fills.insert(block.0);
        self.submit(now, AccessKind::Read, core, block, now + lookup_latency);
        true
    }
}
