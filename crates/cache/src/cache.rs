//! A single set-associative, write-back, write-allocate cache with true
//! LRU replacement.

use camps_stats::{Counter, Ratio};
use camps_types::addr::PhysAddr;
use camps_types::config::CacheLevelConfig;
use camps_types::snapshot::{decode, Snapshot};
use serde::value::Value;
use serde::{de, Deserialize, Serialize};

/// One cache line's bookkeeping (tags only; data is not simulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups (demand reads + writes).
    pub accesses: Ratio,
    /// Dirty lines pushed down on eviction.
    pub writebacks: Counter,
    /// Lines filled.
    pub fills: Counter,
}

/// A set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets[s]` is MRU-first.
    sets: Vec<Vec<Line>>,
    ways: usize,
    line_bits: u32,
    set_mask: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from one level's configuration.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (validated configs never are).
    #[must_use]
    pub fn new(cfg: &CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            sets: vec![Vec::with_capacity(cfg.ways as usize); sets as usize],
            ways: cfg.ways as usize,
            line_bits: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            stats: CacheStats::default(),
        }
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let block = addr.0 >> self.line_bits;
        (
            (block & self.set_mask) as usize,
            block >> self.sets.len().trailing_zeros(),
        )
    }

    /// Looks up `addr`; on a hit the line is promoted to MRU and (for
    /// writes) marked dirty. Returns whether it hit.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> bool {
        let (set, tag) = self.index(addr);
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|l| l.tag == tag) {
            let mut line = lines.remove(pos);
            line.dirty |= is_write;
            lines.insert(0, line);
            self.stats.accesses.hit();
            true
        } else {
            self.stats.accesses.miss();
            false
        }
    }

    /// True if `addr`'s line is resident (no LRU update, no stats).
    #[must_use]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// Fills `addr`'s line as MRU (dirty if `dirty`). If the set was full,
    /// returns the evicted line's address when it was dirty (the caller
    /// writes it to the next level).
    ///
    /// Filling a line that is already resident just promotes it.
    pub fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Option<PhysAddr> {
        let (set, tag) = self.index(addr);
        let set_bits = self.sets.len().trailing_zeros();
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|l| l.tag == tag) {
            let mut line = lines.remove(pos);
            line.dirty |= dirty;
            lines.insert(0, line);
            return None;
        }
        self.stats.fills.inc();
        let victim = if lines.len() == self.ways {
            lines.pop()
        } else {
            None
        };
        lines.insert(0, Line { tag, dirty });
        victim.filter(|v| v.dirty).map(|v| {
            self.stats.writebacks.inc();
            PhysAddr(((v.tag << set_bits) | set as u64) << self.line_bits)
        })
    }

    /// Counts `n` lookups that missed, as `n` missing [`Self::access`]
    /// calls would.
    pub fn charge_misses(&mut self, n: u64) {
        self.stats.accesses.total.add(n);
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of resident lines (tests / occupancy probes).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

impl Snapshot for Cache {
    fn save_state(&self) -> Value {
        // Geometry (`ways`, `line_bits`, `set_mask`) is derived from the
        // config; only tag contents and statistics are captured. Lines
        // serialize as `(tag, dirty)` pairs, MRU-first per set.
        let sets: Vec<Vec<(u64, bool)>> = self
            .sets
            .iter()
            .map(|s| s.iter().map(|l| (l.tag, l.dirty)).collect())
            .collect();
        Value::Map(vec![
            ("sets".into(), sets.to_value()),
            ("stats".into(), self.stats.to_value()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        let sets: Vec<Vec<(u64, bool)>> = decode(state, "sets")?;
        if sets.len() != self.sets.len() {
            return Err(de::Error::custom(format!(
                "snapshot: {} sets for a {}-set cache",
                sets.len(),
                self.sets.len()
            )));
        }
        if sets.iter().any(|s| s.len() > self.ways) {
            return Err(de::Error::custom(format!(
                "snapshot: set exceeds {} ways",
                self.ways
            )));
        }
        self.sets = sets
            .into_iter()
            .map(|s| {
                s.into_iter()
                    .map(|(tag, dirty)| Line { tag, dirty })
                    .collect()
            })
            .collect();
        self.stats = decode(state, "stats")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(&CacheLevelConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 4,
        })
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = small();
        let a = PhysAddr(0x1000);
        assert!(!c.access(a, false));
        assert_eq!(c.fill(a, false), None);
        assert!(c.access(a, false));
        assert_eq!(c.stats().accesses.value(), Some(0.5));
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = small();
        c.fill(PhysAddr(0x1000), false);
        assert!(c.access(PhysAddr(0x103F), false));
        assert!(c.access(PhysAddr(0x1001), true));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Same set: addresses 4 sets apart → stride 4 * 64 = 256.
        let (a, b, d) = (PhysAddr(0x0), PhysAddr(0x100), PhysAddr(0x200));
        c.fill(a, false);
        c.fill(b, false);
        c.access(a, false); // promote a; b becomes LRU
        c.fill(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_returns_writeback_address() {
        let mut c = small();
        let (a, b, d) = (PhysAddr(0x40), PhysAddr(0x140), PhysAddr(0x240));
        c.fill(a, false);
        c.access(a, true); // dirty a
        c.fill(b, false);
        c.access(b, false); // a is LRU and dirty
        let wb = c.fill(d, false);
        assert_eq!(
            wb,
            Some(PhysAddr(0x40)),
            "writeback must reconstruct the line address"
        );
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn clean_eviction_returns_none() {
        let mut c = small();
        c.fill(PhysAddr(0x0), false);
        c.fill(PhysAddr(0x100), false);
        assert_eq!(c.fill(PhysAddr(0x200), false), None);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = small();
        c.fill(PhysAddr(0x0), false);
        c.fill(PhysAddr(0x100), false);
        assert_eq!(c.fill(PhysAddr(0x0), true), None);
        assert_eq!(c.resident_lines(), 2);
        // The refill marked it dirty.
        c.fill(PhysAddr(0x200), false); // evicts 0x100 (clean)
        c.access(PhysAddr(0x200), false);
        let wb = c.fill(PhysAddr(0x100), false); // evicts 0x0 (dirty, LRU)
        assert_eq!(wb, Some(PhysAddr(0x0)));
    }

    #[test]
    fn charged_misses_match_missing_lookups() {
        let (mut looked, mut charged) = (small(), small());
        looked.fill(PhysAddr(0x0), false);
        charged.fill(PhysAddr(0x0), false);
        for _ in 0..3 {
            assert!(!looked.access(PhysAddr(0x1000), false));
        }
        charged.charge_misses(3);
        assert_eq!(looked.stats(), charged.stats());
    }

    proptest! {
        #[test]
        fn occupancy_never_exceeds_capacity(
            addrs in prop::collection::vec(0u64..0x4000, 1..200)
        ) {
            let mut c = small();
            for &a in &addrs {
                let addr = PhysAddr(a);
                if !c.access(addr, a % 3 == 0) {
                    let _ = c.fill(addr, false);
                }
                prop_assert!(c.resident_lines() <= 8);
                prop_assert!(c.contains(addr));
            }
        }

        #[test]
        fn writeback_addresses_round_trip(
            addrs in prop::collection::vec(0u64..0x10000, 1..100)
        ) {
            // Every writeback address must map to the same set it was
            // evicted from and be line-aligned.
            let mut c = small();
            for &a in &addrs {
                let addr = PhysAddr(a);
                if let Some(wb) = c.fill(addr, true) {
                    prop_assert_eq!(wb.0 % 64, 0);
                    let set_of = |p: PhysAddr| (p.0 >> 6) & 3;
                    prop_assert_eq!(set_of(wb), set_of(addr));
                }
            }
        }
    }
}
