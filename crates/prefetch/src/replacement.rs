//! Prefetch-buffer replacement policies.
//!
//! * [`ReplacementKind::Lru`] — classic least-recently-used, as used by the
//!   BASE/BASE-HIT/MMD comparators and plain CAMPS.
//! * [`ReplacementKind::UtilRecency`] — the paper's §3.2 policy
//!   (CAMPS-MOD): evict a fully-consumed row if one exists; otherwise the
//!   row minimizing `utilization + recency`, breaking ties toward lower
//!   utilization.
//!
//! The policies operate on a read-only view of the buffer entries
//! ([`VictimView`]) so they can be tested in isolation and swapped at run
//! time without generics leaking into the vault controller.

use serde::{Deserialize, Serialize};

/// Which replacement policy a scheme uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplacementKind {
    /// Evict the least-recently-used row.
    Lru,
    /// §3.2: fully-consumed rows first, then min(utilization + recency),
    /// ties to the lower utilization.
    UtilRecency,
    /// Evict the oldest-inserted row regardless of use — ablation
    /// baseline showing what recency tracking buys.
    Fifo,
}

/// The per-entry state a policy may inspect when picking a victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimView {
    /// Distinct cache lines referenced since the row entered the buffer.
    pub utilization: u32,
    /// Total cache lines in the row (16 for 1 KB rows / 64 B lines).
    pub lines: u32,
    /// Recency rank: MRU = capacity-1, LRU (when full) = 0. Always a
    /// permutation of `capacity-len .. capacity` over resident entries.
    pub recency: u32,
    /// Cycle the row was inserted (FIFO ordering).
    pub inserted_at: u64,
}

impl ReplacementKind {
    /// Index of the entry to evict. The buffer only asks when full, so
    /// `entries` is nonempty in practice; an (invariant-breaking) empty
    /// slice yields index 0 rather than aborting the run.
    #[must_use]
    pub fn victim(self, entries: &[VictimView]) -> usize {
        debug_assert!(!entries.is_empty(), "victim() on empty buffer");
        match self {
            Self::Lru => lru_victim(entries),
            Self::UtilRecency => util_recency_victim(entries),
            Self::Fifo => fifo_victim(entries),
        }
    }
}

fn fifo_victim(entries: &[VictimView]) -> usize {
    entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.inserted_at, e.recency))
        .map_or(0, |(i, _)| i)
}

fn lru_victim(entries: &[VictimView]) -> usize {
    entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.recency)
        .map_or(0, |(i, _)| i)
}

fn util_recency_victim(entries: &[VictimView]) -> usize {
    // §3.2 step 1: a row whose every line has been consumed no longer needs
    // to stay — all its data has already been transferred to the processor.
    // (Among several, prefer the least recent.)
    if let Some((i, _)) = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.utilization >= e.lines)
        .min_by_key(|(_, e)| e.recency)
    {
        return i;
    }
    // §3.2 step 2: minimize utilization + recency; ties go to the lower
    // utilization count; a final recency tie-break keeps the choice
    // deterministic.
    entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.utilization + e.recency, e.utilization, e.recency))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(utilization: u32, recency: u32) -> VictimView {
        VictimView {
            utilization,
            lines: 16,
            recency,
            inserted_at: u64::from(recency),
        }
    }

    #[test]
    fn lru_picks_lowest_recency() {
        let e = [v(9, 3), v(1, 0), v(2, 2)];
        assert_eq!(ReplacementKind::Lru.victim(&e), 1);
    }

    #[test]
    fn fully_consumed_row_evicted_first() {
        // Entry 2 has all 16 lines referenced — §3.2 evicts it even though
        // its util+recency sum is the largest.
        let e = [v(3, 0), v(5, 1), v(16, 15)];
        assert_eq!(ReplacementKind::UtilRecency.victim(&e), 2);
    }

    #[test]
    fn least_recent_of_multiple_consumed_rows() {
        let e = [v(16, 7), v(16, 2), v(1, 0)];
        assert_eq!(ReplacementKind::UtilRecency.victim(&e), 1);
    }

    #[test]
    fn min_sum_wins_without_consumed_rows() {
        // sums: 10, 4, 9 → entry 1.
        let e = [v(8, 2), v(1, 3), v(4, 5)];
        assert_eq!(ReplacementKind::UtilRecency.victim(&e), 1);
    }

    #[test]
    fn sum_tie_broken_by_lower_utilization() {
        // Both sum to 6; entry 1 has lower utilization → evicted (paper:
        // "the row with the lowest utilization count value will be
        // evicted").
        let e = [v(5, 1), v(2, 4)];
        assert_eq!(ReplacementKind::UtilRecency.victim(&e), 1);
    }

    #[test]
    fn highly_utilized_recent_rows_survive() {
        // The paper's motivation: a hot recent row must outlive a cold old
        // one under UtilRecency even when LRU would agree, and — crucially
        // — a *recently inserted but unused* row is evicted before an old
        // but heavily reused one.
        let hot_old = v(12, 1);
        let cold_new = v(0, 3);
        let e = [hot_old, cold_new];
        assert_eq!(ReplacementKind::UtilRecency.victim(&e), 1);
        // LRU would have evicted the hot old row instead.
        assert_eq!(ReplacementKind::Lru.victim(&e), 0);
    }

    /// Debug builds assert on the broken invariant; release builds fall
    /// back to index 0, as `victim` documents.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "empty"))]
    fn empty_panics() {
        assert_eq!(ReplacementKind::Lru.victim(&[]), 0);
    }

    #[test]
    fn fifo_evicts_oldest_insertion_even_if_hot() {
        let mut old_hot = v(14, 15); // MRU and heavily used…
        old_hot.inserted_at = 1; // …but inserted first
        let mut new_cold = v(0, 0);
        new_cold.inserted_at = 99;
        assert_eq!(ReplacementKind::Fifo.victim(&[old_hot, new_cold]), 0);
        assert_eq!(ReplacementKind::Lru.victim(&[old_hot, new_cold]), 1);
    }

    proptest! {
        #[test]
        fn victim_always_in_range(
            entries in prop::collection::vec((0u32..=16, 0u32..16), 1..16),
            policy in prop::sample::select(vec![
                ReplacementKind::Lru,
                ReplacementKind::UtilRecency,
                ReplacementKind::Fifo,
            ]),
        ) {
            let views: Vec<_> = entries.iter().map(|&(u, r)| v(u, r)).collect();
            let i = policy.victim(&views);
            prop_assert!(i < views.len());
        }

        #[test]
        fn util_recency_never_evicts_unconsumed_over_consumed(
            entries in prop::collection::vec((0u32..16, 0u32..16), 1..15),
        ) {
            // Add one fully consumed row; it must always be the victim.
            let mut views: Vec<_> = entries.iter().map(|&(u, r)| v(u, r)).collect();
            views.push(v(16, 15));
            let i = ReplacementKind::UtilRecency.victim(&views);
            prop_assert_eq!(i, views.len() - 1);
        }

        #[test]
        fn lru_victim_has_min_recency(
            entries in prop::collection::vec((0u32..=16, 0u32..64), 1..16),
        ) {
            let views: Vec<_> = entries.iter().map(|&(u, r)| v(u, r)).collect();
            let i = ReplacementKind::Lru.victim(&views);
            let min = views.iter().map(|e| e.recency).min().unwrap();
            prop_assert_eq!(views[i].recency, min);
        }
    }
}
