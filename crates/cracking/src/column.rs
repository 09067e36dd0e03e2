//! Selection cracking (Idreos et al., CIDR 2007): the cracker column and
//! its `crackers.select` operator, with ripple updates (SIGMOD 2007).
//!
//! This is the baseline the SIGMOD'09 paper improves upon: selections get
//! continuously faster, but because the cracker column is physically
//! reorganized, selection results are no longer aligned with base columns
//! and tuple reconstruction degenerates to random access.

use crate::advisor::PolicyAdvisor;
use crate::cracked::CrackedArray;
use crate::policy::{CrackPolicy, Span};
use crackdb_columnstore::column::Column;
use crackdb_columnstore::types::{RangePred, RowId, Val};

/// A cracker column `C_A`: a copy of base column `A` as `(value, key)`
/// pairs, physically reorganized by every selection, plus pending update
/// queues merged on demand by the Ripple algorithm.
#[derive(Debug, Clone)]
pub struct CrackerColumn {
    arr: CrackedArray<RowId>,
    pending_inserts: Vec<(Val, RowId)>,
    pending_deletes: Vec<(Val, RowId)>,
    /// Policy selection: holds the configured [`CrackPolicy`] and, when
    /// that is [`CrackPolicy::Adaptive`], the workload statistics that
    /// re-decide the effective static policy once per query.
    advisor: PolicyAdvisor,
    /// Cumulative count of crack operations (for instrumentation).
    pub cracks: u64,
}

impl CrackerColumn {
    /// Create the cracker column by copying a base column (the paper's
    /// "first time an attribute is required" step), cracking with the
    /// standard exact-bounds policy.
    pub fn from_column(col: &Column) -> Self {
        Self::with_policy(col, CrackPolicy::Standard)
    }

    /// Create the cracker column with an explicit [`CrackPolicy`].
    pub fn with_policy(col: &Column, policy: CrackPolicy) -> Self {
        let head = col.values().to_vec();
        let tail: Vec<RowId> = (0..col.len() as RowId).collect();
        CrackerColumn {
            arr: CrackedArray::new(head, tail),
            pending_inserts: Vec::new(),
            pending_deletes: Vec::new(),
            advisor: PolicyAdvisor::new(policy),
            cracks: 0,
        }
    }

    /// The column's configured pivot-choice policy (possibly
    /// [`CrackPolicy::Adaptive`]).
    pub fn policy(&self) -> CrackPolicy {
        self.advisor.configured()
    }

    /// The static policy the next crack will run under (equals
    /// [`Self::policy`] unless configured adaptive).
    pub fn effective_policy(&self) -> CrackPolicy {
        self.advisor.effective()
    }

    /// How many times the advisor has switched the effective policy
    /// (always 0 for a static configuration).
    pub fn policy_switches(&self) -> u64 {
        self.advisor.switches()
    }

    /// Cumulative tuples touched by the crack kernels (robustness
    /// instrumentation; see [`CrackedArray::touched`]).
    pub fn touched(&self) -> u64 {
        self.arr.touched()
    }

    /// Number of merged tuples (excludes pending).
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// `true` when the column holds no merged tuples.
    pub fn is_empty(&self) -> bool {
        self.arr.is_empty()
    }

    /// The underlying cracked array (read-only).
    pub fn array(&self) -> &CrackedArray<RowId> {
        &self.arr
    }

    /// `crackers.select(A, v1, v2)`: merge relevant pending updates, crack
    /// so qualifying tuples are contiguous, and return the qualifying
    /// `(value, key)` slices. The key order is **not** the insertion
    /// order — the cause of expensive tuple reconstruction.
    ///
    /// Under [`CrackPolicy::CoarseGranular`] the returned slices may be
    /// a *superset* of the qualifying tuples (a declined split leaves
    /// the whole leaf piece); use [`Self::select_keys`] for a filtered
    /// result, or consult [`Self::crack_select_span`] for exactness.
    pub fn crack_select(&mut self, pred: &RangePred) -> (&[Val], &[RowId]) {
        let span = self.crack_select_span(pred);
        self.arr.view(span.range())
    }

    /// Like [`Self::crack_select`] but returns the [`Span`] so callers
    /// can see whether the area is exact or needs filtering.
    pub fn crack_select_span(&mut self, pred: &RangePred) -> Span {
        self.merge_pending(pred);
        let policy = self
            .advisor
            .observe(pred, self.arr.index().len(), self.arr.len());
        let before = self.arr.index().len();
        let span = self.arr.crack_range_with(pred, &policy);
        self.cracks += (self.arr.index().len() - before) as u64;
        span
    }

    /// Qualifying keys only (the common result shape). Correct under
    /// every policy: an inexact coarse-granular span is filtered against
    /// the head values before keys are returned.
    pub fn select_keys(&mut self, pred: &RangePred) -> Vec<RowId> {
        let span = self.crack_select_span(pred);
        let (h, t) = self.arr.view(span.range());
        if span.exact {
            t.to_vec()
        } else {
            h.iter()
                .zip(t)
                .filter(|(&v, _)| pred.matches(v))
                .map(|(_, &k)| k)
                .collect()
        }
    }

    /// Queue an insertion (applied on demand by the Ripple algorithm).
    pub fn queue_insert(&mut self, v: Val, key: RowId) {
        self.pending_inserts.push((v, key));
    }

    /// Queue a deletion (applied on demand).
    pub fn queue_delete(&mut self, v: Val, key: RowId) {
        self.pending_deletes.push((v, key));
    }

    /// Number of pending (unmerged) updates.
    pub fn pending(&self) -> usize {
        self.pending_inserts.len() + self.pending_deletes.len()
    }

    /// Ripple-merge pending updates that are relevant to `pred`, i.e.,
    /// whose values the current query would observe. Other updates stay
    /// pending — the self-organizing behaviour of SIGMOD'07.
    fn merge_pending(&mut self, pred: &RangePred) {
        if !self.pending_inserts.is_empty() {
            let mut i = 0;
            while i < self.pending_inserts.len() {
                let (v, k) = self.pending_inserts[i];
                if pred.matches(v) {
                    self.arr.ripple_insert(v, k);
                    self.pending_inserts.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        if !self.pending_deletes.is_empty() {
            let mut i = 0;
            while i < self.pending_deletes.len() {
                let (v, k) = self.pending_deletes[i];
                if pred.matches(v) {
                    self.arr.ripple_delete(v, |&t| t == k);
                    self.pending_deletes.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Force-merge every pending update regardless of range (used by
    /// tests and by full-scan operations).
    pub fn merge_all_pending(&mut self) {
        self.merge_pending(&RangePred::all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;

    fn base() -> Column {
        Column::new(vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16])
    }

    #[test]
    fn select_returns_unordered_keys() {
        let mut c = CrackerColumn::from_column(&base());
        let keys = c.select_keys(&RangePred::open(2, 16));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 6, 8, 11]);
    }

    #[test]
    fn select_matches_scan_semantics() {
        let col = base();
        let mut c = CrackerColumn::from_column(&col);
        for pred in [
            RangePred::open(5, 20),
            RangePred::closed(5, 20),
            RangePred::point(7),
            RangePred::open(-5, 100),
        ] {
            let mut got = c.select_keys(&pred);
            got.sort_unstable();
            let expected = crackdb_columnstore::ops::select::select(&col, &pred);
            assert_eq!(got, expected, "pred {pred:?}");
        }
        c.array().check_partitioning();
    }

    #[test]
    fn select_keys_correct_under_all_policies() {
        let col = base();
        for policy in crate::policy::CrackPolicy::all_selectable() {
            let mut c = CrackerColumn::with_policy(&col, policy);
            assert_eq!(c.policy(), policy);
            for pred in [
                RangePred::open(5, 20),
                RangePred::closed(5, 20),
                RangePred::point(7),
                RangePred::open(-5, 100),
                RangePred::open(13, 14),
            ] {
                let mut got = c.select_keys(&pred);
                got.sort_unstable();
                let expected = crackdb_columnstore::ops::select::select(&col, &pred);
                assert_eq!(got, expected, "policy {} pred {pred:?}", policy.label());
            }
            c.array().check_partitioning();
        }
    }

    #[test]
    fn knowledge_accumulates() {
        let mut c = CrackerColumn::from_column(&base());
        c.crack_select(&RangePred::open(10, 15));
        let cracks_after_first = c.cracks;
        assert!(cracks_after_first >= 1);
        c.crack_select(&RangePred::open(10, 15));
        assert_eq!(c.cracks, cracks_after_first, "repeat query cracks nothing");
    }

    #[test]
    fn pending_inserts_merge_on_demand() {
        let mut c = CrackerColumn::from_column(&base());
        c.crack_select(&RangePred::open(10, 15));
        c.queue_insert(13, 100);
        c.queue_insert(999, 101);
        assert_eq!(c.pending(), 2);
        let (h, t) = c.crack_select(&RangePred::open(10, 15));
        assert!(h.iter().zip(t).any(|(&v, &k)| v == 13 && k == 100));
        // The out-of-range insert stays pending.
        assert_eq!(c.pending(), 1);
        c.array().check_partitioning();
    }

    #[test]
    fn pending_deletes_merge_on_demand() {
        let mut c = CrackerColumn::from_column(&base());
        c.crack_select(&RangePred::open(10, 15));
        c.queue_delete(12, 0);
        let (h, _) = c.crack_select(&RangePred::open(10, 15));
        assert_eq!(h, &[11]);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn update_then_query_other_range() {
        let mut c = CrackerColumn::from_column(&base());
        c.queue_insert(6, 50);
        // Query a range not containing 6: insert must remain pending and
        // invisible.
        let keys = c.select_keys(&RangePred::open(10, 15));
        assert!(!keys.contains(&50));
        assert_eq!(c.pending(), 1);
        // Now query a range containing 6.
        let keys = c.select_keys(&RangePred::open(5, 8));
        assert!(keys.contains(&50));
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn merge_all_pending() {
        let mut c = CrackerColumn::from_column(&base());
        c.queue_insert(1, 60);
        c.queue_delete(12, 0);
        c.merge_all_pending();
        assert_eq!(c.pending(), 0);
        assert_eq!(c.len(), base().len()); // one in, one out
    }
}
