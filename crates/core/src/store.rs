//! Query-level orchestration over map sets: the §3.3 map-set choice via
//! self-organizing histograms, full-map storage management (the policy
//! §4.2 benchmarks partial maps against), and the partial-store wrapper.

use crate::bitvec::BitVec;
use crate::partial::PartialSet;
use crate::set::{uniform_estimate, MapSet};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::CrackPolicy;
use std::collections::{HashMap, HashSet};

/// Result handle of a conjunctive multi-selection: the chosen map set,
/// the cracked area, and the qualifying-bit vector over that area.
#[derive(Debug, Clone)]
pub struct ConjHandle {
    /// Head attribute of the chosen set.
    pub set_attr: usize,
    /// The chosen set's own predicate.
    pub head_pred: RangePred,
    /// Contiguous qualifying area in every aligned map of the set.
    pub range: (usize, usize),
    /// Bits over `range`: set = tuple satisfies all predicates.
    pub bv: Option<BitVec>,
}

impl ConjHandle {
    /// Number of tuples satisfying all predicates.
    pub fn result_size(&self) -> usize {
        match &self.bv {
            Some(bv) => bv.count_ones(),
            None => self.range.1 - self.range.0,
        }
    }
}

/// Registry of full-map [`MapSet`]s with histogram-driven set choice and
/// LFU whole-map storage management.
#[derive(Debug, Clone, Default)]
pub struct SidewaysStore {
    sets: HashMap<usize, MapSet>,
    /// Value domain per attribute (for zero-knowledge estimates).
    domains: HashMap<usize, (Val, Val)>,
    default_domain: (Val, Val),
    /// Pivot-choice policy handed to every map set created by the store.
    policy: CrackPolicy,
    /// Per-attribute policy overrides (mixed-policy stores): a set for
    /// attribute `a` is created with `overrides[a]` when present, the
    /// store default otherwise.
    overrides: HashMap<usize, CrackPolicy>,
    /// Storage budget in tuples across all maps (`None` = unlimited).
    pub budget: Option<usize>,
    /// Maps dropped by the storage manager (instrumentation).
    pub maps_dropped: u64,
}

impl SidewaysStore {
    /// Empty store with a default attribute value domain used for
    /// estimates before any knowledge exists.
    pub fn new(default_domain: (Val, Val)) -> Self {
        SidewaysStore {
            default_domain,
            ..Default::default()
        }
    }

    /// Set the pivot-choice policy for all *future* map sets.
    ///
    /// # Panics
    /// If any set already exists — a set's policy is fixed for its
    /// lifetime (tape replay must stay deterministic).
    pub fn set_policy(&mut self, policy: CrackPolicy) {
        assert!(
            self.sets.is_empty(),
            "crack policy must be chosen before any map set exists"
        );
        self.policy = policy;
    }

    /// The store's default pivot-choice policy.
    pub fn policy(&self) -> CrackPolicy {
        self.policy
    }

    /// Override the policy for one attribute's *future* map set (mixed-
    /// policy stores).
    ///
    /// # Panics
    /// If that attribute's set already exists — a set's configured
    /// policy is fixed for its lifetime.
    pub fn set_policy_for(&mut self, attr: usize, policy: CrackPolicy) {
        assert!(
            !self.sets.contains_key(&attr),
            "crack policy must be chosen before the map set exists"
        );
        self.overrides.insert(attr, policy);
    }

    /// The policy a set for `attr` is (or would be) created with.
    pub fn policy_for(&self, attr: usize) -> CrackPolicy {
        self.overrides.get(&attr).copied().unwrap_or(self.policy)
    }

    /// Total effective-policy switches across all sets' advisors.
    pub fn policy_switches(&self) -> u64 {
        self.sets.values().map(|s| s.policy_switches()).sum()
    }

    /// Register a per-attribute value domain.
    pub fn set_domain(&mut self, attr: usize, domain: (Val, Val)) {
        self.domains.insert(attr, domain);
    }

    fn domain(&self, attr: usize) -> (Val, Val) {
        self.domains
            .get(&attr)
            .copied()
            .unwrap_or(self.default_domain)
    }

    /// Access (creating on demand) the map set of `head_attr`. `excluded`
    /// are the base-table keys already deleted at creation time.
    pub fn ensure_set(
        &mut self,
        base: &Table,
        head_attr: usize,
        excluded: &HashSet<RowId>,
    ) -> &mut MapSet {
        let policy = self.policy_for(head_attr);
        self.sets.entry(head_attr).or_insert_with(|| {
            MapSet::with_policy(head_attr, base.num_rows(), excluded.clone(), policy)
        })
    }

    /// Read access to a set.
    pub fn set(&self, head_attr: usize) -> Option<&MapSet> {
        self.sets.get(&head_attr)
    }

    /// Total storage in tuples across all sets.
    pub fn tuples(&self) -> usize {
        self.sets.values().map(|s| s.tuples()).sum()
    }

    /// Stage an insertion (tuple `key` appended to base) into every
    /// existing set.
    pub fn stage_insert(&mut self, key: RowId) {
        for s in self.sets.values_mut() {
            s.stage_insert(key);
        }
    }

    /// Stage a deletion of tuple `key` into every existing set (head
    /// values read from the base table).
    pub fn stage_delete(&mut self, base: &Table, key: RowId) {
        for s in self.sets.values_mut() {
            let v = base.column(s.head_attr).get(key);
            s.stage_delete(v, key);
        }
    }

    /// §3.3 map-set choice for conjunctions: the most selective
    /// predicate's attribute, judged by the most-aligned map's cracker
    /// index (or a uniform assumption when no knowledge exists).
    pub fn choose_set_conj(&self, base: &Table, preds: &[(usize, RangePred)]) -> usize {
        self.choose_set(base, preds, false)
    }

    /// Map-set choice for disjunctions: the *least* selective attribute,
    /// so the areas scanned outside the cracked region stay small.
    pub fn choose_set_disj(&self, base: &Table, preds: &[(usize, RangePred)]) -> usize {
        self.choose_set(base, preds, true)
    }

    /// §3.3 self-organizing estimate for one predicate: the attribute's
    /// map-set histogram when one exists, a uniform assumption otherwise.
    pub fn estimate(&self, base: &Table, attr: usize, pred: &RangePred) -> f64 {
        let n = base.num_rows();
        match self.sets.get(&attr) {
            Some(s) => s.estimate(pred, n, self.domain(attr)),
            None => uniform_estimate(pred, n, self.domain(attr)),
        }
    }

    fn choose_set(&self, base: &Table, preds: &[(usize, RangePred)], largest: bool) -> usize {
        self.choose_idx(base, preds, largest)
            .map_or(0, |i| preds[i].0)
    }

    /// Index into `preds` of the chosen set's predicate (`None` only for
    /// an empty slice).
    fn choose_idx(
        &self,
        base: &Table,
        preds: &[(usize, RangePred)],
        largest: bool,
    ) -> Option<usize> {
        let score =
            |&(attr, pred): &(usize, RangePred)| -> f64 { self.estimate(base, attr, &pred) };
        preds
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let (sa, sb) = (score(a.1), score(b.1));
                // total_cmp: a NaN estimate (degenerate domain statistics)
                // must never panic the planner; it just sorts last.
                let ord = sa.total_cmp(&sb);
                if largest {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .map(|(i, _)| i)
    }

    /// Enforce the full-map budget before `needed` new tuples are
    /// materialized, never dropping maps in `pinned` (`(set, tail)`
    /// pairs). Drops whole least-frequently-accessed maps (§4.2's
    /// full-map policy).
    fn make_room(&mut self, needed: usize, pinned: &HashSet<(usize, usize)>) {
        let Some(budget) = self.budget else { return };
        loop {
            let usage = self.tuples();
            if usage + needed <= budget {
                return;
            }
            // Tie-break on the (set, tail) identity: eviction must not
            // depend on hash-map iteration order.
            let victim = self
                .sets
                .iter()
                .flat_map(|(&sa, s)| {
                    s.map_attrs().into_iter().filter_map(move |ta| {
                        let m = s.map(ta)?;
                        Some(((sa, ta), m.accesses))
                    })
                })
                .filter(|(key, _)| !pinned.contains(key))
                .min_by_key(|&((sa, ta), acc)| (acc, sa, ta))
                .map(|(key, _)| key);
            let Some((sa, ta)) = victim else { return };
            if let Some(s) = self.sets.get_mut(&sa) {
                s.drop_map(ta);
                self.maps_dropped += 1;
            } else {
                return;
            }
        }
    }

    /// Reserve budget room for a query that will touch `tail_attrs` maps
    /// of set `set_attr` (creating the missing ones).
    fn reserve(&mut self, base: &Table, set_attr: usize, tail_attrs: &[usize]) {
        if self.budget.is_none() {
            return;
        }
        let pinned: HashSet<(usize, usize)> = tail_attrs.iter().map(|&t| (set_attr, t)).collect();
        let missing: usize = {
            let s = self.sets.get(&set_attr);
            tail_attrs
                .iter()
                .filter(|&&t| s.is_none_or(|s| !s.has_map(t)))
                .count()
        };
        if missing > 0 {
            self.make_room(missing * base.num_rows(), &pinned);
        }
    }

    /// Public budget hook for executors driving map sets directly: make
    /// room for the maps of `tail_attrs` under `set_attr` before they are
    /// materialized (no-op without a budget).
    pub fn reserve_for(&mut self, base: &Table, set_attr: usize, tail_attrs: &[usize]) {
        self.reserve(base, set_attr, tail_attrs);
    }

    /// Mutable access to the map set of `head_attr`, created on demand
    /// from the current base snapshot (excluding already-deleted keys).
    /// Combine with [`Self::reserve_for`] when a budget is active.
    pub fn set_mut_ensured(
        &mut self,
        base: &Table,
        head_attr: usize,
        excluded: &HashSet<RowId>,
    ) -> &mut MapSet {
        self.ensure_set(base, head_attr, excluded)
    }

    /// Single-selection, multi-projection query: stream each projection
    /// attribute's qualifying values via `consume(attr, value)`.
    pub fn select_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        sel_attr: usize,
        pred: &RangePred,
        projs: &[usize],
        excluded: &HashSet<RowId>,
        mut consume: F,
    ) {
        self.reserve(base, sel_attr, projs);
        let s = self.ensure_set(base, sel_attr, excluded);
        s.note_query(pred);
        for &p in projs {
            let (range, head_bv) = s.sideways_select_filtered(base, p, pred);
            let tails = s.view_tail(p, range);
            match head_bv {
                None => {
                    for &v in tails {
                        consume(p, v);
                    }
                }
                // Inexact (coarse-granular) area: stream qualifying bits.
                Some(bv) => {
                    for i in bv.iter_ones() {
                        consume(p, tails[i]);
                    }
                }
            }
        }
    }

    /// Conjunctive multi-selection (§3.3): returns the handle describing
    /// the qualifying tuples; follow with [`Self::reconstruct_with`] per
    /// projection attribute.
    pub fn conjunctive_bv(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        extra_attrs: &[usize],
        excluded: &HashSet<RowId>,
    ) -> ConjHandle {
        let chosen = self.choose_idx(base, preds, false).unwrap_or(0);
        let (set_attr, head_pred) = match preds.get(chosen) {
            Some(&(a, p)) => (a, p),
            None => {
                // Empty predicate list: nothing qualifies.
                return ConjHandle {
                    set_attr: 0,
                    head_pred: RangePred::all(),
                    range: (0, 0),
                    bv: None,
                };
            }
        };
        let tails: Vec<(usize, RangePred)> = preds
            .iter()
            .filter(|(a, _)| *a != set_attr)
            .cloned()
            .collect();
        let mut needed: Vec<usize> = tails.iter().map(|(a, _)| *a).collect();
        for &a in extra_attrs {
            if !needed.contains(&a) {
                needed.push(a);
            }
        }
        self.reserve(base, set_attr, &needed);
        let s = self.ensure_set(base, set_attr, excluded);
        s.note_query(&head_pred);

        if tails.is_empty() {
            // Pure single-selection: no residual bit vector needed. Run
            // the sideways.select of every needed map now — the query
            // plan's selection phase contains one operator per map
            // (§3.2), so later reconstructions find the maps aligned.
            // (A coarse-granular inexact area still carries its head
            // filter so reconstructions stream only qualifying tuples;
            // aligned maps share the area, so the filter is computed
            // once — on the last map — not per alignment step.)
            for &attr in needed.iter().rev().skip(1) {
                s.sideways_select(base, attr, &head_pred);
            }
            let (range, bv) = match needed.last() {
                Some(&attr) => s.sideways_select_filtered(base, attr, &head_pred),
                None => (s.select_keys(base, &head_pred).len().pipe_range(), None),
            };
            return ConjHandle {
                set_attr,
                head_pred,
                range,
                bv,
            };
        }

        let (range, mut bv) = s.select_create_bv(base, tails[0].0, &head_pred, &tails[0].1);
        for (attr, pred) in &tails[1..] {
            s.select_refine_bv(base, *attr, &head_pred, pred, &mut bv);
        }
        // Align the projection/aggregation maps now, in the selection
        // phase (one sideways operator per map in the plan, §3.3).
        for &attr in &needed {
            if !tails.iter().any(|(a, _)| *a == attr) {
                s.sideways_select(base, attr, &head_pred);
            }
        }
        ConjHandle {
            set_attr,
            head_pred,
            range,
            bv: Some(bv),
        }
    }

    /// Stream tail values of `tail_attr` for the qualifying tuples of a
    /// conjunctive handle (`sideways.reconstruct`).
    pub fn reconstruct_with<F: FnMut(Val)>(
        &mut self,
        base: &Table,
        handle: &ConjHandle,
        tail_attr: usize,
        mut consume: F,
    ) {
        let Some(s) = self.sets.get_mut(&handle.set_attr) else {
            return; // stale handle: the set was dropped since
        };
        match &handle.bv {
            Some(bv) => s.reconstruct_with(base, tail_attr, &handle.head_pred, bv, consume),
            None => {
                let range = s.sideways_select(base, tail_attr, &handle.head_pred);
                for &v in s.view_tail(tail_attr, range) {
                    consume(v);
                }
            }
        }
    }

    /// Aligned tail slice of one map under the handle's head predicate —
    /// gives positional access for join plans (positions are relative to
    /// `range.0`).
    pub fn tail_slice(&mut self, base: &Table, handle: &ConjHandle, tail_attr: usize) -> &[Val] {
        let Some(s) = self.sets.get_mut(&handle.set_attr) else {
            return &[]; // stale handle: the set was dropped since
        };
        let range = s.sideways_select(base, tail_attr, &handle.head_pred);
        debug_assert_eq!(range, handle.range, "aligned maps agree on the area");
        s.view_tail(tail_attr, range)
    }

    /// Disjunctive multi-selection (§3.3): all predicates on distinct
    /// attributes combined with OR; streams the projection attributes'
    /// qualifying values.
    pub fn disjunctive_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        excluded: &HashSet<RowId>,
        mut consume: F,
    ) {
        let chosen = self.choose_idx(base, preds, true).unwrap_or(0);
        let Some(&(set_attr, head_pred)) = preds.get(chosen) else {
            return; // empty predicate list: nothing qualifies
        };
        let tails: Vec<(usize, RangePred)> = preds
            .iter()
            .filter(|(a, _)| *a != set_attr)
            .cloned()
            .collect();
        let mut needed: Vec<usize> = tails.iter().map(|(a, _)| *a).collect();
        for &a in projs {
            if !needed.contains(&a) {
                needed.push(a);
            }
        }
        self.reserve(base, set_attr, &needed);
        let s = self.ensure_set(base, set_attr, excluded);
        s.note_query(&head_pred);

        // First map: any needed map (prefer a selection map).
        let first_attr = needed.first().copied().unwrap_or(set_attr);
        let (_, mut bv) = s.disj_create_bv(base, first_attr, &head_pred);
        for (attr, pred) in &tails {
            s.disj_refine_bv(base, *attr, &head_pred, pred, &mut bv);
        }
        for &p in projs {
            s.disj_reconstruct_with(base, p, &head_pred, &bv, |v| consume(p, v));
        }
    }
}

/// Tiny helper to express "range of n keys" for the degenerate
/// keys-only path.
trait PipeRange {
    fn pipe_range(self) -> (usize, usize);
}
impl PipeRange for usize {
    fn pipe_range(self) -> (usize, usize) {
        (0, self)
    }
}

/// Registry of [`PartialSet`]s sharing one global storage budget.
#[derive(Debug, Clone, Default)]
pub struct PartialStore {
    sets: HashMap<usize, PartialSet>,
    /// Global chunk budget in tuples (`None` = unlimited).
    pub budget: Option<usize>,
    /// Head-drop policy forwarded to sets.
    pub head_drop_threshold: Option<usize>,
    /// Pivot-choice policy handed to every partial set created by the
    /// store.
    policy: CrackPolicy,
    /// Per-attribute policy overrides (mixed-policy stores).
    overrides: HashMap<usize, CrackPolicy>,
    domains: HashMap<usize, (Val, Val)>,
    default_domain: (Val, Val),
    /// Every key deleted so far: sets created later must exclude them
    /// from their chunk-map seed (existing sets merge them lazily per
    /// area, §3.5).
    deleted: HashSet<RowId>,
}

impl PartialStore {
    /// Empty store.
    pub fn new(default_domain: (Val, Val)) -> Self {
        PartialStore {
            default_domain,
            ..Default::default()
        }
    }

    /// Register a per-attribute value domain (set-choice estimates).
    pub fn set_domain(&mut self, attr: usize, domain: (Val, Val)) {
        self.domains.insert(attr, domain);
    }

    /// Aggregate instrumentation counters across all sets.
    pub fn stats_sum(&self) -> crate::partial::PartialStats {
        let mut acc = crate::partial::PartialStats::default();
        for s in self.sets.values() {
            acc.merge(&s.stats);
        }
        acc
    }

    /// Set the pivot-choice policy for all *future* partial sets.
    ///
    /// # Panics
    /// If any set already exists — a set's policy is fixed for its
    /// lifetime (area-tape replay must stay deterministic).
    pub fn set_policy(&mut self, policy: CrackPolicy) {
        assert!(
            self.sets.is_empty(),
            "crack policy must be chosen before any partial set exists"
        );
        self.policy = policy;
    }

    /// The store's default pivot-choice policy.
    pub fn policy(&self) -> CrackPolicy {
        self.policy
    }

    /// Override the policy for one attribute's *future* partial set.
    ///
    /// # Panics
    /// If that attribute's set already exists — a set's configured
    /// policy is fixed for its lifetime.
    pub fn set_policy_for(&mut self, attr: usize, policy: CrackPolicy) {
        assert!(
            !self.sets.contains_key(&attr),
            "crack policy must be chosen before the partial set exists"
        );
        self.overrides.insert(attr, policy);
    }

    /// The policy a set for `attr` is (or would be) created with.
    pub fn policy_for(&self, attr: usize) -> CrackPolicy {
        self.overrides.get(&attr).copied().unwrap_or(self.policy)
    }

    /// Total effective-policy switches across all sets' advisors.
    pub fn policy_switches(&self) -> u64 {
        self.sets.values().map(|s| s.policy_switches()).sum()
    }

    fn domain(&self, attr: usize) -> (Val, Val) {
        self.domains
            .get(&attr)
            .copied()
            .unwrap_or(self.default_domain)
    }

    /// Zero-knowledge estimate for one predicate: partial sets keep no
    /// cross-query histogram, so §4's set choice uses the uniform domain
    /// assumption.
    pub fn estimate(&self, base: &Table, attr: usize, pred: &RangePred) -> f64 {
        uniform_estimate(pred, base.num_rows(), self.domain(attr))
    }

    /// Total chunk storage across all sets.
    pub fn usage(&self) -> usize {
        self.sets.values().map(|s| s.usage()).sum()
    }

    /// Read access to a set.
    pub fn set(&self, head_attr: usize) -> Option<&PartialSet> {
        self.sets.get(&head_attr)
    }

    /// Stage an insertion (tuple `key` appended to the base) into every
    /// existing set; sets created later see the row in their seed.
    pub fn stage_insert(&mut self, key: RowId) {
        for s in self.sets.values_mut() {
            s.stage_insert(key);
        }
    }

    /// Stage a deletion of tuple `key` into every existing set (head
    /// values read from the base table) and remember it for the seeds of
    /// sets created later.
    pub fn stage_delete(&mut self, base: &Table, key: RowId) {
        for s in self.sets.values_mut() {
            let v = base.column(s.head_attr).get(key);
            s.stage_delete(v, key);
        }
        self.deleted.insert(key);
    }

    /// Mutable access (creating on demand) with the budget share updated
    /// to the global remainder. `base` provides head values for deletions
    /// a newly created set must still exclude.
    pub fn set_mut(&mut self, base: &Table, head_attr: usize) -> &mut PartialSet {
        let other: usize = self
            .sets
            .iter()
            .filter(|(&a, _)| a != head_attr)
            .map(|(_, s)| s.usage())
            .sum();
        let budget = self.budget.map(|b| b.saturating_sub(other));
        let hd = self.head_drop_threshold;
        let policy = self
            .overrides
            .get(&head_attr)
            .copied()
            .unwrap_or(self.policy);
        let deleted = &self.deleted;
        let s = self.sets.entry(head_attr).or_insert_with(|| {
            let mut s = PartialSet::with_policy(head_attr, policy);
            // Pre-stage past deletions: the set's chunk-map seed (taken
            // at its first query) subsumes staged deletes by exclusion.
            for &k in deleted {
                s.stage_delete(base.column(head_attr).get(k), k);
            }
            s
        });
        s.budget = budget;
        s.head_drop_threshold = hd;
        s
    }

    /// Conjunctive query with histogram-based set choice (uniform
    /// fallback), executed chunk-wise on the chosen partial set.
    pub fn conjunctive_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        consume: F,
    ) {
        let n = base.num_rows();
        let Some(&(chosen, head_pred)) = preds.iter().min_by(|a, b| {
            let sa = uniform_estimate(&a.1, n, self.domain(a.0));
            let sb = uniform_estimate(&b.1, n, self.domain(b.0));
            sa.total_cmp(&sb)
        }) else {
            return; // empty predicate list: nothing qualifies
        };
        let tails: Vec<(usize, RangePred)> = preds
            .iter()
            .filter(|(a, _)| *a != chosen)
            .cloned()
            .collect();
        self.set_mut(base, chosen)
            .conjunctive_project_with(base, &head_pred, &tails, projs, consume);
    }

    /// Disjunctive query executed chunk-wise on the *least* selective
    /// predicate's set (so its own cracked areas stay large and the scan
    /// outside them small — the §3.3 disjunctive set choice).
    pub fn disjunctive_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        consume: F,
    ) {
        let n = base.num_rows();
        let Some(&(chosen, _)) = preds.iter().max_by(|a, b| {
            let sa = uniform_estimate(&a.1, n, self.domain(a.0));
            let sb = uniform_estimate(&b.1, n, self.domain(b.0));
            sa.total_cmp(&sb)
        }) else {
            return; // empty predicate list: nothing qualifies
        };
        self.set_mut(base, chosen)
            .disjunctive_project_with(base, preds, projs, consume);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;

    fn table() -> Table {
        let mut t = Table::new();
        // attr 0: 0..100; attr 1: reversed; attr 2: doubled.
        t.add_column("a", Column::new((0..100).collect()));
        t.add_column("b", Column::new((0..100).rev().collect()));
        t.add_column("c", Column::new((0..100).map(|v| v * 2).collect()));
        t
    }

    #[test]
    fn choose_most_selective_set() {
        let store = SidewaysStore::new((0, 100));
        let base = table();
        let preds = vec![
            (0usize, RangePred::open(0, 50)),  // ~50%
            (1usize, RangePred::open(10, 15)), // ~5%
        ];
        assert_eq!(store.choose_set_conj(&base, &preds), 1);
        assert_eq!(store.choose_set_disj(&base, &preds), 0);
    }

    #[test]
    fn conjunctive_roundtrip() {
        let mut store = SidewaysStore::new((0, 100));
        let base = table();
        let none = HashSet::new();
        let preds = vec![
            (0usize, RangePred::open(20, 40)),
            (1usize, RangePred::open(50, 75)),
        ];
        let h = store.conjunctive_bv(&base, &preds, &[2], &none);
        // a in (20,40) => rows 21..=39; b = 99-row in (50,75) => rows 25..=48.
        // Intersection rows 25..=39 => 15 rows.
        assert_eq!(h.result_size(), 15);
        let mut out = Vec::new();
        store.reconstruct_with(&base, &h, 2, |v| out.push(v));
        out.sort_unstable();
        let expected: Vec<Val> = (25..40).map(|r| r * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn disjunctive_roundtrip() {
        let mut store = SidewaysStore::new((0, 100));
        let base = table();
        let none = HashSet::new();
        let preds = vec![
            (0usize, RangePred::open(-1, 5)),   // rows 0..=4
            (1usize, RangePred::open(94, 100)), // b in (94,100) => rows 0..=4... careful
        ];
        // b = 99-row in (94,100) => row in 0..=4 — same rows; union = 5 rows.
        let mut out = Vec::new();
        store.disjunctive_project_with(&base, &preds, &[2], &none, |_, v| out.push(v));
        out.sort_unstable();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn full_map_budget_drops_lfu() {
        let mut store = SidewaysStore::new((0, 100));
        store.budget = Some(250); // room for 2.5 maps of 100
        let base = table();
        let none = HashSet::new();
        let pred = RangePred::open(10, 30);
        store.select_project_with(&base, 0, &pred, &[1], &none, |_, _| {});
        store.select_project_with(&base, 0, &pred, &[1], &none, |_, _| {});
        store.select_project_with(&base, 0, &pred, &[2], &none, |_, _| {});
        assert!(store.tuples() <= 250);
        // A third projection attribute forces an eviction.
        store.select_project_with(&base, 1, &pred, &[2], &none, |_, _| {});
        assert!(store.tuples() <= 250 + 100);
        assert!(store.maps_dropped >= 1);
    }

    #[test]
    fn partial_store_updates_reach_late_created_sets() {
        let mut store = PartialStore::new((0, 100));
        let mut base = table();
        // Query set 0 first so it exists before the updates.
        let preds0 = vec![(0usize, RangePred::open(10, 30))];
        store.conjunctive_project_with(&base, &preds0, &[2], |_, _| {});
        // Insert one row, delete one original row (key 20: a=20, b=79).
        let key = base.append_row(&[25, 60, 999]);
        store.stage_insert(key);
        store.stage_delete(&base, 20);
        // Set 0 (existing) merges lazily.
        let mut out = Vec::new();
        store.conjunctive_project_with(&base, &preds0, &[2], |_, v| out.push(v));
        assert!(out.contains(&999), "staged insert merged on access");
        assert!(!out.contains(&40), "staged delete merged on access");
        // Set 1 is created only now: its seed must exclude the deleted
        // key and include the inserted row.
        let preds1 = vec![(1usize, RangePred::open(55, 80))];
        let mut out = Vec::new();
        store.conjunctive_project_with(&base, &preds1, &[2], |_, v| out.push(v));
        assert!(out.contains(&999), "late set sees the inserted row");
        assert!(!out.contains(&40), "late set excludes the deleted row");
    }

    #[test]
    fn partial_store_disjunctive_matches_naive() {
        let mut store = PartialStore::new((0, 100));
        let base = table();
        let preds = vec![
            (0usize, RangePred::open(-1, 5)),   // rows 0..=4
            (1usize, RangePred::open(94, 100)), // b = 99-row in (94,100) → rows 0..=4
        ];
        let mut out = Vec::new();
        store.disjunctive_project_with(&base, &preds, &[2], |_, v| out.push(v));
        out.sort_unstable();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn partial_store_conjunctive() {
        let mut store = PartialStore::new((0, 100));
        let base = table();
        let preds = vec![
            (0usize, RangePred::open(20, 40)),
            (1usize, RangePred::open(50, 75)),
        ];
        let mut out = Vec::new();
        store.conjunctive_project_with(&base, &preds, &[2], |_, v| out.push(v));
        out.sort_unstable();
        let expected: Vec<Val> = (25..40).map(|r| r * 2).collect();
        assert_eq!(out, expected);
        assert!(store.usage() > 0);
    }
}
