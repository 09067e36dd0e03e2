//! The selection-cracking baseline (CIDR'07): fast, self-organizing
//! selections via cracker columns — but unordered selection results, so
//! tuple reconstruction random-accesses the full base columns.

use crate::exec::{self, combine, AccessPath, RestrictCtx, RowSet};
use crate::query::{Arity, Engine, JoinQuery, QueryError, QueryOutput, SelectQuery, Timings};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::join::hash_join;
use crackdb_columnstore::ops::parallel::{self, PartialAgg};
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::{CrackPolicy, CrackerColumn};
use std::collections::HashMap;
use std::time::Instant;

/// Selection-cracking executor.
pub struct SelCrackEngine {
    base: Table,
    second: Option<Table>,
    /// Cracker columns per (table, attribute), created on first use.
    crackers: HashMap<(bool, usize), CrackerColumn>,
    /// Default pivot-choice policy for every cracker column.
    policy: CrackPolicy,
    /// Per-column policy overrides (mixed-policy engines): consulted when
    /// a cracker column is created, keyed like `crackers`.
    overrides: HashMap<(bool, usize), CrackPolicy>,
    /// Value domain for ordering predicates by estimated selectivity
    /// ("all systems evaluate queries starting from the most selective
    /// predicate", §3.6 Exp4).
    domain: (Val, Val),
}

impl SelCrackEngine {
    /// Single-table engine. The crack policy defaults to the
    /// `CRACKDB_POLICY` environment selection (standard when unset), so
    /// CI can drive the whole differential surface once per policy.
    pub fn new(base: Table, domain: (Val, Val)) -> Self {
        Self::with_policy(base, domain, exec::policy_from_env())
    }

    /// Single-table engine with an explicit [`CrackPolicy`].
    pub fn with_policy(base: Table, domain: (Val, Val), policy: CrackPolicy) -> Self {
        SelCrackEngine {
            base,
            second: None,
            crackers: HashMap::new(),
            policy,
            overrides: HashMap::new(),
            domain,
        }
    }

    /// Two-table engine.
    pub fn with_second(base: Table, second: Table, domain: (Val, Val)) -> Self {
        SelCrackEngine {
            second: Some(second),
            ..SelCrackEngine::new(base, domain)
        }
    }

    /// Two-table engine with an explicit [`CrackPolicy`].
    pub fn with_second_policy(
        base: Table,
        second: Table,
        domain: (Val, Val),
        policy: CrackPolicy,
    ) -> Self {
        SelCrackEngine {
            second: Some(second),
            ..SelCrackEngine::with_policy(base, domain, policy)
        }
    }

    /// The engine's default pivot-choice policy.
    pub fn policy(&self) -> CrackPolicy {
        self.policy
    }

    /// The policy one (table, attribute) cracker column will be created
    /// with: the per-column override when set, the default otherwise.
    pub fn policy_for(&self, second: bool, attr: usize) -> CrackPolicy {
        policy_for(self.policy, &self.overrides, second, attr)
    }

    /// Override the crack policy of one (table, attribute) cracker
    /// column. Must run before the column's first use — mixed-policy
    /// engines (say, an adaptive hot attribute beside static siblings)
    /// are configured up front, never rewired mid-workload.
    pub fn set_policy_for(&mut self, second: bool, attr: usize, policy: CrackPolicy) {
        assert!(
            !self.crackers.contains_key(&(second, attr)),
            "column ({second}, {attr}) already cracked; set per-column policies before first use"
        );
        self.overrides.insert((second, attr), policy);
    }

    /// Cumulative adaptive-advisor switches across all cracker columns.
    pub fn policy_switches(&self) -> u64 {
        self.crackers.values().map(|c| c.policy_switches()).sum()
    }

    fn order_preds(&self, preds: &[(usize, RangePred)], n: usize) -> Vec<(usize, RangePred)> {
        let mut ordered = preds.to_vec();
        ordered.sort_by(|a, b| {
            let ea = crackdb_core::set::uniform_estimate(&a.1, n, self.domain);
            let eb = crackdb_core::set::uniform_estimate(&b.1, n, self.domain);
            // total_cmp, like the shared planner: a NaN estimate from
            // degenerate domain statistics must never panic predicate
            // ordering — it just sorts last and the plan stays valid.
            ea.total_cmp(&eb)
        });
        ordered
    }

    /// `crackers.select` over one attribute's cracker column (created on
    /// first use). Returns unordered keys.
    fn cracker_select(
        crackers: &mut HashMap<(bool, usize), CrackerColumn>,
        table: &Table,
        second: bool,
        attr: usize,
        pred: &RangePred,
        policy: CrackPolicy,
    ) -> Vec<RowId> {
        crackers
            .entry((second, attr))
            .or_insert_with(|| CrackerColumn::with_policy(table.column(attr), policy))
            .select_keys(pred)
    }

    /// Conjunctive selection used by the join path: `crackers.select` for
    /// the first predicate, `rel_select` (positional filtering against
    /// base columns) for the rest.
    fn select_keys(
        crackers: &mut HashMap<(bool, usize), CrackerColumn>,
        table: &Table,
        second: bool,
        preds: &[(usize, RangePred)],
        default: CrackPolicy,
        overrides: &HashMap<(bool, usize), CrackPolicy>,
    ) -> Vec<RowId> {
        if preds.is_empty() {
            // No predicate: still answer through a cracker column so that
            // queued (ripple) insertions and deletions are respected.
            let policy = policy_for(default, overrides, second, 0);
            return Self::cracker_select(crackers, table, second, 0, &RangePred::all(), policy);
        }
        let policy = policy_for(default, overrides, second, preds[0].0);
        let mut keys =
            Self::cracker_select(crackers, table, second, preds[0].0, &preds[0].1, policy);
        for (attr, pred) in &preds[1..] {
            let col = table.column(*attr);
            combine::refine_keys(&mut keys, pred, |k| col.get(k));
        }
        keys
    }
}

/// Per-column policy resolution (free function: the static helpers split
/// borrows across `SelCrackEngine` fields).
fn policy_for(
    default: CrackPolicy,
    overrides: &HashMap<(bool, usize), CrackPolicy>,
    second: bool,
    attr: usize,
) -> CrackPolicy {
    overrides.get(&(second, attr)).copied().unwrap_or(default)
}

impl AccessPath for SelCrackEngine {
    fn name(&self) -> &'static str {
        "Selection Cracking"
    }

    fn estimate(&self, _attr: usize, pred: &RangePred) -> Option<f64> {
        Some(crackdb_core::set::uniform_estimate(
            pred,
            self.base.num_rows(),
            self.domain,
        ))
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) -> RowSet {
        let policy = policy_for(self.policy, &self.overrides, false, attr);
        RowSet::keys(
            Self::cracker_select(&mut self.crackers, &self.base, false, attr, pred, policy),
            false,
        )
    }

    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        // rel_select: positional lookups into the base columns (random
        // access — keys are unordered).
        let RowSet::Keys { keys, .. } = rows else {
            unreachable!("cracker selects produce key lists")
        };
        let col = self.base.column(attr);
        combine::refine_keys(keys, pred, |k| col.get(k));
    }

    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        // Disjunctions fall back to per-predicate cracker selects and
        // key-set union (no aligned bit vectors available here).
        let RowSet::Keys { keys, .. } = rows else {
            unreachable!("cracker selects produce key lists")
        };
        let policy = policy_for(self.policy, &self.overrides, false, attr);
        let more = Self::cracker_select(&mut self.crackers, &self.base, false, attr, pred, policy);
        combine::union_keys_unordered(keys, more);
    }

    fn unrestricted(&mut self, _ctx: &RestrictCtx) -> RowSet {
        RowSet::keys(
            Self::select_keys(
                &mut self.crackers,
                &self.base,
                false,
                &[],
                self.policy,
                &self.overrides,
            ),
            false,
        )
    }

    fn fetch(
        &mut self,
        rows: &RowSet,
        attrs: &[usize],
        consume: &mut dyn FnMut(usize, Val),
    ) -> Result<(), QueryError> {
        let RowSet::Keys { keys, .. } = rows else {
            unreachable!("cracker selects produce key lists")
        };
        // Tuple reconstruction: random-order positional lookups into the
        // full base columns — the cost the paper attacks.
        for &attr in attrs {
            let col = self.base.column(attr);
            for &k in keys {
                consume(attr, col.get(k));
            }
        }
        Ok(())
    }

    fn partial_agg(&mut self, rows: &RowSet, attr: usize) -> Option<PartialAgg> {
        let RowSet::Keys { keys, .. } = rows else {
            return None;
        };
        Some(parallel::par_agg_gather(self.base.column(attr), keys))
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

impl Engine for SelCrackEngine {
    fn name(&self) -> &'static str {
        AccessPath::name(self)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        exec::run_select(self, q)
    }

    fn join(&mut self, q: &JoinQuery) -> QueryOutput {
        let mut out = QueryOutput::default();
        let mut timings = Timings::default();
        let n = self.base.num_rows();
        let n2 = self
            .second
            .as_ref()
            .expect("join needs a second table")
            .num_rows();

        let t0 = Instant::now();
        let lpreds = self.order_preds(&q.left.preds, n);
        let rpreds = self.order_preds(&q.right.preds, n2);
        let lkeys = Self::select_keys(
            &mut self.crackers,
            &self.base,
            false,
            &lpreds,
            self.policy,
            &self.overrides,
        );
        let second = self.second.as_ref().expect("checked above");
        let rkeys = Self::select_keys(
            &mut self.crackers,
            second,
            true,
            &rpreds,
            self.policy,
            &self.overrides,
        );
        timings.select = t0.elapsed();

        let t1 = Instant::now();
        let lcol = self.base.column(q.left.join_attr);
        let rcol = second.column(q.right.join_attr);
        let lpairs: Vec<(RowId, Val)> = lkeys.iter().map(|&k| (k, lcol.get(k))).collect();
        let rpairs: Vec<(RowId, Val)> = rkeys.iter().map(|&k| (k, rcol.get(k))).collect();
        timings.reconstruct = t1.elapsed();

        let t2 = Instant::now();
        let matched = hash_join(&lpairs, &rpairs);
        timings.join = t2.elapsed();
        out.rows = matched.len();

        let t3 = Instant::now();
        out.aggs = exec::agg_matched(&matched, &q.left, true, |attr, k| {
            self.base.column(attr).get(k)
        });
        out.aggs
            .extend(exec::agg_matched(&matched, &q.right, false, |attr, k| {
                second.column(attr).get(k)
            }));
        timings.post_join = t3.elapsed();
        out.timings = timings;
        out
    }

    fn insert(&mut self, row: &[Val]) {
        let key = self.base.append_row(row);
        for ((second, attr), cracker) in self.crackers.iter_mut() {
            if !*second {
                cracker.queue_insert(self.base.column(*attr).get(key), key);
            }
        }
    }

    fn delete(&mut self, key: RowId) {
        // Cracking keeps base columns untouched; a deletion must reach the
        // cracker column of every attribute, so crackers are created on
        // demand here (from the current base, which still holds the row)
        // and the deletion queued for the Ripple algorithm.
        for attr in 0..self.base.num_columns() {
            let policy = policy_for(self.policy, &self.overrides, false, attr);
            self.crackers
                .entry((false, attr))
                .or_insert_with(|| CrackerColumn::with_policy(self.base.column(attr), policy))
                .queue_delete(self.base.column(attr).get(key), key);
        }
    }

    fn arity(&self) -> Option<Arity> {
        Some(Arity::of(&self.base, self.second.as_ref()))
    }

    fn aux_tuples(&self) -> usize {
        self.crackers.values().map(|c| c.len()).sum()
    }

    fn policy_switches(&self) -> u64 {
        SelCrackEngine::policy_switches(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;
    use crackdb_columnstore::types::AggFunc;

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![5, 1, 9, 3, 7]));
        t.add_column("b", Column::new(vec![50, 10, 90, 30, 70]));
        t
    }

    #[test]
    fn select_matches_plain() {
        let mut e = SelCrackEngine::new(table(), (0, 10));
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(2, 8))],
            vec![(1, AggFunc::Max), (1, AggFunc::Min)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(70), Some(30)]);
        // Second run hits the cracked column.
        let out2 = e.select(&q);
        assert_eq!(out2.aggs, out.aggs);
    }

    #[test]
    fn conjunctive_rel_select() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(0, 10)), (1, RangePred::open(25, 75))],
            vec![(0, AggFunc::Count)],
        );
        assert_eq!(e.select(&q).rows, 3);
    }

    #[test]
    fn updates_respected() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        let q = SelectQuery::aggregate(vec![(0, RangePred::all())], vec![(0, AggFunc::Count)]);
        assert_eq!(e.select(&q).rows, 5);
        e.insert(&[6, 60]);
        e.delete(0);
        assert_eq!(e.select(&q).rows, 5);
    }

    #[test]
    fn no_predicate_query_respects_updates() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        e.insert(&[6, 60]);
        e.delete(0); // removes a=5 / b=50
        let q = SelectQuery::aggregate(vec![], vec![(0, AggFunc::Count), (1, AggFunc::Sum)]);
        let out = e.select(&q);
        assert_eq!(out.rows, 5, "empty-predicate scans must see queued updates");
        assert_eq!(out.aggs, vec![Some(5), Some(10 + 90 + 30 + 70 + 60)]);
    }

    #[test]
    fn disjunctive_union() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 4)), (1, RangePred::open(60, 100))],
            disjunctive: true,
            aggs: vec![(0, AggFunc::Count)],
            projs: vec![],
        };
        // a in {1,3} plus b in {70,90} → keys {1,3} ∪ {4,2} = 4.
        assert_eq!(e.select(&q).rows, 4);
    }
}
