//! The query shapes of the paper's experiments, and the common executor
//! interface every physical design implements.

use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{AggFunc, RangePred, RowId, Val};
use std::fmt;
use std::time::Duration;

/// A typed query failure. Every engine answers every well-formed query
/// today, so the enum has no variants and a `Result<_, QueryError>` can
/// only be `Ok`; it keeps [`Engine::try_select`] and
/// [`AccessPath::fetch`](crate::exec::AccessPath::fetch) fallible in
/// signature so typed rejections can be added without changing them.
#[derive(Debug)]
pub enum QueryError {}

impl fmt::Display for QueryError {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

impl std::error::Error for QueryError {}

/// A single-table query: conjunctive or disjunctive range predicates plus
/// aggregate and/or raw projections. Covers q1/q3 (§3.6), the `Qi`
/// queries (§4.2) and most TPC-H selection blocks.
#[derive(Debug, Clone)]
pub struct SelectQuery {
    /// `(attribute, predicate)` restrictions.
    pub preds: Vec<(usize, RangePred)>,
    /// `true` = OR-combined predicates; `false` = AND-combined.
    pub disjunctive: bool,
    /// Aggregate projections `(attribute, function)`.
    pub aggs: Vec<(usize, AggFunc)>,
    /// Raw projections (results materialized).
    pub projs: Vec<usize>,
}

impl SelectQuery {
    /// Conjunctive aggregation query (the `select max(..) where ...`
    /// shape of q1/q3).
    pub fn aggregate(preds: Vec<(usize, RangePred)>, aggs: Vec<(usize, AggFunc)>) -> Self {
        SelectQuery {
            preds,
            disjunctive: false,
            aggs,
            projs: Vec::new(),
        }
    }

    /// Conjunctive projection query (the `Qi` shape).
    pub fn project(preds: Vec<(usize, RangePred)>, projs: Vec<usize>) -> Self {
        SelectQuery {
            preds,
            disjunctive: false,
            aggs: Vec::new(),
            projs,
        }
    }
}

/// One side of a join query: its selection block plus the attributes
/// needed after the join.
#[derive(Debug, Clone)]
pub struct JoinSide {
    /// Conjunctive restrictions on this table.
    pub preds: Vec<(usize, RangePred)>,
    /// The join attribute.
    pub join_attr: usize,
    /// Aggregates computed over this side's attributes post-join.
    pub aggs: Vec<(usize, AggFunc)>,
}

/// The q2 shape (§3.6 Exp4): conjunctive selections on both tables, an
/// equi-join, aggregates over both sides.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Outer (left) side.
    pub left: JoinSide,
    /// Inner (right) side.
    pub right: JoinSide,
}

/// Wall-clock phase breakdown (the paper reports selection cost, tuple
/// reconstruction before/after joins, and join cost separately).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Selection work (scans, cracks, binary searches, bit vectors).
    pub select: Duration,
    /// Tuple reconstruction before any join (projection fetches).
    pub reconstruct: Duration,
    /// Join execution.
    pub join: Duration,
    /// Tuple reconstruction after the join.
    pub post_join: Duration,
}

impl Timings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.select + self.reconstruct + self.join + self.post_join
    }
}

/// Result of a query: aggregates in request order, materialized rows for
/// raw projections, result cardinality and phase timings.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// One value per requested aggregate (`None` on empty input for
    /// max/min).
    pub aggs: Vec<Option<Val>>,
    /// Materialized projection columns (one `Vec` per requested raw
    /// projection, in request order). Values are unordered.
    pub proj_values: Vec<Vec<Val>>,
    /// Number of qualifying tuples.
    pub rows: usize,
    /// Phase breakdown.
    pub timings: Timings,
}

/// Column counts of an engine's tables: what [`Engine::arity`] reports
/// so the query service can reject malformed requests before a shard
/// worker ever sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arity {
    /// Columns of the primary table.
    pub primary: usize,
    /// Columns of the second (join) table; `None` when the engine was
    /// built without one.
    pub second: Option<usize>,
}

impl Arity {
    /// The arity of a primary table and an optional second table.
    pub(crate) fn of(base: &Table, second: Option<&Table>) -> Self {
        Arity {
            primary: base.num_columns(),
            second: second.map(Table::num_columns),
        }
    }
}

/// The common executor interface: one implementation per physical design
/// (plain column-store, presorted, selection cracking, sideways cracking,
/// partial sideways cracking).
pub trait Engine {
    /// Human-readable system name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Execute a single-table query.
    fn select(&mut self, q: &SelectQuery) -> QueryOutput;

    /// Execute a two-table join query.
    fn join(&mut self, q: &JoinQuery) -> QueryOutput;

    /// Fallible select, for wrappers that run the shared executor
    /// through [`exec::try_run_select`](crate::exec::try_run_select).
    /// The default wraps the infallible [`Engine::select`].
    fn try_select(&mut self, q: &SelectQuery) -> Result<QueryOutput, QueryError> {
        Ok(self.select(q))
    }

    /// Append a new tuple (values in column order) to the primary table.
    fn insert(&mut self, row: &[Val]);

    /// Delete the tuple with base key `key` from the primary table.
    fn delete(&mut self, key: RowId);

    /// Column counts of the engine's tables, or `None` when the engine
    /// does not report them (the service then forwards requests
    /// unchecked).
    fn arity(&self) -> Option<Arity> {
        None
    }

    /// Auxiliary storage used (tuples), for storage-restriction plots.
    fn aux_tuples(&self) -> usize {
        0
    }

    /// Cumulative count of adaptive-advisor policy switches across the
    /// engine's cracker structures. Always 0 for engines configured with
    /// a static [`CrackPolicy`](crackdb_cracking::CrackPolicy).
    fn policy_switches(&self) -> u64 {
        0
    }

    /// Kept only for the benchmark harness, whose tracing wrapper
    /// overrides it; the service never calls it and every engine
    /// returns `None` (see [`EngineSnapshot`](crate::exec::EngineSnapshot)).
    fn snapshot(&mut self) -> Option<std::sync::Arc<crate::exec::EngineSnapshot>> {
        None
    }

    /// Propagate a session worker budget into the engine (`1` = fully
    /// serial). Plain executors have no internal parallelism and ignore
    /// it; routers (the sharded engine) cap their fan-out with it. The
    /// batch layer calls this so that `BatchRunner::new(engine, 1)`
    /// means serial *everywhere*, not just in the scan kernels.
    fn set_workers(&mut self, workers: usize) {
        let _ = workers;
    }
}

/// Deterministic aggregate accumulator shared by all engines. The
/// fold/merge semantics live in [`PartialAgg`] (shared with the
/// data-parallel kernels), so serial and parallel aggregation cannot
/// diverge.
#[derive(Debug, Clone, Copy)]
pub struct AggAcc {
    func: AggFunc,
    agg: PartialAgg,
}

use crackdb_columnstore::ops::parallel::PartialAgg;

impl AggAcc {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        AggAcc {
            func,
            agg: PartialAgg::default(),
        }
    }

    /// Fold one value.
    #[inline(always)]
    pub fn push(&mut self, v: Val) {
        self.agg.push(v);
    }

    /// Number of values folded so far.
    pub fn count(&self) -> usize {
        self.agg.count as usize
    }

    /// Merge a chunk-level partial aggregate produced by the parallel
    /// kernels (`columnstore::ops::parallel`).
    pub fn absorb(&mut self, p: &PartialAgg) {
        self.agg.merge(p);
    }

    /// Final value (`None` for empty max/min; avg truncated to integer).
    pub fn finish(&self) -> Option<Val> {
        match self.func {
            AggFunc::Max => self.agg.max,
            AggFunc::Min => self.agg.min,
            AggFunc::Sum => Some(self.agg.sum),
            AggFunc::Count => Some(self.agg.count),
            AggFunc::Avg => {
                if self.agg.count == 0 {
                    None
                } else {
                    Some(self.agg.sum / self.agg.count)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_acc_matches_spec() {
        let mut m = AggAcc::new(AggFunc::Max);
        let mut c = AggAcc::new(AggFunc::Count);
        for v in [3, 9, 1] {
            m.push(v);
            c.push(v);
        }
        assert_eq!(m.finish(), Some(9));
        assert_eq!(c.finish(), Some(3));
        assert_eq!(AggAcc::new(AggFunc::Max).finish(), None);
        assert_eq!(AggAcc::new(AggFunc::Count).finish(), Some(0));
    }

    #[test]
    fn timings_total() {
        let t = Timings {
            select: Duration::from_millis(1),
            reconstruct: Duration::from_millis(2),
            join: Duration::from_millis(3),
            post_join: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }
}
