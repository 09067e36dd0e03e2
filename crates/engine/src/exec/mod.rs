//! The shared query executor: one implementation of everything the
//! paper's five physical designs have in common, over the per-design
//! [`AccessPath`] abstraction.
//!
//! The executor owns:
//!
//! * selectivity-driven predicate ordering (§3.3/§3.6: every system
//!   evaluates from the most selective predicate; disjunctions pick the
//!   least selective head so the areas scanned outside the cracked
//!   region stay small);
//! * conjunctive / disjunctive combining, delegated per step to the
//!   path but built from the shared [`combine`] strategies;
//! * aggregate accumulation and projection materialization;
//! * [`Timings`] phase instrumentation;
//! * the data-parallel fast path for aggregate-only attributes (via
//!   [`AccessPath::partial_agg`] and the `columnstore` parallel
//!   kernels).
//!
//! The [`batch::BatchRunner`] session layer sits on top, running query
//! batches with the read-only kernels fanned out over worker threads,
//! and the [`shard::ShardedEngine`] router shards the table itself so
//! that cracking, too, runs partition-parallel.

pub mod batch;
pub mod combine;
pub mod path;
pub mod service;
pub mod shard;

pub use batch::BatchRunner;
pub use path::{AccessPath, RestrictCtx, RowSet};
pub use service::{Client, Service, ServiceConfig, ServiceError};
pub use shard::ShardedEngine;

/// Kept only for the benchmark harness, which still names it in its
/// [`Engine::snapshot`](crate::query::Engine::snapshot) override. The
/// enum has no variants, so no value of it can exist.
#[derive(Debug)]
pub enum EngineSnapshot {}

use crate::query::{AggAcc, JoinSide, QueryError, QueryOutput, SelectQuery};
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::{CrackKernel, CrackPolicy};
use std::sync::OnceLock;
use std::time::Instant;

/// The one sanctioned raw environment read: this module (with
/// `crackdb-cracking`'s kernel dispatch) *is* the env registry that
/// lint L004 and clippy's disallowed-methods point everything else at.
fn registry_var(name: &str) -> Option<String> {
    #[allow(clippy::disallowed_methods)]
    std::env::var(name).ok()
}

/// The session-wide default worker count: the `CRACKDB_THREADS`
/// environment override when set (CI runs the whole suite at 1 and 4 so
/// the serial and parallel paths are both exercised), else one worker
/// per available hardware thread. Consumed by [`BatchRunner::auto`] and
/// the [`ShardedEngine`] fan-out.
pub fn auto_threads() -> usize {
    threads_override(registry_var("CRACKDB_THREADS").as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Parse a `CRACKDB_THREADS`-style override value; unset, garbage and
/// non-positive values mean "no override". Separated from the env read
/// so it is testable without process-global `set_var` (unsynchronized
/// with concurrent `env::var` readers on other test threads).
fn threads_override(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n: &usize| n > 0)
}

/// Parse a `CRACKDB_POLICY`-style override value: unset or empty means
/// the standard policy, anything else must name a crack policy
/// (`standard | stochastic | coarse | coarse:<min_piece> | adaptive`).
/// Like [`threads_override`], separated from the env read for
/// testability.
fn policy_override(value: Option<&str>) -> Result<CrackPolicy, String> {
    match value {
        None => Ok(CrackPolicy::Standard),
        Some(v) => CrackPolicy::parse(v).ok_or_else(|| {
            format!(
                "CRACKDB_POLICY={v:?} is not a crack policy \
                 (expected standard | stochastic | coarse | coarse:<min_piece> | adaptive)"
            )
        }),
    }
}

/// Validate the `CRACKDB_POLICY` environment selection, parsed once per
/// process. This is the *strict* entry point: startup paths that can
/// report an error cleanly — [`service::Service::start`], bench bins,
/// the env-validity test CI relies on — call it so a typo in a policy
/// matrix produces one clear failure instead of either a panic inside
/// every engine constructor or a silent fallback that vacuously
/// re-tests the standard policy while reporting green.
pub fn env_policy() -> Result<CrackPolicy, String> {
    static POLICY: OnceLock<Result<CrackPolicy, String>> = OnceLock::new();
    POLICY
        .get_or_init(|| policy_override(registry_var("CRACKDB_POLICY").as_deref()))
        .clone()
}

/// The crack policy engine constructors default to: the `CRACKDB_POLICY`
/// environment selection when set and valid, [`CrackPolicy::Standard`]
/// otherwise. *Non-fatal* by design — a library user embedding an
/// engine must not be brought down by an unrelated environment variable;
/// an invalid value logs one warning per process (and is reported as a
/// proper error by the strict [`env_policy`] at service startup).
pub fn policy_from_env() -> CrackPolicy {
    static WARNED: OnceLock<()> = OnceLock::new();
    match env_policy() {
        Ok(p) => p,
        Err(msg) => {
            WARNED.get_or_init(|| eprintln!("warning: {msg}; falling back to standard cracking"));
            CrackPolicy::Standard
        }
    }
}

/// Parse a `CRACKDB_KERNEL`-style override value: unset or empty means
/// the default block kernel, anything else must name a crack kernel
/// (`scalar | block`). Like [`threads_override`], separated from the
/// env read for testability.
fn kernel_override(value: Option<&str>) -> Result<CrackKernel, String> {
    match value {
        None => Ok(CrackKernel::Block),
        Some(v) => CrackKernel::parse(v).ok_or_else(|| {
            format!("CRACKDB_KERNEL={v:?} is not a crack kernel (expected scalar | block)")
        }),
    }
}

/// Validate the `CRACKDB_KERNEL` environment selection, parsed once per
/// process — the strict twin of `crackdb-cracking`'s lenient
/// [`crackdb_cracking::active_kernel`] dispatch, exactly as
/// [`env_policy`] is to [`policy_from_env`]: service startup and the
/// env-validity test CI relies on call this so a typo in the kernel
/// matrix fails loudly instead of silently re-testing the default
/// block kernel under a green "scalar" job.
pub fn env_kernel() -> Result<CrackKernel, String> {
    static KERNEL: OnceLock<Result<CrackKernel, String>> = OnceLock::new();
    KERNEL
        .get_or_init(|| kernel_override(registry_var("CRACKDB_KERNEL").as_deref()))
        .clone()
}

/// The kernel the process partitions with: the validated `CRACKDB_KERNEL`
/// selection, falling back to the default block kernel with one warning
/// on an invalid value (the warning itself is emitted by the dispatch in
/// `crackdb-cracking`, which every crack call funnels through).
pub fn kernel_from_env() -> CrackKernel {
    env_kernel().unwrap_or(CrackKernel::Block)
}

/// Order predicates by the path's selectivity estimates: ascending
/// (most selective first) for conjunctions, descending for disjunctions.
///
/// Predicates the path has *no* statistics for keep their plan
/// positions (the presorted baseline requires its head predicate to
/// stay first — its path reports no estimates at all); the predicates
/// that do have estimates are ordered among the remaining positions
/// instead of one unknown discarding all ordering.
fn order_preds<P: AccessPath + ?Sized>(
    path: &P,
    preds: &[(usize, RangePred)],
    disjunctive: bool,
) -> Vec<(usize, RangePred)> {
    if preds.len() < 2 {
        return preds.to_vec();
    }
    let estimates: Vec<Option<f64>> = preds
        .iter()
        .map(|(attr, pred)| path.estimate(*attr, pred))
        .collect();
    // Positions that hold an estimable predicate; the sorted estimable
    // predicates are placed back into exactly these slots.
    let slots: Vec<usize> = (0..preds.len())
        .filter(|&i| estimates[i].is_some())
        .collect();
    if slots.len() < 2 {
        return preds.to_vec();
    }
    let mut order = slots.clone();
    order.sort_by(|&a, &b| {
        let (ea, eb) = (estimates[a].unwrap(), estimates[b].unwrap());
        // total_cmp: degenerate statistics (empty tables, single-value
        // domains) must never panic the planner — a NaN simply sorts
        // last and the plan stays valid.
        let ord = ea.total_cmp(&eb);
        if disjunctive {
            ord.reverse()
        } else {
            ord
        }
    });
    let mut out = preds.to_vec();
    for (&slot, &src) in slots.iter().zip(order.iter()) {
        out[slot] = preds[src];
    }
    out
}

/// Execute a single-table query over any access path: the one
/// `select` implementation all five engines share.
pub fn run_select<P: AccessPath + ?Sized>(path: &mut P, q: &SelectQuery) -> QueryOutput {
    match try_run_select(path, q) {
        Ok(out) => out,
        Err(e) => match e {},
    }
}

/// The fallible form of [`run_select`], in the error type of
/// [`AccessPath::fetch`]: a wrapper path that forwards an inner path's
/// `fetch` result runs the executor through this. [`QueryError`] has no
/// variants, so the result is always `Ok`.
pub fn try_run_select<P: AccessPath + ?Sized>(
    path: &mut P,
    q: &SelectQuery,
) -> Result<QueryOutput, QueryError> {
    let mut out = QueryOutput::default();

    // Attributes the reconstruction phase needs, deduplicated, aggregates
    // first (matching the plan shape of §3.2: one sideways operator per
    // map in the selection phase, reconstruction after).
    let mut fetch_attrs: Vec<usize> = Vec::new();
    for a in q
        .aggs
        .iter()
        .map(|&(a, _)| a)
        .chain(q.projs.iter().copied())
    {
        if !fetch_attrs.contains(&a) {
            fetch_attrs.push(a);
        }
    }

    let preds = order_preds(path, &q.preds, q.disjunctive);
    let ctx = RestrictCtx {
        preds: &preds,
        fetch_attrs: &fetch_attrs,
        disjunctive: q.disjunctive,
    };

    // --- Selection phase -------------------------------------------------
    let t0 = Instant::now();
    let rows = match preds.split_first() {
        None => path.unrestricted(&ctx),
        Some(((attr, pred), rest)) => {
            let mut rows = path.restrict(*attr, pred, &ctx);
            for (attr, pred) in rest {
                if q.disjunctive {
                    path.extend(&mut rows, *attr, pred, &ctx);
                } else {
                    path.refine(&mut rows, *attr, pred, &ctx);
                }
            }
            rows
        }
    };
    out.timings.select = t0.elapsed();

    // --- Reconstruction phase --------------------------------------------
    let t1 = Instant::now();
    let mut accs: Vec<AggAcc> = q.aggs.iter().map(|&(_, f)| AggAcc::new(f)).collect();
    let mut proj_vals: Vec<Vec<Val>> = q.projs.iter().map(|_| Vec::new()).collect();
    // Count per fetch attribute (row-count source for deferred plans).
    let mut first_attr_count = 0usize;

    // Aggregate-only attributes first try the path's partial-aggregate
    // fast path (parallel kernels); everything else streams.
    let mut stream_attrs: Vec<usize> = Vec::new();
    let mut partial_filled = vec![false; q.aggs.len()];
    let deferred = matches!(rows, RowSet::Deferred { .. } | RowSet::DeferredUnion { .. });
    if !deferred {
        for &attr in &fetch_attrs {
            let agg_idxs: Vec<usize> = (0..q.aggs.len()).filter(|&i| q.aggs[i].0 == attr).collect();
            let projected = q.projs.contains(&attr);
            if !projected && !agg_idxs.is_empty() {
                if let Some(p) = path.partial_agg(&rows, attr) {
                    for i in agg_idxs {
                        accs[i].absorb(&p);
                        partial_filled[i] = true;
                    }
                    continue;
                }
            }
            stream_attrs.push(attr);
        }
    } else {
        stream_attrs = fetch_attrs.clone();
        if stream_attrs.is_empty() {
            // Nothing to reconstruct, but the result cardinality (and the
            // adaptive reorganization) still require the fused pass: count
            // via the head attribute itself.
            match &rows {
                RowSet::Deferred { head, .. } => stream_attrs.push(head.0),
                RowSet::DeferredUnion { preds } => {
                    stream_attrs.push(preds.first().map_or(0, |p| p.0))
                }
                _ => {}
            }
        }
    }

    if !stream_attrs.is_empty() {
        let first_attr = stream_attrs[0];
        path.fetch(&rows, &stream_attrs, &mut |attr, v| {
            if attr == first_attr {
                first_attr_count += 1;
            }
            for (i, &(a, _)) in q.aggs.iter().enumerate() {
                if a == attr && !partial_filled[i] {
                    accs[i].push(v);
                }
            }
            for (i, &p) in q.projs.iter().enumerate() {
                if p == attr {
                    proj_vals[i].push(v);
                }
            }
        })?;
    }

    out.aggs = accs.iter().map(|a| a.finish()).collect();
    out.proj_values = proj_vals;
    out.rows = match rows.len() {
        Some(n) => n,
        // Chunk-wise plans learn the result size while streaming; every
        // fetched attribute yields exactly one value per qualifying tuple.
        None => first_attr_count,
    };
    // Partial maps interleave selection, alignment, fetching and
    // reconstruction chunk-wise; the paper reports a single per-query
    // cost for them (under selection).
    if deferred {
        out.timings.select += t1.elapsed();
    } else {
        out.timings.reconstruct = t1.elapsed();
    }
    Ok(out)
}

/// Aggregate one join side over the matched `(left_key, right_key)`
/// pairs: the post-join reconstruction loop shared by every engine's
/// join plan. `value_of(attr, key)` resolves a side-local tuple identity
/// to its attribute value.
pub fn agg_matched(
    matched: &[(RowId, RowId)],
    side: &JoinSide,
    left: bool,
    value_of: impl Fn(usize, RowId) -> Val,
) -> Vec<Option<Val>> {
    side.aggs
        .iter()
        .map(|&(attr, func)| {
            let mut acc = AggAcc::new(func);
            for &(lk, rk) in matched {
                acc.push(value_of(attr, if left { lk } else { rk }));
            }
            acc.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::{Column, Table};
    use crackdb_columnstore::ops::parallel::PartialAgg;
    use crackdb_columnstore::types::AggFunc;

    /// A minimal scan-based access path over one table, used to test the
    /// executor in isolation from the real engines.
    struct ScanPath {
        table: Table,
        partial_agg_calls: usize,
    }

    impl AccessPath for ScanPath {
        fn name(&self) -> &'static str {
            "test-scan"
        }

        fn restrict(&mut self, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) -> RowSet {
            RowSet::keys(
                crackdb_columnstore::ops::select::select(self.table.column(attr), pred),
                true,
            )
        }

        fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
            let RowSet::Keys { keys, .. } = rows else {
                unreachable!()
            };
            let col = self.table.column(attr);
            combine::refine_keys(keys, pred, |k| col.get(k));
        }

        fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
            let RowSet::Keys { keys, .. } = rows else {
                unreachable!()
            };
            *keys =
                crackdb_columnstore::ops::select::union_scan(self.table.column(attr), keys, pred);
        }

        fn unrestricted(&mut self, _ctx: &RestrictCtx) -> RowSet {
            RowSet::keys((0..self.table.num_rows() as RowId).collect(), true)
        }

        fn fetch(
            &mut self,
            rows: &RowSet,
            attrs: &[usize],
            consume: &mut dyn FnMut(usize, Val),
        ) -> Result<(), QueryError> {
            let RowSet::Keys { keys, .. } = rows else {
                unreachable!()
            };
            for &attr in attrs {
                let col = self.table.column(attr);
                for &k in keys {
                    consume(attr, col.get(k));
                }
            }
            Ok(())
        }

        fn partial_agg(&mut self, rows: &RowSet, attr: usize) -> Option<PartialAgg> {
            self.partial_agg_calls += 1;
            let RowSet::Keys { keys, .. } = rows else {
                return None;
            };
            Some(crackdb_columnstore::ops::parallel::par_agg_gather(
                self.table.column(attr),
                keys,
            ))
        }
    }

    fn path() -> ScanPath {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![5, 1, 9, 3, 7]));
        t.add_column("b", Column::new(vec![50, 10, 90, 30, 70]));
        ScanPath {
            table: t,
            partial_agg_calls: 0,
        }
    }

    #[test]
    fn executor_runs_conjunction_with_partial_aggs() {
        let mut p = path();
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(2, 8))],
            vec![(1, AggFunc::Max), (1, AggFunc::Min)],
        );
        let out = run_select(&mut p, &q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(70), Some(30)]);
        assert_eq!(
            p.partial_agg_calls, 1,
            "one partial agg per distinct attribute"
        );
    }

    #[test]
    fn executor_streams_projected_agg_attrs() {
        let mut p = path();
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(2, 8))],
            disjunctive: false,
            aggs: vec![(1, AggFunc::Count)],
            projs: vec![1],
        };
        let out = run_select(&mut p, &q);
        // Attribute 1 is both aggregated and projected: it must stream
        // (one pass) rather than use the partial-agg fast path.
        assert_eq!(p.partial_agg_calls, 0);
        assert_eq!(out.aggs, vec![Some(3)]);
        let mut vals = out.proj_values[0].clone();
        vals.sort_unstable();
        assert_eq!(vals, vec![30, 50, 70]);
    }

    #[test]
    fn threads_override_parses_strictly() {
        assert_eq!(threads_override(None), None);
        assert_eq!(threads_override(Some("")), None);
        assert_eq!(threads_override(Some("abc")), None);
        assert_eq!(threads_override(Some("0")), None);
        assert_eq!(threads_override(Some("-2")), None);
        assert_eq!(threads_override(Some("4")), Some(4));
        assert_eq!(threads_override(Some(" 8 ")), Some(8));
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn policy_override_parses_strictly() {
        assert_eq!(policy_override(None), Ok(CrackPolicy::Standard));
        assert_eq!(policy_override(Some("")), Ok(CrackPolicy::Standard));
        assert_eq!(policy_override(Some("standard")), Ok(CrackPolicy::Standard));
        assert_eq!(
            policy_override(Some("stochastic")),
            Ok(CrackPolicy::stochastic())
        );
        assert_eq!(
            policy_override(Some("coarse:64")),
            Ok(CrackPolicy::CoarseGranular { min_piece: 64 })
        );
        assert_eq!(policy_override(Some("adaptive")), Ok(CrackPolicy::Adaptive));
        let err = policy_override(Some("nonsense")).unwrap_err();
        assert!(err.contains("nonsense"), "error names the bad value");
        assert!(err.contains("coarse:<min_piece>"), "error lists the forms");
    }

    /// The CI policy matrix exports `CRACKDB_POLICY` for entire test
    /// runs; a typo there must fail loudly exactly once — here — instead
    /// of panicking inside every engine constructor. Library users get
    /// the non-fatal [`policy_from_env`] fallback; this test is what
    /// keeps that fallback from letting a mistyped matrix vacuously
    /// re-test the standard policy while reporting green.
    #[test]
    fn env_policy_is_valid() {
        let p = env_policy().expect("CRACKDB_POLICY must be unset or a valid crack policy");
        assert_eq!(policy_from_env(), p, "lenient and strict reads agree");
    }

    #[test]
    fn kernel_override_parses_strictly() {
        assert_eq!(kernel_override(None), Ok(CrackKernel::Block));
        assert_eq!(kernel_override(Some("")), Ok(CrackKernel::Block));
        assert_eq!(kernel_override(Some("block")), Ok(CrackKernel::Block));
        assert_eq!(kernel_override(Some("scalar")), Ok(CrackKernel::Scalar));
        let err = kernel_override(Some("simd")).unwrap_err();
        assert!(err.contains("simd"), "error names the bad value");
        assert!(err.contains("scalar | block"), "error lists the forms");
    }

    /// The kernel twin of [`env_policy_is_valid`]: the CI kernel matrix
    /// exports `CRACKDB_KERNEL` for entire test runs, and a typo there
    /// must fail this test instead of letting the lenient dispatch fall
    /// back to the block kernel while a green "scalar" job reports
    /// scalar coverage it never ran.
    #[test]
    fn env_kernel_is_valid() {
        let k = env_kernel().expect("CRACKDB_KERNEL must be unset or a valid crack kernel");
        assert_eq!(kernel_from_env(), k, "lenient and strict reads agree");
        // The engine-side read and the cracking-side dispatch observe
        // the same environment, so a valid selection is what runs.
        assert_eq!(crackdb_cracking::active_kernel(), k);
    }

    /// A scan path that reports selectivity estimates only for a chosen
    /// subset of attributes, for exercising mixed known/unknown
    /// predicate ordering.
    struct MixedStatsPath {
        inner: ScanPath,
        /// `(attr, estimate)` pairs; attrs not listed have no stats.
        stats: Vec<(usize, f64)>,
    }

    impl AccessPath for MixedStatsPath {
        fn name(&self) -> &'static str {
            "test-mixed-stats"
        }
        fn estimate(&self, attr: usize, _pred: &RangePred) -> Option<f64> {
            self.stats
                .iter()
                .find(|&&(a, _)| a == attr)
                .map(|&(_, e)| e)
        }
        fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet {
            self.inner.restrict(attr, pred, ctx)
        }
        fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx) {
            self.inner.refine(rows, attr, pred, ctx)
        }
        fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx) {
            self.inner.extend(rows, attr, pred, ctx)
        }
        fn unrestricted(&mut self, ctx: &RestrictCtx) -> RowSet {
            self.inner.unrestricted(ctx)
        }
        fn fetch(
            &mut self,
            rows: &RowSet,
            attrs: &[usize],
            consume: &mut dyn FnMut(usize, Val),
        ) -> Result<(), QueryError> {
            self.inner.fetch(rows, attrs, consume)
        }
    }

    /// Three-column table (a, b, c) for ordering tests.
    fn mixed_path(stats: Vec<(usize, f64)>) -> MixedStatsPath {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![5, 1, 9, 3, 7, 2, 8]));
        t.add_column("b", Column::new(vec![50, 10, 90, 30, 70, 20, 80]));
        t.add_column("c", Column::new(vec![500, 100, 900, 300, 700, 200, 800]));
        MixedStatsPath {
            inner: ScanPath {
                table: t,
                partial_agg_calls: 0,
            },
            stats,
        }
    }

    /// Predicates without statistics keep their plan positions — in
    /// particular a stat-less head predicate stays first (the presorted
    /// baseline's requirement) — while the estimable subset is still
    /// ordered most-selective-first instead of being abandoned.
    #[test]
    fn order_preds_orders_estimable_subset_around_unknowns() {
        // attr 0 has no stats; attr 1 is unselective, attr 2 selective.
        let p = mixed_path(vec![(1, 0.9), (2, 0.1)]);
        let preds = vec![
            (0, RangePred::open(0, 100)),
            (1, RangePred::open(0, 100)),
            (2, RangePred::open(0, 1000)),
        ];
        let ordered = order_preds(&p, &preds, false);
        let attrs: Vec<usize> = ordered.iter().map(|&(a, _)| a).collect();
        // Unknown attr 0 pinned at slot 0; attrs 2 and 1 swap into the
        // estimable slots by ascending selectivity.
        assert_eq!(attrs, vec![0, 2, 1]);
        // Disjunctions order the estimable subset descending.
        let attrs_disj: Vec<usize> = order_preds(&p, &preds, true)
            .iter()
            .map(|&(a, _)| a)
            .collect();
        assert_eq!(attrs_disj, vec![0, 1, 2]);
        // Unknown predicate in the middle: slots {0, 2} get the sorted
        // estimable preds, slot 1 keeps its stat-less predicate.
        let p2 = mixed_path(vec![(0, 0.9), (2, 0.1)]);
        let attrs2: Vec<usize> = order_preds(&p2, &preds, false)
            .iter()
            .map(|&(a, _)| a)
            .collect();
        assert_eq!(attrs2, vec![2, 1, 0]);
        // Fewer than two estimable predicates: nothing to order.
        let p3 = mixed_path(vec![(1, 0.5)]);
        let attrs3: Vec<usize> = order_preds(&p3, &preds, false)
            .iter()
            .map(|&(a, _)| a)
            .collect();
        assert_eq!(attrs3, vec![0, 1, 2]);
    }

    /// Differential: the same query must produce identical answers with
    /// mixed known/unknown statistics (subset ordering active), full
    /// statistics, and no statistics at all — ordering is a plan
    /// choice, never a semantics choice.
    #[test]
    fn mixed_statistics_never_change_answers() {
        let qs = [
            SelectQuery {
                preds: vec![
                    (0, RangePred::open(2, 8)),
                    (1, RangePred::open(0, 75)),
                    (2, RangePred::open(150, 1000)),
                ],
                disjunctive: false,
                aggs: vec![(1, AggFunc::Count), (2, AggFunc::Sum)],
                projs: vec![0],
            },
            SelectQuery {
                preds: vec![
                    (0, RangePred::open(0, 3)),
                    (1, RangePred::open(75, 100)),
                    (2, RangePred::open(0, 250)),
                ],
                disjunctive: true,
                aggs: vec![(0, AggFunc::Max)],
                projs: vec![],
            },
        ];
        for q in qs {
            let stats_sets: Vec<Vec<(usize, f64)>> = vec![
                vec![],
                vec![(0, 0.4), (1, 0.6), (2, 0.2)],
                vec![(1, 0.6), (2, 0.2)],
                vec![(0, 0.4), (2, 0.2)],
                vec![(2, 0.2)],
            ];
            let mut outs = Vec::new();
            for stats in stats_sets {
                let mut p = mixed_path(stats);
                let mut out = run_select(&mut p, &q);
                for v in &mut out.proj_values {
                    v.sort_unstable();
                }
                outs.push((out.rows, out.aggs, out.proj_values));
            }
            for o in &outs[1..] {
                assert_eq!(o, &outs[0], "answers must be ordering-invariant");
            }
        }
    }

    #[test]
    fn executor_handles_empty_predicates() {
        let mut p = path();
        let q = SelectQuery::aggregate(vec![], vec![(0, AggFunc::Count)]);
        assert_eq!(run_select(&mut p, &q).aggs, vec![Some(5)]);
    }

    #[test]
    fn executor_disjunction_unions() {
        let mut p = path();
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 4)), (1, RangePred::open(60, 100))],
            disjunctive: true,
            aggs: vec![(0, AggFunc::Count)],
            projs: vec![],
        };
        // a in {1,3} plus b in {70,90} → 4 rows.
        assert_eq!(run_select(&mut p, &q).rows, 4);
    }
}
