//! Tracing from the benchmark's own files: an [`Engine`] wrapper per
//! shard that runs the shared executor over a timing [`AccessPath`]
//! wrapper, plus the per-engine counters read through public accessors.
//!
//! Spans stay in memory (one log per shard, owned by the wrapper and
//! returned with the engine at shutdown) and are written out when the
//! run ends. Timestamps are taken per call, never per tuple.

use crackdb::columnstore::{RangePred, RowId, Val};
use crackdb::core::PartialStats;
use crackdb::engine::exec::{self, EngineSnapshot};
use crackdb::engine::{
    AccessPath, Engine, JoinQuery, PartialEngine, QueryError, QueryOutput, RestrictCtx, RowSet,
    SelCrackEngine, SelectQuery, SidewaysEngine,
};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Nanoseconds since the process's first call: one clock for client
/// and shard spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a shard span did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOpKind {
    /// A select on the shard worker.
    Select,
    /// An insert or delete on the shard worker.
    Write,
}

/// One call a shard worker made into its engine.
#[derive(Debug, Clone)]
pub struct ShardOp {
    /// Select or write.
    pub kind: ShardOpKind,
    /// Span start (ns, [`now_ns`] clock).
    pub start: u64,
    /// Span end.
    pub end: u64,
    /// `QueryOutput.timings.select` (selects only).
    pub exec_select_ns: u64,
    /// `QueryOutput.timings.reconstruct` (selects only).
    pub exec_reconstruct_ns: u64,
    /// This span's access-path calls: `calls[first_call..end_call]`.
    pub first_call: usize,
    /// End of this span's calls.
    pub end_call: usize,
}

/// Which [`AccessPath`] method a call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// `restrict`.
    Restrict,
    /// `refine`.
    Refine,
    /// `extend`.
    Extend,
    /// `unrestricted`.
    Unrestricted,
    /// `fetch`.
    Fetch,
    /// `partial_agg`.
    PartialAgg,
}

impl PathKind {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            PathKind::Restrict => "path.restrict",
            PathKind::Refine => "path.refine",
            PathKind::Extend => "path.extend",
            PathKind::Unrestricted => "path.unrestricted",
            PathKind::Fetch => "path.fetch",
            PathKind::PartialAgg => "path.partial_agg",
        }
    }
}

/// One access-path call.
#[derive(Debug, Clone, Copy)]
pub struct PathCall {
    /// Method.
    pub kind: PathKind,
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
}

/// Everything one shard's wrapper recorded, in execution order.
#[derive(Debug, Default)]
pub struct ShardLog {
    /// Engine calls (selects and writes).
    pub ops: Vec<ShardOp>,
    /// Access-path calls of all selects.
    pub calls: Vec<PathCall>,
    /// Highest chunk storage seen after any call (partial engine).
    pub peak_usage: usize,
    /// Time the worker spent in `Engine::snapshot` after its work items
    /// (building the views the snapshot read path publishes).
    pub publish_ns: u64,
}

/// Counters of the cracking, map and partial layers, read through the
/// engines' public accessors. Sums over shards with [`Self::add`].
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounters {
    /// Tuples the crack kernels scanned or swapped (sideways maps).
    pub touched: u64,
    /// Cracker-index boundaries (sideways maps, partial chunks).
    pub boundaries: u64,
    /// Maps seeded, recreations included.
    pub maps_created: u64,
    /// Tape entries replayed by map alignment.
    pub maps_entries_replayed: u64,
    /// Cracks performed directly by queries on maps.
    pub maps_query_cracks: u64,
    /// Staged updates not yet merged into any map.
    pub staged_pending: u64,
    /// Updates merged into map-set tapes.
    pub updates_merged: u64,
    /// Partial-store counters.
    pub partial: PartialStats,
}

impl LayerCounters {
    /// Accumulate another shard's counters.
    pub fn add(&mut self, o: &LayerCounters) {
        self.touched += o.touched;
        self.boundaries += o.boundaries;
        self.maps_created += o.maps_created;
        self.maps_entries_replayed += o.maps_entries_replayed;
        self.maps_query_cracks += o.maps_query_cracks;
        self.staged_pending += o.staged_pending;
        self.updates_merged += o.updates_merged;
        self.partial.merge(&o.partial);
    }
}

/// Per-engine layer counters and storage probes.
pub trait Layers {
    /// Current counters over the first `attrs` head attributes.
    fn counters(&self, attrs: usize) -> LayerCounters;
    /// Chunk storage in tuples (partial engine; 0 elsewhere).
    fn chunk_usage(&self) -> usize {
        0
    }
}

impl Layers for SidewaysEngine {
    fn counters(&self, attrs: usize) -> LayerCounters {
        let mut c = LayerCounters::default();
        for set in (0..attrs).filter_map(|a| self.store().set(a)) {
            c.maps_created += set.stats.maps_created;
            c.maps_entries_replayed += set.stats.entries_replayed;
            c.maps_query_cracks += set.stats.query_cracks;
            c.staged_pending += set.staged() as u64;
            let tape = &set.tape;
            c.updates_merged += tape
                .insert_batches
                .iter()
                .map(|b| b.keys.len() as u64)
                .sum::<u64>()
                + tape
                    .delete_batches
                    .iter()
                    .map(|b| b.items.len() as u64)
                    .sum::<u64>();
            for map in set.map_attrs().into_iter().filter_map(|t| set.map(t)) {
                c.touched += map.arr.touched();
                c.boundaries += map.arr.index().len() as u64;
            }
            if let Some(k) = set.key_map() {
                c.touched += k.arr.touched();
                c.boundaries += k.arr.index().len() as u64;
            }
        }
        c
    }
}

impl Layers for PartialEngine {
    fn counters(&self, attrs: usize) -> LayerCounters {
        let mut c = LayerCounters {
            partial: self.store().stats_sum(),
            ..LayerCounters::default()
        };
        for set in (0..attrs).filter_map(|a| self.store().set(a)) {
            for map in (0..attrs).filter_map(|t| set.map(t)) {
                c.boundaries += map
                    .chunks
                    .values()
                    .map(|ch| ch.index().len() as u64)
                    .sum::<u64>();
            }
        }
        c
    }

    fn chunk_usage(&self) -> usize {
        self.store().usage()
    }
}

/// Selection cracking keeps its cracker columns private: no counters.
impl Layers for SelCrackEngine {
    fn counters(&self, _attrs: usize) -> LayerCounters {
        LayerCounters::default()
    }
}

/// An [`AccessPath`] that delegates every call and logs its duration.
struct TimedPath<'a, P> {
    inner: &'a mut P,
    calls: &'a mut Vec<PathCall>,
}

impl<P: AccessPath> TimedPath<'_, P> {
    fn timed<R>(&mut self, kind: PathKind, f: impl FnOnce(&mut P) -> R) -> R {
        let start = now_ns();
        let r = f(self.inner);
        self.calls.push(PathCall {
            kind,
            start,
            end: now_ns(),
        });
        r
    }
}

impl<P: AccessPath> AccessPath for TimedPath<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&self, attr: usize, pred: &RangePred) -> Option<f64> {
        self.inner.estimate(attr, pred)
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet {
        self.timed(PathKind::Restrict, |p| p.restrict(attr, pred, ctx))
    }

    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx) {
        self.timed(PathKind::Refine, |p| p.refine(rows, attr, pred, ctx))
    }

    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx) {
        self.timed(PathKind::Extend, |p| p.extend(rows, attr, pred, ctx))
    }

    fn unrestricted(&mut self, ctx: &RestrictCtx) -> RowSet {
        self.timed(PathKind::Unrestricted, |p| p.unrestricted(ctx))
    }

    fn fetch(
        &mut self,
        rows: &RowSet,
        attrs: &[usize],
        consume: &mut dyn FnMut(usize, Val),
    ) -> Result<(), QueryError> {
        self.timed(PathKind::Fetch, |p| p.fetch(rows, attrs, consume))
    }

    fn partial_agg(
        &mut self,
        rows: &RowSet,
        attr: usize,
    ) -> Option<crackdb::columnstore::ops::parallel::PartialAgg> {
        self.timed(PathKind::PartialAgg, |p| p.partial_agg(rows, attr))
    }

    fn is_adaptive(&self) -> bool {
        self.inner.is_adaptive()
    }
}

/// A shard engine under tracing. Its `select` is the engines' own
/// `select` body — [`exec::try_run_select`] over the engine's access
/// path — with every access-path call timed. Answers are unchanged;
/// `timings.join` of a select (unused by selects) is set to 1 ns to
/// mark that a shard worker answered it, which tells the client side
/// which reads took the snapshot path.
pub struct Traced<E> {
    inner: E,
    /// The spans recorded so far.
    pub log: ShardLog,
}

impl<E: Layers> Traced<E> {
    /// Wrap a shard engine.
    pub fn new(inner: E) -> Self {
        Traced {
            inner,
            log: ShardLog::default(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn note_usage(&mut self) {
        self.log.peak_usage = self.log.peak_usage.max(self.inner.chunk_usage());
    }

    fn write(&mut self, f: impl FnOnce(&mut E)) {
        let start = now_ns();
        f(&mut self.inner);
        let end = now_ns();
        let calls = self.log.calls.len();
        self.log.ops.push(ShardOp {
            kind: ShardOpKind::Write,
            start,
            end,
            exec_select_ns: 0,
            exec_reconstruct_ns: 0,
            first_call: calls,
            end_call: calls,
        });
        self.note_usage();
    }
}

/// The mark a traced shard leaves in `timings.join` of its selects.
pub const WORKER_MARK: Duration = Duration::from_nanos(1);

impl<E: Engine + AccessPath + Layers> Engine for Traced<E> {
    fn name(&self) -> &'static str {
        Engine::name(&self.inner)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        self.try_select(q)
            .unwrap_or_else(|e| panic!("storage failure in infallible select: {e}"))
    }

    fn try_select(&mut self, q: &SelectQuery) -> Result<QueryOutput, QueryError> {
        let first_call = self.log.calls.len();
        let start = now_ns();
        let mut path = TimedPath {
            inner: &mut self.inner,
            calls: &mut self.log.calls,
        };
        let mut out = exec::try_run_select(&mut path, q)?;
        let end = now_ns();
        self.log.ops.push(ShardOp {
            kind: ShardOpKind::Select,
            start,
            end,
            exec_select_ns: out.timings.select.as_nanos() as u64,
            exec_reconstruct_ns: out.timings.reconstruct.as_nanos() as u64,
            first_call,
            end_call: self.log.calls.len(),
        });
        self.note_usage();
        out.timings.join = WORKER_MARK;
        Ok(out)
    }

    fn join(&mut self, q: &JoinQuery) -> QueryOutput {
        self.inner.join(q)
    }

    fn insert(&mut self, row: &[Val]) {
        self.write(|e| e.insert(row));
    }

    fn delete(&mut self, key: RowId) {
        self.write(|e| e.delete(key));
    }

    fn aux_tuples(&self) -> usize {
        self.inner.aux_tuples()
    }

    fn policy_switches(&self) -> u64 {
        self.inner.policy_switches()
    }

    fn snapshot(&mut self) -> Option<Arc<EngineSnapshot>> {
        let start = now_ns();
        let snap = self.inner.snapshot();
        self.log.publish_ns += now_ns() - start;
        snap
    }

    fn set_workers(&mut self, workers: usize) {
        self.inner.set_workers(workers);
    }
}
