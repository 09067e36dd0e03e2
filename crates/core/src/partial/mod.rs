//! Partial sideways cracking (§4): maps materialized chunk-by-chunk,
//! driven by the workload, under a storage budget.
//!
//! A [`PartialSet`] owns:
//!
//! * the **chunk map** `H_A` — `(A, key)` pairs, cracked into *areas*;
//!   unfetched areas may be cracked further; fetched areas are frozen so
//!   that all chunks created from them stay alignment-compatible;
//! * per-area metadata: fetched state, the *area tape* of chunk-level
//!   cracks, the set of maps referencing the area, and lazily deleted
//!   index shells of dropped chunks;
//! * the partial maps themselves: one [`Chunk`] per (attribute, area)
//!   pair, created on demand, dropped under storage pressure (LFU),
//!   recreated when needed again.
//!
//! Queries proceed **chunk-wise** (§4.1): each operator loads, creates,
//! aligns, cracks and scans one chunk at a time, and alignment is
//! *partial* — a chunk not being cracked only needs to reach the maximum
//! cursor of the chunks used together with it, and even a to-be-cracked
//! chunk stops early when a tape entry already provides its boundary.
//!
//! **Updates (§3.5, chunk-wise):** insertions and deletions are staged
//! globally on the set and merged on access — when a query next touches
//! the area a pending tuple belongs to, the update becomes an area-tape
//! entry ([`AreaEntry::Insert`] / [`AreaEntry::Delete`]) that every chunk
//! of the area replays during alignment, exactly like a crack. Deletion
//! positions are resolved once per area by a *resolver* (the area's
//! `(head, key)` pairs aligned through the same tape — the chunk-wise
//! analogue of the key map `M_A,key`), so sibling chunks stay physically
//! identical. Partial alignment may skip trailing cracks (they only
//! reorganize) but never a merged update (it changes content). When an
//! area's last chunk is dropped the area reverts to unfetched, its tape
//! is discarded and its merged updates return to the staged lists — a
//! chunk recreated from the base later picks them up for free.

pub mod chunk;

pub use chunk::Chunk;

use crate::bitvec::BitVec;
use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{
    retention_score, BoundaryKey, CrackPolicy, CrackedArray, CrackerIndex, PolicyAdvisor,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Identity of an area: its start boundary in the chunk map (`None` for
/// the leftmost area). Stable while the area is fetched.
pub type AreaId = Option<BoundaryKey>;

/// Chunks checked out of the maps for one area — `(attr, chunk)` pairs —
/// plus a clone of the area's tape for replay.
type CheckedOutArea = (Vec<(usize, Chunk)>, Vec<AreaEntry>);

/// One entry of an area tape: the reorganization-and-update log every
/// chunk of the area replays during alignment (§3.5 applied per chunk).
#[derive(Debug, Clone, Copy)]
pub enum AreaEntry {
    /// A chunk-level crack, plus the effective static policy it ran
    /// under. Replay always uses the logged policy — never the set's
    /// current one — so sibling chunks and recreations stay bit-aligned
    /// across adaptive policy switches.
    Crack(RangePred, CrackPolicy),
    /// Tuple `key` (appended to the base table) ripple-inserted into the
    /// area; replaying chunks read its values from the base columns.
    Insert(RowId),
    /// Tuple `key` with head value `val` ripple-deleted at physical
    /// position `pos` (resolved by the area resolver at merge time, so
    /// every sibling chunk deletes the same slot).
    Delete {
        /// Head-attribute value of the deleted tuple.
        val: Val,
        /// Base-table key of the deleted tuple.
        key: RowId,
        /// Physical position within the area at this tape point.
        pos: usize,
    },
}

/// Position just past the last update entry of a tape: chunks may stop
/// partial alignment short of trailing cracks, never short of a merged
/// update.
fn update_floor(tape: &[AreaEntry]) -> usize {
    tape.iter()
        .rposition(|e| !matches!(e, AreaEntry::Crack(..)))
        .map_or(0, |i| i + 1)
}

/// The §3.5 position resolver of one area: the area's `(head, key)`
/// pairs, kept aligned to the tape end. It resolves a staged deletion
/// (head value + key) to the physical position all sibling chunks must
/// replay. Infrastructure like the chunk map — not counted against the
/// storage budget.
#[derive(Debug, Clone)]
struct Resolver {
    arr: CrackedArray<RowId>,
    cursor: usize,
}

/// Per-area metadata.
#[derive(Debug, Clone, Default)]
struct AreaInfo {
    fetched: bool,
    /// Chunk-level cracks and merged updates logged for this area,
    /// replayed by sibling chunks during (partial) alignment.
    tape: Vec<AreaEntry>,
    /// Tail attributes whose partial map currently holds a chunk of this
    /// area.
    refs: HashSet<usize>,
    /// Lazily deleted cracker-index shells of dropped chunks, reusable at
    /// recreation (§4.1 "lazy deletion").
    shells: HashMap<usize, CrackerIndex>,
    /// Delete-position resolver, created at the area's first update
    /// merge.
    resolver: Option<Resolver>,
}

/// A partial map: the workload-selected subset of `M_AB`, one chunk per
/// fetched area.
#[derive(Debug, Clone, Default)]
pub struct PartialMap {
    /// Chunks keyed by area.
    pub chunks: HashMap<AreaId, Chunk>,
}

/// Instrumentation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialStats {
    /// Chunks fetched (including recreations).
    pub chunks_created: u64,
    /// Chunks evicted by the storage manager.
    pub chunks_dropped: u64,
    /// Tuples materialized by fetches.
    pub tuples_fetched: u64,
    /// Area-tape entries replayed during alignment.
    pub entries_replayed: u64,
    /// Cracks performed directly by queries on chunks.
    pub query_cracks: u64,
    /// Cracks performed on the chunk map.
    pub chunk_map_cracks: u64,
    /// Head columns dropped.
    pub heads_dropped: u64,
    /// Head columns recovered (rebuilt) for further cracking.
    pub heads_recovered: u64,
    /// Staged updates merged into area tapes (§3.5).
    pub updates_merged: u64,
    /// Nanoseconds spent materializing chunks from the base columns
    /// (the cost every eviction makes the next access pay again).
    pub fetch_ns: u64,
}

impl PartialStats {
    /// Accumulate another stats block (store-level aggregation).
    pub fn merge(&mut self, other: &PartialStats) {
        self.chunks_created += other.chunks_created;
        self.chunks_dropped += other.chunks_dropped;
        self.tuples_fetched += other.tuples_fetched;
        self.entries_replayed += other.entries_replayed;
        self.query_cracks += other.query_cracks;
        self.chunk_map_cracks += other.chunk_map_cracks;
        self.heads_dropped += other.heads_dropped;
        self.heads_recovered += other.heads_recovered;
        self.updates_merged += other.updates_merged;
        self.fetch_ns += other.fetch_ns;
    }
}

/// A reference to one area of the chunk map at query time.
#[derive(Debug, Clone, Copy)]
struct AreaRef {
    id: AreaId,
    start: usize,
    end: usize,
    end_key: Option<BoundaryKey>,
}

/// The partial map set `S_A` of one head attribute.
#[derive(Debug, Clone)]
pub struct PartialSet {
    /// Head attribute of every map in the set.
    pub head_attr: usize,
    chunk_map: Option<CrackedArray<RowId>>,
    areas: HashMap<AreaId, AreaInfo>,
    maps: HashMap<usize, PartialMap>,
    /// Inserted base keys not yet merged into any area.
    staged_inserts: Vec<RowId>,
    /// Deleted `(head value, key)` pairs not yet merged into any area.
    staged_deletes: Vec<(Val, RowId)>,
    /// Storage budget in tuples across all chunks (`None` = unlimited).
    pub budget: Option<usize>,
    clock: u64,
    /// When set, chunks whose largest piece is at most this many tuples
    /// drop their head column after use (§4.1 head dropping).
    pub head_drop_threshold: Option<usize>,
    /// Policy selection shared by the chunk map, every chunk and the
    /// per-area resolvers: the configured [`CrackPolicy`] plus (when
    /// adaptive) the workload statistics driving per-query re-decisions.
    /// Replay safety does not depend on it — every area-tape crack
    /// carries the effective policy it ran under, and alignment replays
    /// the logged policy, so sibling chunks and recreations crack
    /// identically no matter what the advisor has decided since.
    advisor: PolicyAdvisor,
    /// Counters.
    pub stats: PartialStats,
    /// Recycled buffer for per-query area-tape snapshots (avoids a fresh
    /// allocation per processed area).
    tape_scratch: Vec<AreaEntry>,
}

impl PartialSet {
    /// Empty partial set for `head_attr`, cracking with the standard
    /// exact-bounds policy.
    pub fn new(head_attr: usize) -> Self {
        Self::with_policy(head_attr, CrackPolicy::Standard)
    }

    /// Like [`Self::new`] with an explicit [`CrackPolicy`].
    pub fn with_policy(head_attr: usize, policy: CrackPolicy) -> Self {
        PartialSet {
            head_attr,
            chunk_map: None,
            areas: HashMap::new(),
            maps: HashMap::new(),
            staged_inserts: Vec::new(),
            staged_deletes: Vec::new(),
            budget: None,
            clock: 0,
            head_drop_threshold: None,
            // Chunked cracking bounds every crack at the segment size,
            // but a marching sweep still pays an exact crack per stripe
            // edge in every chunk it crosses — the advisor's coarse
            // sweep response applies here like on a plain cracker.
            advisor: PolicyAdvisor::new(policy),
            stats: PartialStats::default(),
            tape_scratch: Vec::new(),
        }
    }

    /// The set's configured pivot-choice policy (possibly
    /// [`CrackPolicy::Adaptive`]).
    pub fn policy(&self) -> CrackPolicy {
        self.advisor.configured()
    }

    /// The static policy the next crack will run under (equals
    /// [`Self::policy`] unless configured adaptive).
    pub fn effective_policy(&self) -> CrackPolicy {
        self.advisor.effective()
    }

    /// How many times the advisor has switched the effective policy.
    pub fn policy_switches(&self) -> u64 {
        self.advisor.switches()
    }

    /// Observe one logical query: feed the predicate to the advisor
    /// (against the chunk map's shape) and re-decide the effective
    /// policy. Called once from each public query entry point.
    fn note_query(&mut self, pred: &RangePred) {
        if !self.advisor.configured().is_adaptive() {
            return;
        }
        let (boundaries, len) = self
            .chunk_map
            .as_ref()
            .map_or((0, 0), |cm| (cm.index().len(), cm.len()));
        self.advisor.observe(pred, boundaries, len);
    }

    /// Current chunk storage in tuples (the chunk map and the per-area
    /// resolvers are infrastructure, like a cracker column, and not
    /// counted against the budget). Computed from live chunk lengths so
    /// merged inserts and deletes are reflected exactly.
    pub fn usage(&self) -> usize {
        self.maps
            .values()
            .flat_map(|m| m.chunks.values())
            .map(Chunk::len)
            .sum()
    }

    // ----- updates (§3.5) ---------------------------------------------

    /// Stage an insertion: the tuple with key `key` was appended to the
    /// base table. Merged into an area when a query next touches it.
    pub fn stage_insert(&mut self, key: RowId) {
        self.staged_inserts.push(key);
    }

    /// Stage a deletion of tuple `key` whose head-attribute value is
    /// `head_val`.
    pub fn stage_delete(&mut self, head_val: Val, key: RowId) {
        self.staged_deletes.push((head_val, key));
    }

    /// Number of staged (unmerged) updates.
    pub fn staged(&self) -> usize {
        self.staged_inserts.len() + self.staged_deletes.len()
    }

    /// Number of materialized chunks across all maps.
    pub fn chunk_count(&self) -> usize {
        self.maps.values().map(|m| m.chunks.len()).sum()
    }

    /// Read access to a partial map.
    pub fn map(&self, tail_attr: usize) -> Option<&PartialMap> {
        self.maps.get(&tail_attr)
    }

    fn ensure_chunk_map(&mut self, base: &Table) {
        if self.chunk_map.is_none() {
            // The seed is the *current* live snapshot: inserted rows are
            // already part of the base; rows with a staged deletion are
            // excluded. Everything staged so far is therefore subsumed by
            // the seed and cleared.
            let col = base.column(self.head_attr);
            let dead: HashSet<RowId> = self.staged_deletes.iter().map(|&(_, k)| k).collect();
            let mut head = Vec::with_capacity(col.len());
            let mut keys = Vec::with_capacity(col.len());
            for (key, v) in col.iter_pairs() {
                if !dead.contains(&key) {
                    head.push(v);
                    keys.push(key);
                }
            }
            self.chunk_map = Some(CrackedArray::new(head, keys));
            self.staged_inserts.clear();
            self.staged_deletes.clear();
        }
    }

    fn area_info(&mut self, id: AreaId) -> &mut AreaInfo {
        self.areas.entry(id).or_default()
    }

    /// Crack the chunk map at the predicate's cut points, but only inside
    /// unfetched areas (fetched areas are frozen; their chunks get
    /// cracked instead). The set's policy applies: stochastic advisory
    /// pivots split large unfetched areas (both halves stay unfetched,
    /// so freezing invariants hold), and the coarse-granular policy
    /// declines to split areas at or below its leaf size — the query
    /// then filters inside the chunks.
    fn crack_chunk_map_for(&mut self, pred: &RangePred) {
        let policy = self.advisor.effective();
        let (lo_k, hi_k) = pred_keys(pred);
        for key in [lo_k, hi_k].into_iter().flatten() {
            // INVARIANT: every public query path calls ensure_chunk_map
            // before reaching the internal helpers; field access keeps
            // the borrow disjoint from `areas`/`stats`.
            let cm = self.chunk_map.as_ref().expect("chunk map ensured");
            if cm.index().position_of(key).is_some() {
                continue;
            }
            let id: AreaId = cm
                .index()
                .boundaries()
                .iter()
                .rev()
                .find(|(k, _)| *k < key)
                .map(|(k, _)| *k);
            let fetched = self.areas.get(&id).is_some_and(|a| a.fetched);
            if !fetched {
                // INVARIANT: same — ensured by every public entry path.
                let cm = self.chunk_map.as_mut().expect("chunk map ensured");
                let before = cm.index().len();
                cm.crack_boundary(key, &policy);
                self.stats.chunk_map_cracks += (cm.index().len() - before) as u64;
            }
        }
    }

    /// Enumerate areas overlapping the predicate's qualifying region.
    ///
    /// Zero-row areas (two chunk-map boundaries at the same position)
    /// are skipped *unless* they carry state a query must still visit:
    /// an area with merged updates (fetched), or one a staged update's
    /// head value falls into — an inserted tuple may be the only content
    /// of an otherwise empty area, and skipping it would lose the merge.
    fn overlapping_areas(&self, base: &Table, pred: &RangePred) -> Vec<AreaRef> {
        let head_col = base.column(self.head_attr);
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let bs = cm.index().boundaries();
        let n = cm.len();
        let (lo_k, hi_k) = pred_keys(pred);
        let mut out = Vec::new();
        let mut start_key: AreaId = None;
        let mut start_pos = 0usize;
        for i in 0..=bs.len() {
            let (end_key, end_pos) = if i < bs.len() {
                (Some(bs[i].0), bs[i].1)
            } else {
                (None, n)
            };
            // Overlap test on cut-point order: area [start_key, end_key)
            // vs region (lo_k, hi_k).
            let below = match (end_key, lo_k) {
                (Some(e), Some(l)) => e <= l,
                _ => false,
            };
            let above = match (start_key, hi_k) {
                (Some(s), Some(h)) => s >= h,
                _ => false,
            };
            if !below && !above {
                let area = AreaRef {
                    id: start_key,
                    start: start_pos,
                    end: end_pos,
                    end_key,
                };
                let keep = end_pos > start_pos
                    || self.areas.get(&area.id).is_some_and(|a| a.fetched)
                    || self
                        .staged_inserts
                        .iter()
                        .any(|&k| Self::area_contains(&area, head_col.get(k)))
                    || self
                        .staged_deletes
                        .iter()
                        .any(|&(v, _)| Self::area_contains(&area, v));
                if keep {
                    out.push(area);
                }
            }
            start_key = end_key;
            start_pos = end_pos;
        }
        out
    }

    /// Does head value `v` fall inside `area`'s value range?
    fn area_contains(area: &AreaRef, v: Val) -> bool {
        let right_of_start = area.id.is_none_or(|(bv, kind)| !kind.belongs_left(v, bv));
        let left_of_end = area
            .end_key
            .is_none_or(|(bv, kind)| kind.belongs_left(v, bv));
        right_of_start && left_of_end
    }

    /// Merge staged updates whose head value falls inside `area` (§3.5
    /// merge-on-access at chunk granularity): inserts first, then
    /// deletes, each logged as an area-tape entry so every chunk of the
    /// area — including future recreations — replays the change during
    /// alignment. Deletion positions are resolved by the area resolver,
    /// seeded from the frozen chunk-map segment (the same seed every
    /// chunk starts from) and kept aligned to the tape end.
    fn flush_staged_for_area(&mut self, base: &Table, area: &AreaRef) {
        let head_col = base.column(self.head_attr);
        let mut ins = Vec::new();
        let mut i = 0;
        while i < self.staged_inserts.len() {
            let key = self.staged_inserts[i];
            if Self::area_contains(area, head_col.get(key)) {
                ins.push(self.staged_inserts.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let mut dels = Vec::new();
        let mut i = 0;
        while i < self.staged_deletes.len() {
            if Self::area_contains(area, self.staged_deletes[i].0) {
                dels.push(self.staged_deletes.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if ins.is_empty() && dels.is_empty() {
            return;
        }
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let (heads, keys) = cm.view((area.start, area.end));
        let info = self.areas.entry(area.id).or_default();
        // Merging freezes the area exactly like a fetch: the tape now
        // carries entries every future chunk must replay from this seed.
        info.fetched = true;
        let resolver = info.resolver.get_or_insert_with(|| Resolver {
            arr: CrackedArray::new(heads.to_vec(), keys.to_vec()),
            cursor: 0,
        });
        // Catch the resolver up with cracks logged since the last merge
        // (each replayed under its logged policy, like every sibling
        // chunk).
        while resolver.cursor < info.tape.len() {
            match info.tape[resolver.cursor] {
                AreaEntry::Crack(pred, policy) => {
                    resolver.arr.crack_range_with(&pred, &policy);
                }
                AreaEntry::Insert(key) => {
                    resolver.arr.ripple_insert(head_col.get(key), key);
                }
                AreaEntry::Delete { pos, .. } => {
                    resolver.arr.ripple_delete_at(pos);
                }
            }
            resolver.cursor += 1;
        }
        for key in ins {
            resolver.arr.ripple_insert(head_col.get(key), key);
            resolver.cursor += 1;
            info.tape.push(AreaEntry::Insert(key));
            self.stats.updates_merged += 1;
        }
        for (val, key) in dels {
            // A key the resolver no longer holds (e.g. a repeated delete
            // of the same key) is skipped silently — every engine treats
            // deletes idempotently, so the partial path must too.
            let Some(pos) = resolver.arr.ripple_delete(val, |&k| k == key) else {
                continue;
            };
            resolver.cursor += 1;
            info.tape.push(AreaEntry::Delete { val, key, pos });
            self.stats.updates_merged += 1;
        }
    }

    /// Predicate boundaries falling strictly inside an area (those require
    /// chunk-level cracks).
    fn keys_inside(pred: &RangePred, area: &AreaRef) -> Vec<BoundaryKey> {
        let (lo_k, hi_k) = pred_keys(pred);
        [lo_k, hi_k]
            .into_iter()
            .flatten()
            .filter(|k| {
                let after_start = area.id.is_none_or(|s| *k > s);
                let before_end = area.end_key.is_none_or(|e| *k < e);
                after_start && before_end
            })
            .collect()
    }

    /// Fetch (materialize) the chunk of `tail_attr` for an area, reviving
    /// a lazily deleted index shell when available.
    fn fetch_chunk(&mut self, base: &Table, tail_attr: usize, area: &AreaRef) -> Chunk {
        let t0 = Instant::now();
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let (heads, keys) = cm.view((area.start, area.end));
        let tail_col = base.column(tail_attr);
        let head: Vec<Val> = heads.to_vec();
        let tail: Vec<Val> = keys.iter().map(|&k| tail_col.get(k)).collect();
        let info = self.areas.entry(area.id).or_default();
        info.fetched = true;
        info.refs.insert(tail_attr);
        let shell = info.shells.remove(&tail_attr);
        self.stats.chunks_created += 1;
        self.stats.tuples_fetched += head.len() as u64;
        self.stats.fetch_ns += t0.elapsed().as_nanos() as u64;
        let mut chunk = Chunk::seed(head, tail, shell);
        chunk.last_access = self.clock;
        chunk
    }

    /// Evict cold chunks until `extra` more tuples fit in the budget.
    /// Chunks in `pinned` are untouchable.
    ///
    /// Victim choice minimizes [`retention_score`]: recency plus a
    /// log-frequency grace, so a chunk the workload hammered keeps a
    /// bounded head start over a once-touched one. Pure frequency (no
    /// aging) would always evict the chunks a workload shift just
    /// created — the previous batch's chunks carry large counts — and
    /// thrash; the recency-dominated score keeps the adaptation property
    /// §4.1 asks of the storage manager ("the system always keeps the
    /// chunks that are really necessary for the workload hot-set").
    fn make_room(&mut self, extra: usize, pinned: &HashSet<(usize, AreaId)>) {
        let Some(budget) = self.budget else { return };
        // One scan establishes the current usage; each eviction then
        // subtracts the freed tuples, so the loop stays O(chunks) per
        // eviction (the victim scan) instead of rescanning every chunk
        // length per iteration.
        let mut usage = self.usage();
        while usage + extra > budget {
            // The (attr, area) identity breaks score ties so the victim
            // never depends on hash-map iteration order — eviction (and
            // therefore every downstream answer) stays deterministic.
            let victim = self
                .maps
                .iter()
                .flat_map(|(&attr, m)| {
                    m.chunks.iter().map(move |(&aid, c)| {
                        ((attr, aid), retention_score(c.accesses, c.last_access))
                    })
                })
                .filter(|(key, _)| !pinned.contains(key))
                .min_by_key(|&((attr, aid), score)| (score, attr, aid))
                .map(|(key, _)| key);
            let Some((attr, aid)) = victim else { break };
            usage = usage.saturating_sub(self.drop_chunk(attr, aid));
        }
    }

    /// Drop one chunk, keeping its index as a lazily deleted shell; if it
    /// was the area's last chunk, the area reverts to unfetched and its
    /// tape is removed (§4.1) — merged updates return to the staged
    /// lists, so chunks recreated from the base later pick them up for
    /// free. Returns the tuples freed.
    pub fn drop_chunk(&mut self, tail_attr: usize, area_id: AreaId) -> usize {
        let Some(map) = self.maps.get_mut(&tail_attr) else {
            return 0;
        };
        let Some(chunk) = map.chunks.remove(&area_id) else {
            return 0;
        };
        let freed = chunk.len();
        self.stats.chunks_dropped += 1;
        let info = self.areas.entry(area_id).or_default();
        info.refs.remove(&tail_attr);
        if info.refs.is_empty() {
            info.fetched = false;
            info.shells.clear();
            info.resolver = None;
            for entry in info.tape.drain(..) {
                match entry {
                    AreaEntry::Insert(key) => self.staged_inserts.push(key),
                    AreaEntry::Delete { val, key, .. } => self.staged_deletes.push((val, key)),
                    AreaEntry::Crack(..) => {}
                }
            }
        } else {
            info.shells.insert(tail_attr, chunk.into_shell());
        }
        freed
    }

    /// Post-query budget enforcement: with nothing pinned, evict until
    /// `usage() <= budget` holds exactly. A single query may transiently
    /// exceed the budget while its own chunks are pinned; it must never
    /// *leave* it exceeded.
    fn enforce_budget(&mut self) {
        self.make_room(0, &HashSet::new());
    }

    /// Deterministically rebuild the head column of a head-dropped chunk:
    /// re-seed from the (frozen) chunk-map area and replay the area tape
    /// up to the chunk's cursor.
    fn rebuild_head(
        &mut self,
        base: &Table,
        tail_attr: usize,
        area: &AreaRef,
        cursor: usize,
        tape: &[AreaEntry],
    ) -> Vec<Val> {
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let (heads, keys) = cm.view((area.start, area.end));
        let head_col = base.column(self.head_attr);
        let tail_col = base.column(tail_attr);
        let head: Vec<Val> = heads.to_vec();
        let tail: Vec<Val> = keys.iter().map(|&k| tail_col.get(k)).collect();
        let mut tmp = Chunk::seed(head, tail, None);
        tmp.align_to(tape, cursor, head_col, tail_col);
        self.stats.heads_recovered += 1;
        // INVARIANT: Chunk::seed is constructed with a head column and
        // align_to never drops it.
        tmp.head().expect("fresh chunk has a head").to_vec()
    }

    /// Single-selection, multi-projection query (`select P1.. from R where
    /// pred(A)`): stream each projection attribute's qualifying values.
    pub fn select_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        head_pred: &RangePred,
        projs: &[usize],
        consume: F,
    ) {
        self.conjunctive_project_with(base, head_pred, &[], projs, consume);
    }

    /// Conjunctive multi-selection query (§3.3 executed chunk-wise,
    /// §4.1): predicate on the head attribute plus `tail_sels` predicates
    /// on other attributes; streams qualifying values of each projection
    /// attribute via `consume(attr, value)`.
    pub fn conjunctive_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        head_pred: &RangePred,
        tail_sels: &[(usize, RangePred)],
        projs: &[usize],
        mut consume: F,
    ) {
        if head_pred.is_empty_range() || (tail_sels.is_empty() && projs.is_empty()) {
            return;
        }
        self.ensure_chunk_map(base);
        self.note_query(head_pred);
        self.crack_chunk_map_for(head_pred);
        self.clock += 1;

        let mut attrs: Vec<usize> = tail_sels.iter().map(|(a, _)| *a).collect();
        for &p in projs {
            if !attrs.contains(&p) {
                attrs.push(p);
            }
        }
        let areas = self.overlapping_areas(base, head_pred);
        for area in areas {
            self.process_area(
                base,
                &area,
                head_pred,
                tail_sels,
                projs,
                &attrs,
                &mut consume,
            );
        }
        self.enforce_budget();
    }

    /// Disjunctive multi-selection (§3.3 executed chunk-wise): predicates
    /// on distinct attributes combined with OR. A disjunction needs every
    /// tuple examined, so the pass covers *all* areas of the chunk map,
    /// builds a per-area OR bit vector over the predicate chunks, and
    /// streams the projection attributes' qualifying values.
    pub fn disjunctive_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        mut consume: F,
    ) {
        if preds.is_empty() || projs.is_empty() {
            return;
        }
        self.ensure_chunk_map(base);
        // Adaptation still happens on the set's own predicate: its cut
        // points refine the chunk map for later conjunctive queries.
        if let Some((_, own)) = preds.iter().find(|(a, _)| *a == self.head_attr) {
            let own = *own;
            self.note_query(&own);
            self.crack_chunk_map_for(&own);
        }
        self.clock += 1;
        let mut attrs: Vec<usize> = Vec::new();
        for a in preds.iter().map(|(a, _)| *a).chain(projs.iter().copied()) {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        let areas = self.overlapping_areas(base, &RangePred::all());
        for area in areas {
            self.process_area_disj(base, &area, preds, projs, &attrs, &mut consume);
        }
        self.enforce_budget();
    }

    /// Check the chunks of `attrs` out of one area for processing — the
    /// steps the conjunctive and disjunctive passes share:
    ///
    /// 1. materialize missing chunks (budget-checked, pinning the chunks
    ///    this query needs);
    /// 2. merge staged updates belonging to the area (§3.5) — this must
    ///    follow materialization: with the query's chunks holding
    ///    references the area can no longer revert to unfetched
    ///    mid-query (an eviction of the last sibling chunk would
    ///    un-merge the tape back to the staged lists);
    /// 3. take the chunks out of the maps;
    /// 4. partial alignment — bring every chunk to the maximum cursor
    ///    among them, and always past the last merged update (cracks
    ///    only reorganize; updates change content), recovering dropped
    ///    heads as needed.
    ///
    /// Returns the checked-out `(attr, chunk)` pairs plus the area-tape
    /// clone; hand the chunks back with [`Self::reinstall_chunks`].
    fn checkout_area_chunks(
        &mut self,
        base: &Table,
        area: &AreaRef,
        attrs: &[usize],
    ) -> CheckedOutArea {
        let pinned: HashSet<(usize, AreaId)> = attrs.iter().map(|&a| (a, area.id)).collect();
        for &attr in attrs {
            let present = self
                .maps
                .get(&attr)
                .is_some_and(|m| m.chunks.contains_key(&area.id));
            if present {
                continue;
            }
            self.make_room(area.end - area.start, &pinned);
            let chunk = self.fetch_chunk(base, attr, area);
            self.maps
                .entry(attr)
                .or_default()
                .chunks
                .insert(area.id, chunk);
        }
        self.flush_staged_for_area(base, area);
        // The loop above materialized every chunk, so each
        // take-out succeeds; tolerating an absent entry keeps this path
        // panic-free without changing behaviour.
        let mut chunks: Vec<(usize, Chunk)> = Vec::with_capacity(attrs.len());
        for &attr in attrs {
            if let Some(c) = self
                .maps
                .get_mut(&attr)
                .and_then(|m| m.chunks.remove(&area.id))
            {
                chunks.push((attr, c));
            }
        }
        // Snapshot the tape into the recycled scratch buffer (returned to
        // the set by `recycle_tape` once the area is processed).
        let mut tape = std::mem::take(&mut self.tape_scratch);
        tape.clear();
        if let Some(a) = self.areas.get(&area.id) {
            tape.extend_from_slice(&a.tape);
        }
        let head_col = base.column(self.head_attr);
        let target = chunks
            .iter()
            .map(|(_, c)| c.cursor)
            .max()
            .unwrap_or(0)
            .max(update_floor(&tape));
        for (attr, c) in chunks.iter_mut() {
            if c.cursor < target && c.head_dropped() {
                let head = self.rebuild_head(base, *attr, area, c.cursor, &tape);
                c.restore_head(head);
            }
            self.stats.entries_replayed +=
                c.align_to(&tape, target, head_col, base.column(*attr)) as u64;
        }
        (chunks, tape)
    }

    /// Return the per-query tape snapshot buffer for reuse.
    fn recycle_tape(&mut self, tape: Vec<AreaEntry>) {
        if tape.capacity() > self.tape_scratch.capacity() {
            self.tape_scratch = tape;
        }
    }

    /// Hand processed chunks back: access bookkeeping, the optional
    /// head-drop policy, and reinsertion into the maps.
    fn reinstall_chunks(&mut self, area_id: AreaId, chunks: Vec<(usize, Chunk)>) {
        let clock = self.clock;
        let threshold = self.head_drop_threshold;
        for (attr, mut c) in chunks {
            c.accesses += 1;
            c.last_access = clock;
            if let Some(t) = threshold {
                if !c.head_dropped() && c.max_piece() <= t {
                    c.drop_head();
                    self.stats.heads_dropped += 1;
                }
            }
            self.maps.entry(attr).or_default().chunks.insert(area_id, c);
        }
    }

    /// One area of a disjunctive pass: check out, OR-filter, stream.
    fn process_area_disj<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        area: &AreaRef,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        attrs: &[usize],
        consume: &mut F,
    ) {
        let (chunks, tape) = self.checkout_area_chunks(base, area, attrs);

        // OR bit vector over the whole (aligned) area.
        let len = chunks.first().map_or(0, |(_, c)| c.len());
        let mut bv = BitVec::zeros(len);
        for (attr, pred) in preds {
            // checkout_area_chunks returns a chunk for every attr in
            // `attrs`, which includes every predicate attribute.
            let Some((_, c)) = chunks.iter().find(|(a, _)| a == attr) else {
                continue;
            };
            let tails = c.tail();
            for (i, &v) in tails.iter().enumerate() {
                if pred.matches(v) {
                    bv.set(i);
                }
            }
        }

        for &p in projs {
            let Some((_, c)) = chunks.iter().find(|(a, _)| *a == p) else {
                continue;
            };
            let tails = c.tail();
            for i in bv.iter_ones() {
                consume(p, tails[i]);
            }
        }

        self.reinstall_chunks(area.id, chunks);
        self.recycle_tape(tape);
    }

    #[allow(clippy::too_many_arguments)]
    fn process_area<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        area: &AreaRef,
        head_pred: &RangePred,
        tail_sels: &[(usize, RangePred)],
        projs: &[usize],
        attrs: &[usize],
        consume: &mut F,
    ) {
        // Materialize, merge staged updates, take out and align (§3.5 /
        // §4.1 shared machinery).
        let (mut chunks, tape) = self.checkout_area_chunks(base, area, attrs);
        let needed = Self::keys_inside(head_pred, area);
        let head_col = base.column(self.head_attr);
        let policy = self.advisor.effective();

        // Boundary handling with monitored alignment: replay further
        //    entries until the needed boundaries appear; crack (under the
        //    query's effective policy, logged on the tape) only if the
        //    tape never provides them.
        let mut range = (0, chunks.first().map_or(0, |(_, c)| c.len()));
        let mut exact = true;
        if !needed.is_empty() {
            let mut missing = false;
            for (attr, c) in chunks.iter_mut() {
                if !c.has_boundaries(&needed) && c.head_dropped() {
                    let head = self.rebuild_head(base, *attr, area, c.cursor, &tape);
                    c.restore_head(head);
                }
                let (replayed, m) =
                    c.align_until_boundaries(&tape, &needed, head_col, base.column(*attr));
                self.stats.entries_replayed += replayed as u64;
                missing = m;
            }
            if missing {
                // Every chunk is now at the tape end; crack them all with
                // the same policy (deterministically identical outcomes).
                let mut changed = false;
                for (attr, c) in chunks.iter_mut() {
                    if c.head_dropped() {
                        let head = self.rebuild_head(base, *attr, area, c.cursor, &tape);
                        c.restore_head(head);
                    }
                    let before = c.index().len();
                    c.crack_range_with(head_pred, &policy);
                    if c.index().len() > before {
                        changed = true;
                    }
                    self.stats.query_cracks += 1;
                }
                // Log only cracks that created boundaries — a declined
                // coarse-granular split must not grow the tape on every
                // repeat of the same query.
                if changed {
                    let info = self.area_info(area.id);
                    info.tape.push(AreaEntry::Crack(*head_pred, policy));
                    let new_len = info.tape.len();
                    for (_, c) in chunks.iter_mut() {
                        c.cursor = new_len;
                    }
                }
            }
            range = chunks[0].1.range_of(head_pred);
            exact = chunks[0].1.has_boundaries(&needed);
            for (_, c) in &chunks {
                debug_assert_eq!(c.range_of(head_pred), range, "aligned chunks agree");
            }
        }

        // Head filter for an inexact (coarse-granular) range: the range
        // is a superset delimited by leaf pieces, so qualifying tuples
        // are identified by the head values. The heads were restored
        // above (an inexact range implies the missing-crack path ran).
        let head_bv = if exact {
            None
        } else {
            let heads = chunks[0]
                .1
                .head()
                // INVARIANT: an inexact range means the missing-crack
                // path above ran (coarse-granular declined a split), and
                // that path restores every dropped head before cracking.
                .expect("head restored for the policy crack");
            let heads = &heads[range.0..range.1];
            Some(BitVec::from_fn(heads.len(), |i| {
                head_pred.matches(heads[i])
            }))
        };

        // Bit-vector filtering over the qualifying local range.
        let bv = if tail_sels.is_empty() {
            head_bv
        } else {
            let mut bv: Option<BitVec> = head_bv;
            for (attr, pred) in tail_sels {
                // `attrs` contains every selection attribute, so the
                // checkout returned a chunk for each.
                let Some((_, c)) = chunks.iter().find(|(a, _)| a == attr) else {
                    continue;
                };
                let tails = &c.tail()[range.0..range.1];
                match &mut bv {
                    None => {
                        bv = Some(BitVec::from_fn(tails.len(), |i| pred.matches(tails[i])));
                    }
                    Some(bv) => bv.refine(|i| pred.matches(tails[i])),
                }
            }
            bv
        };

        // Stream projections.
        for &p in projs {
            let Some((_, c)) = chunks.iter().find(|(a, _)| *a == p) else {
                continue;
            };
            let tails = &c.tail()[range.0..range.1];
            match &bv {
                None => {
                    for &v in tails {
                        consume(p, v);
                    }
                }
                Some(bv) => {
                    for i in bv.iter_ones() {
                        consume(p, tails[i]);
                    }
                }
            }
        }

        self.reinstall_chunks(area.id, chunks);
        self.recycle_tape(tape);
    }
}

#[cfg(test)]
mod tests;
