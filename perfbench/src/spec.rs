//! The four workloads: their deployments, sizes and generated inputs.
//!
//! Everything here is a pure function of `(workload, scale, seed)`: the
//! same seed gives the same table, the same per-client operation
//! streams and the same delete-key pools. Generation is never timed.

use crackdb::columnstore::{AggFunc, RangePred, RowId, Table, Val};
use crackdb::engine::SelectQuery;
use crackdb::workloads::{random_table, IdeBench, QiGen};
use crackdb_rng::rngs::StdRng;
use crackdb_rng::seq::SliceRandom;
use crackdb_rng::{Rng, SeedableRng};

/// Closed-loop client threads driving every workload (one process).
pub const CLIENTS: usize = 2;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sideways cracking, 2 shards, read-only IDEBench sessions.
    Explore,
    /// The `Explore` deployment with 20% inserts and deletes.
    UpdateMix,
    /// Partial sideways cracking under a discard-only budget, §4.2 `Qi`.
    Budget,
    /// Selection cracking, 1 shard, converged narrow reads, 5% writes.
    ConvergedReads,
}

/// Input scale: `Full` is what the benchmark measures; `Tiny` is the
/// self-check's scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measured sizes (see [`Workload::sizes`]).
    Full,
    /// A few thousand rows, for the workload self-check.
    Tiny,
}

/// Deployment and input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Base-table rows.
    pub rows: usize,
    /// Attributes per row.
    pub attrs: usize,
    /// Shards, one service worker each.
    pub shards: usize,
    /// Storage budget per shard in tuples (partial engine only).
    pub budget: Option<usize>,
    /// Operations generated per client (the loop wraps around when a
    /// fast run exhausts them).
    pub stream_len: usize,
}

/// The writes a stream mixes in: every block of `block` operations
/// holds exactly `inserts` inserts and `deletes` deletes at random
/// positions, so the write share does not vary from seed to seed.
#[derive(Debug, Clone, Copy)]
struct WriteMix {
    block: usize,
    inserts: usize,
    deletes: usize,
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A select through `Client::select`.
    Read(SelectQuery),
    /// An insert of this row through `Client::insert`.
    Insert(Vec<Val>),
    /// A delete of one of the client's own live keys (chosen when the
    /// call is made: see [`DeletePool`]).
    Delete,
}

/// Generated inputs of one run.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizes: Sizes,
    /// Attribute value domain `[1, domain]`.
    pub domain: Val,
    /// The base table.
    pub table: Table,
    /// One operation stream per client.
    pub streams: Vec<Vec<Op>>,
    /// Original keys each client may delete (disjoint across clients,
    /// shuffled), so every delete names a live key.
    pub delete_keys: Vec<Vec<RowId>>,
    /// Untimed warm-up selects run on the engine before serving starts.
    pub warmup: Vec<SelectQuery>,
}

/// The keys a client deletes: alternately its oldest own insert and
/// the next of its original keys, so both merged and base rows leave.
#[derive(Debug, Clone)]
pub struct DeletePool {
    originals: Vec<RowId>,
    next_original: usize,
    inserted: std::collections::VecDeque<RowId>,
    deletes: u64,
}

impl DeletePool {
    /// Pool over this client's original keys.
    pub fn new(originals: Vec<RowId>) -> Self {
        DeletePool {
            originals,
            next_original: 0,
            inserted: Default::default(),
            deletes: 0,
        }
    }

    /// Remember a key this client inserted.
    pub fn inserted(&mut self, key: RowId) {
        self.inserted.push_back(key);
    }

    /// The next live key to delete, if any is left.
    pub fn next_key(&mut self) -> Option<RowId> {
        self.deletes += 1;
        if self.deletes.is_multiple_of(2) {
            if let Some(k) = self.inserted.pop_front() {
                return Some(k);
            }
        }
        let k = self.originals.get(self.next_original).copied();
        self.next_original += 1;
        k.or_else(|| self.inserted.pop_front())
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Explore,
        Workload::UpdateMix,
        Workload::Budget,
        Workload::ConvergedReads,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::UpdateMix => "update_mix",
            Workload::Budget => "budget",
            Workload::ConvergedReads => "converged_reads",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when the stream contains inserts and deletes.
    pub fn writes(self) -> bool {
        self.write_mix().is_some()
    }

    fn write_mix(self) -> Option<WriteMix> {
        match self {
            Workload::UpdateMix => Some(WriteMix {
                block: 10,
                inserts: 1,
                deletes: 1,
            }),
            Workload::ConvergedReads => Some(WriteMix {
                block: 100,
                inserts: 3,
                deletes: 2,
            }),
            Workload::Explore | Workload::Budget => None,
        }
    }

    /// Deployment and input sizes at `scale`.
    pub fn sizes(self, scale: Scale) -> Sizes {
        let tiny = scale == Scale::Tiny;
        let rows = if tiny { 6_000 } else { 200_000 };
        let (attrs, shards) = match self {
            Workload::Explore | Workload::UpdateMix => (5, 2),
            Workload::Budget => (QiGen::attrs_needed(BUDGET_TYPES), 2),
            Workload::ConvergedReads => (4, 1),
        };
        // Every Qi type touches two chunk maps (Bi and Ci) that grow to
        // the shard's rows, so the chunk working set is 2·types·rows per
        // shard; the budget is a sixteenth of it.
        let budget = (self == Workload::Budget).then(|| 2 * BUDGET_TYPES * rows / shards / 16);
        Sizes {
            rows,
            attrs,
            shards,
            budget,
            stream_len: if tiny { 400 } else { 60_000 },
        }
    }
}

/// `Qi` query types the budget workload cycles through.
const BUDGET_TYPES: usize = 8;
/// Consecutive queries of one `Qi` type before the next type.
const BUDGET_BATCH: usize = 10;

/// Generate the inputs of `workload` at `scale` from `seed`.
pub fn plan(workload: Workload, scale: Scale, seed: u64) -> Plan {
    let sizes = workload.sizes(scale);
    let domain = sizes.rows as Val;
    let table = random_table(sizes.attrs, sizes.rows, domain, seed);
    let client_seed = |c: usize| {
        seed.wrapping_mul(1_000_003)
            .wrapping_add(7919 * (c as u64 + 1))
    };
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(client_seed(c));
            let reads = match workload {
                Workload::Explore | Workload::UpdateMix => {
                    explore_reads(&mut rng, domain, sizes.attrs, sizes.stream_len)
                }
                Workload::Budget => qi_reads(&mut rng, domain, sizes.rows, c, sizes.stream_len),
                Workload::ConvergedReads => narrow_reads(&mut rng, domain, sizes.stream_len),
            };
            match workload.write_mix() {
                Some(mix) => with_writes(&mut rng, reads, mix, domain, sizes.attrs),
                None => reads.into_iter().map(Op::Read).collect(),
            }
        })
        .collect();
    let delete_keys = if workload.writes() {
        let mut rng = StdRng::seed_from_u64(client_seed(CLIENTS));
        (0..CLIENTS)
            .map(|c| {
                let mut keys: Vec<RowId> = (0..sizes.rows as RowId)
                    .filter(|k| *k as usize % CLIENTS == c)
                    .collect();
                keys.shuffle(&mut rng);
                keys
            })
            .collect()
    } else {
        vec![Vec::new(); CLIENTS]
    };
    let warmup = if workload == Workload::ConvergedReads {
        boundary_sweep(domain)
    } else {
        Vec::new()
    };
    Plan {
        workload,
        sizes,
        domain,
        table,
        streams,
        delete_keys,
        warmup,
    }
}

/// Three distinct attributes other than `head`, drawn at random.
fn other_attrs(rng: &mut StdRng, attrs: usize, head: usize) -> [usize; 3] {
    let mut rest: Vec<usize> = (0..attrs).filter(|&a| a != head).collect();
    rest.shuffle(rng);
    [rest[0], rest[1], rest[2]]
}

/// IDEBench sessions turned into multi-attribute selects. Each session
/// fixes a head attribute (its panel predicates), a filter on a second
/// attribute (a random half of the domain) and two result attributes:
/// narrow browsing sessions project one of them, the rest aggregate.
fn explore_reads(rng: &mut StdRng, domain: Val, attrs: usize, len: usize) -> Vec<SelectQuery> {
    let mut ide = IdeBench::new(domain, rng.next_u64());
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        for session in ide.mixed(1) {
            let head = rng.gen_range(0..attrs);
            let [filter, agg, proj] = other_attrs(rng, attrs, head);
            let lo = rng.gen_range(0..domain / 2);
            let filter_pred = RangePred::open(lo, lo + domain / 2);
            let project = matches!(session.name, "hot_browse" | "roll_up");
            for op in &session.ops {
                for p in &op.preds {
                    let mut aggs = vec![(agg, AggFunc::Count), (agg, AggFunc::Sum)];
                    let mut projs = Vec::new();
                    if project {
                        projs.push(proj);
                    } else {
                        aggs.extend([(proj, AggFunc::Min), (proj, AggFunc::Max)]);
                    }
                    out.push(SelectQuery {
                        preds: vec![(head, *p), (filter, filter_pred)],
                        disjunctive: false,
                        aggs,
                        projs,
                    });
                }
            }
        }
    }
    out.truncate(len);
    out
}

/// §4.2 `Qi` queries: `select Ci where A in range and Bi in range`,
/// types cycling in batches; client `c` starts half a cycle later so the
/// two clients work on different types.
fn qi_reads(
    rng: &mut StdRng,
    domain: Val,
    rows: usize,
    client: usize,
    len: usize,
) -> Vec<SelectQuery> {
    let mut gen = QiGen::new(domain, rows, rows / 200, BUDGET_TYPES, rng.next_u64());
    let offset = client * BUDGET_TYPES / CLIENTS;
    (0..len)
        .map(|i| {
            let q = gen.query((i / BUDGET_BATCH + offset) % BUDGET_TYPES);
            SelectQuery::project(vec![(0, q.a_pred), q.b], vec![q.c])
        })
        .collect()
}

/// Narrow random ranges (0.1% of the domain) on attribute 0 with a
/// wide filter on attribute 1 and aggregates on attributes 2 and 3.
fn narrow_reads(rng: &mut StdRng, domain: Val, len: usize) -> Vec<SelectQuery> {
    let width = (domain / 1000).max(2);
    (0..len)
        .map(|_| {
            let lo = rng.gen_range(0..domain - width);
            let flo = rng.gen_range(0..domain / 4);
            SelectQuery::aggregate(
                vec![
                    (0, RangePred::open(lo, lo + width)),
                    (1, RangePred::open(flo, flo + 3 * domain / 4)),
                ],
                vec![
                    (2, AggFunc::Count),
                    (2, AggFunc::Sum),
                    (3, AggFunc::Min),
                    (3, AggFunc::Max),
                ],
            )
        })
        .collect()
}

/// Interleave inserts of random rows and deletes of own live keys into
/// a read stream, block by block (see [`WriteMix`]).
fn with_writes(
    rng: &mut StdRng,
    reads: Vec<SelectQuery>,
    mix: WriteMix,
    domain: Val,
    attrs: usize,
) -> Vec<Op> {
    let len = reads.len();
    let mut reads = reads.into_iter();
    let mut ops = Vec::with_capacity(len);
    let mut slots: Vec<usize> = (0..mix.block).collect();
    while ops.len() < len {
        slots.shuffle(rng);
        for &slot in &slots {
            if slot < mix.inserts {
                ops.push(Op::Insert(
                    (0..attrs).map(|_| rng.gen_range(1..=domain)).collect(),
                ));
            } else if slot < mix.inserts + mix.deletes {
                ops.push(Op::Delete);
            } else if let Some(q) = reads.next() {
                ops.push(Op::Read(q));
            }
        }
    }
    ops.truncate(len);
    ops
}

/// 256 adjacent count queries over attribute 0: cracks it into pieces of
/// about rows/256, under the snapshot publication cap of rows/64.
fn boundary_sweep(domain: Val) -> Vec<SelectQuery> {
    let step = (domain / 256).max(1);
    (0..256)
        .map(|i| {
            let lo = i * step;
            SelectQuery::aggregate(
                vec![(0, RangePred::half_open(lo, lo + step))],
                vec![(0, AggFunc::Count)],
            )
        })
        .collect()
}
