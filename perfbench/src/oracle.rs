//! The answer oracle: a naive evaluator over the generated rows that
//! shares no code with the engines.
//!
//! Candidates come from a copy of the original rows sorted by the first
//! predicate's attribute (binary search for the range), plus a scan of
//! the rows inserted since; every candidate is then checked against
//! every predicate and folded row by row. Projections are compared through an
//! order-independent digest, because served projections arrive in shard
//! order rather than row order.

use crackdb::columnstore::{AggFunc, Bound, RowId, Table, Val};
use crackdb::engine::{QueryOutput, SelectQuery};

/// What a read must return: row count, aggregates and one
/// `(count, digest)` pair per projected attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Qualifying rows.
    pub rows: usize,
    /// Aggregates in request order.
    pub aggs: Vec<Option<Val>>,
    /// Per projection: value count and order-independent digest.
    pub projs: Vec<(usize, u64)>,
}

/// splitmix64 finalizer: the per-value hash the projection digest sums.
fn mix(v: Val) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn digest(values: &[Val]) -> (usize, u64) {
    let sum = values.iter().fold(0u64, |acc, &v| acc.wrapping_add(mix(v)));
    (values.len(), sum)
}

impl Answer {
    /// The comparable part of a served result.
    pub fn of(out: &QueryOutput) -> Answer {
        Answer {
            rows: out.rows,
            aggs: out.aggs.clone(),
            projs: out.proj_values.iter().map(|v| digest(v)).collect(),
        }
    }
}

/// The generated rows, column-major and keyed by row id, plus one
/// row-major copy of the original rows sorted by each head attribute.
/// The sorted copies are never updated: deletes clear `live`, and rows
/// inserted later are scanned on every query.
#[derive(Clone)]
pub struct Oracle {
    cols: Vec<Vec<Val>>,
    live: Vec<bool>,
    /// Rows covered by the sorted copies (the original table).
    base_rows: usize,
    sorted: Vec<Option<SortedCopy>>,
}

/// The original rows ordered by one attribute.
#[derive(Clone)]
struct SortedCopy {
    /// `(value, key)` in ascending order.
    keys: Vec<(Val, RowId)>,
    /// Row `i` of the order is `rows[i * width..(i + 1) * width]`.
    rows: Vec<Val>,
}

/// Accumulators of one answer.
struct Fold<'q> {
    q: &'q SelectQuery,
    rows: usize,
    count: Vec<i64>,
    sum: Vec<i64>,
    min: Vec<Option<Val>>,
    max: Vec<Option<Val>>,
    projs: Vec<Vec<Val>>,
}

impl<'q> Fold<'q> {
    fn new(q: &'q SelectQuery) -> Self {
        let n = q.aggs.len();
        Fold {
            q,
            rows: 0,
            count: vec![0; n],
            sum: vec![0; n],
            min: vec![None; n],
            max: vec![None; n],
            projs: vec![Vec::new(); q.projs.len()],
        }
    }

    /// Fold one row (`value(attr)`) if it satisfies every predicate.
    #[inline]
    fn visit(&mut self, value: impl Fn(usize) -> Val) {
        if !self.q.preds.iter().all(|(a, p)| p.matches(value(*a))) {
            return;
        }
        self.rows += 1;
        for (i, &(a, _)) in self.q.aggs.iter().enumerate() {
            let v = value(a);
            self.count[i] += 1;
            self.sum[i] += v;
            self.min[i] = Some(self.min[i].map_or(v, |m| m.min(v)));
            self.max[i] = Some(self.max[i].map_or(v, |m| m.max(v)));
        }
        for (i, &a) in self.q.projs.iter().enumerate() {
            self.projs[i].push(value(a));
        }
    }

    fn finish(self) -> Answer {
        let aggs = self
            .q
            .aggs
            .iter()
            .enumerate()
            .map(|(i, &(_, f))| match f {
                AggFunc::Count => Some(self.count[i]),
                AggFunc::Sum => Some(self.sum[i]),
                AggFunc::Min => self.min[i],
                AggFunc::Max => self.max[i],
                AggFunc::Avg => (self.count[i] > 0).then(|| self.sum[i] / self.count[i]),
            })
            .collect();
        Answer {
            rows: self.rows,
            aggs,
            projs: self.projs.iter().map(|v| digest(v)).collect(),
        }
    }
}

/// First position in `keys` not below the predicate's lower bound.
fn lower_pos(keys: &[(Val, RowId)], lo: Option<Bound>) -> usize {
    match lo {
        None => 0,
        Some(b) if b.inclusive => keys.partition_point(|&(v, _)| v < b.value),
        Some(b) => keys.partition_point(|&(v, _)| v <= b.value),
    }
}

/// First position in `keys` above the predicate's upper bound.
fn upper_pos(keys: &[(Val, RowId)], hi: Option<Bound>) -> usize {
    match hi {
        None => keys.len(),
        Some(b) if b.inclusive => keys.partition_point(|&(v, _)| v <= b.value),
        Some(b) => keys.partition_point(|&(v, _)| v < b.value),
    }
}

impl Oracle {
    /// Copy `table` and build a sorted copy for each attribute in
    /// `heads`.
    pub fn new(table: &Table, heads: &[usize]) -> Oracle {
        let cols: Vec<Vec<Val>> = (0..table.num_columns())
            .map(|a| table.column(a).values().to_vec())
            .collect();
        let sorted = (0..cols.len())
            .map(|a| {
                heads.contains(&a).then(|| {
                    let mut keys: Vec<(Val, RowId)> = cols[a]
                        .iter()
                        .enumerate()
                        .map(|(k, &v)| (v, k as RowId))
                        .collect();
                    keys.sort_unstable();
                    let rows = keys
                        .iter()
                        .flat_map(|&(_, k)| cols.iter().map(move |c| c[k as usize]))
                        .collect();
                    SortedCopy { keys, rows }
                })
            })
            .collect();
        Oracle {
            live: vec![true; table.num_rows()],
            base_rows: table.num_rows(),
            cols,
            sorted,
        }
    }

    /// Append a row; returns its key (the next key in insertion order).
    pub fn insert(&mut self, row: &[Val]) -> RowId {
        let key = self.live.len() as RowId;
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.live.push(true);
        key
    }

    /// Delete a row; `false` when the key does not name a live row.
    pub fn delete(&mut self, key: RowId) -> bool {
        match self.live.get_mut(key as usize) {
            Some(l) if *l => {
                *l = false;
                true
            }
            _ => false,
        }
    }

    /// The expected answer of a conjunctive select.
    pub fn answer(&self, q: &SelectQuery) -> Answer {
        assert!(
            !q.disjunctive,
            "the benchmark issues conjunctive selects only"
        );
        let mut fold = Fold::new(q);
        let head = q
            .preds
            .first()
            .and_then(|(a, p)| Some((self.sorted[*a].as_ref()?, p)));
        let scan_from = match head {
            Some((copy, p)) => {
                let width = self.cols.len();
                let (lo, hi) = (lower_pos(&copy.keys, p.lo), upper_pos(&copy.keys, p.hi));
                for i in lo..hi.max(lo) {
                    if self.live[copy.keys[i].1 as usize] {
                        let row = &copy.rows[i * width..(i + 1) * width];
                        fold.visit(|a| row[a]);
                    }
                }
                self.base_rows
            }
            None => 0,
        };
        for k in (scan_from..self.live.len()).filter(|&k| self.live[k]) {
            fold.visit(|a| self.cols[a][k]);
        }
        fold.finish()
    }
}
