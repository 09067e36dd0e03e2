//! Update-path differential testing: the §5 insert/delete machinery
//! (ripple updates, pending-queues, tombstones, staged chunk-wise
//! merges, sorted-copy maintenance) exercised through `cargo test`
//! rather than only the exp6 benchmark binary.
//!
//! All five engines — plain, presorted, selection cracking, sideways
//! cracking and partial sideways cracking (with and without a storage
//! budget) — unsharded *and* behind `ShardedEngine` at shard counts 1,
//! 2 and 7 — receive the same interleaved insert/delete/select stream
//! and must agree with the plain baseline query by query. Partial
//! sideways cracking follows §3.5 chunk-wise (stage globally, merge on
//! access); the presorted baseline maintains its sorted copies the
//! expensive way the paper ascribes to it.

use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{AggFunc, RangePred, RowId, Val};
use crackdb_engine::{
    CrackPolicy, Engine, PartialEngine, PlainEngine, PresortedEngine, QueryOutput, SelCrackEngine,
    SelectQuery, ShardedEngine, SidewaysEngine,
};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use crackdb_workloads::random_table;

const DOMAIN: (Val, Val) = (0, 1000);
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// One step of the interleaved workload.
enum Op {
    Insert(Vec<Val>),
    Delete(RowId),
    Select(SelectQuery),
}

/// Build a deterministic interleaved stream: inserts of fresh rows,
/// deletes of both original and previously inserted rows (always live
/// ones), and selects with aggregates and projections.
fn workload(cols: usize, initial_rows: usize, steps: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(steps);
    let mut live: Vec<RowId> = (0..initial_rows as RowId).collect();
    let mut next_key = initial_rows as RowId;
    for i in 0..steps {
        match i % 4 {
            0 => {
                let row: Vec<Val> = (0..cols).map(|_| rng.gen_range(1..=DOMAIN.1)).collect();
                ops.push(Op::Insert(row));
                live.push(next_key);
                next_key += 1;
            }
            1 if live.len() > 1 => {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                ops.push(Op::Delete(victim));
            }
            _ => {
                let attr = rng.gen_range(0..cols);
                let lo = rng.gen_range(0..DOMAIN.1 - 2);
                let hi = lo + 1 + rng.gen_range(1..=DOMAIN.1 - lo);
                let agg = rng.gen_range(0..cols);
                let mut q = SelectQuery::aggregate(
                    vec![(attr, RangePred::open(lo, hi))],
                    vec![
                        (agg, AggFunc::Count),
                        (agg, AggFunc::Sum),
                        (agg, AggFunc::Min),
                        (agg, AggFunc::Max),
                        (agg, AggFunc::Avg),
                    ],
                );
                if i % 8 == 6 {
                    q.projs = vec![rng.gen_range(0..cols)];
                }
                ops.push(Op::Select(q));
            }
        }
    }
    ops
}

/// Replay `ops` on `engine`, returning the outputs of the select steps.
fn replay<E: Engine>(engine: &mut E, ops: &[Op]) -> Vec<QueryOutput> {
    let mut outs = Vec::new();
    for op in ops {
        match op {
            Op::Insert(row) => engine.insert(row),
            Op::Delete(key) => engine.delete(*key),
            Op::Select(q) => outs.push(engine.select(q)),
        }
    }
    outs
}

fn assert_same(outs: &[QueryOutput], expected: &[QueryOutput], ctx: &str) {
    assert_eq!(outs.len(), expected.len(), "{ctx}: select count");
    for (i, (o, e)) in outs.iter().zip(expected).enumerate() {
        assert_eq!(o.rows, e.rows, "{ctx}: select {i} rows");
        assert_eq!(o.aggs, e.aggs, "{ctx}: select {i} aggs");
        for (j, (got, want)) in o.proj_values.iter().zip(&e.proj_values).enumerate() {
            let mut got = got.clone();
            let mut want = want.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{ctx}: select {i} projection {j}");
        }
    }
}

/// The expected outputs come from the plain baseline, whose update path
/// (append + tombstones) is trivially correct.
fn expected_for(t: &Table, ops: &[Op]) -> Vec<QueryOutput> {
    replay(&mut PlainEngine::new(t.clone()), ops)
}

#[test]
fn unsharded_engines_agree_under_interleaved_updates() {
    let t = random_table(3, 311, DOMAIN.1, 61);
    let ops = workload(3, 311, 120, 62);
    let expected = expected_for(&t, &ops);
    assert_same(
        &replay(&mut SelCrackEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "selcrack",
    );
    assert_same(
        &replay(&mut SidewaysEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "sideways",
    );
    assert_same(
        &replay(&mut PresortedEngine::new(t.clone(), &[0, 1, 2]), &ops),
        &expected,
        "presorted",
    );
    assert_same(
        &replay(&mut PartialEngine::new(t.clone(), DOMAIN, None), &ops),
        &expected,
        "partial",
    );
}

/// §3.5 under §4 storage pressure: the partial engine must stay
/// bit-identical to the baseline while evicting chunks, and its usage
/// must respect the budget exactly after every query. Besides the
/// environment-selected policy, every static policy runs under a budget
/// tight enough that chunks are dropped, recreated and un-merged
/// constantly.
#[test]
fn partial_with_budget_agrees_and_respects_budget_under_updates() {
    let t = random_table(3, 311, DOMAIN.1, 61);
    let ops = workload(3, 311, 120, 62);
    let expected = expected_for(&t, &ops);
    let runs = [
        (150, None),
        (400, None),
        (120, Some(CrackPolicy::Standard)),
        (120, Some(CrackPolicy::stochastic())),
        (120, Some(CrackPolicy::CoarseGranular { min_piece: 16 })),
    ];
    for (budget, policy) in runs {
        let mut e = match policy {
            None => PartialEngine::new(t.clone(), DOMAIN, Some(budget)),
            Some(p) => PartialEngine::with_policy(t.clone(), DOMAIN, Some(budget), p),
        };
        let ctx = format!(
            "partial budget={budget} policy={}",
            policy.map_or("env", |p| p.label())
        );
        let mut outs = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(row) => e.insert(row),
                Op::Delete(key) => e.delete(*key),
                Op::Select(q) => {
                    outs.push(e.select(q));
                    assert!(
                        e.store().usage() <= budget,
                        "usage {} exceeds budget {budget} post-query",
                        e.store().usage()
                    );
                }
            }
        }
        assert!(
            e.store().stats_sum().chunks_dropped > 0,
            "{ctx}: the budget never evicted"
        );
        assert_same(&outs, &expected, &ctx);
    }
}

#[test]
fn sharded_plain_agrees_under_interleaved_updates() {
    let t = random_table(3, 307, DOMAIN.1, 63);
    let ops = workload(3, 307, 120, 64);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| PlainEngine::new(p));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("plain x{shards}"),
        );
    }
}

#[test]
fn sharded_selcrack_agrees_under_interleaved_updates() {
    let t = random_table(3, 305, DOMAIN.1, 65);
    let ops = workload(3, 305, 120, 66);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| SelCrackEngine::new(p, DOMAIN));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("selcrack x{shards}"),
        );
    }
}

#[test]
fn sharded_sideways_agrees_under_interleaved_updates() {
    let t = random_table(3, 303, DOMAIN.1, 67);
    let ops = workload(3, 303, 120, 68);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| SidewaysEngine::new(p, DOMAIN));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("sideways x{shards}"),
        );
    }
}

#[test]
fn sharded_partial_agrees_under_interleaved_updates() {
    let t = random_table(3, 309, DOMAIN.1, 69);
    let ops = workload(3, 309, 120, 70);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        for budget in [None, Some(200)] {
            let mut e = ShardedEngine::build(t.clone(), shards, |_, p| {
                PartialEngine::new(p, DOMAIN, budget)
            });
            assert_same(
                &replay(&mut e, &ops),
                &expected,
                &format!("partial x{shards} budget={budget:?}"),
            );
        }
    }
}

#[test]
fn sharded_presorted_agrees_under_interleaved_updates() {
    let t = random_table(3, 301, DOMAIN.1, 73);
    let ops = workload(3, 301, 120, 74);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| {
            PresortedEngine::new(p, &[0, 1, 2])
        });
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("presorted x{shards}"),
        );
    }
}

/// The exp6 shape: a burst of updates between query batches (the paper
/// interleaves X updates per 10 queries), at a heavier volume than the
/// mixed stream above — deletes target original and inserted rows alike.
#[test]
fn update_bursts_between_query_batches() {
    let cols = 3;
    let n0 = 400;
    let t = random_table(cols, n0, DOMAIN.1, 71);
    let mut rng = StdRng::seed_from_u64(72);
    let mut ops: Vec<Op> = Vec::new();
    let mut live: Vec<RowId> = (0..n0 as RowId).collect();
    let mut next_key = n0 as RowId;
    for batch in 0..6 {
        // Burst of 20 inserts + 20 deletes.
        for _ in 0..20 {
            let row: Vec<Val> = (0..cols).map(|_| rng.gen_range(1..=DOMAIN.1)).collect();
            ops.push(Op::Insert(row));
            live.push(next_key);
            next_key += 1;
        }
        for _ in 0..20 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(Op::Delete(victim));
        }
        // Batch of 10 queries.
        for q in 0..10 {
            let lo = rng.gen_range(0..DOMAIN.1 / 2);
            ops.push(Op::Select(SelectQuery::aggregate(
                vec![(q % cols, RangePred::open(lo, lo + 100 + 50 * batch))],
                vec![
                    (0, AggFunc::Count),
                    (1, AggFunc::Sum),
                    (2, AggFunc::Max),
                    (2, AggFunc::Avg),
                ],
            )));
        }
    }
    let expected = expected_for(&t, &ops);
    assert_same(
        &replay(&mut SelCrackEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "selcrack bursts",
    );
    assert_same(
        &replay(&mut SidewaysEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "sideways bursts",
    );
    assert_same(
        &replay(&mut PresortedEngine::new(t.clone(), &[0, 1, 2]), &ops),
        &expected,
        "presorted bursts",
    );
    assert_same(
        &replay(&mut PartialEngine::new(t.clone(), DOMAIN, None), &ops),
        &expected,
        "partial bursts",
    );
    assert_same(
        &replay(&mut PartialEngine::new(t.clone(), DOMAIN, Some(250)), &ops),
        &expected,
        "partial bursts (budget)",
    );
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| SidewaysEngine::new(p, DOMAIN));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("sideways bursts x{shards}"),
        );
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| {
            PartialEngine::new(p, DOMAIN, None)
        });
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("partial bursts x{shards}"),
        );
    }
}
