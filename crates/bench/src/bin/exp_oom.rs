//! exp_oom: partial cracking under a chunk budget a small fraction of
//! the working set (§4's storage manager).
//!
//! Two partial engines run the same seeded query/update stream over a
//! wide table (1 head + 8 tail attributes, so base + full maps are far
//! larger than the budget):
//!
//! * **drop** — tiny budget: evicted chunks are discarded and
//!   re-accessed areas are regathered from the base and recracked;
//! * **ram**  — unbudgeted in-RAM reference; its answers are the ground
//!   truth and its peak `usage()` measures the working set the budgeted
//!   run was denied.
//!
//! The binary asserts the acceptance criteria — working set >= 10x
//! budget, bit-identical answers, `usage() <= budget` after every query
//! (and so a peak usage within the budget), bounded peak RSS (VmHWM) —
//! and emits `BENCH_oom.json` with the commit and host core count.

use crackdb_bench::harness::{git_commit, write_bench_json, JsonList, JsonObj};
use crackdb_columnstore::types::{AggFunc, RangePred, RowId, Val};
use crackdb_core::PartialStats;
use crackdb_engine::{Engine, PartialEngine, SelectQuery};
use crackdb_workloads::random_table;
use std::time::Instant;

const TAILS: usize = 8;

/// Peak resident set (VmHWM) in kB from `/proc/self/status`; 0 when the
/// proc filesystem is unavailable (non-Linux), which downgrades the RSS
/// checks to report-only.
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

struct Lcg(u64);
impl Lcg {
    fn next(&mut self, m: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as i64).rem_euclid(m)
    }
}

enum Op {
    Query(SelectQuery),
    Update { row: Vec<Val>, del: RowId },
}

/// Seeded stream: range restrictions on the head attribute (17-50%
/// selectivity) with aggregates + a raw projection over random tails,
/// and a §3.5 insert+delete pair every 8th step so updates stage while
/// chunks are evicted and recreated.
fn make_ops(rows: usize, queries: usize, domain: Val, seed: u64) -> Vec<Op> {
    let mut rng = Lcg(seed);
    let mut ops = Vec::new();
    let mut next_fresh = domain;
    for i in 0..queries {
        if i % 8 == 7 {
            let mut row = vec![rng.next(domain) + 1];
            for _ in 0..TAILS {
                row.push(next_fresh + 1);
                next_fresh += 1;
            }
            ops.push(Op::Update {
                row,
                del: rng.next(rows as i64) as RowId,
            });
        }
        let lo = rng.next(domain * 5 / 6);
        let hi = lo + domain / 6 + rng.next(domain / 3);
        let agg_attr = 1 + rng.next(TAILS as i64) as usize;
        let mut q = SelectQuery::aggregate(
            vec![(0, RangePred::open(lo, hi))],
            vec![
                (agg_attr, AggFunc::Count),
                (agg_attr, AggFunc::Sum),
                (agg_attr, AggFunc::Min),
                (agg_attr, AggFunc::Max),
            ],
        );
        q.projs = vec![1 + rng.next(TAILS as i64) as usize];
        ops.push(Op::Query(q));
    }
    ops
}

/// Order-insensitive answer fingerprint: row count, every aggregate,
/// and a multiset hash of the projected values — bit-identical answers
/// without buffering whole projections across runs (which would inflate
/// the budgeted run's RSS with reference data).
#[derive(PartialEq, Eq, Debug)]
struct Fingerprint {
    rows: usize,
    aggs: Vec<Option<Val>>,
    proj_hash: (u64, u64),
}

fn fingerprint(out: &crackdb_engine::QueryOutput) -> Fingerprint {
    let (mut sum, mut sq) = (0u64, 0u64);
    for col in &out.proj_values {
        for &v in col {
            let h = (v as u64).wrapping_mul(0x9E3779B97F4A7C15);
            sum = sum.wrapping_add(h);
            sq = sq.wrapping_add(h.wrapping_mul(h | 1));
        }
    }
    Fingerprint {
        rows: out.rows,
        aggs: out.aggs.clone(),
        proj_hash: (sum, sq),
    }
}

struct RunResult {
    fingerprints: Vec<Fingerprint>,
    total_ns: u64,
    peak_usage: usize,
    stats: PartialStats,
    hwm_delta_kb: u64,
}

/// Drive the op stream, asserting `usage() <= budget` after every
/// query when a budget is set.
fn run(e: &mut PartialEngine, ops: &[Op], budget: Option<usize>) -> RunResult {
    let hwm0 = vm_hwm_kb();
    let mut fps = Vec::new();
    let mut peak = 0usize;
    let t0 = Instant::now();
    for op in ops {
        match op {
            Op::Query(q) => {
                let out = e.select(q);
                fps.push(fingerprint(&out));
                let usage = e.store().usage();
                peak = peak.max(usage);
                if let Some(b) = budget {
                    assert!(usage <= b, "usage {usage} exceeds budget {b} after a query");
                }
            }
            Op::Update { row, del } => {
                e.insert(row);
                e.delete(*del);
            }
        }
    }
    RunResult {
        fingerprints: fps,
        total_ns: t0.elapsed().as_nanos() as u64,
        peak_usage: peak,
        stats: e.store().stats_sum(),
        hwm_delta_kb: vm_hwm_kb().saturating_sub(hwm0),
    }
}

fn run_json(name: &str, r: &RunResult, budget: Option<usize>) -> JsonObj {
    JsonObj::new()
        .str("run", name)
        .u64("budget_tuples", budget.unwrap_or(0) as u64)
        .f64("total_ms", r.total_ns as f64 / 1e6)
        .u64("peak_usage_tuples", r.peak_usage as u64)
        .u64("hwm_delta_kb", r.hwm_delta_kb)
        .u64("chunks_created", r.stats.chunks_created)
        .u64("chunks_dropped", r.stats.chunks_dropped)
        .u64("tuples_fetched", r.stats.tuples_fetched)
        .f64("fetch_ms", r.stats.fetch_ns as f64 / 1e6)
}

fn main() {
    let mut n = 2_000_000usize;
    let mut queries = 80usize;
    let mut seed = 42u64;
    let mut budget = 0usize; // 0 = default n/8
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--n=") {
            n = v.parse().expect("--n takes an integer");
        } else if let Some(v) = arg.strip_prefix("--queries=") {
            queries = v.parse().expect("--queries takes an integer");
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed takes an integer");
        } else if let Some(v) = arg.strip_prefix("--budget=") {
            budget = v.parse().expect("--budget takes an integer (tuples)");
        } else {
            eprintln!("ignoring unknown argument {arg}");
        }
    }
    if budget == 0 {
        budget = (n / 8).max(64);
    }
    let domain = n as Val;
    let base_values = n * (TAILS + 1);
    println!(
        "# exp_oom: partial cracking under a chunk budget (N={n}, {TAILS} tails, \
         {queries} queries, budget {budget} tuples, base {base_values} values)"
    );

    let table = random_table(TAILS + 1, n, domain, seed);
    let ops = make_ops(n, queries, domain, seed + 1);

    // The budgeted run goes first: VmHWM is monotonic per process, so
    // its high-water mark must be recorded before the unbudgeted
    // reference materializes its O(working set) maps.
    let mut drop_engine = PartialEngine::new(table.clone(), (0, domain + 1), Some(budget));
    let dropped = run(&mut drop_engine, &ops, Some(budget));
    drop(drop_engine);

    let mut ram_engine = PartialEngine::new(table, (0, domain + 1), None);
    let ram = run(&mut ram_engine, &ops, None);
    drop(ram_engine);

    // --- Acceptance checks -------------------------------------------
    assert_eq!(
        dropped.fingerprints, ram.fingerprints,
        "budgeted answers must be bit-identical to the in-RAM run"
    );
    assert!(
        dropped.peak_usage <= budget,
        "peak usage {} exceeds the budget {budget}",
        dropped.peak_usage
    );
    let working_set = base_values + ram.peak_usage;
    let over_budget_x = working_set as f64 / budget as f64;
    assert!(
        working_set >= 10 * budget,
        "workload (base {base_values} + peak maps {}) must be >= 10x the \
         budget {budget}; got {over_budget_x:.1}x",
        ram.peak_usage
    );
    assert!(
        dropped.stats.chunks_dropped > 0,
        "the budget must force actual evictions"
    );

    // Bounded RSS: the budgeted run's HWM growth must stay far below the
    // working set the in-RAM run materializes (16 B per resident map
    // tuple: head + tail value).
    let ram_maps_kb = (ram.peak_usage * 16) as u64 / 1024;
    let rss_measured = vm_hwm_kb() > 0;
    if rss_measured && n >= 100_000 {
        assert!(
            dropped.hwm_delta_kb < ram_maps_kb,
            "budgeted-run RSS growth {} kB must stay below the in-RAM map \
             working set {} kB",
            dropped.hwm_delta_kb,
            ram_maps_kb
        );
    }

    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("# all acceptance checks passed");
    println!(
        "# working set {working_set} values = {over_budget_x:.1}x budget; \
         drop peak usage {} <= {budget}",
        dropped.peak_usage
    );
    println!(
        "# drop {:.0} ms vs ram {:.0} ms total ({nproc} host threads)",
        dropped.total_ns as f64 / 1e6,
        ram.total_ns as f64 / 1e6,
    );
    println!(
        "# RSS deltas (VmHWM): drop {} kB, ram {} kB (ram maps ~{} kB)",
        dropped.hwm_delta_kb, ram.hwm_delta_kb, ram_maps_kb
    );

    let mut runs = JsonList::new();
    runs.push(run_json("drop", &dropped, Some(budget)));
    runs.push(run_json("ram", &ram, None));
    let root = JsonObj::new()
        .str("bench", "oom")
        .str("commit", &git_commit())
        .u64("host_threads", nproc as u64)
        .u64("rows", n as u64)
        .u64("tail_attrs", TAILS as u64)
        .u64("queries", queries as u64)
        .u64("seed", seed)
        .u64("budget_tuples", budget as u64)
        .u64("base_values", base_values as u64)
        .u64("working_set_values", working_set as u64)
        .f64("working_set_over_budget_x", over_budget_x)
        .str("answers_identical", "true")
        .str("rss_measured", if rss_measured { "true" } else { "false" })
        .list("runs", runs);
    match write_bench_json("oom", root) {
        Ok(path) => println!("# wrote {path}"),
        Err(e) => eprintln!("# failed to write BENCH_oom.json: {e}"),
    }
}
