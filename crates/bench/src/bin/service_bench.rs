//! Concurrent-serving benchmark: N closed-loop clients against the
//! share-nothing query service, all five engines × the
//! `workloads::Pattern` families × a shard-worker sweep.
//!
//! Each configuration starts a `Service` over a `ShardedEngine` with
//! `shards` long-lived workers, spawns `clients` closed-loop sessions
//! (issue one query, await the merged answer, repeat — the
//! think-time-free inner loop of an interactive-exploration client) and
//! reports aggregate throughput plus per-query latency percentiles
//! (p50/p95/p99) from the service's own latency capture. Per (engine,
//! pattern) the total result-row count must not depend on the worker
//! count — the sweeps are answer-checked, not just timed.
//!
//! The acceptance series lives in the emitted `BENCH_service.json`: on
//! a ≥4-core host the 4-worker aggregate throughput is expected at ≥2×
//! the 1-worker figure for the adaptive engines (this container may
//! have few cores; CI uploads the artifact for exactly that check).
//!
//! A second series (`mixed95`) is a 95/5 read-heavy mix on one
//! selection-cracking shard, swept over reader counts. Every read
//! serializes through the single shard worker, so the sweep shows what
//! the sequenced queue costs under contention (`host_threads` in the
//! artifact says how many cores the readers had).
//!
//! Usage: `cargo run --release --bin service_bench [--n=…] [--queries=…
//! per client] [--clients=…] [--shards=…] [--seed=…]`

use crackdb_bench::harness::{git_commit, write_bench_json, JsonList, JsonObj, Percentiles};
use crackdb_bench::{fmt_ms, header, time_ms, Args};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{AggFunc, RangePred, RowId, Val};
use crackdb_engine::{
    Engine, PartialEngine, PlainEngine, PresortedEngine, SelCrackEngine, SelectQuery, Service,
    ShardedEngine, SidewaysEngine,
};
use crackdb_workloads::{random_table, Pattern, RangeGen};

const PATTERNS: [(&str, Pattern); 3] = [
    ("random", Pattern::Random),
    ("sequential", Pattern::Sequential),
    (
        "skewed",
        Pattern::Skewed {
            hot_prob: 0.9,
            hot_frac: 0.2,
        },
    ),
];

fn main() {
    let args = Args::parse(200_000, 64);
    let clients = args.clients_or_auto();
    let sweep = args.shard_sweep();
    let domain: Val = args.n as Val;
    let table = random_table(4, args.n, domain, args.seed);

    println!(
        "service_bench: {} rows x 4 attrs, {} clients x {} queries each, worker sweep {:?}",
        args.n, clients, args.queries, sweep
    );
    header(&[
        "engine", "pattern", "workers", "total_ms", "qps", "p50_us", "p95_us", "p99_us",
    ]);

    let mut report = JsonList::new();
    run_engine(
        &args,
        &table,
        clients,
        &sweep,
        "MonetDB",
        &mut report,
        PlainEngine::new,
    );
    run_engine(
        &args,
        &table,
        clients,
        &sweep,
        "Presorted MonetDB",
        &mut report,
        |p| PresortedEngine::new(p, &[0, 1]),
    );
    run_engine(
        &args,
        &table,
        clients,
        &sweep,
        "Selection Cracking",
        &mut report,
        |p| SelCrackEngine::new(p, (0, domain)),
    );
    run_engine(
        &args,
        &table,
        clients,
        &sweep,
        "Sideways Cracking",
        &mut report,
        |p| SidewaysEngine::new(p, (0, domain)),
    );
    run_engine(
        &args,
        &table,
        clients,
        &sweep,
        "Partial Sideways Cracking",
        &mut report,
        |p| PartialEngine::new(p, (0, domain), None),
    );

    let mixed = run_mixed95(&args, &table);

    // The worker-scaling ratio only means something relative to the
    // host's parallelism; record it so the artifact is self-describing
    // (a 1-core container cannot show the ≥2x 4-vs-1-worker figure, and
    // the mixed95 reader-scaling series has the same caveat).
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = JsonObj::new()
        .str("bench", "service")
        .str("commit", &git_commit())
        .u64("rows", args.n as u64)
        .u64("clients", clients as u64)
        .u64("queries_per_client", args.queries as u64)
        .u64("host_threads", host_threads as u64)
        .u64_array(
            "workers",
            &sweep.iter().map(|&s| s as u64).collect::<Vec<_>>(),
        )
        .list("series", report)
        .list("mixed95", mixed);
    let path = write_bench_json("service", root).expect("write BENCH_service.json");
    println!("wrote {path}");
}

/// The per-client query stream: the §3.6 shape (selective range on the
/// cracked attribute, residual range, two aggregate attributes) with
/// the selective range's location following `pattern`. Every client
/// gets its own generator seed, so concurrent sessions explore
/// different regions — the serving-side stress the paper's single-query
/// experiments never produce.
fn client_queries(pattern: Pattern, domain: Val, queries: usize, seed: u64) -> Vec<SelectQuery> {
    let mut sel = RangeGen::with_selectivity(domain, 0.02, seed);
    let mut res = RangeGen::with_selectivity(domain, 0.5, seed + 1);
    (0..queries)
        .map(|_| {
            SelectQuery::aggregate(
                vec![(0, sel.next_pattern(pattern)), (1, res.next())],
                vec![(2, AggFunc::Max), (3, AggFunc::Sum), (3, AggFunc::Count)],
            )
        })
        .collect()
}

/// Sweep (pattern × workers) for one engine: start a service, run the
/// closed-loop clients, print one row and append one JSON entry per
/// configuration.
fn run_engine<E: Engine + Send + 'static>(
    args: &Args,
    table: &Table,
    clients: usize,
    sweep: &[usize],
    name: &str,
    report: &mut JsonList,
    make: impl Fn(Table) -> E + Sync,
) {
    for (pattern_name, pattern) in PATTERNS {
        let mut reference_rows: Option<usize> = None;
        for &workers in sweep {
            let sharded = ShardedEngine::build(table.clone(), workers, |_, part| make(part));
            let svc = Service::start(sharded).expect("service starts");
            let (ms, total_rows) = time_ms(|| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..clients)
                        .map(|c| {
                            let client = svc.client();
                            let queries = client_queries(
                                pattern,
                                args.n as Val,
                                args.queries,
                                args.seed + 100 * c as u64,
                            );
                            s.spawn(move || {
                                queries
                                    .iter()
                                    .map(|q| client.select(q).expect("query served").output.rows)
                                    .sum::<usize>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client session"))
                        .sum::<usize>()
                })
            });
            match reference_rows {
                None => reference_rows = Some(total_rows),
                Some(r) => assert_eq!(
                    r, total_rows,
                    "{name}/{pattern_name}: answers must not depend on the worker count"
                ),
            }
            let lat = Percentiles::from_nanos(svc.take_latencies());
            svc.shutdown();
            let total_queries = clients * args.queries;
            let qps = total_queries as f64 / (ms / 1e3);
            println!(
                "{name}\t{pattern_name}\t{workers}\t{}\t{qps:.1}\t{:.1}\t{:.1}\t{:.1}",
                fmt_ms(ms),
                lat.p50_ns as f64 / 1e3,
                lat.p95_ns as f64 / 1e3,
                lat.p99_ns as f64 / 1e3,
            );
            report.push(
                JsonObj::new()
                    .str("engine", name)
                    .str("pattern", pattern_name)
                    .u64("workers", workers as u64)
                    .u64("queries", total_queries as u64)
                    .u64("rows", total_rows as u64)
                    .f64("total_ms", ms)
                    .f64("qps", qps)
                    .obj("latency", lat.to_json()),
            );
        }
    }
}

/// The read-heavy series: a 95/5 mix on one selection-cracking shard,
/// readers ∈ {1, 2, 4}. One shard makes every read serialize through
/// the shard's owner worker, the worst case for the sequenced queue.
///
/// Answer checking across the reader counts needs read answers that do
/// not depend on write timing, so the 5% write mix stays invisible to
/// the reads: inserts carry values above the queried domain and deletes
/// only remove a client's own earlier inserts. Every configuration
/// executes the same read pool (strided across the readers), so total
/// result rows must be identical — the sweep is answer-checked, not
/// just timed.
fn run_mixed95(args: &Args, table: &Table) -> JsonList {
    let domain: Val = args.n as Val;
    let reads_total = (args.queries * 8).max(160);
    let pool = client_queries(Pattern::Random, domain, reads_total, args.seed + 777);
    println!("mixed95: 95/5 read-heavy mix, 1 selection-cracking shard, {reads_total} reads, readers sweep");
    header(&["readers", "total_ms", "qps", "p50_us", "p95_us", "p99_us"]);

    let mut out = JsonList::new();
    let mut reference_rows: Option<usize> = None;
    for readers in [1usize, 2, 4] {
        let sharded = ShardedEngine::build(table.clone(), 1, |_, part| {
            SelCrackEngine::new(part, (0, domain))
        });
        let svc = Service::start(sharded).expect("service starts");

        // Warm-up on one client: a uniform boundary sweep plus one pass
        // over the read pool, so the timed phase only re-visits cracked
        // bounds. Not timed, not counted.
        {
            let warm = svc.client();
            let step = (domain / 256).max(1);
            let mut lo = 0;
            while lo < domain {
                let q = SelectQuery::aggregate(
                    vec![(0, RangePred::open(lo, (lo + step).min(domain)))],
                    vec![(0, AggFunc::Count)],
                );
                warm.select(&q).expect("warm-up sweep");
                lo += step;
            }
            for q in &pool {
                warm.select(q).expect("warm-up pool pass");
            }
        }
        svc.take_latencies();

        let (ms, total_rows) = time_ms(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..readers)
                    .map(|r| {
                        let client = svc.client();
                        let pool = &pool;
                        s.spawn(move || {
                            let mut rows = 0usize;
                            let mut own: Vec<RowId> = Vec::new();
                            let mut minted: Val = 0;
                            for (i, q) in pool.iter().skip(r).step_by(readers).enumerate() {
                                if i % 19 == 18 {
                                    if own.len() >= 2 {
                                        let key = own.remove(0);
                                        client.delete(key).expect("delete own insert");
                                    } else {
                                        let v = domain + 1 + (minted % domain);
                                        minted += 1;
                                        let w = client.insert(&[v, v, v, v]).expect("insert row");
                                        own.push(w.key.expect("insert returns a key"));
                                    }
                                }
                                rows += client.select(q).expect("read served").output.rows;
                            }
                            rows
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reader session"))
                    .sum::<usize>()
            })
        });
        match reference_rows {
            None => reference_rows = Some(total_rows),
            Some(rr) => assert_eq!(
                rr, total_rows,
                "mixed95: answers must not depend on the reader count"
            ),
        }
        let lat = Percentiles::from_nanos(svc.take_latencies());
        svc.shutdown();
        let qps = reads_total as f64 / (ms / 1e3);
        println!(
            "{readers}\t{}\t{qps:.1}\t{:.1}\t{:.1}\t{:.1}",
            fmt_ms(ms),
            lat.p50_ns as f64 / 1e3,
            lat.p95_ns as f64 / 1e3,
            lat.p99_ns as f64 / 1e3,
        );
        out.push(
            JsonObj::new()
                .u64("readers", readers as u64)
                .u64("reads", reads_total as u64)
                .u64("rows", total_rows as u64)
                .f64("total_ms", ms)
                .f64("qps", qps)
                .obj("latency", lat.to_json()),
        );
    }
    out
}
