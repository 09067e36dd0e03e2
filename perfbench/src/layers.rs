//! Per-layer metrics of a traced run, and its span file.
//!
//! Client spans carry the request's sequence number. A shard executes
//! its requests in sequence order, so the `k`-th select span on every
//! shard belongs to the `k`-th worker-path read (by `Reply::seq`), and
//! the `k`-th write span on shard `s` to the `k`-th write routed to `s`
//! (inserts round-robin, deletes by key). That correlation gives each
//! request's spans one id and a parent chain: call → shard → path.

use crate::report::{metric, percentile, us, Metric};
use crate::serve::{CallKind, Outcome, Rec, Served};
use crate::spec::Plan;
use crate::trace::{LayerCounters, Layers, PathKind, ShardOpKind, Traced};
use crackdb::columnstore::{RowId, ShardCuts};
use crackdb::engine::{AccessPath, Engine, ServiceError};
use std::io::Write as _;

/// Per-shard op index → owning request, from the correlation.
struct Correlation {
    /// `owner[s][i]`: sequence number of shard `s`'s op `i`.
    owner: Vec<Vec<u64>>,
    /// Worker-path reads: `(rec, per-shard select op index)`.
    reads: Vec<(usize, Vec<usize>)>,
}

/// Requests that reached the shard workers, in sequence order, each
/// with the shard it ran on (`None` = every shard).
fn worker_requests(recs: &[&Rec], cuts: &ShardCuts, nshards: usize) -> Vec<(usize, Option<usize>)> {
    let mut order: Vec<(u64, usize)> = recs
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match &r.result {
            Ok((seq, Outcome::Read { worker: true, .. })) => Some((*seq, i)),
            Ok((seq, Outcome::Write { .. })) => Some((*seq, i)),
            _ => None,
        })
        .collect();
    order.sort_unstable();
    let total = cuts.total_rows();
    let mut inserts = 0usize;
    order
        .into_iter()
        .map(|(_, i)| {
            let shard = match (&recs[i].kind, &recs[i].result) {
                (CallKind::Insert, _) => {
                    inserts += 1;
                    Some((inserts - 1) % nshards)
                }
                (CallKind::Delete, Ok((_, Outcome::Write { key }))) => {
                    let k = *key as usize;
                    Some(if k < total {
                        cuts.locate(*key as RowId).0
                    } else {
                        (k - total) % nshards
                    })
                }
                _ => None,
            };
            (i, shard)
        })
        .collect()
}

fn correlate<E: Engine + AccessPath + Layers>(
    recs: &[&Rec],
    served: &Served<Traced<E>>,
) -> Result<Correlation, String> {
    let shards = served.engine.shards();
    let n = shards.len();
    let mut next = vec![0usize; n];
    let mut owner: Vec<Vec<u64>> = shards
        .iter()
        .map(|s| vec![u64::MAX; s.log.ops.len()])
        .collect();
    let mut reads = Vec::new();
    for (i, shard) in worker_requests(recs, served.engine.cuts(), n) {
        let Ok((seq, _)) = &recs[i].result else {
            continue;
        };
        let want = if shard.is_some() {
            ShardOpKind::Write
        } else {
            ShardOpKind::Select
        };
        let targets: Vec<usize> = shard.map_or_else(|| (0..n).collect(), |s| vec![s]);
        let mut idxs = Vec::with_capacity(targets.len());
        for s in targets {
            let ops = &shards[s].log.ops;
            match ops.get(next[s]) {
                Some(op) if op.kind == want => {
                    owner[s][next[s]] = *seq;
                    idxs.push(next[s]);
                    next[s] += 1;
                }
                _ => {
                    return Err(format!(
                        "shard {s} span {} does not match request seq {seq}",
                        next[s]
                    ))
                }
            }
        }
        if shard.is_none() {
            reads.push((i, idxs));
        }
    }
    if let Some(s) = (0..n).find(|&s| next[s] != shards[s].log.ops.len()) {
        return Err(format!(
            "shard {s} has {} unmatched spans",
            shards[s].log.ops.len() - next[s]
        ));
    }
    Ok(Correlation { owner, reads })
}

/// Per-layer metrics of a traced run (`untraced_qps` gives the tracing
/// overhead).
pub fn per_layer<E: Engine + AccessPath + Layers>(
    plan: &Plan,
    served: &Served<Traced<E>>,
    untraced_qps: f64,
) -> Result<Vec<Metric>, String> {
    let recs: Vec<&Rec> = served.recs.iter().flatten().collect();
    let corr = correlate(&recs, served)?;
    let shards = served.engine.shards();

    let (mut dispatch, mut merge, mut skew) = (Vec::new(), Vec::new(), Vec::new());
    for (i, idxs) in &corr.reads {
        let ops: Vec<_> = idxs
            .iter()
            .enumerate()
            .map(|(s, &k)| &shards[s].log.ops[k])
            .collect();
        let first_start = ops.iter().map(|o| o.start).min().unwrap_or(0);
        let first_end = ops.iter().map(|o| o.end).min().unwrap_or(0);
        let last_end = ops.iter().map(|o| o.end).max().unwrap_or(0);
        dispatch.push(us(first_start.saturating_sub(recs[*i].start)));
        merge.push(us(recs[*i].end.saturating_sub(last_end)));
        skew.push(us(last_end - first_end));
    }

    let (mut sel, mut write, mut ex_sel, mut ex_rec, mut ex_self) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut by_kind: Vec<(PathKind, Vec<f64>)> = [
        PathKind::Restrict,
        PathKind::Refine,
        PathKind::Fetch,
        PathKind::PartialAgg,
    ]
    .into_iter()
    .map(|k| (k, Vec::new()))
    .collect();
    let (mut busy_ns, mut calls, mut selects) = (0u64, 0usize, 0usize);
    for shard in shards {
        let log = &shard.log;
        for op in &log.ops {
            let d = op.end - op.start;
            busy_ns += d;
            if op.kind == ShardOpKind::Write {
                write.push(us(d));
                continue;
            }
            selects += 1;
            sel.push(us(d));
            ex_sel.push(us(op.exec_select_ns));
            ex_rec.push(us(op.exec_reconstruct_ns));
            let span_calls = &log.calls[op.first_call..op.end_call];
            calls += span_calls.len();
            let path_ns: u64 = span_calls.iter().map(|c| c.end - c.start).sum();
            ex_self.push(us(d.saturating_sub(path_ns)));
            for c in span_calls {
                if let Some((_, v)) = by_kind.iter_mut().find(|(k, _)| *k == c.kind) {
                    v.push(us(c.end - c.start));
                }
            }
        }
    }

    let mut counters = LayerCounters::default();
    for shard in shards {
        counters.add(&shard.inner().counters(plan.sizes.attrs));
    }
    let reads_ok: Vec<(&Rec, usize)> = recs
        .iter()
        .filter_map(|r| match &r.result {
            Ok((_, Outcome::Read { answer, .. })) => Some((*r, answer.rows)),
            _ => None,
        })
        .collect();
    let nreads = reads_ok.len().max(1) as f64;
    let result_rows: usize = reads_ok.iter().map(|(_, rows)| rows).sum();
    let rejected = recs
        .iter()
        .filter(|r| matches!(r.result, Err(ServiceError::Overloaded { .. })))
        .count();
    let peak_usage = shards.iter().map(|s| s.log.peak_usage).max().unwrap_or(0);
    let publish_ns: u64 = shards.iter().map(|s| s.log.publish_ns).sum();
    let wall_s = served.wall_ns as f64 / 1e9;
    let traced_qps = recs.len() as f64 / wall_s;
    let p = &counters.partial;
    let mut path = |k: PathKind| {
        let v = &mut by_kind
            .iter_mut()
            .find(|(x, _)| *x == k)
            .expect("tracked kind")
            .1;
        percentile(v, 50.0)
    };

    Ok(vec![
        metric(
            "service.dispatch_us.p50",
            percentile(&mut dispatch, 50.0),
            "us",
        ),
        metric(
            "service.dispatch_us.p99",
            percentile(&mut dispatch, 99.0),
            "us",
        ),
        metric("service.merge_us.p50", percentile(&mut merge, 50.0), "us"),
        metric(
            "service.fanout_skew_us.p99",
            percentile(&mut skew, 99.0),
            "us",
        ),
        metric(
            "service.snapshot_hit_pct",
            100.0 * served.snapshot_hits as f64 / nreads,
            "%",
        ),
        metric("service.rejected", rejected as f64, "count"),
        metric("shard.select_us.p50", percentile(&mut sel, 50.0), "us"),
        metric("shard.select_us.p99", percentile(&mut sel, 99.0), "us"),
        metric(
            "shard.busy_pct",
            100.0 * busy_ns as f64 / (shards.len() as f64 * served.wall_ns as f64),
            "%",
        ),
        metric("shard.write_us.p50", percentile(&mut write, 50.0), "us"),
        metric(
            "shard.publish_pct",
            100.0 * publish_ns as f64 / (shards.len() as f64 * served.wall_ns as f64),
            "%",
        ),
        metric("exec.select_us.p50", percentile(&mut ex_sel, 50.0), "us"),
        metric(
            "exec.reconstruct_us.p50",
            percentile(&mut ex_rec, 50.0),
            "us",
        ),
        metric("exec.self_us.p50", percentile(&mut ex_self, 50.0), "us"),
        metric("path.restrict_us.p50", path(PathKind::Restrict), "us"),
        metric("path.refine_us.p50", path(PathKind::Refine), "us"),
        metric("path.fetch_us.p50", path(PathKind::Fetch), "us"),
        metric("path.partial_agg_us.p50", path(PathKind::PartialAgg), "us"),
        metric(
            "path.calls_per_query",
            calls as f64 / selects.max(1) as f64,
            "count",
        ),
        metric(
            "cracking.touched_per_query",
            counters.touched as f64 / nreads,
            "tuples",
        ),
        metric("cracking.boundaries", counters.boundaries as f64, "count"),
        metric(
            "cracking.policy_switches",
            served.policy_switches as f64,
            "count",
        ),
        metric("maps.created", counters.maps_created as f64, "count"),
        metric(
            "maps.entries_replayed",
            counters.maps_entries_replayed as f64,
            "count",
        ),
        metric(
            "maps.query_cracks",
            counters.maps_query_cracks as f64,
            "count",
        ),
        metric(
            "maps.staged_pending",
            counters.staged_pending as f64,
            "count",
        ),
        metric(
            "maps.updates_merged",
            counters.updates_merged as f64,
            "count",
        ),
        metric("partial.chunks_created", p.chunks_created as f64, "count"),
        metric("partial.chunks_dropped", p.chunks_dropped as f64, "count"),
        metric(
            "partial.tuples_fetched_per_result_row",
            if result_rows == 0 {
                0.0
            } else {
                p.tuples_fetched as f64 / result_rows as f64
            },
            "tuples/row",
        ),
        metric("partial.fetch_ms", p.fetch_ns as f64 / 1e6, "ms"),
        metric(
            "partial.entries_replayed",
            p.entries_replayed as f64,
            "count",
        ),
        metric(
            "partial.usage_pct",
            plan.sizes
                .budget
                .map_or(0.0, |b| 100.0 * peak_usage as f64 / b as f64),
            "%",
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (untraced_qps - traced_qps) / untraced_qps,
            "%",
        ),
        metric("trace.qps", traced_qps, "ops/s"),
    ])
}

/// Write the run's spans, one per line:
/// `request  span  parent  name  start_ns  end_ns` (tab-separated;
/// `request` is the sequence number, `parent` 0 for a client call).
pub fn write_spans<E: Engine + AccessPath + Layers>(
    path: &std::path::Path,
    served: &Served<Traced<E>>,
) -> Result<usize, String> {
    let recs: Vec<&Rec> = served.recs.iter().flatten().collect();
    let corr = correlate(&recs, served)?;
    let shards = served.engine.shards();
    let mut out = Vec::new();
    let mut id = 0u64;
    let mut call_span = std::collections::HashMap::new();
    for r in &recs {
        let Ok((seq, outcome)) = &r.result else {
            continue;
        };
        id += 1;
        call_span.insert(*seq, id);
        let name = match (r.kind, outcome) {
            (CallKind::Read, Outcome::Read { worker: false, .. }) => "service.select.snapshot",
            (CallKind::Read, _) => "service.select",
            (CallKind::Insert, _) => "service.insert",
            (CallKind::Delete, _) => "service.delete",
        };
        let _ = writeln!(out, "{seq}\t{id}\t0\t{name}\t{}\t{}", r.start, r.end);
    }
    for (s, shard) in shards.iter().enumerate() {
        for (k, op) in shard.log.ops.iter().enumerate() {
            let seq = corr.owner[s][k];
            let parent = call_span.get(&seq).copied().unwrap_or(0);
            id += 1;
            let op_id = id;
            let name = match op.kind {
                ShardOpKind::Select => "shard.select",
                ShardOpKind::Write => "shard.write",
            };
            let _ = writeln!(
                out,
                "{seq}\t{op_id}\t{parent}\t{name}/{s}\t{}\t{}",
                op.start, op.end
            );
            for c in &shard.log.calls[op.first_call..op.end_call] {
                id += 1;
                let _ = writeln!(
                    out,
                    "{seq}\t{id}\t{op_id}\t{}\t{}\t{}",
                    c.kind.name(),
                    c.start,
                    c.end
                );
            }
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(id as usize)
}
