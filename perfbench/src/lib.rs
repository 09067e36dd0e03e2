//! The repository benchmark: the served stack (`Client` → `Service` →
//! `ShardedEngine` → engine) under closed-loop load on four workloads,
//! with every answer checked, end-to-end metrics from an untraced run
//! and per-layer metrics from a separate traced run.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run and compare.

pub mod check;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod spec;
pub mod trace;

use crate::check::{check, Checked};
use crate::report::{medians, metric, peak_rss_mb, percentile, us, Metric};
use crate::serve::{build_timed, serve, CallKind, Rec, Served};
use crate::spec::{Plan, Scale, Workload, CLIENTS};
use crate::trace::{Layers, ShardLog, Traced};
use crackdb::columnstore::Table;
use crackdb::engine::{
    AccessPath, Engine, PartialEngine, SelCrackEngine, ShardedEngine, SidewaysEngine,
};
use std::path::PathBuf;
use std::time::Duration;

/// Fresh-engine episodes kept per timed phase. Each episode builds the
/// engines, starts the service and serves for `seconds / EPISODES`.
/// Rates and sizes are medians over the kept episodes; latency
/// percentiles pool their samples.
pub const EPISODES: usize = 5;

/// An episode during which other guests of the host stole more than
/// this share of its CPU time (`/proc/stat` steal) is run again: on a
/// shared 2-core host such periods last seconds to tens of seconds and
/// cut throughput by up to half, whatever the program does.
pub const MAX_STEAL_PCT: f64 = 1.5;

/// Episodes attempted per phase at most; when too few were undisturbed,
/// the `EPISODES` least disturbed are kept.
pub const MAX_ATTEMPTS: usize = 8;

/// Pause before the attempt that follows a disturbed episode, so that it
/// can fall outside the disturbance, and the most a phase pauses in
/// total. With `MAX_ATTEMPTS`, the timed phase of a 10-second run takes
/// at most 26 seconds.
const BACKOFF: Duration = Duration::from_millis(2500);
const MAX_BACKOFF: Duration = Duration::from_secs(10);

/// One attempted episode.
struct Attempt<T> {
    /// Host CPU steal during the episode, in percent.
    steal: f64,
    /// One of the `EPISODES` whose metrics are reported.
    kept: bool,
    out: T,
}

/// Run episodes until `EPISODES` of them saw at most `MAX_STEAL_PCT`
/// steal, or `MAX_ATTEMPTS` ran, and keep the `EPISODES` least
/// disturbed. Every attempt is returned: all are answer-checked.
fn run_episodes<T>(
    mut episode: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<Attempt<T>>, String> {
    let mut done: Vec<Attempt<T>> = Vec::new();
    let mut paused = Duration::ZERO;
    while done.len() < MAX_ATTEMPTS
        && done.iter().filter(|a| a.steal <= MAX_STEAL_PCT).count() < EPISODES
    {
        if done.last().is_some_and(|a| a.steal > MAX_STEAL_PCT) && paused < MAX_BACKOFF {
            std::thread::sleep(BACKOFF);
            paused += BACKOFF;
        }
        let ticks = report::cpu_ticks();
        let out = episode(done.len())?;
        let steal = report::steal_pct(ticks, report::cpu_ticks());
        done.push(Attempt {
            steal,
            kept: false,
            out,
        });
    }
    let mut order: Vec<usize> = (0..done.len()).collect();
    order.sort_by(|&a, &b| done[a].steal.total_cmp(&done[b].steal));
    for &i in order.iter().take(EPISODES) {
        done[i].kept = true;
    }
    Ok(done)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of each timed phase.
    pub seconds: f64,
    /// Also do the traced run and report per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Where the traced run writes its spans (`None`: not written).
    pub span_file: Option<PathBuf>,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// Configuration and provenance, as `(key, JSON value)`.
    pub provenance: Vec<(&'static str, String)>,
    /// The end-to-end metrics of the untraced run.
    pub end_to_end: Vec<Metric>,
    /// Reported alongside: write latencies, sample counts, failure share.
    pub extra: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty without tracing).
    pub per_layer: Vec<Metric>,
    /// Answer-check verdict over every timed call, both phases.
    pub checked: Checked,
    /// Human-readable remarks (first mismatch, span file).
    pub notes: Vec<String>,
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<RunOutput, String> {
    let plan = spec::plan(opts.workload, opts.scale, opts.seed);
    let domain = (0, plan.domain);
    match opts.workload {
        Workload::Explore | Workload::UpdateMix => {
            measure(&plan, opts, |t| SidewaysEngine::new(t, domain))
        }
        Workload::Budget => {
            let budget = plan.sizes.budget;
            measure(&plan, opts, |t| PartialEngine::new(t, domain, budget))
        }
        Workload::ConvergedReads => measure(&plan, opts, |t| SelCrackEngine::new(t, domain)),
    }
}

/// The commit of the checkout the benchmark was built in, when it is a
/// git work tree.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".to_string()
    } else {
        id.to_string()
    }
}

fn provenance(plan: &Plan, opts: &Options) -> Vec<(&'static str, String)> {
    let s = &plan.sizes;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", report::json_str(plan.workload.name())),
        ("commit", report::json_str(&commit())),
        ("nproc", nproc.to_string()),
        ("rows", s.rows.to_string()),
        ("attrs", s.attrs.to_string()),
        ("shards", s.shards.to_string()),
        ("clients", CLIENTS.to_string()),
        (
            "budget_tuples_per_shard",
            s.budget.map_or("null".to_string(), |b| b.to_string()),
        ),
        ("seed", opts.seed.to_string()),
        ("seconds", report::json_num(opts.seconds)),
        ("trace", u8::from(opts.trace).to_string()),
        ("episodes", EPISODES.to_string()),
        ("max_steal_pct", report::json_num(MAX_STEAL_PCT)),
        ("warmup_selects", plan.warmup.len().to_string()),
    ]
}

/// Per-episode metrics: `setup_s`, `qps`, `aux_tuples_per_row`.
fn episode_metrics<E: Engine + Send>(plan: &Plan, served: &Served<E>, setup_s: f64) -> [f64; 3] {
    let ok: Vec<&Rec> = served
        .recs
        .iter()
        .flatten()
        .filter(|r| r.result.is_ok())
        .collect();
    let count = |k: CallKind| ok.iter().filter(|r| r.kind == k).count();
    let live_rows = plan.sizes.rows + count(CallKind::Insert) - count(CallKind::Delete);
    [
        setup_s,
        ok.len() as f64 / (served.wall_ns as f64 / 1e9),
        served.engine.aux_tuples() as f64 / live_rows as f64,
    ]
}

/// Latencies (µs) of the successful calls of `kinds` in `recs`.
fn latencies<'a>(recs: impl Iterator<Item = &'a Rec>, kinds: &[CallKind]) -> Vec<f64> {
    recs.filter(|r| r.result.is_ok() && kinds.contains(&r.kind))
        .map(|r| us(r.latency_ns()))
        .collect()
}

/// Median of one column of per-episode values.
fn median_of(rows: &[[f64; 3]], col: usize) -> f64 {
    let mut v: Vec<f64> = rows.iter().map(|r| r[col]).collect();
    percentile(&mut v, 50.0)
}

/// Drop what a traced engine logged before serving (the warm-up).
fn clear_logs<E: Engine + AccessPath + Layers>(
    engine: ShardedEngine<Traced<E>>,
) -> ShardedEngine<Traced<E>> {
    let (cuts, mut shards, inserted) = engine.into_parts();
    for s in &mut shards {
        s.log = ShardLog::default();
    }
    ShardedEngine::reassemble(cuts, shards, inserted)
}

fn measure<E>(plan: &Plan, opts: &Options, make: impl Fn(Table) -> E) -> Result<RunOutput, String>
where
    E: Engine + AccessPath + Layers + Send + 'static,
{
    let seconds = opts.seconds / EPISODES as f64;
    // Each attempt starts its clients at another part of their streams,
    // so a run's episodes average over different operation sequences.
    let first = |attempt: usize| attempt * plan.sizes.stream_len / MAX_ATTEMPTS;
    let mut rss_mb = 0.0;
    let untraced = run_episodes(|attempt| {
        let (engine, built) = build_timed(plan, &make);
        let served = serve(plan, engine, seconds, first(attempt));
        if attempt == 0 {
            // The first episode's high-water mark: later attempts only
            // add the client records kept for the answer check.
            rss_mb = peak_rss_mb();
        }
        Ok((
            episode_metrics(plan, &served, built + served.start_s),
            served.recs,
        ))
    })?;
    let kept: Vec<_> = untraced.iter().filter(|a| a.kept).collect();
    let per_episode: Vec<[f64; 3]> = kept.iter().map(|a| a.out.0).collect();
    let kept_recs = || kept.iter().flat_map(|a| a.out.1.iter().flatten());
    let mut reads = latencies(kept_recs(), &[CallKind::Read]);
    let mut writes = latencies(kept_recs(), &[CallKind::Insert, CallKind::Delete]);
    let end_to_end = vec![
        metric("setup_s", median_of(&per_episode, 0), "s"),
        metric("qps", median_of(&per_episode, 1), "ops/s"),
        metric("query_p50_us", percentile(&mut reads, 50.0), "us"),
        metric("query_p99_us", percentile(&mut reads, 99.0), "us"),
        metric(
            "aux_tuples_per_row",
            median_of(&per_episode, 2),
            "tuples/row",
        ),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ];
    let mut extra = vec![
        metric("query_samples", reads.len() as f64, "count"),
        metric("write_samples", writes.len() as f64, "count"),
    ];
    if !writes.is_empty() {
        extra.push(metric("write_p50_us", percentile(&mut writes, 50.0), "us"));
        extra.push(metric("write_p99_us", percentile(&mut writes, 99.0), "us"));
    }
    let mut steal: Vec<f64> = kept.iter().map(|a| a.steal).collect();
    extra.push(metric("host_steal_pct", percentile(&mut steal, 50.0), "%"));
    extra.push(metric(
        "episodes_rerun",
        (untraced.len() - EPISODES) as f64,
        "count",
    ));
    let untraced_qps = end_to_end[1].value;
    let mut runs: Vec<Vec<Vec<Rec>>> = untraced.into_iter().map(|a| a.out.1).collect();

    let mut notes = Vec::new();
    let mut per_layer = Vec::new();
    if opts.trace {
        let traced_make = |t: Table| Traced::new(make(t));
        let traced = run_episodes(|attempt| {
            let (engine, _) = build_timed(plan, &traced_make);
            let served = serve(plan, clear_logs(engine), seconds, first(attempt));
            let layers = layers::per_layer(plan, &served, untraced_qps)?;
            if let (0, Some(path)) = (attempt, &opts.span_file) {
                let spans = layers::write_spans(path, &served)?;
                notes.push(format!(
                    "wrote {spans} spans of the first episode to {}",
                    path.display()
                ));
            }
            Ok((layers, served.recs))
        })?;
        let kept: Vec<&[Metric]> = traced
            .iter()
            .filter(|a| a.kept)
            .map(|a| &a.out.0[..])
            .collect();
        per_layer = medians(&kept);
        runs.extend(traced.into_iter().map(|a| a.out.1));
    }

    let checked = check(plan, &runs);
    extra.push(metric(
        "failed_pct",
        100.0 * checked.failed() as f64 / checked.attempted.max(1) as f64,
        "%",
    ));
    if let Some(m) = &checked.first_mismatch {
        notes.push(format!("first mismatch: {m}"));
    }
    Ok(RunOutput {
        provenance: provenance(plan, opts),
        end_to_end,
        extra,
        per_layer,
        checked,
        notes,
    })
}
