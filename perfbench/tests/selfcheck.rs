//! Workload self-check: each workload, run at a tiny scale, exercises
//! the layer it exists for and bypasses the ones it should, emits
//! exactly the metrics `BENCHMARK.json` names, and the answer check
//! catches a wrong answer.

use perfbench::check::check;
use perfbench::oracle::{Answer, Oracle};
use perfbench::report::Metric;
use perfbench::serve::{build, serve, Outcome};
use perfbench::spec::{plan, Scale, Workload};
use perfbench::{run, Options, RunOutput};

use crackdb::columnstore::{AggFunc, Column, RangePred, Table};
use crackdb::engine::{SelectQuery, SidewaysEngine};

fn traced(workload: Workload) -> RunOutput {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.5,
        trace: true,
        scale: Scale::Tiny,
        span_file: None,
    })
    .expect("tiny run completes")
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} emitted"))
        .value
}

#[test]
fn each_workload_exercises_its_layer_and_bypasses_the_others() {
    for w in Workload::ALL {
        let out = traced(w);
        let name = w.name();
        assert_eq!(out.checked.failed(), 0, "{name}: {:?}", out.checked);
        assert!(out.checked.attempted > 0, "{name}: no calls");

        let e2e: Vec<&str> = out.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(e2e, listed("end_to_end"), "{name}: end-to-end metrics");
        for m in &out.end_to_end {
            assert!(m.value > 0.0, "{name}: {} must never be 0", m.name);
        }
        let layers: Vec<&str> = out.per_layer.iter().map(|m| m.name).collect();
        assert_eq!(layers, listed("per_layer"), "{name}: per-layer metrics");

        let get = |n: &str| value(&out.per_layer, n);
        assert_eq!(
            get("partial.chunks_dropped") > 0.0,
            w == Workload::Budget,
            "{name}: chunk eviction only under the budget"
        );
        assert_eq!(
            get("service.snapshot_hit_pct") > 0.0,
            w == Workload::ConvergedReads,
            "{name}: snapshot reads only on converged_reads"
        );
        assert_eq!(
            get("maps.updates_merged") > 0.0,
            w == Workload::UpdateMix,
            "{name}: map update merges only on update_mix"
        );
        assert_eq!(
            get("maps.created") > 0.0,
            matches!(w, Workload::Explore | Workload::UpdateMix),
            "{name}: full maps only on the sideways workloads"
        );
        assert_eq!(
            get("cracking.policy_switches"),
            0.0,
            "{name}: default policy"
        );
        assert_eq!(
            get("service.rejected"),
            0.0,
            "{name}: closed loop never overloads"
        );
        assert!(
            get("shard.select_us.p50") > 0.0,
            "{name}: shard spans recorded"
        );
        assert!(
            get("path.calls_per_query") >= 1.0,
            "{name}: path calls recorded"
        );
        assert_eq!(
            value(&out.extra, "write_samples") > 0.0,
            w.writes(),
            "{name}: writes only where the mix has them"
        );
    }
}

#[test]
fn the_answer_check_catches_a_wrong_answer() {
    let p = plan(Workload::Explore, Scale::Tiny, 3);
    let domain = (0, p.domain);
    let engine = build(&p, p.table.clone(), &|t| SidewaysEngine::new(t, domain));
    let mut episodes = vec![serve(&p, engine, 0.2, 0).recs];
    assert_eq!(check(&p, &episodes).failed(), 0);
    let rec = episodes[0][0]
        .iter_mut()
        .find(|r| r.result.is_ok())
        .expect("a served read");
    if let Ok((_, Outcome::Read { answer, .. })) = &mut rec.result {
        answer.rows += 1;
    }
    let checked = check(&p, &episodes);
    assert_eq!(checked.mismatches, 1);
    assert!(checked.first_mismatch.is_some());
}

#[test]
fn the_oracle_matches_a_plain_scan_under_updates() {
    let mut t = Table::new();
    t.add_column("a", Column::new((0..500).map(|i| (i * 37) % 101).collect()));
    t.add_column("b", Column::new((0..500).map(|i| (i * 11) % 53).collect()));
    let mut rows: Vec<Option<[i64; 2]>> = (0..500)
        .map(|i| Some([(i * 37) % 101, (i * 11) % 53]))
        .collect();
    let mut oracle = Oracle::new(&t, &[0]);
    for k in (0..500).step_by(7) {
        assert!(oracle.delete(k));
        rows[k as usize] = None;
    }
    assert!(!oracle.delete(0), "a deleted key is not live");
    for i in 0..40 {
        let row = [i * 3 % 101, i % 53];
        assert_eq!(oracle.insert(&row) as usize, rows.len());
        rows.push(Some(row));
    }
    for (lo, hi) in [(10, 20), (0, 101), (50, 51), (-5, 3), (30, 30)] {
        for pred in [RangePred::open(lo, hi), RangePred::closed(lo, hi)] {
            let q = SelectQuery::aggregate(
                vec![(0, pred), (1, RangePred::open(5, 40))],
                vec![(1, AggFunc::Count), (1, AggFunc::Sum), (0, AggFunc::Min)],
            );
            let hits: Vec<[i64; 2]> = rows
                .iter()
                .flatten()
                .filter(|r| pred.matches(r[0]) && RangePred::open(5, 40).matches(r[1]))
                .copied()
                .collect();
            let want = Answer {
                rows: hits.len(),
                aggs: vec![
                    Some(hits.len() as i64),
                    Some(hits.iter().map(|r| r[1]).sum()),
                    hits.iter().map(|r| r[0]).min(),
                ],
                projs: Vec::new(),
            };
            assert_eq!(oracle.answer(&q), want, "{pred:?}");
        }
    }
}

/// Metric names listed in one section of the repository's
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}
