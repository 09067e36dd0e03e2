//! Answer checking, outside the timed phase.
//!
//! Read-only workloads compare every answer with the oracle's answer to
//! the same query over the generated table. Write workloads replay the
//! service's committed order (`Reply::seq`) on the oracle, one call at a
//! time, and compare each read at its position and each insert's key.

use crate::oracle::{Answer, Oracle};
use crate::serve::{CallKind, Outcome, Rec};
use crate::spec::{Op, Plan};
use std::collections::HashMap;

/// Verdict over all calls of a run.
#[derive(Debug, Default)]
pub struct Checked {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned a `ServiceError`.
    pub service_errors: u64,
    /// Calls whose answer (or insert key, or delete) was wrong.
    pub mismatches: u64,
    /// A description of the first mismatch.
    pub first_mismatch: Option<String>,
}

impl Checked {
    /// Calls that failed either way.
    pub fn failed(&self) -> u64 {
        self.service_errors + self.mismatches
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }
}

/// Attributes that head a read: the oracle indexes these.
fn head_attrs(plan: &Plan) -> Vec<usize> {
    let mut attrs: Vec<usize> = plan
        .streams
        .iter()
        .flatten()
        .filter_map(|op| match op {
            Op::Read(q) => q.preds.first().map(|p| p.0),
            _ => None,
        })
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs
}

/// Check every call of every episode against the oracle. Each episode
/// served a fresh engine built from the generated table, so write
/// episodes each replay on a fresh copy of the oracle.
pub fn check(plan: &Plan, episodes: &[Vec<Vec<Rec>>]) -> Checked {
    let recs = || episodes.iter().flatten().flatten();
    let mut out = Checked {
        attempted: recs().count() as u64,
        service_errors: recs().filter(|r| r.result.is_err()).count() as u64,
        ..Checked::default()
    };
    let oracle = Oracle::new(&plan.table, &head_attrs(plan));
    if plan.workload.writes() {
        for recs in episodes {
            replay(plan, recs, &mut oracle.clone(), &mut out);
        }
    } else {
        compare_reads(plan, episodes, &oracle, &mut out);
    }
    out
}

fn read_answer(rec: &Rec) -> Option<(u64, &Answer)> {
    match &rec.result {
        Ok((seq, Outcome::Read { answer, .. })) => Some((*seq, answer)),
        _ => None,
    }
}

/// Read-only runs: the table never changes, so each stream position is
/// evaluated once per client across all episodes, on one thread per
/// client.
fn compare_reads(plan: &Plan, episodes: &[Vec<Vec<Rec>>], oracle: &Oracle, out: &mut Checked) {
    let found: Vec<(u64, Option<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                s.spawn(move || {
                    let mut expected: HashMap<usize, Answer> = HashMap::new();
                    let mut bad = 0u64;
                    let mut first = None;
                    for rec in episodes.iter().flat_map(|e| &e[c]) {
                        let (Some((seq, got)), Op::Read(q)) = (read_answer(rec), &ops[rec.idx])
                        else {
                            continue;
                        };
                        let want = expected.entry(rec.idx).or_insert_with(|| oracle.answer(q));
                        if got != want {
                            bad += 1;
                            first.get_or_insert(format!(
                                "read seq {seq}: got {got:?}, expected {want:?} for {q:?}"
                            ));
                        }
                    }
                    (bad, first)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    for (bad, first) in found {
        out.mismatches += bad;
        if let Some(f) = first {
            out.first_mismatch.get_or_insert(f);
        }
    }
}

/// Write runs: apply every successful call in sequence order.
fn replay(plan: &Plan, recs: &[Vec<Rec>], oracle: &mut Oracle, out: &mut Checked) {
    let mut order: Vec<(u64, usize, &Rec)> = recs
        .iter()
        .enumerate()
        .flat_map(|(c, rs)| rs.iter().map(move |r| (c, r)))
        .filter_map(|(c, r)| r.result.as_ref().ok().map(|(seq, _)| (*seq, c, r)))
        .collect();
    order.sort_by_key(|&(seq, _, _)| seq);
    if let Some(w) = order.windows(2).find(|w| w[0].0 == w[1].0) {
        out.mismatch(format!("sequence number {} committed twice", w[0].0));
    }
    for (seq, client, rec) in order {
        let op = &plan.streams[client][rec.idx];
        let Ok((_, outcome)) = &rec.result else {
            continue;
        };
        match (rec.kind, op, outcome) {
            (CallKind::Read, Op::Read(q), Outcome::Read { answer, .. }) => {
                let want = oracle.answer(q);
                if *answer != want {
                    out.mismatch(format!(
                        "read seq {seq}: got {answer:?}, expected {want:?} for {q:?}"
                    ));
                }
            }
            (CallKind::Insert, Op::Insert(row), Outcome::Write { key }) => {
                let want = oracle.insert(row);
                if *key != want {
                    out.mismatch(format!("insert seq {seq}: key {key}, expected {want}"));
                }
            }
            (CallKind::Delete, Op::Delete, Outcome::Write { key }) => {
                if !oracle.delete(*key) {
                    out.mismatch(format!("delete seq {seq}: key {key} was not live"));
                }
            }
            _ => out.mismatch(format!("seq {seq}: reply kind does not match its call")),
        }
    }
}
