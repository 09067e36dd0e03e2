//! Property tests of the [`CrackPolicy`] invariants, driven by a
//! deterministic seeded PRNG (the workspace builds offline, so no
//! `proptest` dependency — per the PR 1 conventions):
//!
//! 1. the head column is always a permutation of the input (tails
//!    follow their heads), under every policy;
//! 2. every query-mandated boundary is exact under all policies — when
//!    a boundary is recorded for a predicate bound, it resolves through
//!    the index, it is not marked advisory, and the physical
//!    partitioning honours it (and exact spans contain exactly the
//!    qualifying tuples);
//! 3. under `Pattern::Sequential`-shaped workloads the per-query
//!    touched-tuple count is sub-linear after the first k queries for
//!    the stochastic policy, while the standard policy stays Θ(n);
//! 4. the coarse-granular policy caps cracker-index growth under skew.

use crackdb_columnstore::types::{RangePred, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{CrackPolicy, CrackedArray, PolicyAdvisor};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};

fn random_array(n: usize, domain: Val, seed: u64) -> CrackedArray<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let head: Vec<Val> = (0..n).map(|_| rng.gen_range(1..=domain)).collect();
    let tail: Vec<u32> = (0..n as u32).collect();
    CrackedArray::new(head, tail)
}

fn random_pred(rng: &mut StdRng, domain: Val) -> RangePred {
    let lo = rng.gen_range(0..domain);
    let width = rng.gen_range(0..=domain / 4);
    match rng.gen_range(0..4) {
        0 => RangePred::open(lo, lo + width + 1),
        1 => RangePred::closed(lo, lo + width),
        2 => RangePred::half_open(lo, lo + width + 1),
        _ => RangePred::point(lo),
    }
}

fn policies() -> Vec<CrackPolicy> {
    vec![
        CrackPolicy::Standard,
        CrackPolicy::stochastic(),
        CrackPolicy::Stochastic { seed: 1234 },
        CrackPolicy::coarse(),
        CrackPolicy::CoarseGranular { min_piece: 32 },
        // A kernel handed the adaptive marker directly (no advisor in
        // front of it) must fall back to the paper's exact behaviour.
        CrackPolicy::Adaptive,
    ]
}

/// (1) + (2): permutation invariant, recorded-boundary exactness, and
/// scan-equivalent results under every policy.
#[test]
fn head_stays_a_permutation_and_boundaries_stay_exact() {
    let n = 4000;
    let domain = 1000;
    for policy in policies() {
        let mut arr = random_array(n, domain, 7);
        let mut reference: Vec<(Val, u32)> = arr
            .head()
            .iter()
            .copied()
            .zip(arr.tail().iter().copied())
            .collect();
        reference.sort_unstable();
        let mut rng = StdRng::seed_from_u64(99);
        for q in 0..60 {
            let pred = random_pred(&mut rng, domain);
            let span = arr.crack_range_with(&pred, &policy);

            // (1) Permutation: the (head, tail) pair multiset never
            // changes, only the order.
            let mut now: Vec<(Val, u32)> = arr
                .head()
                .iter()
                .copied()
                .zip(arr.tail().iter().copied())
                .collect();
            now.sort_unstable();
            assert_eq!(
                now,
                reference,
                "{} query {q}: head/tail permutation broken",
                policy.label()
            );

            // (2) Every recorded boundary partitions the array exactly.
            arr.check_partitioning();

            // Query-mandated bounds: exact spans must expose both
            // boundaries through the index, *not* marked advisory.
            if span.exact && !pred.is_empty_range() {
                let (lo_k, hi_k) = pred_keys(&pred);
                for k in [lo_k, hi_k].into_iter().flatten() {
                    assert!(
                        arr.index().position_of(k).is_some(),
                        "{} query {q}: query boundary {k:?} missing",
                        policy.label()
                    );
                    assert!(
                        !arr.index().is_advisory(k),
                        "{} query {q}: query boundary {k:?} marked advisory",
                        policy.label()
                    );
                }
            }

            // The span (filtered when inexact) equals a naive scan.
            let mut got: Vec<Val> = arr.head()[span.start..span.end]
                .iter()
                .copied()
                .filter(|&v| span.exact || pred.matches(v))
                .collect();
            got.sort_unstable();
            if span.exact {
                assert!(
                    got.iter().all(|&v| pred.matches(v)),
                    "{} query {q}: exact span contains non-matching value",
                    policy.label()
                );
            }
            let mut expected: Vec<Val> = reference
                .iter()
                .map(|&(v, _)| v)
                .filter(|&v| pred.matches(v))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "{} query {q}: result set", policy.label());
        }
    }
}

/// (5): the adaptive advisor is a deterministic fold over the predicate
/// stream, and the (pred, effective-policy) log it produces replays a
/// fresh array to a bit-identical state with no advisor present — the
/// contract every tape (MapSet, partial areas, chunk recreation) relies on.
#[test]
fn adaptive_advisor_log_replays_bit_identically() {
    let n = 60_000usize;
    let domain = n as Val;
    // A mixed trace: scattered browsing, a sequential sweep (flips the
    // advisor to coarse leaves), then hot-zone panning (the sweep run
    // breaks, but by then the index is dense enough that the boundary
    // cap holds the downgrade).
    let mut preds: Vec<RangePred> = Vec::new();
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..40 {
        preds.push(random_pred(&mut rng, domain));
    }
    let width = domain / 60;
    let mut cursor: Val = 0;
    for _ in 0..60 {
        if cursor + width > domain {
            cursor = 0;
        }
        preds.push(RangePred::open(cursor, cursor + width + 1));
        cursor += width;
    }
    for _ in 0..40 {
        let lo = rng.gen_range(0..domain / 10);
        preds.push(RangePred::open(lo, lo + domain / 100 + 1));
    }

    let run = || {
        let mut arr = random_array(n, domain, 13);
        let mut advisor = PolicyAdvisor::new(CrackPolicy::Adaptive);
        let mut log: Vec<CrackPolicy> = Vec::with_capacity(preds.len());
        for p in &preds {
            let eff = advisor.observe(p, arr.index().len(), arr.head().len());
            assert!(
                !eff.is_adaptive(),
                "the advisor always resolves to a static policy"
            );
            arr.crack_range_with(p, &eff);
            log.push(eff);
        }
        (arr, log, advisor.switches())
    };
    let (a, log_a, switches_a) = run();
    let (b, log_b, switches_b) = run();
    assert_eq!(log_a, log_b, "effective-policy stream is deterministic");
    assert_eq!(switches_a, switches_b);
    assert!(switches_a >= 1, "the mixed trace must flip the policy");
    assert_eq!(a.head(), b.head());
    assert_eq!(a.tail(), b.tail());

    // Tape-style replay: logged policies only, no advisor.
    let mut replayed = random_array(n, domain, 13);
    for (p, eff) in preds.iter().zip(&log_a) {
        replayed.crack_range_with(p, eff);
    }
    assert_eq!(replayed.head(), a.head(), "replayed head diverged");
    assert_eq!(replayed.tail(), a.tail(), "replayed tail diverged");
    assert_eq!(replayed.index().len(), a.index().len());
}

/// (3): under a sequential sweep the stochastic policy's touched-tuple
/// count converges while the standard policy's stays Θ(n) per query.
#[test]
fn sequential_sweep_touched_tuples_sublinear_for_stochastic() {
    let n = 200_000usize;
    let domain = n as Val;
    let queries = 200usize;
    let width = domain / queries as Val;

    let run = |policy: CrackPolicy| -> (u64, u64) {
        let mut arr = random_array(n, domain, 11);
        let mut cursor: Val = 0;
        let mut total = 0u64;
        let mut late = 0u64; // touched during the last half of the sweep
        for q in 0..queries {
            if cursor + width > domain {
                cursor = 0;
            }
            let pred = RangePred::open(cursor, cursor + width + 1);
            cursor += width;
            let before = arr.touched();
            let span = arr.crack_range_with(&pred, &policy);
            // Crack work plus the scan of the returned area — the full
            // per-query data access.
            let delta = (arr.touched() - before) + span.len() as u64;
            total += delta;
            if q >= queries / 2 {
                late += delta;
            }
        }
        (total, late)
    };

    let (std_total, std_late) = run(CrackPolicy::Standard);
    let (sto_total, sto_late) = run(CrackPolicy::stochastic());

    // Standard leaves a huge uncracked tail every query: Θ(n) touched
    // per query, Θ(n·q) cumulative. Stochastic halves pieces along
    // every access path: O(n log n) cumulative.
    assert!(
        std_total > (n as u64) * (queries as u64) / 4,
        "standard sequential should stay near n per query (got {std_total})"
    );
    assert!(
        sto_total * 4 < std_total,
        "stochastic should beat standard by >= 4x on a sequential sweep \
         (stochastic {sto_total} vs standard {std_total})"
    );
    // After the first k queries the per-query cost must be sub-linear:
    // the late-half average is far below n (standard's stays Θ(n)).
    let late_avg = sto_late / (queries as u64 / 2);
    assert!(
        late_avg < (n as u64) / 8,
        "stochastic late-half per-query touched {late_avg} not sub-linear in n={n}"
    );
    assert!(
        std_late / (queries as u64 / 2) > (n as u64) / 8,
        "sanity: standard stays linear per query"
    );
}

/// (4): a skewed drill-down workload shatters a hot region into tiny
/// pieces under the standard policy; the coarse-granular policy stops
/// at its leaf size, capping AVL growth.
#[test]
fn coarse_granular_caps_index_growth_under_skew() {
    let n = 50_000usize;
    let domain = n as Val;
    let min_piece = 512usize;
    let queries = 400usize;

    let run = |policy: CrackPolicy| -> (usize, usize) {
        let mut arr = random_array(n, domain, 23);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..queries {
            // Hot zone: first 2% of the domain, very narrow ranges.
            let lo = rng.gen_range(0..domain / 50);
            let pred = RangePred::open(lo, lo + 3);
            arr.crack_range_with(&pred, &policy);
        }
        arr.check_partitioning();
        (arr.index().len(), arr.index().total_nodes())
    };

    let (std_len, _) = run(CrackPolicy::Standard);
    let (coarse_len, coarse_nodes) = run(CrackPolicy::CoarseGranular { min_piece });

    assert!(
        coarse_len * 4 < std_len,
        "coarse must cap boundary count under skew (coarse {coarse_len} vs standard {std_len})"
    );
    // Structural cap: every recorded boundary split a piece larger than
    // min_piece, and the hot zone holds ~n/50 tuples, so the boundary
    // count is bounded by hot-tuples/min_piece plus a small constant
    // for the zone edges.
    let hot_tuples = n / 50;
    assert!(
        coarse_nodes <= hot_tuples / min_piece * 8 + 16,
        "coarse index grew past its structural cap: {coarse_nodes} nodes"
    );
}
