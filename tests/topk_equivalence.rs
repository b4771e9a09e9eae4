//! Top-k equivalence suite for the anytime ranking driver.
//!
//! The property pinned here is **bit-identity**: for every `k`, the
//! ranked prefix produced by the bound-propagation top-k path must equal
//! the first `k` entries of the exhaustive ranking — same keys, same
//! rank order, same float *bits* — across
//!
//! * every [`Semantics`] at the engine layer (pruning only engages for
//!   `Probabilistic` multi-plan evaluation; the others must degrade to
//!   exhaustive ranking without drift),
//! * every [`OptLevel`] at the driver layer (`MultiPlan` routes through
//!   the engine's anytime driver, single-plan levels truncate through
//!   the bounded heap — both must agree with untruncated ranking),
//! * serial and threaded execution (`threads` 1 and 4).
//!
//! Adversarial shapes get dedicated tests: exact score ties straddling
//! the k-boundary (the deterministic key-order tiebreak must make the
//! prefix unambiguous), `k = 0`, `k ≥` the answer count (degraded mode:
//! nothing to prune, everything evaluated), and a Boolean query (single
//! answer group).

use lapushdb::core::{minimal_plan_set_opts, EnumOptions, SchemaInfo};
use lapushdb::engine::{propagation_score_ids, propagation_score_topk, ExecOptions, Semantics};
use lapushdb::prelude::*;
use lapushdb::workload::{
    chain_db, chain_query, random_db_for_query, random_query, star_db, star_query,
};
use lapushdb::{rank_by_dissociation, OptLevel, RankOptions};
use proptest::prelude::*;

/// Ranked prefixes compared entry by entry: same keys in the same order,
/// scores equal to the bit.
fn assert_prefix_bitwise(
    got: &[(Box<[Value]>, f64)],
    want: &[(Box<[Value]>, f64)],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: prefix length", what);
    for (i, ((gk, gs), (wk, ws))) in got.iter().zip(want.iter()).enumerate() {
        prop_assert_eq!(gk, wk, "{}: rank {} keys diverge", what, i);
        prop_assert_eq!(
            gs.to_bits(),
            ws.to_bits(),
            "{}: rank {} scored {} vs exhaustive {}",
            what,
            i,
            gs,
            ws
        );
    }
    Ok(())
}

/// Engine-layer harness: for each semantics × thread count, evaluate the
/// minimal plan set exhaustively and through `propagation_score_topk` at
/// every `k`, and require bit-identical ranked prefixes. `ks` should
/// straddle the answer count so both the pruning and the degraded
/// (k ≥ answers) regimes are exercised.
fn check_engine(db: &Database, q: &Query, ks: &[usize]) -> Result<(), TestCaseError> {
    let schema = SchemaInfo::from_query(q);
    let set = minimal_plan_set_opts(q, &schema, EnumOptions::default());
    for sem in [
        Semantics::Probabilistic,
        Semantics::LowerBound,
        Semantics::Deterministic,
    ] {
        for threads in [1usize, 4] {
            let opts = ExecOptions {
                semantics: sem,
                reuse_views: true,
                threads,
            };
            let full =
                propagation_score_ids(db, q, &set.store, &set.roots, opts).expect("exhaustive");
            for &k in ks {
                let res =
                    propagation_score_topk(db, q, &set.store, &set.roots, k, opts).expect("topk");
                let what = format!("{sem:?} t{threads} k{k}");
                assert_prefix_bitwise(&res.ranked, &full.ranked_top(k), &what)?;
                // Accounting must cover the whole answer space: every
                // group was either pruned by the bound pass or evaluated.
                prop_assert_eq!(
                    (res.stats.pruned + res.stats.evaluated) as usize,
                    full.len(),
                    "{}: pruned + evaluated != answers",
                    what
                );
            }
        }
    }
    Ok(())
}

/// Driver-layer harness: `rank_by_dissociation` with `top_k: Some(k)`
/// must return exactly the first `k` entries of the same call with
/// `top_k: None`, for every optimization level (only `MultiPlan` routes
/// through the anytime driver; the others truncate) and thread count.
fn check_driver(db: &Database, q: &Query, ks: &[usize]) -> Result<(), TestCaseError> {
    for opt in [
        OptLevel::MultiPlan,
        OptLevel::Opt1,
        OptLevel::Opt12,
        OptLevel::Opt123,
    ] {
        for threads in [1usize, 4] {
            let full = rank_by_dissociation(
                db,
                q,
                RankOptions {
                    opt,
                    threads,
                    ..RankOptions::default()
                },
            )
            .expect("exhaustive rank");
            for &k in ks {
                let top = rank_by_dissociation(
                    db,
                    q,
                    RankOptions {
                        opt,
                        threads,
                        top_k: Some(k),
                        ..RankOptions::default()
                    },
                )
                .expect("topk rank");
                let what = format!("{opt:?} t{threads} k{k}");
                assert_prefix_bitwise(&top.ranked_top(k), &full.ranked_top(k), &what)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chain workloads: multi-plan sets with shared subplans.
    #[test]
    fn chain_topk_matches_exhaustive_prefix(
        seed in 0u64..1_000_000,
        k in 2usize..5,
        n in 20usize..60,
    ) {
        let q = chain_query(k);
        let domain = (n as i64 / 3).max(4);
        let db = chain_db(k, n, domain, 1.0, seed).expect("db");
        check_engine(&db, &q, &[1, 3, 1000])?;
        check_driver(&db, &q, &[1, 3, 1000])?;
    }

    /// Star workloads (constant hub atom, mixed arities, Boolean head).
    #[test]
    fn star_topk_matches_exhaustive_prefix(
        seed in 0u64..1_000_000,
        k in 2usize..4,
        n in 20usize..50,
    ) {
        let q = star_query(k);
        let domain = (n as i64 / 2).max(4);
        let db = star_db(k, n, domain, 1.0, seed).expect("db");
        check_engine(&db, &q, &[1, 3, 1000])?;
    }

    /// Random query shapes over random databases.
    #[test]
    fn random_topk_matches_exhaustive_prefix(
        seed in 0u64..1_000_000,
        atoms in 2usize..5,
    ) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0x5eed, 12, 5, 1.0).expect("db");
        check_engine(&db, &q, &[1, 3, 1000])?;
    }
}

/// The fixed 3-chain scenario the deterministic adversarial tests share.
fn chain3() -> (Database, Query) {
    let q = chain_query(3);
    let db = chain_db(3, 60, 15, 1.0, 42).expect("db");
    (db, q)
}

/// Exact score ties straddling the k-boundary: a database whose tuples
/// all carry the same probability produces whole equivalence classes of
/// identically-scored answers, so ranks `k-1`, `k`, `k+1` routinely tie
/// to the bit. The deterministic tiebreak (score descending, then key
/// ascending) must make every prefix unambiguous — and the top-k path
/// must implement the *same* tiebreak as the exhaustive ranking.
#[test]
fn ties_at_the_k_boundary_are_broken_identically() {
    let q = chain_query(2);
    // Domain 12 keeps the generator solvent (it needs 40 *distinct* rows
    // per relation, so the domain square must exceed n) while still
    // colliding enough join values for shared-multiplicity answers.
    let mut db = chain_db(2, 40, 12, 1.0, 7).expect("db");
    // Flatten every probability to the same constant: all surviving
    // chains of the same multiplicity now score identically.
    for rid in [db.rel_id("R1").unwrap(), db.rel_id("R2").unwrap()] {
        let rel = db.relation_mut(rid);
        for i in 0..rel.len() {
            rel.set_prob(i as u32, 0.5).expect("in range");
        }
    }
    let schema = SchemaInfo::from_query(&q);
    let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    let opts = ExecOptions::default();
    let full = propagation_score_ids(&db, &q, &set.store, &set.roots, opts).expect("exhaustive");
    assert!(full.len() >= 4, "need enough answers to straddle ties");
    // A tie must exist somewhere in the ranking for this test to bite.
    let ranked = full.ranked_top(full.len());
    assert!(
        ranked
            .windows(2)
            .any(|w| w[0].1.to_bits() == w[1].1.to_bits()),
        "tie-flattened database produced no tied scores"
    );
    for k in 1..=full.len() {
        let res = propagation_score_topk(&db, &q, &set.store, &set.roots, k, opts).expect("topk");
        let want = full.ranked_top(k);
        assert_eq!(res.ranked.len(), want.len(), "k={k}");
        for (i, ((gk, gs), (wk, ws))) in res.ranked.iter().zip(want.iter()).enumerate() {
            assert_eq!(gk, wk, "k={k} rank {i}: keys diverge on a tie");
            assert_eq!(gs.to_bits(), ws.to_bits(), "k={k} rank {i}");
        }
    }
}

/// `k = 0` yields an empty ranking; `k ≥` the answer count yields the
/// complete ranking (degraded mode — nothing can be pruned because every
/// answer must be scored exactly).
#[test]
fn k_zero_and_k_beyond_answer_count() {
    let (db, q) = chain3();
    let schema = SchemaInfo::from_query(&q);
    let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    let opts = ExecOptions::default();
    let full = propagation_score_ids(&db, &q, &set.store, &set.roots, opts).expect("exhaustive");
    assert!(!full.is_empty());

    let empty = propagation_score_topk(&db, &q, &set.store, &set.roots, 0, opts).expect("k=0");
    assert!(empty.ranked.is_empty());

    for k in [full.len(), full.len() + 1, 10 * full.len()] {
        let res = propagation_score_topk(&db, &q, &set.store, &set.roots, k, opts).expect("topk");
        assert_eq!(res.ranked.len(), full.len(), "k={k}");
        assert_eq!(res.stats.pruned, 0, "k={k}: nothing is prunable");
        let want = full.ranked_top(k);
        for ((gk, gs), (wk, ws)) in res.ranked.iter().zip(want.iter()) {
            assert_eq!(gk, wk, "k={k}");
            assert_eq!(gs.to_bits(), ws.to_bits(), "k={k}");
        }
    }
}

/// Deterministic pseudo-random probability in (0, 1).
fn prob(i: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    z ^= z >> 31;
    ((z % 997) + 1) as f64 / 1000.0
}

/// A database from `(relation, rows)` lists; row `i` of every relation
/// gets a distinct pseudo-random probability.
fn db_of(relations: &[(&str, Vec<Vec<i64>>)]) -> Database {
    let mut db = Database::new();
    let mut seq = 0u64;
    for (name, rows) in relations {
        let id = db
            .create_relation(*name, rows[0].len())
            .expect("fresh name");
        for row in rows {
            let row: Box<[Value]> = row.iter().map(|&v| Value::Int(v)).collect();
            db.relation_mut(id).push(row, prob(seq)).expect("valid row");
            seq += 1;
        }
    }
    db
}

/// [`check_engine`] on a fixed database, plus: pruning engaged at `k = 1`.
fn check_engine_prunes(db: &Database, q: &Query) {
    check_engine(db, q, &[1, 3, 1000]).unwrap();
    let schema = SchemaInfo::from_query(q);
    let set = minimal_plan_set_opts(q, &schema, EnumOptions::default());
    let res = propagation_score_topk(db, q, &set.store, &set.roots, 1, ExecOptions::default())
        .expect("topk");
    assert!(
        res.stats.pruned > 0,
        "expected pruning, got {:?}",
        res.stats
    );
}

/// Atoms sharing two variables: the semi-join reducer keys on the pair,
/// so an `R` row whose `x` and `y` each occur in `S`, but never together,
/// is removed from the restricted phase — the ranking must not notice.
#[test]
fn two_shared_variables_restrict_on_the_pair() {
    let q = parse_query("q(a) :- R(a, x, y), S(x, y, z), T(z)").unwrap();
    let mut r: Vec<Vec<i64>> = (0..40).map(|a| vec![a, a % 5, a % 3]).collect();
    // x = 1 and y = 0 each occur in S, the pair (1, 0) never does.
    r.push(vec![40, 1, 0]);
    let s: Vec<Vec<i64>> = (0..5)
        .flat_map(|x| (0..3).map(move |y| (x, y)))
        .filter(|(x, y)| (x + y) % 2 == 0)
        .flat_map(|(x, y)| [vec![x, y, (x + y) % 4], vec![x, y, (x * y) % 4]])
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let t: Vec<Vec<i64>> = (0..4).map(|z| vec![z]).collect();
    let db = db_of(&[("R", r), ("S", s), ("T", t)]);
    check_engine_prunes(&db, &q);
}

/// A cyclic triangle through the head variable: the fixpoint reduces `R`
/// and `T` against each other on `a` as well as through `S`.
#[test]
fn cyclic_triangle_matches_exhaustive_prefix() {
    let q = parse_query("q(a) :- R(a, x), S(x, y), T(y, a)").unwrap();
    let r: Vec<Vec<i64>> = (0..30)
        .flat_map(|a| [vec![a, a % 6], vec![a, (a + 2) % 6]])
        .collect();
    let s: Vec<Vec<i64>> = (0..6)
        .flat_map(|x| [vec![x, x % 4], vec![x, (x + 1) % 4]])
        .collect();
    let t: Vec<Vec<i64>> = (0..24)
        .flat_map(|a| [vec![a % 4, a], vec![(a + 3) % 4, a]])
        .collect();
    let db = db_of(&[("R", r), ("S", s), ("T", t)]);
    check_engine_prunes(&db, &q);
}
