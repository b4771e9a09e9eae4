//! # lapush-engine
//!
//! Executes the plans of `lapush-core` against a `lapush-storage` database
//! using the **extensional score semantics** of Definition 4: joins multiply
//! scores, probabilistic projections combine duplicate groups with
//! independent-OR, and `min` operators take the per-tuple minimum across
//! alternative subplans (Optimization 1).
//!
//! By Corollary 19, the score of any plan upper-bounds the true query
//! probability; the minimum over all minimal plans is the propagation score
//! `ρ(q)` ([`propagation_score`]).
//!
//! Engine-level features:
//! * [`exec::ExecOptions::reuse_views`] — Optimization 2 (Algorithm 3):
//!   memoize shared subquery results during evaluation of the single plan.
//! * [`semijoin::reduce_database`] — Optimization 3: a full deterministic
//!   semi-join reduction of the query's base relations before
//!   probabilistic evaluation; the result holds only the relations the
//!   query reads. Its fixpoint is the engine's one semi-join reducer,
//!   which the top-k restricted phase ([`topk`]) reuses.
//! * deterministic (set) semantics for the "standard SQL" baseline.
//!
//! ## Dictionary-encoded, columnar sort-merge execution
//!
//! The executor never manipulates `Value`s on its hot paths. Each
//! evaluation first encodes the query's base relations through the
//! database's value codec (`lapush_storage::Database::codec`) under one
//! short-lived lock: every distinct value is interned once into a dense
//! `u32` vid, and encoded base columns are cached on the database, so
//! repeated evaluations pay nothing and concurrent evaluations only
//! serialize on the brief encode/decode sections. From there on every
//! intermediate [`Rel`] is a **sorted columnar batch** — one dense vid
//! vector per variable plus a score column, rows kept in canonical
//! lexicographic order — and all operators are sort/merge algorithms:
//! merge joins on shared-variable keys, grouped-scan projections over
//! runs of equal group keys, pointwise sorted merges for `min`, and
//! merge-based semi-join membership. Sort keys pack up to four vid
//! columns into one integer, so nothing on these paths hashes or
//! allocates per row (see [`rel`] for the full contract). The
//! data-parallel inner loops — key packing, run-boundary detection,
//! permutation gathers, galloping merge advance, and the score folds —
//! live in one scalar kernel layer ([`kernels`]).
//!
//! ## Morsel parallelism
//!
//! Execution is optionally parallel ([`exec::ExecOptions::threads`],
//! default 1 = strictly serial): operators partition large batches into
//! key-range morsels submitted as tasks to a persistent work-stealing
//! pool ([`pool`]), and [`propagation_score`]'s outer loop over
//! minimal-plan roots runs in parallel after a serial pre-pass
//! has evaluated every memo-shared subplan once. Results are
//! **bit-identical at every thread count** — morsels never split a group
//! and are concatenated in key order, so the parallel evaluation computes
//! literally the same floats as the serial one.
//!
//! **Decode-at-the-boundary invariant:** vids become `Value`s exactly once
//! per evaluation, when the final encoded relation is turned into the
//! public [`AnswerSet`] (and, symmetrically, when `lapush_lineage`
//! materializes answer keys). Everything the engine returns is therefore
//! bit-for-bit identical to a value-level evaluation — interning is
//! injective, so equality joins and duplicate elimination are preserved
//! exactly, and order/`LIKE` predicates are evaluated on the stored values
//! at scan time *before* rows enter the encoded pipeline (vids are
//! assigned in first-seen order and carry no value order).
//!
//! Evaluation shares intermediates instead of copying them: scan results
//! are memoized per atom (across all plans of a `propagation_score` call)
//! and Optimization 2's view memo hands out reference-counted relations,
//! so a cache hit costs a pointer bump, not a hash-map clone.
//!
//! ## Hash-consed plan evaluation
//!
//! Plans arrive as ids into a `lapush_core::PlanStore` — a hash-consed DAG
//! in which structurally equal subplans share one `lapush_core::PlanId`
//! ([`exec::eval_plan_id`], [`exec::propagation_score_ids`]; the tree
//! entry points intern their input first). The evaluator's one memo is
//! keyed by `PlanId`:
//!
//! * scan nodes are always memoized (a scan depends only on the database,
//!   atom, and semantics);
//! * with [`exec::ExecOptions::reuse_views`], every node is — that is
//!   Optimization 2, since equal subquery keys of a
//!   `lapush_core::single_plan` denote equal subplans and therefore equal
//!   ids, and unlike the old subquery-key memo it is sound for arbitrary
//!   plans (`min` branches have their own ids, so no special-casing);
//! * [`propagation_score`] memoizes across the *whole plan set*, so a
//!   subplan occurring in many minimal plans is evaluated once per call.
//!
//! A memo hit hands out the same reference-counted relation the
//! recomputation would have produced, so answer sets are bit-identical to
//! plan-at-a-time evaluation.

//! ## Incremental evaluation
//!
//! [`delta::IncrementalEval`] promotes the `PlanId`-keyed memo to a
//! persistent cached-view store and consumes append-only database growth
//! as sorted delta batches, updating every materialized node — and the
//! answer set — in place with results bit-identical to re-evaluating from
//! scratch. See [`delta`] for the per-operator delta algebra and its
//! fallback rules.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod delta;
pub mod exec;
pub mod kernels;
pub mod pool;
pub mod prepare;
pub mod rel;
pub mod semijoin;
pub mod topk;

pub use delta::{DeltaOutcome, IncrementalEval};
pub use exec::{
    deterministic_answers, deterministic_answers_par, eval_plan, eval_plan_id, order_plans_by_cost,
    plan_cost_estimates, propagation_score, propagation_score_ids, AnswerSet, ExecError,
    ExecOptions, Semantics,
};
pub use rel::{Par, Rel, Scratch};
pub use semijoin::reduce_database;
pub use topk::{propagation_score_topk, TopkEval, TopkResult, TopkStats};
