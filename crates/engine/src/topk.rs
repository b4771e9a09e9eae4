//! Anytime top-k ranking: bound propagation with early termination.
//!
//! Exhaustive ranking evaluates every minimal plan for every answer group
//! and only then sorts ([`crate::AnswerSet::ranked`]). Most of that work is
//! invisible in a top-k listing: an answer whose score can be *bounded*
//! below the k-th best needs no further evaluation. This module threads a
//! second, lower-bound score column through the first (cheapest) plan's
//! evaluation, prunes hopeless answer groups once, and evaluates the
//! remaining plans restricted to the survivors — with the guarantee that
//! the returned top-k set and scores are **bit-identical** to the
//! exhaustive ranking's prefix.
//!
//! ## Bounds
//!
//! For [`Semantics::Probabilistic`] the ranked score is the propagation
//! score `ρ(q)` — the minimum over the minimal plans' extensional scores
//! (Definition 14); each plan's score upper-bounds the true probability
//! (Corollary 19). Two bounds per answer group come out of a single pass
//! over the first plan `P₁`:
//!
//! - **upper** `hi = score_{P₁}`: the min over plans can only shrink, so
//!   the first plan's extensional score bounds `ρ` from above;
//! - **lower** `lo`: the same plan evaluated with `max`-fold projections —
//!   the probability of the best single derivation. Independent-OR folds
//!   dominate `max` folds and joins multiply in both, so by induction
//!   *every* plan's extensional score is at least `lo`, hence `ρ ≥ lo`
//!   (this is the [`Semantics::LowerBound`] bound, computed for free).
//!
//! The auxiliary column rides through the same kernels as the primary one
//! (`join_aux_par`, `project_bounds_par`), so the primary stays
//! bit-identical to a plain evaluation at ~10% extra cost, instead of the
//! 2× of a second pass.
//!
//! ## Pruning soundness
//!
//! Let `τ` be the k-th largest lower bound. A group with `hi < τ` has
//! `ρ ≤ hi < τ ≤ lo_j ≤ ρ_j` for at least `k` other groups `j`: it ranks
//! strictly below `k` others no matter how ties at the boundary resolve
//! (the ranking orders by score first), so it can never enter the top-k.
//! Groups *at* the boundary are never pruned — their `hi ≥ ρ ≥ τ`. The
//! threshold is additionally shaved by a relative `1e-9` so that
//! floating-point rounding in the `lo` folds (which are only
//! mathematically, not bitwise, dominated by the `hi` folds) can never
//! evict a true top-k member.
//!
//! ## Restricted re-evaluation
//!
//! The remaining plans are evaluated over per-atom survivor rows from the
//! engine's one semi-join reducer, the fixpoint of Optimization 3
//! ([`crate::semijoin`]). Each atom is seeded with the rows that pass its
//! scan filters and whose head-variable vids occur among the surviving
//! answer groups; the pairwise semi-join passes then propagate that
//! restriction through the join variables into atoms holding no head
//! variable (the middle of a chain). Restricted scans read exactly the
//! survivor rows through the same scoring and canonicalization as a full
//! scan.
//!
//! A removed row participates in no full join producing a surviving
//! answer: it either fails the head seed, or — inductively — has no
//! partner in some neighbouring atom's survivors on their shared
//! variables. Every row contributing to a surviving group passes (its
//! variable values agree with all the co-rows of the same full join,
//! which pass by induction), so each surviving group's row multiset — and
//! therefore its folded score — is unchanged at every plan node. The
//! removed rows can't leak into a surviving fold either: a minimal plan
//! eliminates a variable only after joining every atom containing it, so
//! a removed row is dropped at a join on the variables it dangles on (or
//! its fold group is, carrying the dangling values) before reaching the
//! root.
//!
//! Two node shapes could still reassociate float products under the
//! filtered cardinalities and are evaluated unrestricted instead (shared
//! with the first plan's memo): joins of three or more inputs (the greedy
//! [`join_order`] may re-associate) and projections eliminating two or
//! more variables directly over a join (the within-group fold order
//! depends on the join's column layout, which may flip). Binary joins and
//! single-variable projections are safe: a flipped binary join multiplies
//! the same two factors (commutative, same bits) and a single-variable
//! projection folds each group in the eliminated variable's order
//! regardless of layout. Final scores fold with
//! `min_into_matching_par`, which drops keys outside the survivor set
//! and applies the exact pointwise min of the exhaustive path.
//!
//! Non-probabilistic semantics, single-plan sets, and answer sets with at
//! most `k` groups degrade to the exhaustive evaluation (nothing can be
//! pruned); the result contract is unchanged.

use crate::exec::{
    decode_answers, eval_node, order_plans_by_cost, scan_atom, EvalCtx, ExecError, ExecOptions,
    Semantics, ShRel,
};
use crate::prepare::{prepare_atoms, PreparedAtom, ScanShape};
use crate::rel::{
    join_aux_par, join_many_par, join_order, min_into_matching_par, min_into_par,
    project_bounds_par, project_node, Par, Rel,
};
use crate::semijoin::semijoin_fixpoint;
use lapush_core::{NodeKind, PlanId, PlanStore};
use lapush_query::{Query, Term, Var};
use lapush_storage::{Database, FxHashMap, Value, Vid};
use std::sync::Arc;

/// One node's bounds pair from the `[lo, hi]` pass: the relation carrying
/// the upper-bound (primary) scores and its parallel lower-bound column.
type Bounds = (ShRel, Arc<Vec<f64>>);

/// Counters describing one top-k evaluation, surfaced as `topk.*` STATS
/// by the serve layer and logged by the `fig_topk` bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopkStats {
    /// Answer groups carried through the full multi-plan min-combine.
    pub evaluated: u64,
    /// Answer groups pruned after the first plan's bounds pass.
    pub pruned: u64,
    /// Plans in the (cost-ordered) plan set.
    pub plans: u64,
    /// Plan nodes whose shape forced a full (unrestricted) evaluation
    /// during the restricted phase — ≥ 3-way joins and multi-variable
    /// projections over joins (see module docs). High values mean the
    /// plan set largely escapes the survivor filters.
    pub fallback_nodes: u64,
}

/// Result of [`propagation_score_topk`].
#[derive(Debug, Clone)]
pub struct TopkResult {
    /// The top `k` answers in rank order — bit-identical to the first `k`
    /// entries of the exhaustive [`crate::AnswerSet::ranked`].
    pub ranked: Vec<(Box<[Value]>, f64)>,
    /// Pruning counters.
    pub stats: TopkStats,
}

/// One in-flight anytime top-k evaluation: plan-at-a-time stepping with
/// inspectable `[lo, hi]` score intervals between steps.
///
/// [`TopkEval::new`] runs the first (cheapest) plan with bounds and prunes;
/// each [`TopkEval::step`] folds one more plan into the surviving
/// candidates, shrinking their upper bounds; [`TopkEval::finish`] drains
/// the remaining plans and returns the exact top-k.
pub struct TopkEval<'a> {
    db: &'a Database,
    q: &'a Query,
    store: &'a PlanStore,
    prepared: Vec<PreparedAtom>,
    opts: ExecOptions,
    k: usize,
    /// Cost-ordered plan roots; `plans[..pos]` are folded into `acc`.
    plans: Vec<PlanId>,
    pos: usize,
    ctx: EvalCtx,
    /// Memo of restricted (survivor-row) node results, valid across
    /// plans because the survivor set is fixed after construction.
    restricted: FxHashMap<PlanId, ShRel>,
    /// Per-atom survivor row ordinals (ascending) read by restricted scans.
    survivors: Vec<Vec<u32>>,
    /// True when pruning engaged; false runs the exhaustive fold.
    pruning: bool,
    /// Candidate groups (survivors, or all groups when not pruning) with
    /// the running min-combined scores — the current upper bounds.
    acc: Rel,
    /// Lower bounds aligned with `acc`'s rows (empty in degraded modes).
    lo: Vec<f64>,
    stats: TopkStats,
}

impl<'a> TopkEval<'a> {
    /// Set up the evaluation: order the plans cheapest-first, evaluate the
    /// first with bounds, and prune. Costs about one plan evaluation.
    pub fn new(
        db: &'a Database,
        q: &'a Query,
        store: &'a PlanStore,
        roots: &[PlanId],
        k: usize,
        opts: ExecOptions,
    ) -> Result<Self, ExecError> {
        let plans = if roots.len() > 1 {
            order_plans_by_cost(db, q, store, roots)
        } else {
            roots.to_vec()
        };
        let &first = plans.first().expect("no plans to evaluate");
        let prepared = prepare_atoms(db, q)?;
        let par = Par::new(opts.threads);
        let mut this = TopkEval {
            db,
            q,
            store,
            prepared,
            opts,
            k,
            stats: TopkStats {
                plans: plans.len() as u64,
                ..TopkStats::default()
            },
            plans,
            pos: 1,
            ctx: EvalCtx::new(true, par),
            restricted: FxHashMap::default(),
            survivors: Vec::new(),
            pruning: false,
            acc: Rel::empty(Vec::new()),
            lo: Vec::new(),
        };

        // Bounds only pay off when there is something to prune (several
        // plans, more than k groups) and the ranked score actually is a
        // min of per-plan upper bounds.
        let use_bounds =
            opts.semantics == Semantics::Probabilistic && this.plans.len() > 1 && k > 0;
        if use_bounds {
            let mut memo: FxHashMap<PlanId, Bounds> = FxHashMap::default();
            if let Some((first_rel, first_lo)) = this.bounds_eval(first, &mut memo)? {
                this.setup_pruning(&first_rel, &first_lo);
                return Ok(this);
            }
        }
        // Degraded: plain evaluation of the first plan, exhaustive fold.
        let first_rel = eval_node(db, &this.prepared, q, store, first, opts, &mut this.ctx)?;
        this.stats.evaluated = first_rel.len() as u64;
        this.acc = (*first_rel).clone();
        Ok(this)
    }

    /// Choose the threshold, prune, and build the survivor state; falls
    /// back to the exhaustive fold when nothing can be pruned.
    fn setup_pruning(&mut self, first_rel: &Rel, first_lo: &[f64]) {
        let n = first_rel.len();
        let keep = if n > self.k {
            // τ = k-th largest lower bound, shaved so that float rounding
            // in the lo folds can never evict a true top-k member (the
            // bound only needs to hold to ~1e-12 relative; see module
            // docs). Pruning keeps strictly less, so a looser τ only
            // means fewer groups pruned — never a wrong answer.
            let mut lo_sorted = first_lo.to_vec();
            let (_, kth, _) = lo_sorted.select_nth_unstable_by(self.k - 1, |a, b| {
                b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
            });
            let tau = *kth * (1.0 - 1e-9);
            prune_mask(first_rel.scores(), tau, self.opts.threads)
        } else {
            (0..n as u32).collect()
        };

        self.stats.evaluated = keep.len() as u64;
        self.stats.pruned = (n - keep.len()) as u64;
        if keep.len() == n {
            // Nothing pruned: the survivor rows would be every row, so run
            // the cheaper unrestricted fold.
            self.acc = first_rel.clone();
            self.lo = first_lo.to_vec();
            return;
        }

        // Gather the surviving rows (ascending row order keeps the
        // canonical sorted-distinct invariant) and their lower bounds.
        let arity = first_rel.arity();
        let mut surv = Rel::with_capacity(first_rel.vars.clone(), keep.len());
        let mut surv_lo = Vec::with_capacity(keep.len());
        let mut row_buf: Vec<Vid> = vec![0; arity];
        for &i in &keep {
            let i = i as usize;
            for (c, slot) in row_buf.iter_mut().enumerate() {
                *slot = first_rel.get(i, c);
            }
            surv.push_row(&row_buf, first_rel.score(i));
            surv_lo.push(first_lo[i]);
        }

        // Seed each atom with its filter-passing rows whose head-variable
        // vids occur among the surviving groups, then run the shared
        // semi-join fixpoint over those survivor rows.
        let head_vids: Vec<Vec<Vid>> = (0..arity)
            .map(|c| {
                let mut vids = surv.col(c).to_vec();
                vids.sort_unstable();
                vids.dedup();
                vids
            })
            .collect();
        let mut survivors: Vec<Vec<u32>> = Vec::with_capacity(self.prepared.len());
        for (atom, prep) in self.q.atoms().iter().zip(&self.prepared) {
            let checks: Vec<(usize, &[Vid])> = atom
                .terms
                .iter()
                .enumerate()
                .filter_map(|(c, t)| match t {
                    Term::Var(v) => surv.col_of(*v).map(|h| (c, head_vids[h].as_slice())),
                    Term::Const(_) => None,
                })
                .collect();
            let mut rows = Vec::new();
            let shape = ScanShape::of(self.q, atom);
            prep.for_each_surviving_row(self.db.relation(prep.rel), &shape, |i, row| {
                if checks
                    .iter()
                    .all(|(c, vids)| vids.binary_search(&row[*c]).is_ok())
                {
                    rows.push(i);
                }
            });
            survivors.push(rows);
        }
        let preps: Vec<Option<&PreparedAtom>> = self.prepared.iter().map(Some).collect();
        semijoin_fixpoint(self.q, &preps, &mut survivors);
        self.survivors = survivors;
        self.pruning = true;
        self.acc = surv;
        self.lo = surv_lo;
    }

    /// Plans not yet folded into the candidates' scores.
    pub fn remaining(&self) -> usize {
        self.plans.len() - self.pos
    }

    /// Pruning counters (final once [`Self::remaining`] reaches zero).
    pub fn stats(&self) -> TopkStats {
        self.stats
    }

    /// Fold the next plan into the candidate scores. Returns `false` once
    /// every plan has been folded (the bounds are then exact).
    pub fn step(&mut self) -> Result<bool, ExecError> {
        if self.pos >= self.plans.len() {
            return Ok(false);
        }
        let root = self.plans[self.pos];
        self.pos += 1;
        if self.pruning {
            let next = self.restricted_eval(root)?;
            min_into_matching_par(&mut self.acc, &next, self.ctx.par, &mut self.ctx.scratch);
        } else {
            let next = eval_node(
                self.db,
                &self.prepared,
                self.q,
                self.store,
                root,
                self.opts,
                &mut self.ctx,
            )?;
            min_into_par(&mut self.acc, &next, self.ctx.par, &mut self.ctx.scratch);
        }
        Ok(true)
    }

    /// Current candidates as `(answer, lo, hi)` intervals, best current
    /// upper bound first. Intervals shrink as plans fold in; after the
    /// last step `lo == hi == ρ` exactly.
    pub fn bounds(&self) -> Vec<(Box<[Value]>, f64, f64)> {
        let codec = self.db.codec();
        let head = self.q.head();
        let perm: Vec<usize> = head
            .iter()
            .map(|&v| self.acc.col_of(v).expect("head var missing"))
            .collect();
        let exact = self.pos >= self.plans.len();
        let mut out: Vec<(Box<[Value]>, f64, f64)> = (0..self.acc.len())
            .map(|i| {
                let key: Box<[Value]> = perm
                    .iter()
                    .map(|&c| codec.decode(self.acc.get(i, c)).clone())
                    .collect();
                let hi = self.acc.score(i);
                let lo = if exact {
                    hi
                } else if i < self.lo.len() {
                    // Clamp: the lo fold is only mathematically ≤ hi;
                    // rounding may put it an ulp above.
                    self.lo[i].min(hi)
                } else {
                    0.0
                };
                (key, lo, hi)
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        out
    }

    /// Drain the remaining plans and return the exact top-k.
    pub fn finish(mut self) -> Result<TopkResult, ExecError> {
        while self.step()? {}
        let answers = decode_answers(&self.acc, self.q.head(), &self.db.codec());
        Ok(TopkResult {
            ranked: answers.ranked_top(self.k),
            stats: self.stats,
        })
    }

    /// Evaluate a plan node with dual score columns: the primary fold
    /// (bit-identical to [`eval_node`]) plus the max-fold lower bound.
    /// Returns `None` on node shapes outside minimal plans (`Min`), which
    /// degrade to the exhaustive path.
    fn bounds_eval(
        &mut self,
        id: PlanId,
        memo: &mut FxHashMap<PlanId, Bounds>,
    ) -> Result<Option<Bounds>, ExecError> {
        if let Some((rel, lo)) = memo.get(&id) {
            return Ok(Some((Arc::clone(rel), Arc::clone(lo))));
        }
        let store = self.store;
        let node = store.node(id);
        let pair: Bounds = match &node.kind {
            NodeKind::Scan { .. } => {
                // A base tuple is its own best derivation: lo = hi = prob.
                let rel = eval_node(
                    self.db,
                    &self.prepared,
                    self.q,
                    store,
                    id,
                    self.opts,
                    &mut self.ctx,
                )?;
                let lo = Arc::new(rel.scores().to_vec());
                (rel, lo)
            }
            NodeKind::Project { input } => {
                let Some((child, child_lo)) = self.bounds_eval(*input, memo)? else {
                    return Ok(None);
                };
                let keep: Vec<Var> = node.head.iter().collect();
                let (rel, lo) = project_bounds_par(
                    &child,
                    &child_lo,
                    &keep,
                    self.ctx.par,
                    &mut self.ctx.scratch,
                );
                (Arc::new(rel), Arc::new(lo))
            }
            NodeKind::Join { inputs } => {
                let mut children: Vec<Bounds> = Vec::with_capacity(inputs.len());
                for &c in inputs {
                    let Some(pair) = self.bounds_eval(c, memo)? else {
                        return Ok(None);
                    };
                    children.push(pair);
                }
                if children.len() == 1 {
                    children.pop().expect("one child")
                } else {
                    // Fold along the same greedy order join_many_par picks
                    // (it depends only on the primaries' vars and lens,
                    // which are bit-identical to a plain evaluation), so
                    // the primary column reassociates nothing.
                    let prim: Vec<&Rel> = children.iter().map(|(r, _)| r.as_ref()).collect();
                    let order = join_order(&prim);
                    let (a, alo) = &children[order[0]];
                    let (b, blo) = &children[order[1]];
                    let (mut rel, mut lo) =
                        join_aux_par(a, alo, b, blo, self.ctx.par, &mut self.ctx.scratch);
                    for &ix in &order[2..] {
                        let (c, clo) = &children[ix];
                        let (r, l) =
                            join_aux_par(&rel, &lo, c, clo, self.ctx.par, &mut self.ctx.scratch);
                        rel = r;
                        lo = l;
                    }
                    (Arc::new(rel), Arc::new(lo))
                }
            }
            NodeKind::Min { .. } => return Ok(None),
        };
        // The primary column is bit-identical to what eval_node would
        // produce, so later plans sharing this subplan reuse it for free.
        self.ctx.memo.insert(id, Arc::clone(&pair.0));
        memo.insert(id, (Arc::clone(&pair.0), Arc::clone(&pair.1)));
        Ok(Some(pair))
    }

    /// Evaluate a node restricted to the survivor rows. Surviving groups
    /// come out bit-identical to the unrestricted evaluation (see module
    /// docs); node shapes where that argument fails fall back to the full
    /// evaluation, sharing the first plan's memo.
    fn restricted_eval(&mut self, id: PlanId) -> Result<ShRel, ExecError> {
        if let Some(hit) = self.restricted.get(&id) {
            return Ok(Arc::clone(hit));
        }
        let store = self.store;
        let node = store.node(id);
        let result: ShRel = match &node.kind {
            NodeKind::Scan { atom } => Arc::new(scan_atom(
                self.db,
                &self.prepared[*atom],
                &ScanShape::of(self.q, &self.q.atoms()[*atom]),
                Some(&self.survivors[*atom]),
                self.opts.semantics,
                self.ctx.par,
                &mut self.ctx.scratch,
            )),
            NodeKind::Project { input } => {
                let keep: Vec<Var> = node.head.iter().collect();
                let child_node = store.node(*input);
                let eliminated = child_node.head.iter().count().saturating_sub(keep.len());
                if eliminated >= 2 && matches!(child_node.kind, NodeKind::Join { .. }) {
                    // The within-group fold order over a join's layout is
                    // not layout-invariant for ≥ 2 eliminated columns.
                    self.stats.fallback_nodes += 1;
                    return self.unrestricted(id);
                }
                let child = self.restricted_eval(*input)?;
                Arc::new(project_node(
                    &child,
                    &keep,
                    self.opts.semantics,
                    self.ctx.par,
                    &mut self.ctx.scratch,
                ))
            }
            NodeKind::Join { inputs } if inputs.len() <= 2 => {
                let inputs = inputs.clone();
                let children = inputs
                    .iter()
                    .map(|&c| self.restricted_eval(c))
                    .collect::<Result<Vec<_>, _>>()?;
                let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
                Arc::new(join_many_par(&refs, self.ctx.par, &mut self.ctx.scratch))
            }
            // ≥ 3-way joins re-associate under filtered cardinalities;
            // Min nodes don't appear in minimal plan sets.
            NodeKind::Join { .. } | NodeKind::Min { .. } => {
                self.stats.fallback_nodes += 1;
                return self.unrestricted(id);
            }
        };
        self.restricted.insert(id, Arc::clone(&result));
        Ok(result)
    }

    fn unrestricted(&mut self, id: PlanId) -> Result<ShRel, ExecError> {
        eval_node(
            self.db,
            &self.prepared,
            self.q,
            self.store,
            id,
            self.opts,
            &mut self.ctx,
        )
    }
}

/// Surviving row indices (`hi ≥ τ`), ascending; morsel-parallel over the
/// process pool when the budget allows.
fn prune_mask(hi: &[f64], tau: f64, threads: usize) -> Vec<u32> {
    let n = hi.len();
    let par = Par::new(threads);
    let morsels = par.morsels(n);
    if morsels <= 1 {
        return (0..n).filter(|&i| hi[i] >= tau).map(|i| i as u32).collect();
    }
    let chunk = n.div_ceil(morsels);
    let tasks: Vec<_> = (0..n)
        .step_by(chunk)
        .map(|start| {
            let end = (start + chunk).min(n);
            move || {
                (start..end)
                    .filter(|&i| hi[i] >= tau)
                    .map(|i| i as u32)
                    .collect::<Vec<u32>>()
            }
        })
        .collect();
    crate::pool::run_scope(par.threads, tasks).concat()
}

/// Top-k propagation-score ranking with early termination: the first `k`
/// entries of the exhaustive ranking, bit-identical, typically without
/// evaluating most answer groups past the first plan.
///
/// Semantically `propagation_score_ids(db, q, store, roots, opts)?
/// .ranked_top(k)`, plus the pruning counters.
pub fn propagation_score_topk(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
    k: usize,
    opts: ExecOptions,
) -> Result<TopkResult, ExecError> {
    TopkEval::new(db, q, store, roots, k, opts)?.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::propagation_score_ids;
    use lapush_core::minimal_plans;
    use lapush_query::{parse_query, QueryShape};
    use lapush_storage::tuple::tuple;

    /// Deterministic pseudo-random probability in (0, 1).
    fn prob(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        z ^= z >> 31;
        ((z % 997) + 1) as f64 / 1000.0
    }

    /// A 3-atom chain `Q(a) :- R(a,x), S(x,y), T(y)` with enough answer
    /// groups and plans for pruning to engage.
    fn chain_db(n: i64) -> (Database, Query) {
        let mut db = Database::new();
        let r = db.create_relation("R", 2).unwrap();
        let s = db.create_relation("S", 2).unwrap();
        let t = db.create_relation("T", 1).unwrap();
        for i in 0..n {
            db.relation_mut(r)
                .push(tuple([i, i % 7]), prob(i as u64))
                .unwrap();
            db.relation_mut(s)
                .push(tuple([i % 7, i % 5]), prob(1000 + i as u64))
                .unwrap();
            db.relation_mut(t)
                .push(tuple([i % 5]), prob(2000 + i as u64))
                .unwrap();
        }
        let q = parse_query("q(a) :- R(a, x), S(x, y), T(y)").unwrap();
        (db, q)
    }

    fn assert_topk_matches(db: &Database, q: &Query, k: usize, opts: ExecOptions) -> TopkStats {
        let shape = QueryShape::of_query(q);
        let plans = minimal_plans(&shape);
        let mut store = PlanStore::new();
        let roots: Vec<PlanId> = plans.iter().map(|p| store.intern_plan(p)).collect();
        let full = propagation_score_ids(db, q, &store, &roots, opts).unwrap();
        let expected = full.ranked_top(k);
        let got = propagation_score_topk(db, q, &store, &roots, k, opts).unwrap();
        assert_eq!(got.ranked.len(), expected.len());
        for ((gk, gs), (ek, es)) in got.ranked.iter().zip(&expected) {
            assert_eq!(gk, ek);
            assert_eq!(gs.to_bits(), es.to_bits());
        }
        got.stats
    }

    #[test]
    fn topk_matches_exhaustive_prefix() {
        let (db, q) = chain_db(60);
        for k in [1, 3, 10] {
            for threads in [1, 4] {
                let opts = ExecOptions {
                    threads,
                    ..ExecOptions::default()
                };
                let stats = assert_topk_matches(&db, &q, k, opts);
                assert_eq!(stats.evaluated + stats.pruned, 60, "k={k}");
            }
        }
    }

    #[test]
    fn topk_prunes_on_chain() {
        let (db, q) = chain_db(60);
        let stats = assert_topk_matches(&db, &q, 3, ExecOptions::default());
        assert!(stats.plans > 1, "chain-3 has several minimal plans");
        assert!(stats.pruned > 0, "expected pruning, got {stats:?}");
    }

    #[test]
    fn k_at_least_answer_count_degrades() {
        let (db, q) = chain_db(20);
        let stats = assert_topk_matches(&db, &q, 20, ExecOptions::default());
        assert_eq!(stats.pruned, 0);
        let stats = assert_topk_matches(&db, &q, 1000, ExecOptions::default());
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn k_zero_is_empty() {
        let (db, q) = chain_db(10);
        let stats = assert_topk_matches(&db, &q, 0, ExecOptions::default());
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn non_probabilistic_semantics_degrade() {
        let (db, q) = chain_db(30);
        for semantics in [Semantics::LowerBound, Semantics::Deterministic] {
            let opts = ExecOptions {
                semantics,
                ..ExecOptions::default()
            };
            let stats = assert_topk_matches(&db, &q, 5, opts);
            assert_eq!(stats.pruned, 0, "{semantics:?} must not prune");
        }
    }

    #[test]
    fn boolean_query_top1() {
        // Example 17: a Boolean query has at most one answer group.
        let mut db = Database::new();
        let r = db.create_relation("R", 1).unwrap();
        let s = db.create_relation("S", 1).unwrap();
        let t = db.create_relation("T", 2).unwrap();
        let u = db.create_relation("U", 1).unwrap();
        for x in [1, 2] {
            db.relation_mut(r).push(tuple([x]), 0.5).unwrap();
            db.relation_mut(s).push(tuple([x]), 0.5).unwrap();
            db.relation_mut(u).push(tuple([x]), 0.5).unwrap();
        }
        for (x, y) in [(1, 1), (1, 2), (2, 2)] {
            db.relation_mut(t).push(tuple([x, y]), 0.5).unwrap();
        }
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let got = assert_topk_matches(&db, &q, 1, ExecOptions::default());
        assert_eq!(got.evaluated, 1);
    }

    #[test]
    fn survivors_restrict_on_shared_variable_pairs() {
        // `R` and `S` share (x, y). The top group a = 0 has a joining row
        // (0, 0, 0) and a row (0, 1, 0) whose x and y each occur in `S`
        // but never together: a per-variable filter keeps it, the
        // pairwise fixpoint drops it.
        let mut db = Database::new();
        let r = db.create_relation("R", 3).unwrap();
        let s = db.create_relation("S", 3).unwrap();
        let t = db.create_relation("T", 1).unwrap();
        db.relation_mut(r).push(tuple([0, 0, 0]), 0.9).unwrap();
        db.relation_mut(r).push(tuple([0, 1, 0]), 0.9).unwrap();
        for a in 1..20 {
            db.relation_mut(r)
                .push(tuple([a, a % 2, a % 2]), prob(a as u64) * 0.5)
                .unwrap();
        }
        for (x, y, z) in [(0, 0, 0), (1, 1, 1), (0, 0, 1), (1, 1, 0)] {
            db.relation_mut(s).push(tuple([x, y, z]), 0.9).unwrap();
        }
        db.relation_mut(t).push(tuple([0]), 0.9).unwrap();
        db.relation_mut(t).push(tuple([1]), 0.8).unwrap();
        let q = parse_query("q(a) :- R(a, x, y), S(x, y, z), T(z)").unwrap();
        let shape = QueryShape::of_query(&q);
        let mut store = PlanStore::new();
        let roots: Vec<PlanId> = minimal_plans(&shape)
            .iter()
            .map(|p| store.intern_plan(p))
            .collect();
        let eval = TopkEval::new(&db, &q, &store, &roots, 1, ExecOptions::default()).unwrap();
        assert!(eval.pruning, "{:?}", eval.stats);
        assert!(eval.survivors[0].contains(&0));
        assert!(!eval.survivors[0].contains(&1), "dangling pair kept");
        assert_topk_matches(&db, &q, 1, ExecOptions::default());
    }

    #[test]
    fn anytime_intervals_shrink_and_converge() {
        let (db, q) = chain_db(60);
        let shape = QueryShape::of_query(&q);
        let plans = minimal_plans(&shape);
        let mut store = PlanStore::new();
        let roots: Vec<PlanId> = plans.iter().map(|p| store.intern_plan(p)).collect();
        let opts = ExecOptions::default();
        let mut eval = TopkEval::new(&db, &q, &store, &roots, 5, opts).unwrap();
        type Snapshot = Vec<(Box<[Value]>, f64, f64)>;
        let mut prev: Option<Snapshot> = None;
        loop {
            let snap = eval.bounds();
            for (key, lo, hi) in &snap {
                assert!(lo <= hi, "{key:?}: [{lo}, {hi}]");
            }
            if let Some(prev) = &prev {
                // Upper bounds only shrink; candidate set is fixed.
                assert_eq!(prev.len(), snap.len());
                for (key, _, hi) in &snap {
                    let old = prev
                        .iter()
                        .find(|(k, _, _)| k == key)
                        .map(|&(_, _, h)| h)
                        .unwrap();
                    assert!(*hi <= old);
                }
            }
            prev = Some(snap);
            if !eval.step().unwrap() {
                break;
            }
        }
        let last = prev.unwrap();
        for (_, lo, hi) in &last {
            assert_eq!(lo.to_bits(), hi.to_bits(), "exact after the last plan");
        }
        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        let expected = full.ranked_top(5);
        let got = eval.finish().unwrap();
        for ((gk, gs), (ek, es)) in got.ranked.iter().zip(&expected) {
            assert_eq!(gk, ek);
            assert_eq!(gs.to_bits(), es.to_bits());
        }
    }
}
