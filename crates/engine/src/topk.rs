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
//! The surviving groups' head-variable values become per-atom vid
//! membership filters (`ScanFilter`) for the remaining plans, then a
//! semi-join reduction sweep propagates them through join variables into
//! the atoms holding no head variable (the middle of a chain): each sweep
//! intersects, per variable, the value sets surviving in every atom
//! containing it, and refilters. A filtered scan only removes rows that
//! participate in no full join producing a surviving answer; every row
//! contributing to a surviving group passes (its variable values occur in
//! all the co-rows of the same full join, which pass by induction), so
//! each surviving group's row multiset — and therefore its folded score —
//! is unchanged at every plan node. The removed rows can't leak into a
//! surviving fold either: a minimal plan eliminates a variable only after
//! joining every atom containing it, so a removed row — dangling on some
//! variable — is dropped at that variable's join (or its fold group is,
//! carrying the dangling value) before reaching the root. Two node shapes could still reassociate float products under the
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
    decode_answers, eval_node, order_plans_by_cost, scan_atom_filtered, EvalCtx, ExecError,
    ExecOptions, ScanFilter, Semantics, ShRel,
};
use crate::prepare::{prepare_atoms, PreparedAtom, ScanShape};
use crate::rel::{
    join_aux_par, join_many_par, join_order, min_into_matching_par, min_into_par,
    project_bounds_par, project_det_par, project_max_par, project_prob_par, Par, Rel,
};
use lapush_core::{NodeKind, PlanId, PlanStore};
use lapush_query::{Query, Term, Var};
use lapush_storage::{Database, FxHashMap, FxHashSet, Value, Vid};
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
    /// Memo of restricted (survivor-filtered) node results, valid across
    /// plans because the survivor set is fixed after construction.
    restricted: FxHashMap<PlanId, ShRel>,
    /// Per-atom scan filters (empty sets ⇒ the atom is unfiltered).
    filters: Vec<ScanFilter>,
    /// Per-node memo of "subtree contains a filtered atom".
    affected: FxHashMap<PlanId, bool>,
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
            filters: Vec::new(),
            affected: FxHashMap::default(),
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
            // Nothing pruned: the filters would be full-domain no-ops, so
            // run the cheaper unrestricted fold.
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

        // Per-head-variable membership sets over the survivors, attached
        // to every atom position holding that variable.
        let mut var_sets: Vec<(Var, Arc<FxHashSet<Vid>>)> = Vec::with_capacity(arity);
        for (c, &v) in surv.vars.iter().enumerate() {
            let set: FxHashSet<Vid> = surv.col(c).iter().copied().collect();
            var_sets.push((v, Arc::new(set)));
        }
        self.filters = self
            .q
            .atoms()
            .iter()
            .map(|atom| {
                let mut sets = Vec::new();
                for (ti, term) in atom.terms.iter().enumerate() {
                    if let Term::Var(u) = term {
                        if let Some((_, set)) = var_sets.iter().find(|(v, _)| v == u) {
                            sets.push((ti, (**set).clone()));
                        }
                    }
                }
                ScanFilter { sets }
            })
            .collect();
        self.semijoin_reduce();
        self.pruning = true;
        self.acc = surv;
        self.lo = surv_lo;
    }

    /// Tighten the per-atom filters by semi-join reduction: sweep the base
    /// atoms under the current filters, collect each variable's surviving
    /// value set, intersect across the atoms sharing the variable, and
    /// refilter — so the head-variable restriction propagates through join
    /// variables into atoms that hold no head variable at all (the middle
    /// of a chain). A row removed here has some variable value absent from
    /// a neighboring atom's surviving rows, so it participates in no full
    /// join with a surviving answer — and because minimal plans eliminate
    /// a variable only after joining every atom containing it, such a row
    /// is dropped at a join (or its fold group is) before its probability
    /// can reach a surviving group's score: the surviving groups' row
    /// multisets, fold orders, and score bits are unchanged (see module
    /// docs). Sweeps are capped at the atom count (a chain's diameter) and
    /// cost one hash-probe pass over the base rows each.
    fn semijoin_reduce(&mut self) {
        let atoms = self.q.atoms();
        let sweeps = atoms.len().min(4);
        let mut prev_sizes: Vec<(Var, usize)> = Vec::new();
        for _ in 0..sweeps {
            let mut var_allowed: Vec<(Var, FxHashSet<Vid>)> = Vec::new();
            for (ai, atom) in atoms.iter().enumerate() {
                let prep = &self.prepared[ai];
                let rel = self.db.relation(prep.rel);
                let shape = ScanShape::of(self.q, atom);
                let positions: Vec<(usize, Var)> = atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter_map(|(ti, t)| match t {
                        Term::Var(v) => Some((ti, *v)),
                        Term::Const(_) => None,
                    })
                    .collect();
                let mut local: Vec<FxHashSet<Vid>> = vec![FxHashSet::default(); positions.len()];
                let filter = &self.filters[ai];
                prep.for_each_surviving_row(rel, &shape, |_, row| {
                    for (c, set) in &filter.sets {
                        if !set.contains(&row[*c]) {
                            return;
                        }
                    }
                    for (slot, (c, _)) in local.iter_mut().zip(&positions) {
                        slot.insert(row[*c]);
                    }
                });
                for (seen, &(_, v)) in local.into_iter().zip(&positions) {
                    match var_allowed.iter_mut().find(|(u, _)| *u == v) {
                        Some((_, acc)) => acc.retain(|vid| seen.contains(vid)),
                        None => var_allowed.push((v, seen)),
                    }
                }
            }
            for (ai, atom) in atoms.iter().enumerate() {
                let sets = atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter_map(|(ti, t)| match t {
                        Term::Var(v) => var_allowed
                            .iter()
                            .find(|(u, _)| u == v)
                            .map(|(_, set)| (ti, set.clone())),
                        Term::Const(_) => None,
                    })
                    .collect();
                self.filters[ai] = ScanFilter { sets };
            }
            // Fixpoint: a sweep that shrank no variable's set cannot
            // change the filters further (any sweep count is sound — this
            // only skips no-op passes).
            let sizes: Vec<(Var, usize)> =
                var_allowed.iter().map(|(v, set)| (*v, set.len())).collect();
            if sizes == prev_sizes {
                break;
            }
            prev_sizes = sizes;
        }
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

    /// True when the subtree under `id` scans a filtered atom — i.e. a
    /// restricted evaluation could differ from the unrestricted one.
    fn is_affected(&mut self, id: PlanId) -> bool {
        if let Some(&hit) = self.affected.get(&id) {
            return hit;
        }
        let store = self.store;
        let hit = match &store.node(id).kind {
            NodeKind::Scan { atom } => !self.filters[*atom].sets.is_empty(),
            NodeKind::Project { input } => self.is_affected(*input),
            NodeKind::Join { inputs } | NodeKind::Min { inputs } => {
                inputs.iter().any(|&c| self.is_affected(c))
            }
        };
        self.affected.insert(id, hit);
        hit
    }

    /// Evaluate a node restricted to the survivor filters. Surviving
    /// groups come out bit-identical to the unrestricted evaluation (see
    /// module docs); node shapes where that argument fails fall back to
    /// the full evaluation, sharing the first plan's memo.
    fn restricted_eval(&mut self, id: PlanId) -> Result<ShRel, ExecError> {
        if !self.is_affected(id) {
            return eval_node(
                self.db,
                &self.prepared,
                self.q,
                self.store,
                id,
                self.opts,
                &mut self.ctx,
            );
        }
        if let Some(hit) = self.restricted.get(&id) {
            return Ok(Arc::clone(hit));
        }
        let store = self.store;
        let node = store.node(id);
        let result: ShRel = match &node.kind {
            NodeKind::Scan { atom } => Arc::new(scan_atom_filtered(
                self.db,
                &self.prepared[*atom],
                self.q,
                &self.q.atoms()[*atom],
                &self.filters[*atom],
                self.opts,
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
                Arc::new(match self.opts.semantics {
                    Semantics::Probabilistic => {
                        project_prob_par(&child, &keep, self.ctx.par, &mut self.ctx.scratch)
                    }
                    Semantics::LowerBound => {
                        project_max_par(&child, &keep, self.ctx.par, &mut self.ctx.scratch)
                    }
                    Semantics::Deterministic => {
                        project_det_par(&child, &keep, self.ctx.par, &mut self.ctx.scratch)
                    }
                })
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
