//! Plan evaluation.
//!
//! Evaluation is dictionary-encoded end to end: the atom scan encodes base
//! tuples into vid rows via the database's codec (`Database::codec`), every
//! operator in [`crate::rel`] runs on those encoded rows as **sorted
//! columnar batches** (see the module docs of [`crate::rel`]), and the
//! final result is decoded back to [`Value`]s exactly once — here, at the
//! [`AnswerSet`] boundary. Public signatures and results are identical to
//! the hash-map engine; only the intermediate representation changed.
//!
//! Evaluation is optionally parallel ([`ExecOptions::threads`]): operators
//! partition large batches into key-range morsels run as pool tasks, and
//! [`propagation_score_ids`] additionally parallelizes its embarrassingly
//! parallel outer loop — the minimal-plan roots — after a serial pre-pass
//! has evaluated every memo-shared subplan once. Results are bit-identical
//! at every thread count; `threads: 1` (the default) never touches the pool.

use crate::prepare::{prepare_atoms, PrepareError, PreparedAtom, ScanShape};
use crate::rel::{
    join_many_par, min_combine_par, min_into_par, project_det_par, project_node, Par, Rel, Scratch,
};
use lapush_core::{NodeKind, Plan, PlanId, PlanStore};
use lapush_query::{Query, Var};
use lapush_storage::{Database, DbCodec, FxHashMap, Value, Vid};
use std::fmt;
use std::sync::Arc;

/// Score semantics for evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Extensional probabilistic semantics (Definition 4): joins multiply,
    /// projections combine duplicates with independent-OR. Upper-bounds the
    /// true probability (Corollary 19).
    #[default]
    Probabilistic,
    /// Lower-bound semantics (extension): joins multiply, projections take
    /// the *maximum* over the group. Sound because the events of a monotone
    /// lineage are positively associated: `P(⋁ᵢ eᵢ) ≥ maxᵢ P(eᵢ)` and, by
    /// the FKG inequality, `P(e ∧ e′) ≥ P(e)·P(e′)`. Together with
    /// [`Semantics::Probabilistic`] this sandwiches the true probability.
    LowerBound,
    /// Standard set semantics (every score is 1): the "deterministic SQL"
    /// baseline of the experiments.
    Deterministic,
}

impl Semantics {
    /// Score of a base tuple with probability `prob` as it enters a scan:
    /// the probability itself, or 1 under set semantics.
    #[inline]
    pub(crate) fn scan_score(self, prob: f64) -> f64 {
        match self {
            Semantics::Probabilistic | Semantics::LowerBound => prob,
            Semantics::Deterministic => 1.0,
        }
    }
}

/// Evaluation options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Score semantics.
    pub semantics: Semantics,
    /// Optimization 2: memoize shared subquery results while evaluating a
    /// single plan (sound for plans produced by `lapush_core::single_plan`,
    /// whose equal subquery keys denote equal subplans).
    pub reuse_views: bool,
    /// Morsel-parallelism budget: maximum concurrent tasks an evaluation
    /// may run on the process-wide work-stealing pool ([`crate::pool`]),
    /// which also sizes the pool's lazily-spawned worker set. `1` — the
    /// default — is fully serial and never touches the pool. Any value
    /// produces bit-identical results; see [`crate::rel`].
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            semantics: Semantics::default(),
            reuse_views: false,
            threads: 1,
        }
    }
}

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The plan references a relation missing from the database.
    UnknownRelation(String),
    /// Arity mismatch between an atom and its relation.
    AtomArity {
        /// Relation name.
        relation: String,
        /// Columns in the stored relation.
        relation_arity: usize,
        /// Terms in the query atom.
        atom_arity: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ExecError::AtomArity {
                relation,
                relation_arity,
                atom_arity,
            } => write!(
                f,
                "atom over `{relation}` has {atom_arity} terms but the relation has {relation_arity} columns"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PrepareError> for ExecError {
    fn from(e: PrepareError) -> Self {
        match e {
            PrepareError::UnknownRelation(r) => ExecError::UnknownRelation(r),
            PrepareError::AtomArity {
                relation,
                relation_arity,
                atom_arity,
            } => ExecError::AtomArity {
                relation,
                relation_arity,
                atom_arity,
            },
        }
    }
}

/// The result of evaluating a plan: per answer tuple (head variables of the
/// query, in head order) a score.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// Head variables, in the query's head order.
    pub vars: Vec<Var>,
    /// Answer tuples with scores.
    pub rows: FxHashMap<Box<[Value]>, f64>,
}

impl AnswerSet {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no answers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Score of a Boolean query (the single empty-tuple answer);
    /// 0 when there is no answer.
    pub fn boolean_score(&self) -> f64 {
        let k: Box<[Value]> = Box::new([]);
        self.rows.get(&k).copied().unwrap_or(0.0)
    }

    /// Score of one answer tuple (0 if absent).
    pub fn score_of(&self, key: &[Value]) -> f64 {
        self.rows.get(key).copied().unwrap_or(0.0)
    }

    /// Answers sorted by descending score, ties broken by tuple value for
    /// determinism.
    ///
    /// Sorts borrowed entries and clones each key once, on output; the
    /// (score, key) order is total, so the unstable sort is deterministic.
    pub fn ranked(&self) -> Vec<(Box<[Value]>, f64)> {
        let mut v: Vec<(&Box<[Value]>, f64)> = self.rows.iter().map(|(k, &s)| (k, s)).collect();
        v.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        v.into_iter().map(|(k, s)| (k.clone(), s)).collect()
    }

    /// The top `k` of [`AnswerSet::ranked`] without sorting — or cloning —
    /// the full answer set: a bounded binary heap keeps the best `k`
    /// entries seen so far (`O(n log k)`), and only those are sorted and
    /// cloned on output. The (score, key) order is total and keys are
    /// distinct, so the result is exactly `ranked()` truncated to `k`.
    pub fn ranked_top(&self, k: usize) -> Vec<(Box<[Value]>, f64)> {
        if k == 0 {
            return Vec::new();
        }
        if k >= self.len() {
            return self.ranked();
        }
        // Entries order by *rank*: `Greater` means ranked later (worse),
        // so the max-heap's top is the worst of the kept k.
        struct Entry<'a>(&'a [Value], f64);
        impl Entry<'_> {
            fn rank_cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .1
                    .partial_cmp(&self.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| self.0.cmp(other.0))
            }
        }
        impl PartialEq for Entry<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.rank_cmp(other).is_eq()
            }
        }
        impl Eq for Entry<'_> {}
        impl PartialOrd for Entry<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.rank_cmp(other)
            }
        }
        let mut heap: std::collections::BinaryHeap<Entry<'_>> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        for (key, &score) in &self.rows {
            let e = Entry(key, score);
            if heap.len() < k {
                heap.push(e);
            } else if e
                .rank_cmp(heap.peek().expect("heap holds k entries"))
                .is_lt()
            {
                heap.pop();
                heap.push(e);
            }
        }
        // Ascending heap order *is* rank order: best first.
        heap.into_sorted_vec()
            .into_iter()
            .map(|Entry(key, s)| (Box::from(key), s))
            .collect()
    }

    /// Combine with another answer set by per-tuple maximum (used to pick
    /// the best lower bound across plans).
    pub fn max_with(&mut self, other: &AnswerSet) {
        debug_assert_eq!(self.vars, other.vars);
        for (k, &s) in &other.rows {
            match self.rows.get_mut(k) {
                Some(cur) => *cur = cur.max(s),
                None => {
                    self.rows.insert(k.clone(), s);
                }
            }
        }
    }

    /// Combine with another answer set by per-tuple minimum.
    pub fn min_with(&mut self, other: &AnswerSet) {
        debug_assert_eq!(self.vars, other.vars);
        for (k, &s) in &other.rows {
            match self.rows.get_mut(k) {
                Some(cur) => *cur = cur.min(s),
                None => {
                    self.rows.insert(k.clone(), s);
                }
            }
        }
    }
}

/// Evaluate one plan against the database.
///
/// The returned [`AnswerSet`] is keyed by the query's head variables in head
/// order. With [`Semantics::Probabilistic`] the scores are the extensional
/// scores of the plan (upper bounds on the answer probabilities,
/// Corollary 19).
pub fn eval_plan(
    db: &Database,
    q: &Query,
    plan: &Plan,
    opts: ExecOptions,
) -> Result<AnswerSet, ExecError> {
    let mut store = PlanStore::new();
    let root = store.intern_plan(plan);
    eval_plan_id(db, q, &store, root, opts)
}

/// Evaluate one interned plan of `store` against the database — the
/// id-based core behind [`eval_plan`].
///
/// With `reuse_views` the evaluation memoizes every node result by
/// [`PlanId`]: hash-consing makes id equality structural equality, so this
/// is Optimization 2's view sharing (for plans from
/// `lapush_core::single_plan`, equal subquery keys denote equal subplans,
/// hence equal ids) and is sound for *any* plan, not only single plans.
pub fn eval_plan_id(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    root: PlanId,
    opts: ExecOptions,
) -> Result<AnswerSet, ExecError> {
    let prepared = prepare_atoms(db, q)?;
    let mut ctx = EvalCtx::new(opts.reuse_views, Par::new(opts.threads));
    let rel = eval_node(db, &prepared, q, store, root, opts, &mut ctx)?;
    Ok(decode_answers(&rel, q.head(), &db.codec()))
}

/// Evaluation results are shared, not copied: memo hits (scans, reused
/// views) hand out another reference to the same relation. `Arc`, not
/// `Rc`: the memo crosses task boundaries in the parallel outer
/// loop of [`propagation_score_ids`].
pub(crate) type ShRel = Arc<Rel>;

/// Per-evaluation memoization state: one memo keyed by [`PlanId`], plus
/// the parallelism budget and the reusable sort scratch shared by every
/// operator call of this evaluation.
///
/// Scan nodes are always memoized (a scan depends only on the database,
/// the atom, and the semantics — all fixed for the lifetime of the
/// context). Inner nodes are memoized when `memo_all` is set: for a single
/// plan that is Optimization 2's view reuse; across the plan set of
/// [`propagation_score`] it makes identical subplans of different minimal
/// plans evaluate exactly once. Either way a hit returns the same relation
/// the recomputation would produce, so results are bit-identical.
pub(crate) struct EvalCtx {
    pub(crate) memo: FxHashMap<PlanId, ShRel>,
    pub(crate) memo_all: bool,
    pub(crate) par: Par,
    pub(crate) scratch: Scratch,
}

impl EvalCtx {
    pub(crate) fn new(memo_all: bool, par: Par) -> Self {
        EvalCtx {
            memo: FxHashMap::default(),
            memo_all,
            par,
            scratch: Scratch::default(),
        }
    }
}

/// Decode an encoded result into the value-level [`AnswerSet`], reordering
/// columns to the query's head order. This is the single point where vids
/// become [`Value`]s again.
pub(crate) fn decode_answers(rel: &Rel, head: &[Var], codec: &DbCodec<'_>) -> AnswerSet {
    let perm: Vec<usize> = head
        .iter()
        .map(|&v| rel.col_of(v).expect("plan head misses query head var"))
        .collect();
    let mut rows: FxHashMap<Box<[Value]>, f64> =
        FxHashMap::with_capacity_and_hasher(rel.len(), Default::default());
    for i in 0..rel.len() {
        let key: Box<[Value]> = perm
            .iter()
            .map(|&c| codec.decode(rel.get(i, c)).clone())
            .collect();
        rows.insert(key, rel.score(i));
    }
    AnswerSet {
        vars: head.to_vec(),
        rows,
    }
}

pub(crate) fn eval_node(
    db: &Database,
    prepared: &[PreparedAtom],
    q: &Query,
    store: &PlanStore,
    id: PlanId,
    opts: ExecOptions,
    ctx: &mut EvalCtx,
) -> Result<ShRel, ExecError> {
    let node = store.node(id);
    let is_scan = matches!(node.kind, NodeKind::Scan { .. });
    let cacheable = is_scan || ctx.memo_all;
    if cacheable {
        if let Some(hit) = ctx.memo.get(&id) {
            return Ok(Arc::clone(hit));
        }
    }
    let result: ShRel = match &node.kind {
        NodeKind::Scan { atom } => Arc::new(scan_atom(
            db,
            &prepared[*atom],
            &ScanShape::of(q, &q.atoms()[*atom]),
            None,
            opts.semantics,
            ctx.par,
            &mut ctx.scratch,
        )),
        NodeKind::Project { input } => {
            let child = eval_node(db, prepared, q, store, *input, opts, ctx)?;
            let keep: Vec<Var> = node.head.iter().collect();
            Arc::new(project_node(
                &child,
                &keep,
                opts.semantics,
                ctx.par,
                &mut ctx.scratch,
            ))
        }
        NodeKind::Join { inputs } => {
            let children = inputs
                .iter()
                .map(|&c| eval_node(db, prepared, q, store, c, opts, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
            Arc::new(join_many_par(&refs, ctx.par, &mut ctx.scratch))
        }
        NodeKind::Min { inputs } => {
            // Min branches are distinct subplans with distinct ids, so the
            // id-keyed memo never conflates them with this node — the
            // subquery-key collision the tree evaluator had to special-case
            // cannot happen here.
            let children = inputs
                .iter()
                .map(|&c| eval_node(db, prepared, q, store, c, opts, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
            Arc::new(min_combine_par(&refs, ctx.par, &mut ctx.scratch))
        }
    };
    if cacheable {
        ctx.memo.insert(id, Arc::clone(&result));
    }
    Ok(result)
}

/// Scan one atom: filter by constants, repeated variables, and selection
/// predicates; output the atom's distinct variables as a sorted columnar
/// batch.
///
/// Constant and repeated-variable filters run on vids (equal values ⇔
/// equal vids); order/pattern predicates are not id-representable and run
/// on the stored values before the row enters the encoded pipeline. The
/// atom was resolved and encoded by [`prepare_atoms`]; no lock is held
/// here. With `rows` the scan reads exactly those row ordinals instead —
/// rows already known to pass the filters, such as a semi-join reducer's
/// survivors — so each row it keeps comes out bit-identical to its
/// counterpart in the full scan. The pass appends in storage order; the
/// closing canonicalization (a key-range-partitioned sort when `par`
/// allows) establishes the operators' sorted invariant.
pub(crate) fn scan_atom(
    db: &Database,
    prep: &PreparedAtom,
    shape: &ScanShape<'_>,
    rows: Option<&[u32]>,
    semantics: Semantics,
    par: Par,
    scratch: &mut Scratch,
) -> Rel {
    let rel = db.relation(prep.rel);
    // Pre-size the output only when its size is known (an unfiltered scan
    // is exact up to in-atom duplicates); a selective filter over a large
    // relation must not allocate a full-size table.
    let cap = match rows {
        Some(rows) => rows.len(),
        None if shape.is_unfiltered(prep) => rel.len(),
        None => 0,
    };
    let mut out = Rel::with_capacity(shape.out_vars.clone(), cap);
    let mut row_buf: Vec<Vid> = vec![0; shape.out_cols.len()];
    let mut push = |i: u32, row: &[Vid]| {
        for (slot, &c) in row_buf.iter_mut().zip(&shape.out_cols) {
            *slot = row[c];
        }
        out.push_row(&row_buf, semantics.scan_score(rel.prob(i)));
    };
    match rows {
        Some(rows) => rows.iter().for_each(|&i| push(i, prep.row(i))),
        None => prep.for_each_surviving_row(rel, shape, push),
    }
    out.canonicalize(par, scratch);
    out
}

/// Cheap per-root cost estimate over a plan set: reachable plan-node
/// count × total input cardinality (summed lengths of the scanned
/// relations; a relation missing from the database counts 0 — evaluation
/// surfaces the error later). Deliberately crude: it only has to separate
/// cheap roots from expensive ones so the plan-set loop and the top-k
/// driver can evaluate cheapest-first.
pub fn plan_cost_estimates(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
) -> Vec<(PlanId, u64)> {
    roots
        .iter()
        .map(|&root| {
            let nodes = store.reachable(&[root]);
            let rows: u64 = nodes
                .iter()
                .filter_map(|&id| match store.node(id).kind {
                    NodeKind::Scan { atom } => db.relation_by_name(&q.atoms()[atom].relation).ok(),
                    _ => None,
                })
                .map(|rel| rel.len() as u64)
                .sum();
            (root, nodes.len() as u64 * rows.max(1))
        })
        .collect()
}

/// `roots` reordered cheapest-first by [`plan_cost_estimates`]; ties keep
/// their input order (stable sort), so the result is a deterministic
/// permutation for a fixed database and plan set.
pub fn order_plans_by_cost(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
) -> Vec<PlanId> {
    let est = plan_cost_estimates(db, q, store, roots);
    let mut idx: Vec<usize> = (0..roots.len()).collect();
    idx.sort_by_key(|&i| est[i].1);
    idx.into_iter().map(|i| roots[i]).collect()
}

/// Evaluate a set of plans and combine their scores with a per-tuple
/// minimum: the propagation score `ρ(q)` when given all minimal plans
/// (Definition 14).
///
/// The plans are interned into one hash-consed store first, so subplans
/// shared across minimal plans — for chain queries, almost all of them —
/// evaluate exactly once (see [`propagation_score_ids`]).
pub fn propagation_score(
    db: &Database,
    q: &Query,
    plans: &[Plan],
    opts: ExecOptions,
) -> Result<AnswerSet, ExecError> {
    let mut store = PlanStore::new();
    let roots: Vec<PlanId> = plans.iter().map(|p| store.intern_plan(p)).collect();
    propagation_score_ids(db, q, &store, &roots, opts)
}

/// [`propagation_score`] over interned plans: one [`PlanId`]-keyed memo
/// spans the whole plan set, so every distinct subplan — scans, shared
/// views, entire subtrees common to several minimal plans — is evaluated
/// exactly once per call. Results are bit-identical to evaluating each
/// plan in isolation (a memo hit returns the same relation the
/// recomputation would), only the repeated work disappears.
///
/// With `opts.threads > 1` the plan roots are evaluated in parallel: a
/// serial pre-pass first evaluates every subplan reachable from two or
/// more roots (exactly the nodes the shared memo would deduplicate), then
/// the roots are chunked across pool tasks, each with a read-only view
/// of the pre-computed memo. Per-root results are folded with
/// [`min_into_par`] in root order, so the answer is bit-identical to the
/// serial evaluation.
///
/// Multi-plan sets are evaluated cheapest-first ([`order_plans_by_cost`]):
/// the accumulator starts from the smallest evaluation, and the anytime
/// top-k driver's threshold tightens fastest. The pointwise `min` over
/// probability scores (no NaNs, no signed zeros) is exactly commutative
/// and associative, so the reordering is invisible in the result — every
/// score stays bit-identical to the enumeration-order fold.
pub fn propagation_score_ids(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
    opts: ExecOptions,
) -> Result<AnswerSet, ExecError> {
    let ordered: Vec<PlanId>;
    let roots: &[PlanId] = if roots.len() > 1 {
        ordered = order_plans_by_cost(db, q, store, roots);
        &ordered
    } else {
        roots
    };
    let (&first_root, rest) = roots.split_first().expect("no plans to evaluate");
    let prepared = prepare_atoms(db, q)?;
    let threads = opts.threads.max(1);
    let par = Par::new(threads);
    if threads == 1 || rest.is_empty() {
        let mut ctx = EvalCtx::new(true, par);
        let first = eval_node(db, &prepared, q, store, first_root, opts, &mut ctx)?;
        // The memo keeps every node's Arc alive, so the first result can
        // never be unwrapped in place; clone it only once a second plan
        // actually needs a mutable accumulator (single-plan sets decode it
        // directly).
        let mut acc: Option<Rel> = None;
        for &root in rest {
            let next = eval_node(db, &prepared, q, store, root, opts, &mut ctx)?;
            min_into_par(
                acc.get_or_insert_with(|| (*first).clone()),
                &next,
                ctx.par,
                &mut ctx.scratch,
            );
        }
        let result = acc.as_ref().unwrap_or_else(|| first.as_ref());
        return Ok(decode_answers(result, q.head(), &db.codec()));
    }

    // Serial pre-pass: evaluate every memo-shared subplan (reachable from
    // ≥ 2 roots) once, with the full intra-operator parallelism budget.
    let mut ctx = EvalCtx::new(true, par);
    for id in shared_subplans(store, roots) {
        eval_node(db, &prepared, q, store, id, opts, &mut ctx)?;
    }

    // Parallel outer loop: contiguous root chunks become pool tasks, each
    // with its own context seeded from the shared memo (Arc clones). Nodes
    // outside the pre-pass are by construction reachable from exactly one
    // root, so no work is repeated across tasks.
    let chunk_len = roots.len().div_ceil(threads);
    let prepared_ref = &prepared;
    let memo_ref = &ctx.memo;
    let tasks: Vec<_> = roots
        .chunks(chunk_len)
        .map(|chunk| {
            move || -> Result<Vec<ShRel>, ExecError> {
                let mut local = EvalCtx::new(true, Par::serial());
                local.memo = memo_ref.clone();
                chunk
                    .iter()
                    .map(|&root| eval_node(db, prepared_ref, q, store, root, opts, &mut local))
                    .collect()
            }
        })
        .collect();
    let evaluated: Vec<Result<Vec<ShRel>, ExecError>> = crate::pool::run_scope(threads, tasks);
    let mut per_root: Vec<ShRel> = Vec::with_capacity(roots.len());
    for chunk in evaluated {
        per_root.extend(chunk?);
    }
    // Fold in root order — the same order and the same pointwise min the
    // serial path applies.
    let mut acc: Rel = (*per_root[0]).clone();
    for next in &per_root[1..] {
        min_into_par(&mut acc, next, par, &mut ctx.scratch);
    }
    Ok(decode_answers(&acc, q.head(), &db.codec()))
}

/// Plan nodes reachable from two or more of `roots`, in ascending id
/// order (children before parents). These are exactly the nodes whose
/// results the shared memo of [`propagation_score_ids`] deduplicates; the
/// parallel path evaluates them serially up front so no two threads race
/// to compute the same subplan.
fn shared_subplans(store: &PlanStore, roots: &[PlanId]) -> Vec<PlanId> {
    let mut count: Vec<u8> = vec![0; store.len()];
    let mut shared: Vec<PlanId> = Vec::new();
    for &root in roots {
        for id in store.reachable(&[root]) {
            let n = &mut count[id.index()];
            *n = n.saturating_add(1);
            if *n == 2 {
                shared.push(id);
            }
        }
    }
    shared.sort_unstable();
    shared
}

/// The "standard SQL" baseline: evaluate the query under set semantics with
/// one flat join followed by a distinct projection — no probabilistic
/// arithmetic at all.
pub fn deterministic_answers(db: &Database, q: &Query) -> Result<AnswerSet, ExecError> {
    deterministic_answers_par(db, q, 1)
}

/// [`deterministic_answers`] with a morsel-parallelism budget (results are
/// identical at every thread count).
pub fn deterministic_answers_par(
    db: &Database,
    q: &Query,
    threads: usize,
) -> Result<AnswerSet, ExecError> {
    let par = Par::new(threads);
    let mut scratch = Scratch::default();
    let prepared = prepare_atoms(db, q)?;
    let scans: Vec<Rel> = q
        .atoms()
        .iter()
        .zip(&prepared)
        .map(|(a, prep)| {
            let (shape, sem) = (ScanShape::of(q, a), Semantics::Deterministic);
            scan_atom(db, prep, &shape, None, sem, par, &mut scratch)
        })
        .collect();
    let refs: Vec<&Rel> = scans.iter().collect();
    let joined = join_many_par(&refs, par, &mut scratch);
    let projected = project_det_par(&joined, q.head(), par, &mut scratch);
    Ok(decode_answers(&projected, q.head(), &db.codec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_core::{minimal_plans, safe_plan};
    use lapush_query::{parse_query, QueryShape};
    use lapush_storage::tuple::tuple;

    /// Example 7 of the paper: q :- R(x), S(x,y) over
    /// D = {R(1), R(2), S(1,4), S(1,5)}.
    fn example7_db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 1).unwrap();
        let s = db.create_relation("S", 2).unwrap();
        db.relation_mut(r).push(tuple([1]), 0.5).unwrap();
        db.relation_mut(r).push(tuple([2]), 0.5).unwrap();
        db.relation_mut(s).push(tuple([1, 4]), 0.5).unwrap();
        db.relation_mut(s).push(tuple([1, 5]), 0.5).unwrap();
        db
    }

    #[test]
    fn safe_plan_computes_exact_probability() {
        // P(q) for Example 7: F = X(Y ∨ Z) → p(q+r−qr) with all = 0.5:
        // 0.5 * (0.5 + 0.5 − 0.25) = 0.375.
        let db = example7_db();
        let q = parse_query("q :- R(x), S(x, y)").unwrap();
        let s = QueryShape::of_query(&q);
        let p = safe_plan(&s).unwrap();
        let ans = eval_plan(&db, &q, &p, ExecOptions::default()).unwrap();
        assert!((ans.boolean_score() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn non_boolean_head_ordering() {
        let db = example7_db();
        let q = parse_query("q(y) :- R(x), S(x, y)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        assert_eq!(plans.len(), 1); // safe: x is a separator
        let ans = eval_plan(&db, &q, &plans[0], ExecOptions::default()).unwrap();
        assert_eq!(ans.len(), 2);
        // Answers y=4 and y=5, each with probability 0.25.
        assert!((ans.score_of(&[Value::Int(4)]) - 0.25).abs() < 1e-12);
        assert!((ans.score_of(&[Value::Int(5)]) - 0.25).abs() < 1e-12);
    }

    /// Example 17 database: R = S = U = {1,2}, T = {(1,1),(1,2),(2,2)},
    /// every probability 1/2.
    fn example17_db() -> Database {
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
        db
    }

    #[test]
    fn example_17_dissociation_scores() {
        // Paper: P(q^Δ3) = 169/2^10 ≈ 0.165, P(q^Δ4) = 353/2^11 ≈ 0.172;
        // propagation score ρ(q) = min ≈ 0.165.
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        assert_eq!(plans.len(), 2);
        let mut scores: Vec<f64> = plans
            .iter()
            .map(|p| {
                eval_plan(&db, &q, p, ExecOptions::default())
                    .unwrap()
                    .boolean_score()
            })
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((scores[0] - 169.0 / 1024.0).abs() < 1e-12, "{scores:?}");
        assert!((scores[1] - 353.0 / 2048.0).abs() < 1e-12, "{scores:?}");

        let rho = propagation_score(&db, &q, &plans, ExecOptions::default())
            .unwrap()
            .boolean_score();
        assert!((rho - 169.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn single_plan_equals_multi_plan_min() {
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let rho = propagation_score(&db, &q, &plans, ExecOptions::default())
            .unwrap()
            .boolean_score();
        let sp = lapush_core::single_plan(
            &q,
            &lapush_core::SchemaInfo::from_query(&q),
            lapush_core::EnumOptions::default(),
        );
        for reuse in [false, true] {
            let opts = ExecOptions {
                reuse_views: reuse,
                ..ExecOptions::default()
            };
            let got = eval_plan(&db, &q, &sp, opts).unwrap().boolean_score();
            assert!((got - rho).abs() < 1e-12, "reuse={reuse}");
        }
    }

    #[test]
    fn parallel_propagation_matches_serial_bitwise() {
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let serial = propagation_score(&db, &q, &plans, ExecOptions::default()).unwrap();
        for threads in [2, 4, 7] {
            let opts = ExecOptions {
                threads,
                ..ExecOptions::default()
            };
            let par = propagation_score(&db, &q, &plans, opts).unwrap();
            assert_eq!(par.len(), serial.len());
            for (k, &v) in &serial.rows {
                assert_eq!(par.score_of(k).to_bits(), v.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn shared_subplans_cover_scans() {
        // Two minimal plans of the same query share at least their scans.
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let s = QueryShape::of_query(&q);
        let mut store = PlanStore::new();
        let roots: Vec<PlanId> = minimal_plans(&s)
            .iter()
            .map(|p| store.intern_plan(p))
            .collect();
        let shared = shared_subplans(&store, &roots);
        assert!(!shared.is_empty());
        let scan_count = shared
            .iter()
            .filter(|&&id| matches!(store.node(id).kind, NodeKind::Scan { .. }))
            .count();
        assert_eq!(scan_count, q.atoms().len(), "all scans are shared");
        // Ascending id order (children before parents).
        assert!(shared.windows(2).all(|w| w[0] < w[1]));
        let _ = &db;
    }

    #[test]
    fn lower_bound_semantics_sandwiches_exact() {
        // Example 17: exact = 83/512 ≈ 0.162; the best single derivation
        // has probability 0.5⁴ = 0.0625.
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let low_opts = ExecOptions {
            semantics: Semantics::LowerBound,
            ..ExecOptions::default()
        };
        for p in &plans {
            let lo = eval_plan(&db, &q, p, low_opts).unwrap().boolean_score();
            let hi = eval_plan(&db, &q, p, ExecOptions::default())
                .unwrap()
                .boolean_score();
            assert!(lo <= 83.0 / 512.0 + 1e-12, "lower {lo} exceeds exact");
            assert!(hi >= 83.0 / 512.0 - 1e-12);
            assert!((lo - 0.0625).abs() < 1e-12, "best derivation: {lo}");
        }
    }

    #[test]
    fn deterministic_baseline_counts_answers() {
        let db = example7_db();
        let q = parse_query("q(y) :- R(x), S(x, y)").unwrap();
        let ans = deterministic_answers(&db, &q).unwrap();
        assert_eq!(ans.len(), 2);
        assert_eq!(ans.score_of(&[Value::Int(4)]), 1.0);
    }

    #[test]
    fn constants_in_atoms_filter_rows() {
        let db = example7_db();
        let q = parse_query("q :- R(1), S(1, y)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let ans = propagation_score(&db, &q, &plans, ExecOptions::default()).unwrap();
        // F = R(1) ∧ (S(1,4) ∨ S(1,5)): 0.5 * 0.75 = 0.375 (safe: exact).
        assert!((ans.boolean_score() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn predicates_filter_rows() {
        let db = example7_db();
        let q = parse_query("q :- R(x), S(x, y), y <= 4").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let ans = propagation_score(&db, &q, &plans, ExecOptions::default()).unwrap();
        // Only S(1,4) survives: 0.5 * 0.5.
        assert!((ans.boolean_score() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn repeated_var_in_atom() {
        let mut db = Database::new();
        let t = db.create_relation("T", 2).unwrap();
        db.relation_mut(t).push(tuple([1, 1]), 0.5).unwrap();
        db.relation_mut(t).push(tuple([1, 2]), 0.9).unwrap();
        let q = parse_query("q :- T(x, x)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let ans = propagation_score(&db, &q, &plans, ExecOptions::default()).unwrap();
        assert!((ans.boolean_score() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_relation_error() {
        let db = Database::new();
        let q = parse_query("q :- Z(x)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        assert!(matches!(
            eval_plan(&db, &q, &plans[0], ExecOptions::default()),
            Err(ExecError::UnknownRelation(_))
        ));
    }

    #[test]
    fn arity_mismatch_error() {
        let mut db = Database::new();
        db.create_relation("R", 2).unwrap();
        let q = parse_query("q :- R(x)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        assert!(matches!(
            eval_plan(&db, &q, &plans[0], ExecOptions::default()),
            Err(ExecError::AtomArity { .. })
        ));
    }

    #[test]
    fn empty_relation_yields_empty_answers() {
        let mut db = Database::new();
        db.create_relation("R", 1).unwrap();
        db.create_relation("S", 2).unwrap();
        let q = parse_query("q(y) :- R(x), S(x, y)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let ans = propagation_score(&db, &q, &plans, ExecOptions::default()).unwrap();
        assert!(ans.is_empty());
        let det = deterministic_answers(&db, &q).unwrap();
        assert!(det.is_empty());
    }

    #[test]
    fn parallel_errors_propagate() {
        // A missing relation must surface as an error from the threaded
        // path too, not a panic.
        let db = Database::new();
        let q = parse_query("q :- Z(x)").unwrap();
        let s = QueryShape::of_query(&q);
        let plans = minimal_plans(&s);
        let opts = ExecOptions {
            threads: 4,
            ..ExecOptions::default()
        };
        assert!(matches!(
            propagation_score(&db, &q, &plans, opts),
            Err(ExecError::UnknownRelation(_))
        ));
    }
}
