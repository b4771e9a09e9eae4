//! Multi-query optimizations (Section 4).
//!
//! * **Optimization 1** ([`single_plan`], Algorithm 2): instead of
//!   evaluating every minimal plan and taking the minimum of their final
//!   scores, push the `min` operator down into the leaves, producing one
//!   single plan whose shared structure is evaluated once.
//! * **Optimization 2** ([`shared_subqueries`], Algorithm 3): subplans of
//!   the single plan are identified by their *subquery key* (atom set +
//!   head variables); keys occurring more than once are materialized as
//!   views by the engine and evaluated only once. Because plan construction
//!   is a deterministic function of the subquery, equal keys imply equal
//!   subplans.
//! * **Optimization 3** (deterministic semi-join reduction) is data-level
//!   and lives in `lapush-engine`.

use crate::enumerate::{chase_shape, mask_of, EnumOptions};
use crate::plan::{Plan, PlanKind};
use crate::schema::SchemaInfo;
use crate::store::{NodeKind, PlanId, PlanStore};
use lapush_query::{components, min_cuts, min_pcuts, Query, QueryShape, VarFd, VarSet};
use lapush_storage::FxHashMap;

/// Identity of a subquery: (bitmask of atoms, head variables). Plan nodes
/// with equal keys compute the same result (for plans produced by
/// [`single_plan`]); the engine's view cache is keyed by this.
pub type SubqueryKey = (u64, VarSet);

/// Optimization 1 / Algorithm 2: the single combined plan computing the
/// propagation score `ρ(q)`, with `min` operators pushed down to the point
/// where minimal plans diverge.
pub fn single_plan(q: &Query, schema: &SchemaInfo, opts: EnumOptions) -> Plan {
    let shape = schema.shape(q);
    single_plan_with(&shape, &schema.fds, opts)
}

/// [`single_plan`] over an explicit shape + FDs.
pub fn single_plan_with(shape: &QueryShape, fds: &[VarFd], opts: EnumOptions) -> Plan {
    let mut store = PlanStore::new();
    let root = single_plan_id_with(&mut store, shape, fds, opts);
    store.plan(root)
}

/// [`single_plan`] interning into an existing store instead of
/// materializing a tree: the natural input for the engine's id-based
/// evaluation, where the hash-consed ids make Optimization 2's view
/// sharing a plain node memo.
pub fn single_plan_id(
    store: &mut PlanStore,
    q: &Query,
    schema: &SchemaInfo,
    opts: EnumOptions,
) -> PlanId {
    let shape = schema.shape(q);
    single_plan_id_with(store, &shape, &schema.fds, opts)
}

/// [`single_plan_id`] over an explicit shape + FDs.
pub fn single_plan_id_with(
    store: &mut PlanStore,
    shape: &QueryShape,
    fds: &[VarFd],
    opts: EnumOptions,
) -> PlanId {
    let enum_shape = if opts.use_fds {
        chase_shape(shape, fds)
    } else {
        shape.clone()
    };
    let atoms = enum_shape.all_atoms();
    let mut sp = SpCtx {
        enum_shape: &enum_shape,
        orig: shape,
        use_det: opts.use_deterministic,
        store,
        memo: FxHashMap::default(),
    };
    let head = enum_shape.head;
    sp.rec(&atoms, head)
}

/// Single-plan recursion state: like `enumerate::EnumCtx`, the result of a
/// subcall is a deterministic function of `(atoms_mask, head)`, so the
/// recursion is memoized on the subquery key — equal subqueries intern the
/// same node once instead of rebuilding (and re-cloning) whole subtrees.
struct SpCtx<'a> {
    enum_shape: &'a QueryShape,
    orig: &'a QueryShape,
    use_det: bool,
    store: &'a mut PlanStore,
    memo: FxHashMap<(u64, VarSet), PlanId>,
}

impl SpCtx<'_> {
    fn rec(&mut self, atoms: &[usize], head: VarSet) -> PlanId {
        let key = (mask_of(atoms), head);
        if let Some(&hit) = self.memo.get(&key) {
            return hit;
        }
        let prob_count = atoms
            .iter()
            .filter(|&&a| self.enum_shape.probabilistic[a])
            .count();
        let result = if atoms.len() == 1 {
            let scan = self.store.scan(self.orig, atoms[0]);
            let keep = head.intersect(self.store.node(scan).head);
            self.store.project(keep, scan)
        } else if self.use_det && prob_count <= 1 {
            // The m_p ≤ 1 stopping rule: dissociate deterministic atoms
            // fully and take the unique safe plan (see
            // `enumerate::EnumCtx::dr_stop_plan`).
            let sub_vars = self.enum_shape.vars_of(atoms);
            let mut temp = self.enum_shape.clone();
            for &a in atoms {
                if !temp.probabilistic[a] {
                    temp.atom_vars[a] = temp.atom_vars[a].union(sub_vars);
                }
            }
            crate::plan::safe_plan_rec(self.store, &temp, self.orig, atoms, head)
                .expect("m_p ≤ 1 subquery is hierarchical after dissociating DRs")
        } else {
            let comps = components(self.enum_shape, atoms, head);
            if comps.len() > 1 {
                let children: Vec<PlanId> = comps
                    .iter()
                    .map(|comp| {
                        let child_head = head.intersect(self.enum_shape.vars_of(comp));
                        self.rec(comp, child_head)
                    })
                    .collect();
                self.store.join(children)
            } else {
                let cuts = if self.use_det {
                    min_pcuts(self.enum_shape, atoms, head)
                } else {
                    min_cuts(self.enum_shape, atoms, head)
                };
                debug_assert!(!cuts.is_empty());
                let stripped: VarSet = atoms
                    .iter()
                    .fold(VarSet::EMPTY, |h, &a| h.union(self.orig.atom_vars[a]));
                let keep = head.intersect(stripped);
                let branches: Vec<PlanId> = cuts
                    .iter()
                    .map(|&y| {
                        let child = self.rec(atoms, head.union(y));
                        let child_head = self.store.node(child).head;
                        self.store.project(keep.intersect(child_head), child)
                    })
                    .collect();
                self.store.min_of(branches)
            }
        };
        self.memo.insert(key, result);
        result
    }
}

/// Optimization 2 / Algorithm 3 (analysis part): count how many times each
/// subquery key occurs as a non-leaf node of the plan. Keys with count ≥ 2
/// are the common subplans worth materializing as views; the engine caches
/// on exactly these keys.
pub fn shared_subqueries(plan: &Plan) -> Vec<(SubqueryKey, usize)> {
    let mut counts: FxHashMap<SubqueryKey, usize> = FxHashMap::default();
    fn walk(p: &Plan, counts: &mut FxHashMap<SubqueryKey, usize>) {
        match &p.kind {
            PlanKind::Scan { .. } => return,
            PlanKind::Project { input } => walk(input, counts),
            PlanKind::Join { inputs } | PlanKind::Min { inputs } => {
                for c in inputs {
                    walk(c, counts);
                }
            }
        }
        *counts.entry((p.atoms_mask, p.head)).or_insert(0) += 1;
    }
    walk(plan, &mut counts);
    let mut out: Vec<(SubqueryKey, usize)> = counts.into_iter().collect();
    out.sort();
    out
}

/// [`shared_subqueries`] on the DAG form, without materializing a tree.
/// Counts *tree occurrences* (what the tree walk counts), computed in one
/// reverse-topological pass: a node's multiplicity is the sum of its
/// parents' multiplicities.
pub fn shared_subqueries_in(store: &PlanStore, root: PlanId) -> Vec<(SubqueryKey, usize)> {
    let mut mult = vec![0usize; store.len()];
    mult[root.index()] = 1;
    let mut counts: FxHashMap<SubqueryKey, usize> = FxHashMap::default();
    for idx in (0..=root.index()).rev() {
        let m = mult[idx];
        if m == 0 {
            continue;
        }
        // Reconstruct the id from the dense index: ids are assigned in
        // insertion order, so index order is topological (children first).
        let node = store.node_at(idx);
        if matches!(node.kind, NodeKind::Scan { .. }) {
            continue;
        }
        for c in node.kind.children() {
            mult[c.index()] += m;
        }
        *counts.entry((node.atoms_mask, node.head)).or_insert(0) += m;
    }
    let mut out: Vec<(SubqueryKey, usize)> = counts.into_iter().collect();
    out.sort();
    out
}

/// Number of view-worthy subqueries (shared at least twice).
pub fn view_count(plan: &Plan) -> usize {
    shared_subqueries(plan)
        .iter()
        .filter(|(_, c)| *c >= 2)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::minimal_plans;
    use lapush_query::parse_query;

    fn setup(text: &str) -> (Query, QueryShape) {
        let q = parse_query(text).unwrap();
        let s = QueryShape::of_query(&q);
        (q, s)
    }

    #[test]
    fn safe_query_single_plan_has_no_min() {
        let (q, s) = setup("q(z) :- R(z, x), S(x, y), K(x, y)");
        let sp = single_plan(&q, &SchemaInfo::from_query(&q), EnumOptions::default());
        assert!(!sp.has_min());
        assert_eq!(Some(sp), crate::plan::safe_plan(&s));
    }

    #[test]
    fn example_17_single_plan_is_min_of_two() {
        let (q, _) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let sp = single_plan(&q, &SchemaInfo::from_query(&q), EnumOptions::default());
        match &sp.kind {
            PlanKind::Min { inputs } => assert_eq!(inputs.len(), 2),
            other => panic!("expected min at root, got {other:?}"),
        }
    }

    #[test]
    fn single_plan_branch_count_matches_minimal_plans_leaves() {
        // Every minimal plan corresponds to one way of resolving the min
        // choices; for Example 29 the min-resolutions number 6.
        let (q, s) = setup("q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)");
        let sp = single_plan(&q, &SchemaInfo::from_query(&q), EnumOptions::default());
        assert_eq!(count_min_resolutions(&sp), minimal_plans(&s).len());
    }

    fn count_min_resolutions(p: &Plan) -> usize {
        match &p.kind {
            PlanKind::Scan { .. } => 1,
            PlanKind::Project { input } => count_min_resolutions(input),
            PlanKind::Join { inputs } => inputs.iter().map(count_min_resolutions).product(),
            PlanKind::Min { inputs } => inputs.iter().map(count_min_resolutions).sum(),
        }
    }

    #[test]
    fn example_29_has_shared_views() {
        // Fig. 4c: V1 = π ⋈[S, M] and V2 = π ⋈[R, M] are each used twice
        // (directly and inside V3).
        let (q, _) = setup("q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)");
        let sp = single_plan(&q, &SchemaInfo::from_query(&q), EnumOptions::default());
        assert!(view_count(&sp) >= 2, "shared: {:?}", shared_subqueries(&sp));
    }

    #[test]
    fn deterministic_knowledge_shrinks_single_plan() {
        let (q, _) = setup("q :- R(x), S(x, y), T^d(y)");
        let schema = SchemaInfo::from_query(&q);
        let plain = single_plan(&q, &schema, EnumOptions::default());
        let with_dr = single_plan(
            &q,
            &schema,
            EnumOptions {
                use_deterministic: true,
                use_fds: false,
            },
        );
        assert!(plain.has_min());
        assert!(!with_dr.has_min());
        assert!(with_dr.size() < plain.size());
    }

    #[test]
    fn shared_subqueries_in_matches_tree_walk() {
        // The DAG multiplicity pass must count exactly what the tree walk
        // counts, for every options combination.
        for text in [
            "q :- R(x), S(x), T(x, y), U(y)",
            "q :- R(x), S(x, y), T(y)",
            "q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)",
            "q(z) :- R(z, x), S(x, y), K(x, y)",
        ] {
            let (q, _) = setup(text);
            let schema = SchemaInfo::from_query(&q);
            let mut store = crate::store::PlanStore::new();
            let root = super::single_plan_id(&mut store, &q, &schema, EnumOptions::default());
            assert_eq!(
                shared_subqueries_in(&store, root),
                shared_subqueries(&store.plan(root)),
                "{text}"
            );
        }
    }

    #[test]
    fn shared_subqueries_counts_nodes_not_scans() {
        let (q, _) = setup("q :- R(x), S(x, y), T(y)");
        let sp = single_plan(&q, &SchemaInfo::from_query(&q), EnumOptions::default());
        for ((mask, _), _) in shared_subqueries(&sp) {
            assert!(mask.count_ones() >= 1);
        }
    }
}
