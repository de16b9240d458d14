//! The dynamic-programming join enumerator (paper §2.1), generic over a
//! [`JoinVisitor`].
//!
//! This genericity is the paper's central implementation idea (§3.1): the
//! *same* enumerator drives both the real plan generator and COTE's
//! plan-counting mode, so the estimator sees exactly the joins the optimizer
//! would consider — knobs, outer-join restrictions, Cartesian heuristics and
//! all — while "simply bypassing plan generation".
//!
//! [`process_mask`] is the one place that decides which splits of a table
//! set are joined (Cartesian admission, composite-inner limit, outer-join
//! orientation) and creates the joined MEMO entry. The serial walk here, the
//! parallel walk ([`crate::par`]) and the top-down walk
//! ([`crate::enumerator_topdown`]) all call it and differ only in the order
//! they visit table sets.

use crate::cardinality::CardinalityModel;
use crate::context::OptContext;
use crate::memo::{boundary_classes, outer_enabled, EntryId, Memo, MemoEntry, MemoStore};
use cote_common::{CoteError, InlineVec, Result, TableRef, TableSet};
use cote_query::EqClasses;

/// Hard cap on block size for full DP enumeration (subset blow-up guard).
pub const MAX_DP_TABLES: usize = 22;

/// One enumerated (unordered) join pair, with orientation eligibility.
#[derive(Debug, Clone)]
pub struct JoinSite {
    /// First input entry.
    pub a: EntryId,
    /// Second input entry.
    pub b: EntryId,
    /// The joined entry (`a ∪ b`).
    pub joined: EntryId,
    /// Indices of the block's join predicates spanning `a` and `b`
    /// (empty ⇒ Cartesian product admitted by the card-1 heuristic).
    /// Inline up to four indices — the common case allocates nothing.
    pub preds: InlineVec<usize, 4>,
    /// May `a` serve as the outer (outer-enabled, composite-inner limit,
    /// outer-join orientation)?
    pub a_outer_ok: bool,
    /// May `b` serve as the outer?
    pub b_outer_ok: bool,
}

/// Mode-specific half of the optimizer: receives every entry and every join
/// the enumerator produces.
pub trait JoinVisitor {
    /// Per-entry state (plan lists / interesting-property lists).
    type Payload;

    /// Payload for a single-table entry (paper Table 3 `initialize`, base
    /// case).
    fn base_payload(
        &mut self,
        ctx: &OptContext<'_>,
        core: &MemoEntry<()>,
        t: TableRef,
    ) -> Self::Payload;

    /// Payload for a freshly created join entry (Table 3 `initialize`).
    fn join_payload(&mut self, ctx: &OptContext<'_>, core: &MemoEntry<()>) -> Self::Payload;

    /// One enumerated join pair (Table 3 `accumulate_plans`, called with
    /// both orientations resolved). Generic over [`MemoStore`] so the same
    /// code runs on the real MEMO (serial walk) and on a per-worker shard
    /// (parallel walk).
    fn on_join<M: MemoStore<Self::Payload>>(
        &mut self,
        ctx: &OptContext<'_>,
        memo: &mut M,
        site: &JoinSite,
    );

    /// All joins for this entry's table set have been enumerated (enforcer
    /// hook; also fires for single-table entries right after creation).
    fn finish_entry<M: MemoStore<Self::Payload>>(
        &mut self,
        ctx: &OptContext<'_>,
        memo: &mut M,
        id: EntryId,
    );
}

/// Result of an enumeration pass.
pub struct EnumOutcome<P> {
    /// The filled MEMO.
    pub memo: Memo<P>,
    /// Entry covering all tables.
    pub root: EntryId,
    /// Unordered join pairs enumerated.
    pub pairs: u64,
    /// Ordered (outer, inner) orientations enumerated.
    pub joins: u64,
}

/// Run bottom-up DP enumeration for `ctx.block`, consulting `model` for the
/// cardinalities stored in the MEMO (paper §4 item 5) and driving `visitor`.
pub fn enumerate<V: JoinVisitor, M: CardinalityModel>(
    ctx: &OptContext<'_>,
    model: &M,
    visitor: &mut V,
) -> Result<EnumOutcome<V::Payload>> {
    let n = dp_tables(ctx)?;
    let mut memo = base_entries(ctx, model, visitor);

    let mut pairs = 0u64;
    let mut joins = 0u64;
    for sz in 2..=n {
        // Gosper's hack: all sz-subsets of {0..n-1} in ascending order.
        let masks = TableSet::k_subsets(n, sz).map(|s| s.bits());
        let (p, j) = process_masks(ctx, model, visitor, &mut memo, masks);
        pairs += p;
        joins += j;
    }
    outcome(ctx, memo, pairs, joins)
}

/// Number of tables in `ctx.block`, or `TooManyTables` past
/// [`MAX_DP_TABLES`]. Every enumeration driver checks this first.
pub(crate) fn dp_tables(ctx: &OptContext<'_>) -> Result<usize> {
    let n = ctx.block.n_tables();
    if n > MAX_DP_TABLES {
        return Err(CoteError::TooManyTables { requested: n });
    }
    Ok(n)
}

/// Wrap a filled MEMO as the outcome of an enumeration driver, rooted at
/// the entry covering every table of `ctx.block`.
pub(crate) fn outcome<P>(
    ctx: &OptContext<'_>,
    memo: Memo<P>,
    pairs: u64,
    joins: u64,
) -> Result<EnumOutcome<P>> {
    let root = memo
        .id_of(ctx.block.all_tables())
        .ok_or_else(|| CoteError::NoPlanFound {
            reason: format!(
                "no join sequence covers all {} tables (disconnected join graph with Cartesian \
             products disabled?)",
                ctx.block.n_tables()
            ),
        })?;
    Ok(EnumOutcome {
        memo,
        root,
        pairs,
        joins,
    })
}

/// A MEMO holding the single-table entries (paper Table 3 `initialize`,
/// base case) in table order. Shared between the serial and parallel
/// drivers.
pub(crate) fn base_entries<V: JoinVisitor, M: CardinalityModel>(
    ctx: &OptContext<'_>,
    model: &M,
    visitor: &mut V,
) -> Memo<V::Payload> {
    let mut memo = Memo::new();
    for t in ctx.block.table_refs() {
        base_entry(ctx, model, visitor, &mut memo, t);
    }
    memo
}

/// Create the MEMO entry of the single table `t` and finish it. Every
/// driver builds its base entries here.
pub(crate) fn base_entry<V: JoinVisitor, M: CardinalityModel>(
    ctx: &OptContext<'_>,
    model: &M,
    visitor: &mut V,
    memo: &mut Memo<V::Payload>,
    t: TableRef,
) -> EntryId {
    let block = ctx.block;
    let set = TableSet::singleton(t);
    let eq = EqClasses::new(block.n_interesting_cols());
    let core = MemoEntry {
        set,
        cardinality: model.base(ctx, t),
        boundary: boundary_classes(block, set, &eq),
        outer_enabled: outer_enabled(block, set),
        eq,
        payload: (),
    };
    let payload = visitor.base_payload(ctx, &core, t);
    let id = memo.insert(core.with_payload(payload));
    visitor.finish_entry(ctx, memo, id);
    id
}

/// Run [`process_mask`] on each of `masks` in order and sum the
/// `(pairs, joins)` counts: the serial walk, a serially run level of the
/// parallel walk, or one worker's stripe of a parallel level.
pub(crate) fn process_masks<V, C, S>(
    ctx: &OptContext<'_>,
    model: &C,
    visitor: &mut V,
    memo: &mut S,
    masks: impl IntoIterator<Item = u64>,
) -> (u64, u64)
where
    V: JoinVisitor,
    C: CardinalityModel,
    S: MemoStore<V::Payload>,
{
    let mut pairs = 0u64;
    let mut joins = 0u64;
    for mask in masks {
        let (p, j) = process_mask(ctx, model, visitor, memo, mask);
        pairs += p;
        joins += j;
    }
    (pairs, joins)
}

/// Process one quantifier-set `mask` of the current DP level: enumerate its
/// unordered splits, lazily create the joined entry, and drive the visitor.
/// Returns `(pairs, joins)` counted for this mask.
///
/// Every input entry of `mask` that can be built must already be in `memo`:
/// the bottom-up walks get that from their level order, the top-down walk
/// by solving each split's inputs first.
///
/// Generic over [`MemoStore`] so the body runs identically on the real MEMO
/// (serial and top-down) and on a per-worker
/// [`MemoShard`](crate::memo::MemoShard) (parallel). Correctness of sharing
/// relies on a DP invariant: both join inputs of a size-`sz` set have size
/// `< sz`, so within a level every input lookup hits the frozen prefix.
pub(crate) fn process_mask<V, C, S>(
    ctx: &OptContext<'_>,
    model: &C,
    visitor: &mut V,
    memo: &mut S,
    mask: u64,
) -> (u64, u64)
where
    V: JoinVisitor,
    C: CardinalityModel,
    S: MemoStore<V::Payload>,
{
    let block = ctx.block;
    let inner_limit = ctx.config.composite_inner_limit;
    let thr = ctx.config.cartesian_card_threshold;
    let set = TableSet::from_bits(mask);
    let mut pairs = 0u64;
    let mut joins = 0u64;
    let mut created: Option<EntryId> = None;
    for a_set in set.proper_subsets() {
        let b_set = set.difference(a_set);
        if a_set.bits() >= b_set.bits() {
            continue; // visit each unordered split once
        }
        let (Some(a_id), Some(b_id)) = (memo.id_of(a_set), memo.id_of(b_set)) else {
            continue;
        };
        let preds = block.preds_between(a_set, b_set);
        if preds.is_empty() {
            let ca = memo.cardinality(a_id);
            let cb = memo.cardinality(b_id);
            if !(ctx.config.cartesian_card_one && (ca <= thr || cb <= thr)) {
                continue;
            }
        }
        // Orientation eligibility.
        let null_in = |s: TableSet| {
            preds
                .iter()
                .all(|&pi| match block.join_preds()[pi].outer_join {
                    None => true,
                    Some(oid) => s.contains(block.outer_joins()[oid as usize].null_side),
                })
        };
        let a_outer_ok = memo.outer_enabled(a_id) && b_set.len() <= inner_limit && null_in(b_set);
        let b_outer_ok = memo.outer_enabled(b_id) && a_set.len() <= inner_limit && null_in(a_set);
        if !a_outer_ok && !b_outer_ok {
            continue;
        }

        let joined = match created.or_else(|| memo.id_of(set)) {
            Some(j) => j,
            None => {
                let mut eq = memo.eq_classes(a_id).clone();
                eq.absorb(memo.eq_classes(b_id));
                for &pi in &preds {
                    let p = &block.join_preds()[pi];
                    let (l, r) = (
                        block.col_id(p.left).expect("interned"),
                        block.col_id(p.right).expect("interned"),
                    );
                    eq.union(l, r);
                }
                let cardinality =
                    model.join(ctx, memo.cardinality(a_id), memo.cardinality(b_id), &preds);
                let core = MemoEntry {
                    set,
                    cardinality,
                    boundary: boundary_classes(block, set, &eq),
                    outer_enabled: outer_enabled(block, set),
                    eq,
                    payload: (),
                };
                let payload = visitor.join_payload(ctx, &core);
                let id = memo.insert(core.with_payload(payload));
                created = Some(id);
                id
            }
        };

        pairs += 1;
        joins += u64::from(a_outer_ok) + u64::from(b_outer_ok);
        let site = JoinSite {
            a: a_id,
            b: b_id,
            joined,
            preds,
            a_outer_ok,
            b_outer_ok,
        };
        visitor.on_join(ctx, memo, &site);
    }
    if let Some(id) = created {
        visitor.finish_entry(ctx, memo, id);
    }
    (pairs, joins)
}

/// All `sz`-subsets of `{0..n-1}` as bit masks in ascending order (Gosper's
/// hack, materialized — the parallel driver stripes this list over workers).
/// Ascending order is load-bearing: the shard merge re-inserts entries in
/// ascending `set.bits()` order to reproduce serial ids.
pub(crate) fn level_masks(n: usize, sz: usize) -> Vec<u64> {
    TableSet::k_subsets(n, sz).map(|s| s.bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::FullCardinality;
    use crate::config::{Mode, OptimizerConfig};
    use cote_catalog::{Catalog, ColumnDef, TableDef};
    use cote_common::{ColRef, TableId};
    use cote_query::QueryBlockBuilder;

    /// Visitor that only counts.
    #[derive(Default)]
    struct Counter {
        base_entries: usize,
        join_entries: usize,
        sites: usize,
        finished: usize,
    }

    impl JoinVisitor for Counter {
        type Payload = ();
        fn base_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>, _: TableRef) {
            self.base_entries += 1;
        }
        fn join_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>) {
            self.join_entries += 1;
        }
        fn on_join<M: MemoStore<()>>(&mut self, _: &OptContext<'_>, _: &mut M, _: &JoinSite) {
            self.sites += 1;
        }
        fn finish_entry<M: MemoStore<()>>(&mut self, _: &OptContext<'_>, _: &mut M, _: EntryId) {
            self.finished += 1;
        }
    }

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            b.add_table(TableDef::new(
                format!("t{i}"),
                1000.0,
                vec![
                    ColumnDef::uniform("c0", 1000.0, 100.0),
                    ColumnDef::uniform("c1", 1000.0, 100.0),
                ],
            ));
        }
        b.build().unwrap()
    }

    fn col(t: u8, c: u16) -> ColRef {
        ColRef::new(TableRef(t), c)
    }

    fn chain_block(cat: &Catalog, n: usize) -> cote_query::QueryBlock {
        let mut b = QueryBlockBuilder::new();
        for i in 0..n {
            b.add_table(TableId(i as u32));
        }
        for i in 0..n - 1 {
            b.join(col(i as u8, 0), col(i as u8 + 1, 0));
        }
        b.build(cat).unwrap()
    }

    fn star_block(cat: &Catalog, n: usize) -> cote_query::QueryBlock {
        let mut b = QueryBlockBuilder::new();
        for i in 0..n {
            b.add_table(TableId(i as u32));
        }
        for i in 1..n {
            b.join(col(0, 0), col(i as u8, 0));
        }
        b.build(cat).unwrap()
    }

    fn run(
        block: &cote_query::QueryBlock,
        cat: &Catalog,
        cfg: &OptimizerConfig,
    ) -> (EnumOutcome<()>, Counter) {
        let ctx = OptContext::new(cat, block, cfg);
        let mut v = Counter::default();
        let out = enumerate(&ctx, &FullCardinality, &mut v).expect("enumerates");
        (out, v)
    }

    fn unbounded() -> OptimizerConfig {
        let mut c = OptimizerConfig::high(Mode::Serial).with_composite_inner_limit(usize::MAX);
        c.cartesian_card_one = false;
        c
    }

    #[test]
    fn linear_join_counts_match_closed_formula() {
        // Ono & Lohman: a linear query joining n tables has (n³ - n)/6
        // unordered joins under full bushy DP without Cartesian products.
        let cfg = unbounded();
        for n in 2..=8usize {
            let cat = catalog(n);
            let block = chain_block(&cat, n);
            let (out, _) = run(&block, &cat, &cfg);
            let expected = (n * n * n - n) as u64 / 6;
            assert_eq!(out.pairs, expected, "linear n={n}");
            assert_eq!(out.joins, 2 * expected, "both orientations eligible");
        }
    }

    #[test]
    fn star_join_counts_match_closed_formula() {
        // Star with n tables: (n-1)·2^(n-2) unordered joins.
        let cfg = unbounded();
        for n in 3..=8usize {
            let cat = catalog(n);
            let block = star_block(&cat, n);
            let (out, _) = run(&block, &cat, &cfg);
            let expected = ((n - 1) as u64) * (1u64 << (n - 2));
            assert_eq!(out.pairs, expected, "star n={n}");
        }
    }

    #[test]
    fn left_deep_restricts_orientations() {
        let cfg = unbounded().with_composite_inner_limit(1);
        let cat = catalog(4);
        let block = chain_block(&cat, 4);
        let (out, _) = run(&block, &cat, &cfg);
        // Left-deep linear n=4: pairs with at least one single-table side.
        // (n³-n)/6 = 10 total bushy pairs; composite-composite pairs (2+2)
        // are excluded when neither side may be the inner.
        assert!(out.pairs < 10, "pairs={}", out.pairs);
        // Every orientation has a single-table inner.
        assert!(out.joins <= out.pairs * 2);
    }

    #[test]
    fn single_table_block_enumerates_no_joins() {
        let cat = catalog(1);
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        let block = b.build(&cat).unwrap();
        let cfg = unbounded();
        let (out, v) = run(&block, &cat, &cfg);
        assert_eq!(out.pairs, 0);
        assert_eq!(v.base_entries, 1);
        assert_eq!(out.memo.len(), 1);
        assert_eq!(out.root, EntryId(0));
    }

    #[test]
    fn disconnected_graph_without_cartesian_fails() {
        let cat = catalog(2);
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        b.add_table(TableId(1));
        let block = b.build(&cat).unwrap();
        let cfg = unbounded();
        let ctx = OptContext::new(&cat, &block, &cfg);
        let mut v = Counter::default();
        assert!(matches!(
            enumerate(&ctx, &FullCardinality, &mut v),
            Err(CoteError::NoPlanFound { .. })
        ));
    }

    #[test]
    fn cartesian_card_one_rescues_tiny_inputs() {
        let mut b = Catalog::builder();
        b.add_table(TableDef::new(
            "one",
            1.0,
            vec![ColumnDef::uniform("c0", 1.0, 1.0)],
        ));
        b.add_table(TableDef::new(
            "big",
            100.0,
            vec![ColumnDef::uniform("c0", 100.0, 10.0)],
        ));
        let cat = b.build().unwrap();
        let mut qb = QueryBlockBuilder::new();
        qb.add_table(TableId(0));
        qb.add_table(TableId(1));
        let block = qb.build(&cat).unwrap();
        let cfg = OptimizerConfig::high(Mode::Serial);
        let (out, _) = run(&block, &cat, &cfg);
        assert_eq!(out.pairs, 1, "Cartesian admitted: one side has card 1");
    }

    #[test]
    fn outer_join_restricts_orientation_and_eligibility() {
        let cat = catalog(2);
        let mut qb = QueryBlockBuilder::new();
        qb.add_table(TableId(0));
        qb.add_table(TableId(1));
        qb.left_outer_join(col(0, 0), col(1, 0)); // t0 LEFT JOIN t1
        let block = qb.build(&cat).unwrap();
        let cfg = unbounded();
        let ctx = OptContext::new(&cat, &block, &cfg);

        struct Grab(Vec<(bool, bool)>);
        impl JoinVisitor for Grab {
            type Payload = ();
            fn base_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>, _: TableRef) {}
            fn join_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>) {}
            fn on_join<M: MemoStore<()>>(&mut self, _: &OptContext<'_>, _: &mut M, s: &JoinSite) {
                self.0.push((s.a_outer_ok, s.b_outer_ok));
            }
            fn finish_entry<M: MemoStore<()>>(
                &mut self,
                _: &OptContext<'_>,
                _: &mut M,
                _: EntryId,
            ) {
            }
        }
        let mut v = Grab(Vec::new());
        let out = enumerate(&ctx, &FullCardinality, &mut v).unwrap();
        assert_eq!(out.pairs, 1);
        assert_eq!(out.joins, 1, "only the preserving side may be the outer");
        assert_eq!(v.0, vec![(true, false)]);
    }

    #[test]
    fn too_many_tables_is_rejected() {
        let cat = catalog(1);
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        let block = b.build(&cat).unwrap();
        // Rebuild a fake block is complex; instead check the guard constant
        // is enforced by constructing a wide chain lazily.
        let cat23 = catalog(23);
        let block23 = chain_block(&cat23, 23);
        let cfg = unbounded();
        let ctx = OptContext::new(&cat23, &block23, &cfg);
        let mut v = Counter::default();
        assert!(matches!(
            enumerate(&ctx, &FullCardinality, &mut v),
            Err(CoteError::TooManyTables { requested: 23 })
        ));
        drop(block);
    }

    #[test]
    fn eq_classes_merge_along_joins() {
        let cat = catalog(3);
        let block = chain_block(&cat, 3);
        let cfg = unbounded();
        let ctx = OptContext::new(&cat, &block, &cfg);
        let mut v = Counter::default();
        let out = enumerate(&ctx, &FullCardinality, &mut v).unwrap();
        let root = out.memo.entry(out.root);
        // Chain t0.c0 = t1.c0 = … merges all c0 classes at the root; t1.c0
        // appears in both predicates so all four endpoints collapse to ≤ 2
        // classes (c0-chain is a single class).
        let c0_0 = block.col_id(col(0, 0)).unwrap();
        let c0_2 = block.col_id(col(2, 0)).unwrap();
        // Chain predicates: t0.c0=t1.c0, t1.c0=t2.c0? — chain_block joins
        // col(i,0) to col(i+1,0), so yes: one class.
        assert!(root.eq.equivalent(c0_0, c0_2));
        assert!(root.boundary.is_empty(), "root has no future joins");
    }
}
