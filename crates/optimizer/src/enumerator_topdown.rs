//! A top-down (transformation-style) join enumerator (paper §6.2).
//!
//! The paper closes by asking how COTE fares under "a transformation-based
//! optimizer \[which\] also uses a MEMO structure \[whose\] entries … are not
//! necessarily filled bottom-up". This module answers the structural half of
//! that question: a memoized goal-driven enumerator that derives each table
//! set by recursing into its splits — the Volcano/Cascades exploration
//! order — driving the *same* [`JoinVisitor`] as the bottom-up enumerator.
//!
//! Top-down is an *order*, not a second enumerator: once both inputs of
//! every split of a set are solved, the set is joined by the same
//! [`process_mask`] the bottom-up walks call. So with full memoization (no
//! early stopping) both walks explore the same join sites by construction,
//! and plan counts and COTE estimates are identical; only the order in which
//! MEMO entries fill differs. Early *cost-bounded* stopping — the part the
//! paper defers to future work because it depends on execution-cost
//! estimates the estimator bypasses — is out of scope here too, and
//! documented as such.
//!
//! No command, service or benchmark path runs this walker; it is kept as
//! the paper's §6.2 experiment, exercised by its own tests and the
//! estimator's walker oracle.

use crate::cardinality::CardinalityModel;
use crate::context::OptContext;
use crate::enumerator::{
    all_splits, base_entry, dp_tables, outcome, process_mask, EnumOutcome, JoinVisitor, Tally,
};
use crate::memo::{EntryId, Memo};
use cote_common::{FxHashMap, Result, TableSet};

struct TopDown<'a, 'c, V: JoinVisitor, M: CardinalityModel> {
    ctx: &'a OptContext<'c>,
    model: &'a M,
    visitor: &'a mut V,
    memo: Memo<V::Payload>,
    /// Memoized outcomes: the entry id, or None for unconstructible sets.
    solved: FxHashMap<u64, Option<EntryId>>,
    tally: Tally,
}

impl<V: JoinVisitor, M: CardinalityModel> TopDown<'_, '_, V, M> {
    fn solve(&mut self, set: TableSet) -> Option<EntryId> {
        if let Some(&done) = self.solved.get(&set.bits()) {
            return done;
        }
        let result = match set.first() {
            Some(t) if set.len() == 1 => Some(base_entry(
                self.ctx,
                self.model,
                self.visitor,
                &mut self.memo,
                t,
            )),
            _ => self.derive(set),
        };
        self.solved.insert(set.bits(), result);
        result
    }

    fn derive(&mut self, set: TableSet) -> Option<EntryId> {
        // Goal-driven recursion: derive the inputs of every split first.
        let mask = set.bits();
        for a in all_splits(mask) {
            self.solve(TableSet::from_bits(a));
            self.solve(TableSet::from_bits(mask ^ a));
        }
        self.tally += process_mask(
            self.ctx,
            self.model,
            self.visitor,
            &mut self.memo,
            mask,
            all_splits(mask),
        );
        self.memo.id_of(set)
    }
}

/// Run goal-driven top-down enumeration for `ctx.block`.
///
/// Explores exactly the join sites of [`crate::enumerator::enumerate`]
/// (memoization removes re-derivation), in depth-first instead of
/// size-ascending order.
pub fn enumerate_topdown<V: JoinVisitor, M: CardinalityModel>(
    ctx: &OptContext<'_>,
    model: &M,
    visitor: &mut V,
) -> Result<EnumOutcome<V::Payload>> {
    dp_tables(ctx)?;
    let mut td = TopDown {
        ctx,
        model,
        visitor,
        memo: Memo::new(),
        solved: FxHashMap::default(),
        tally: Tally::default(),
    };
    td.solve(ctx.block.all_tables());
    outcome(ctx, td.memo, td.tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::FullCardinality;
    use crate::config::{Mode, OptimizerConfig};
    use crate::enumerator::enumerate;
    use crate::plangen::RealPlanGen;
    use cote_catalog::{Catalog, ColumnDef, IndexDef, TableDef};
    use cote_common::{ColRef, CoteError, TableId, TableRef};
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            let t = b.add_table(TableDef::new(
                format!("t{i}"),
                2000.0 + 100.0 * i as f64,
                vec![
                    ColumnDef::uniform("c0", 2000.0, 400.0),
                    ColumnDef::uniform("c1", 2000.0, 40.0),
                ],
            ));
            b.add_index(IndexDef::new(t, vec![0]).clustered());
        }
        b.build().unwrap()
    }

    fn col(t: u8, c: u16) -> ColRef {
        ColRef::new(TableRef(t), c)
    }

    fn star(cat: &Catalog, n: usize, orderby: bool) -> cote_query::QueryBlock {
        let mut b = QueryBlockBuilder::new();
        for i in 0..n {
            b.add_table(TableId(i as u32));
        }
        for i in 1..n {
            b.join(col(0, 0), col(i as u8, 0));
        }
        if orderby {
            b.order_by(vec![col(0, 1)]);
        }
        b.build(cat).unwrap()
    }

    /// One single-row table and two 100-row tables joined to each other:
    /// at the default config the Cartesian-card-1 heuristic admits the
    /// single-row table against either big table, and against their join
    /// inside the full set.
    fn one_row_and_two_big() -> (Catalog, cote_query::QueryBlock) {
        let mut b = Catalog::builder();
        for (name, rows, ndv) in [
            ("one", 1.0, 1.0),
            ("big", 100.0, 10.0),
            ("big2", 100.0, 10.0),
        ] {
            let c0 = ColumnDef::uniform("c0", rows, ndv);
            b.add_table(TableDef::new(name, rows, vec![c0]));
        }
        let cat = b.build().unwrap();
        let mut qb = QueryBlockBuilder::new();
        for i in 0..3 {
            qb.add_table(TableId(i));
        }
        qb.join(col(1, 0), col(2, 0));
        let block = qb.build(&cat).unwrap();
        (cat, block)
    }

    /// Enumerate `block` both ways with the real plan generator and check
    /// that counts and kept plans agree; returns the pairs enumerated.
    fn assert_same_join_sites(cat: &Catalog, block: &cote_query::QueryBlock, at: &str) -> u64 {
        let cfg = OptimizerConfig::high(Mode::Serial);
        let ctx = OptContext::new(cat, block, &cfg);
        let mut up = RealPlanGen::new(None);
        let bu = enumerate(&ctx, &FullCardinality, &mut up).unwrap();
        let mut down = RealPlanGen::new(None);
        let td = enumerate_topdown(&ctx, &FullCardinality, &mut down).unwrap();
        assert_eq!(bu.pairs, td.pairs, "{at}");
        assert_eq!(bu.joins, td.joins, "{at}");
        assert_eq!(bu.memo.len(), td.memo.len(), "{at}");
        assert_eq!(
            up.stats.plans_generated, down.stats.plans_generated,
            "identical plans generated, {at}"
        );
        // Kept plans agree entry by entry.
        for (_, e) in bu.memo.iter() {
            let other = td.memo.entry(td.memo.id_of(e.set).expect("same sets"));
            assert_eq!(
                e.payload.plans.len(),
                other.payload.plans.len(),
                "{at} {}",
                e.set
            );
            assert!((e.cardinality - other.cardinality).abs() < 1e-9);
        }
        td.pairs
    }

    #[test]
    fn topdown_explores_the_same_join_sites_as_bottom_up() {
        let cat = catalog(6);
        for orderby in [false, true] {
            let block = star(&cat, 6, orderby);
            assert_same_join_sites(&cat, &block, &format!("orderby={orderby}"));
        }
        let (cat, block) = one_row_and_two_big();
        let pairs = assert_same_join_sites(&cat, &block, "Cartesian");
        // {one,big}, {one,big2} and {one}×{big,big2} are Cartesian; the
        // other three splits carry the big-big2 predicate.
        assert_eq!(pairs, 6, "Cartesian pairs admitted at the default config");
    }

    #[test]
    fn topdown_fills_memo_depth_first() {
        // Bottom-up inserts all singles first; top-down inserts the first
        // join entry before some singles exist.
        let cat = catalog(4);
        let block = star(&cat, 4, false);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let ctx = OptContext::new(&cat, &block, &cfg);
        let mut v = RealPlanGen::new(None);
        let td = enumerate_topdown(&ctx, &FullCardinality, &mut v).unwrap();
        let sizes: Vec<usize> = td.memo.iter().map(|(_, e)| e.set.len()).collect();
        assert!(
            sizes.windows(2).any(|w| w[0] > w[1]),
            "insertion order is not size-ascending: {sizes:?}"
        );
    }

    #[test]
    fn topdown_rejects_disconnected_graphs_like_bottom_up() {
        let cat = catalog(2);
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        b.add_table(TableId(1));
        let block = b.build(&cat).unwrap();
        let mut cfg = OptimizerConfig::high(Mode::Serial);
        cfg.cartesian_card_one = false;
        let ctx = OptContext::new(&cat, &block, &cfg);
        let mut v = RealPlanGen::new(None);
        assert!(matches!(
            enumerate_topdown(&ctx, &FullCardinality, &mut v),
            Err(CoteError::NoPlanFound { .. })
        ));
    }

    #[test]
    fn topdown_honours_the_composite_inner_limit() {
        let cat = catalog(5);
        let block = star(&cat, 5, false);
        let left_deep = OptimizerConfig::high(Mode::Serial).with_composite_inner_limit(1);
        let bushy = OptimizerConfig::high(Mode::Serial).with_composite_inner_limit(10);
        let count = |cfg: &OptimizerConfig| {
            let ctx = OptContext::new(&cat, &block, cfg);
            let mut v = RealPlanGen::new(None);
            enumerate_topdown(&ctx, &FullCardinality, &mut v)
                .unwrap()
                .joins
        };
        assert!(count(&left_deep) < count(&bushy));
    }
}
