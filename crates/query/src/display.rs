//! Pseudo-SQL rendering of query blocks (for examples, the CLI and
//! debugging — this crate has no parser, so rendering is one-way).

use crate::block::{Query, QueryBlock};
use crate::predicate::PredOp;
use cote_catalog::Catalog;
use cote_common::{ColRef, TableRef};
use std::fmt::Write as _;

fn alias(t: TableRef) -> String {
    format!("t{}", t.0)
}

fn col_name(block: &QueryBlock, catalog: &Catalog, c: ColRef) -> String {
    let table = catalog.table(block.table(c.table));
    let col = &table.columns[c.column as usize];
    format!("{}.{}", alias(c.table), col.name)
}

/// Render one block as pseudo-SQL (children become `EXISTS (...)` WHERE
/// conjuncts).
pub fn block_to_sql(block: &QueryBlock, catalog: &Catalog, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    let mut out = String::new();
    let _ = write!(out, "{pad}SELECT *\n{pad}FROM ");
    let from: Vec<String> = block
        .table_refs()
        .map(|t| format!("{} {}", catalog.table(block.table(t)).name, alias(t)))
        .collect();
    let _ = writeln!(out, "{}", from.join(", "));

    let mut conds: Vec<String> = Vec::new();
    for p in block.join_preds() {
        let mut s = format!(
            "{} = {}",
            col_name(block, catalog, p.left),
            col_name(block, catalog, p.right)
        );
        if p.outer_join.is_some() {
            s.push_str(" /* left outer */");
        }
        if p.implied {
            s.push_str(" /* implied */");
        }
        conds.push(s);
    }
    for p in block.local_preds() {
        let c = col_name(block, catalog, p.column);
        conds.push(match p.op {
            PredOp::Eq(v) => format!("{c} = {v}"),
            PredOp::Le(v) => format!("{c} <= {v}"),
            PredOp::Ge(v) => format!("{c} >= {v}"),
            PredOp::Between(lo, hi) => format!("{c} BETWEEN {lo} AND {hi}"),
            PredOp::Opaque(s) => format!("expensive_udf({c}) /* sel {s} */"),
        });
    }
    for p in block.expensive_preds() {
        conds.push(format!(
            "expensive_udf({}) /* sel {}, deferrable */",
            col_name(block, catalog, p.column),
            p.selectivity
        ));
    }
    for child in block.children() {
        conds.push(format!(
            "EXISTS (\n{}{pad}  )",
            block_to_sql(child, catalog, indent + 2)
        ));
    }
    if !conds.is_empty() {
        let _ = writeln!(out, "{pad}WHERE {}", conds.join(&format!("\n{pad}  AND ")));
    }
    if !block.group_by().is_empty() {
        let cols: Vec<String> = block
            .group_by()
            .iter()
            .map(|&c| col_name(block, catalog, c))
            .collect();
        let _ = writeln!(out, "{pad}GROUP BY {}", cols.join(", "));
    }
    if !block.order_by().is_empty() {
        let cols: Vec<String> = block
            .order_by()
            .iter()
            .map(|&c| col_name(block, catalog, c))
            .collect();
        let _ = writeln!(out, "{pad}ORDER BY {}", cols.join(", "));
    }
    if let Some(n) = block.first_n() {
        let _ = writeln!(out, "{pad}FETCH FIRST {n} ROWS ONLY");
    }
    out
}

/// Render a whole query.
pub fn to_sql(query: &Query, catalog: &Catalog) -> String {
    format!(
        "-- {}\n{}",
        query.name,
        block_to_sql(&query.root, catalog, 0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::QueryBlockBuilder;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::TableId;

    #[test]
    fn renders_every_clause() {
        let mut b = Catalog::builder();
        b.add_table(TableDef::new(
            "orders",
            10.0,
            vec![
                ColumnDef::uniform("id", 10.0, 10.0),
                ColumnDef::uniform("day", 10.0, 5.0),
            ],
        ));
        b.add_table(TableDef::new(
            "lines",
            10.0,
            vec![
                ColumnDef::uniform("oid", 10.0, 10.0),
                ColumnDef::uniform("qty", 10.0, 5.0),
            ],
        ));
        let cat = b.build().unwrap();

        let mut sub = QueryBlockBuilder::new();
        sub.add_table(TableId(1));
        let sub = sub.build(&cat).unwrap();

        let mut qb = QueryBlockBuilder::new();
        let o = qb.add_table(TableId(0));
        let l = qb.add_table(TableId(1));
        qb.join(ColRef::new(o, 0), ColRef::new(l, 0));
        qb.local(ColRef::new(o, 1), PredOp::Between(1.0, 3.0));
        qb.local(ColRef::new(l, 1), PredOp::Opaque(0.1));
        qb.group_by(vec![ColRef::new(o, 1)]);
        qb.order_by(vec![ColRef::new(o, 1)]);
        qb.first_n(7);
        qb.child(sub);
        let q = Query::new("demo", qb.build(&cat).unwrap());

        let sql = to_sql(&q, &cat);
        for needle in [
            "-- demo",
            "FROM orders t0, lines t1",
            "t0.id = t1.oid",
            "BETWEEN 1 AND 3",
            "expensive_udf(t1.qty)",
            "GROUP BY t0.day",
            "ORDER BY t0.day",
            "FETCH FIRST 7 ROWS ONLY",
            "EXISTS (",
        ] {
            assert!(sql.contains(needle), "missing {needle:?} in:\n{sql}");
        }
    }

    #[test]
    fn marks_outer_and_implied_predicates() {
        let mut b = Catalog::builder();
        for n in ["a", "b", "c"] {
            b.add_table(TableDef::new(
                n,
                10.0,
                vec![ColumnDef::uniform("k", 10.0, 10.0)],
            ));
        }
        let cat = b.build().unwrap();
        let mut qb = QueryBlockBuilder::new();
        let a = qb.add_table(TableId(0));
        let bb = qb.add_table(TableId(1));
        let c = qb.add_table(TableId(2));
        qb.join(ColRef::new(a, 0), ColRef::new(bb, 0));
        qb.join(ColRef::new(bb, 0), ColRef::new(c, 0));
        qb.apply_transitive_closure();
        let block = qb.build(&cat).unwrap();
        let sql = block_to_sql(&block, &cat, 0);
        assert!(sql.contains("/* implied */"), "{sql}");
    }
}
