//! Intra-query parallel MEMO enumeration.
//!
//! Within one DP level every quantifier set's join inputs live at strictly
//! smaller levels — so the MEMO prefix built by previous levels is frozen
//! for the whole level and can be shared read-only across a scoped worker
//! pool. The level's table sets come from the same [`LevelSource`] as in
//! the serial walk: the joined sets of the block's connected-pair list, or
//! every subset on a level that falls back to the exhaustive walk. Each
//! worker processes a deterministic stripe of those sets, each with all its
//! splits, against a private [`MemoShard`] overlay; at the level barrier the
//! shards are merged back in globally ascending `set.bits()` order — the
//! order in which both sources list a level's sets — reproducing the exact
//! entry ids (and thus the exact MEMO shape, best-plan cost, and per-entry
//! property lists) of the serial walk. See DESIGN.md §"Parallel
//! enumeration" for the full determinism argument.
//!
//! Visitors opt in through [`ParallelJoinVisitor`], which describes how to
//! fork per-worker state for a level (`fork_level`), merge it back
//! (`absorb_level`), and fix up payload-internal ids after the shard merge
//! (`remap_payload`).

use crate::cardinality::CardinalityModel;
use crate::context::OptContext;
use crate::enumerator::{
    base_entries, dp_tables, enumerate, outcome, process_level, EnumOutcome, JoinVisitor,
    LevelSource, Tally,
};
use crate::memo::{MemoEntry, MemoShard};
use cote_common::Result;
use cote_obs::{phase, Counter, Gauge, LogHistogram, Span};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A [`JoinVisitor`] that can fan one DP level out across a worker pool.
///
/// The engine calls `fork_level` at the start of each parallel level,
/// dispatches the workers, then calls `absorb_level` with every worker (in
/// worker order) *before* merging the MEMO shards, so the visitor can
/// compute whatever id remapping the shard merge needs; `remap_payload` is
/// then invoked once per merged entry, before its insertion into the MEMO.
pub trait ParallelJoinVisitor: JoinVisitor {
    /// Per-worker visitor state for one level.
    type Worker: JoinVisitor<Payload = Self::Payload> + Send;

    /// Fork `workers` level-local visitors off the main one.
    fn fork_level(&mut self, workers: usize) -> Vec<Self::Worker>;

    /// Merge all workers of the level back (in worker order).
    fn absorb_level(&mut self, workers: Vec<Self::Worker>);

    /// Rewrite payload-internal ids of an entry created by `worker` after
    /// the level merge. Default: payloads carry no ids, nothing to do.
    fn remap_payload(&mut self, worker: usize, payload: &mut Self::Payload) {
        let _ = (worker, payload);
    }
}

/// Don't spawn a level pool for fewer than this many table sets per worker:
/// the scoped-thread overhead would dominate and the serial path is exact
/// anyway.
const MIN_MASKS_PER_WORKER: usize = 2;

struct ParInstruments {
    /// Time spent in the deterministic level merge.
    merge_time: Arc<LogHistogram>,
    /// Worker busy-time share of the last parallel level, percent.
    utilization: Arc<Gauge>,
    /// Parallel levels executed.
    levels: Arc<Counter>,
}

fn instruments() -> &'static ParInstruments {
    static CELLS: OnceLock<ParInstruments> = OnceLock::new();
    CELLS.get_or_init(|| {
        let r = cote_obs::global();
        ParInstruments {
            merge_time: r.histogram_with_help(
                "optimizer_enum_par_merge_seconds",
                "Shard-merge time per parallel DP level.",
            ),
            utilization: r.gauge_with_help(
                "optimizer_enum_par_worker_utilization_pct",
                "Worker busy-time share of the last parallel level, percent.",
            ),
            levels: r.counter_with_help(
                "optimizer_enum_par_levels_total",
                "Parallel DP levels executed.",
            ),
        }
    })
}

/// Run bottom-up DP enumeration like [`enumerate`], but partition each DP
/// level's table sets across up to `threads` scoped worker threads.
///
/// The result is deterministic for any fixed `threads` and — by the shard
/// merge rules — carries the *same* MEMO entry ids, entry cores, plan-list
/// shapes and best-plan cost as the serial walk; only arena-internal plan
/// ids may differ. `threads <= 1` delegates to the serial enumerator.
pub fn enumerate_par<V, C>(
    ctx: &OptContext<'_>,
    model: &C,
    visitor: &mut V,
    threads: usize,
) -> Result<EnumOutcome<V::Payload>>
where
    V: ParallelJoinVisitor,
    C: CardinalityModel + Sync,
    V::Payload: Send + Sync,
{
    if threads <= 1 {
        return enumerate(ctx, model, visitor);
    }
    let n = dp_tables(ctx)?;
    let mut memo = base_entries(ctx, model, visitor);
    let mut source = LevelSource::new();
    let mut tally = Tally::default();

    for sz in 2..=n {
        let level = source.level(ctx, &memo, sz);
        let nmasks = level.len();
        let nworkers = threads.min(nmasks / MIN_MASKS_PER_WORKER);
        if nworkers < 2 {
            // Degenerate level: run it serially on the main visitor. The
            // MEMO and payloads are identical either way; this only skips
            // pool setup.
            tally += process_level(ctx, model, visitor, &mut memo, &level, 0, 1);
            continue;
        }

        let mut span = Span::enter(phase::ENUM_PAR_LEVEL);
        span.record("level", sz as u64);
        span.record("masks", nmasks as u64);
        span.record("workers", nworkers as u64);
        let level_started = Instant::now();

        let workers = visitor.fork_level(nworkers);
        debug_assert_eq!(workers.len(), nworkers);
        let frozen = &memo;
        let level = &level;
        // One scope per level: workers share `&memo` read-only for the
        // level's duration; the barrier at scope exit returns exclusive
        // access for the merge.
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(w, mut wv)| {
                    // Deterministic round-robin stripe: worker w takes the
                    // level's table sets w, w+nworkers, w+2·nworkers, …
                    s.spawn(move || {
                        let busy = Instant::now();
                        let mut shard = MemoShard::new(frozen);
                        let t = process_level(ctx, model, &mut wv, &mut shard, level, w, nworkers);
                        (wv, shard.into_locals(), t, busy.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("enumeration worker panicked"))
                .collect()
        });
        let wall = level_started.elapsed();

        // Deterministic merge. First hand every worker back to the visitor
        // (it computes its id remapping there), then re-insert the shard
        // entries in ascending mask order — exactly the order the serial
        // walk would have created them in, so ids match bit for bit.
        let merge_started = Instant::now();
        let mut busy_total = Duration::ZERO;
        let mut returned = Vec::with_capacity(nworkers);
        let mut entries: Vec<(usize, MemoEntry<V::Payload>)> = Vec::new();
        for (w, (wv, locals, t, busy)) in results.into_iter().enumerate() {
            returned.push(wv);
            tally += t;
            busy_total += busy;
            entries.extend(locals.into_iter().map(|e| (w, e)));
        }
        visitor.absorb_level(returned);
        entries.sort_by_key(|(_, e)| e.set.bits());
        for (w, mut e) in entries {
            visitor.remap_payload(w, &mut e.payload);
            memo.insert(e);
        }
        instruments().merge_time.record(merge_started.elapsed());
        let util = if wall.is_zero() {
            100
        } else {
            (busy_total.as_nanos() * 100 / (wall.as_nanos() * nworkers as u128)).min(100) as i64
        };
        instruments().utilization.set(util);
        instruments().levels.inc();
        span.close();
    }

    outcome(ctx, memo, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::FullCardinality;
    use crate::config::{Mode, OptimizerConfig};
    use crate::memo::MemoStore;
    use cote_catalog::{Catalog, ColumnDef, TableDef};
    use cote_common::{ColRef, CoteError, TableId, TableRef};
    use cote_query::QueryBlockBuilder;

    /// Counting visitor whose workers are independent counters, summed back.
    #[derive(Default)]
    struct Counter {
        sites: u64,
        finished: u64,
    }

    impl JoinVisitor for Counter {
        type Payload = ();
        fn base_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>, _: TableRef) {}
        fn join_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>) {}
        fn on_join<M: MemoStore<()>>(
            &mut self,
            _: &OptContext<'_>,
            _: &mut M,
            _: &crate::JoinSite,
        ) {
            self.sites += 1;
        }
        fn finish_entry<M: MemoStore<()>>(
            &mut self,
            _: &OptContext<'_>,
            _: &mut M,
            _: crate::EntryId,
        ) {
            self.finished += 1;
        }
    }

    impl ParallelJoinVisitor for Counter {
        type Worker = Counter;
        fn fork_level(&mut self, workers: usize) -> Vec<Counter> {
            (0..workers).map(|_| Counter::default()).collect()
        }
        fn absorb_level(&mut self, workers: Vec<Counter>) {
            for w in workers {
                self.sites += w.sites;
                self.finished += w.finished;
            }
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

    fn star_block(cat: &Catalog, n: usize) -> cote_query::QueryBlock {
        let mut b = QueryBlockBuilder::new();
        for i in 0..n {
            b.add_table(TableId(i as u32));
        }
        for i in 1..n {
            b.join(
                ColRef::new(TableRef(0), 0),
                ColRef::new(TableRef(i as u8), 0),
            );
        }
        b.build(cat).unwrap()
    }

    #[test]
    fn parallel_matches_serial_counts_and_memo() {
        let mut cfg = OptimizerConfig::high(Mode::Serial).with_composite_inner_limit(usize::MAX);
        cfg.cartesian_card_one = false;
        for n in [3usize, 6, 8] {
            let cat = catalog(n);
            let block = star_block(&cat, n);
            let ctx = OptContext::new(&cat, &block, &cfg);
            let mut sv = Counter::default();
            let serial = enumerate(&ctx, &FullCardinality, &mut sv).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let mut pv = Counter::default();
                let par = enumerate_par(&ctx, &FullCardinality, &mut pv, threads).unwrap();
                assert_eq!(par.pairs, serial.pairs, "n={n} t={threads}");
                assert_eq!(par.joins, serial.joins, "n={n} t={threads}");
                assert_eq!(par.memo.len(), serial.memo.len(), "n={n} t={threads}");
                assert_eq!(par.root, serial.root, "n={n} t={threads}");
                assert_eq!(pv.sites, sv.sites, "n={n} t={threads}");
                assert_eq!(pv.finished, sv.finished, "n={n} t={threads}");
                // Entry ids and cores are bit-identical.
                for (id, se) in serial.memo.iter() {
                    let pe = par.memo.entry(id);
                    assert_eq!(pe.set, se.set, "n={n} t={threads} id={id:?}");
                    assert_eq!(pe.cardinality, se.cardinality);
                    assert_eq!(pe.boundary, se.boundary);
                    assert_eq!(pe.outer_enabled, se.outer_enabled);
                }
            }
        }
    }

    #[test]
    fn single_table_and_tiny_blocks_fall_back_to_serial() {
        let cat = catalog(2);
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        b.add_table(TableId(1));
        b.join(ColRef::new(TableRef(0), 0), ColRef::new(TableRef(1), 0));
        let block = b.build(&cat).unwrap();
        let cfg = OptimizerConfig::high(Mode::Serial);
        let ctx = OptContext::new(&cat, &block, &cfg);
        let mut v = Counter::default();
        let out = enumerate_par(&ctx, &FullCardinality, &mut v, 8).unwrap();
        assert_eq!(out.pairs, 1);
        assert_eq!(out.memo.len(), 3);
    }

    #[test]
    fn too_many_tables_is_rejected() {
        let cat = catalog(23);
        let mut b = QueryBlockBuilder::new();
        for i in 0..23 {
            b.add_table(TableId(i as u32));
        }
        for i in 0..22 {
            b.join(
                ColRef::new(TableRef(i as u8), 0),
                ColRef::new(TableRef(i as u8 + 1), 0),
            );
        }
        let block = b.build(&cat).unwrap();
        let cfg = OptimizerConfig::high(Mode::Serial);
        let ctx = OptContext::new(&cat, &block, &cfg);
        let mut v = Counter::default();
        assert!(matches!(
            enumerate_par(&ctx, &FullCardinality, &mut v, 4),
            Err(CoteError::TooManyTables { requested: 23 })
        ));
    }
}
