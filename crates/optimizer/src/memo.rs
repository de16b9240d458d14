//! The MEMO structure (paper §2.1), laid out struct-of-arrays.
//!
//! One entry per optimized table subset. The *core* of an entry holds the
//! logical properties every mode needs — cardinality, column-equivalence
//! classes, boundary (future-join) classes, outer-eligibility — while the
//! generic `payload` holds mode-specific state: plan lists for the real
//! optimizer, interesting-property value lists for the estimator
//! (trading "a much smaller amount of space" for bypassed plan generation,
//! §3.3).
//!
//! # Memory layout
//!
//! [`Memo`] stores each core field in its own dense column vector instead of
//! an array of structs. The enumerator's hot loop touches exactly one or two
//! fields per probe (cardinality for the Cartesian guard, the outer flag for
//! orientation, the eq classes once per created entry), so packing the
//! fields separately keeps each probe on a cache line shared with its
//! neighbours rather than dragging a whole entry in. Boundary (future-join)
//! class lists repeat heavily across entries — every subset with the same
//! frontier shares one — so they are hash-consed through a
//! [`cote_common::Interner`] and entries store a 4-byte
//! [`PropSetId`] instead of an owned `Vec<u16>`; two boundaries compare
//! equal iff their ids do. [`MemoEntry`] survives as the *insertion record*
//! (and the visitor's pre-insert "core" view); [`Memo::insert`] scatters it
//! into the columns. Reads come back through [`EntryRef`] /
//! [`JoinedRef`], borrowed views whose field names mirror `MemoEntry` so
//! call sites read identically. See DESIGN.md §10 for the full rationale.

use cote_common::{FxHashMap, Interner, PropSetId, TableSet};
use cote_query::{EqClasses, QueryBlock};

/// Index of a MEMO entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(pub u32);

/// A MEMO entry as constructed: logical core + mode-specific payload.
///
/// This is the *insertion record* — visitors build one per entry (and
/// receive a `MemoEntry<()>` "core" before the payload exists), and
/// [`MemoStore::insert`] scatters it into the store's column vectors.
/// Stored entries are read back through [`EntryRef`], not this struct.
#[derive(Debug)]
pub struct MemoEntry<P> {
    /// The table subset this entry covers.
    pub set: TableSet,
    /// Estimated output cardinality (model-dependent; stored in the MEMO so
    /// the enumerator's cardinality-sensitive heuristics see consistent
    /// values — paper §4 item 5).
    pub cardinality: f64,
    /// Column-equivalence classes induced by the predicates applied inside
    /// `set`.
    pub eq: EqClasses,
    /// Equivalence-class representatives of columns joining to tables
    /// outside `set` (the entry's future joins).
    pub boundary: Vec<u16>,
    /// May this entry serve as a join outer (paper §4 item 3)? False while
    /// the entry contains the null side of an outer join whose preserving
    /// anchor is absent.
    pub outer_enabled: bool,
    /// Mode-specific state.
    pub payload: P,
}

impl<P> MemoEntry<P> {
    /// A borrowed view of this (not-yet-inserted) entry.
    pub fn as_view(&self) -> EntryRef<'_, P> {
        EntryRef {
            set: self.set,
            cardinality: self.cardinality,
            eq: &self.eq,
            boundary: &self.boundary,
            outer_enabled: self.outer_enabled,
            payload: &self.payload,
        }
    }

    /// The same entry core carrying `payload` instead.
    pub(crate) fn with_payload<Q>(self, payload: Q) -> MemoEntry<Q> {
        MemoEntry {
            set: self.set,
            cardinality: self.cardinality,
            eq: self.eq,
            boundary: self.boundary,
            outer_enabled: self.outer_enabled,
            payload,
        }
    }
}

/// A borrowed view of one stored MEMO entry.
///
/// Field names and shapes mirror [`MemoEntry`], so code written against the
/// old array-of-structs layout (`memo.entry(id).cardinality`,
/// `entry.payload.plans`, …) reads unchanged; only the storage behind it is
/// struct-of-arrays.
#[derive(Debug)]
pub struct EntryRef<'m, P> {
    /// The table subset this entry covers.
    pub set: TableSet,
    /// Estimated output cardinality.
    pub cardinality: f64,
    /// Column-equivalence classes inside `set`.
    pub eq: &'m EqClasses,
    /// Boundary (future-join) class representatives, resolved from the
    /// store's interner.
    pub boundary: &'m [u16],
    /// May this entry serve as a join outer?
    pub outer_enabled: bool,
    /// Mode-specific state.
    pub payload: &'m P,
}

impl<P> Clone for EntryRef<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P> Copy for EntryRef<'_, P> {}

/// The mutable third leg of a [`MemoStore::join_view`]: the joined entry's
/// core (read-only) plus exclusive access to its payload.
#[derive(Debug)]
pub struct JoinedRef<'m, P> {
    /// The table subset this entry covers.
    pub set: TableSet,
    /// Estimated output cardinality.
    pub cardinality: f64,
    /// Column-equivalence classes inside `set`.
    pub eq: &'m EqClasses,
    /// Boundary (future-join) class representatives.
    pub boundary: &'m [u16],
    /// May this entry serve as a join outer?
    pub outer_enabled: bool,
    /// Mode-specific state (exclusive).
    pub payload: &'m mut P,
}

/// The MEMO: entries indexed by table set, stored struct-of-arrays.
#[derive(Debug)]
pub struct Memo<P> {
    sets: Vec<TableSet>,
    cardinalities: Vec<f64>,
    eqs: Vec<EqClasses>,
    /// Interned boundary list per entry; resolve through `boundaries`.
    boundary_ids: Vec<PropSetId>,
    outer_flags: Vec<bool>,
    payloads: Vec<P>,
    /// Hash-consing table for boundary lists (shared across entries).
    boundaries: Interner<Vec<u16>>,
    index: FxHashMap<u64, EntryId>,
}

impl<P> Default for Memo<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Memo<P> {
    /// An empty MEMO.
    pub fn new() -> Self {
        Self {
            sets: Vec::new(),
            cardinalities: Vec::new(),
            eqs: Vec::new(),
            boundary_ids: Vec::new(),
            outer_flags: Vec::new(),
            payloads: Vec::new(),
            boundaries: Interner::new(),
            index: FxHashMap::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Entry id covering `set`, if present.
    pub fn id_of(&self, set: TableSet) -> Option<EntryId> {
        self.index.get(&set.bits()).copied()
    }

    /// The entry's table set.
    pub fn set(&self, id: EntryId) -> TableSet {
        self.sets[id.0 as usize]
    }

    /// The entry's cardinality.
    pub fn cardinality(&self, id: EntryId) -> f64 {
        self.cardinalities[id.0 as usize]
    }

    /// The entry's column-equivalence classes.
    pub fn eq_classes(&self, id: EntryId) -> &EqClasses {
        &self.eqs[id.0 as usize]
    }

    /// The entry's interned boundary-list id. Two entries have equal
    /// boundaries iff their ids are equal (a `u32` compare).
    pub fn boundary_id(&self, id: EntryId) -> PropSetId {
        self.boundary_ids[id.0 as usize]
    }

    /// The entry's boundary classes, resolved from the interner.
    pub fn boundary(&self, id: EntryId) -> &[u16] {
        self.boundaries.resolve(self.boundary_ids[id.0 as usize])
    }

    /// May the entry serve as a join outer?
    pub fn outer_enabled(&self, id: EntryId) -> bool {
        self.outer_flags[id.0 as usize]
    }

    /// The entry's payload.
    pub fn payload(&self, id: EntryId) -> &P {
        &self.payloads[id.0 as usize]
    }

    /// The entry's payload, mutably.
    pub fn payload_mut(&mut self, id: EntryId) -> &mut P {
        &mut self.payloads[id.0 as usize]
    }

    /// Number of *distinct* boundary lists across all entries (the
    /// interner's table size; ≤ `len()`).
    pub fn distinct_boundaries(&self) -> usize {
        self.boundaries.len()
    }

    /// A borrowed view of the entry.
    pub fn entry(&self, id: EntryId) -> EntryRef<'_, P> {
        let i = id.0 as usize;
        EntryRef {
            set: self.sets[i],
            cardinality: self.cardinalities[i],
            eq: &self.eqs[i],
            boundary: self.boundaries.resolve(self.boundary_ids[i]),
            outer_enabled: self.outer_flags[i],
            payload: &self.payloads[i],
        }
    }

    /// Views of two input entries plus the joined entry with exclusive
    /// payload access.
    ///
    /// The plan generator constantly reads the two input entries of a join
    /// while mutating the joined entry's payload; this provides that borrow
    /// shape without cloning. Only the payload column needs the split
    /// borrow — every core column is read-only here.
    pub fn join_view(
        &mut self,
        a: EntryId,
        b: EntryId,
        j: EntryId,
    ) -> (EntryRef<'_, P>, EntryRef<'_, P>, JoinedRef<'_, P>) {
        let (ai, bi, ji) = (a.0 as usize, b.0 as usize, j.0 as usize);
        assert!(
            ai != ji && bi != ji && ai != bi,
            "join entries must be distinct"
        );
        assert!(ai < self.payloads.len() && bi < self.payloads.len() && ji < self.payloads.len());
        let base = self.payloads.as_mut_ptr();
        // SAFETY: the three indices are distinct and in bounds (checked
        // above), so the two shared payload borrows never alias the mutable
        // one; all other columns are borrowed shared.
        let (pa, pb, pj) = unsafe { (&*base.add(ai), &*base.add(bi), &mut *base.add(ji)) };
        (
            EntryRef {
                set: self.sets[ai],
                cardinality: self.cardinalities[ai],
                eq: &self.eqs[ai],
                boundary: self.boundaries.resolve(self.boundary_ids[ai]),
                outer_enabled: self.outer_flags[ai],
                payload: pa,
            },
            EntryRef {
                set: self.sets[bi],
                cardinality: self.cardinalities[bi],
                eq: &self.eqs[bi],
                boundary: self.boundaries.resolve(self.boundary_ids[bi]),
                outer_enabled: self.outer_flags[bi],
                payload: pb,
            },
            JoinedRef {
                set: self.sets[ji],
                cardinality: self.cardinalities[ji],
                eq: &self.eqs[ji],
                boundary: self.boundaries.resolve(self.boundary_ids[ji]),
                outer_enabled: self.outer_flags[ji],
                payload: pj,
            },
        )
    }

    /// Insert a new entry, scattering it into the columns; panics if the
    /// set is already present.
    pub fn insert(&mut self, entry: MemoEntry<P>) -> EntryId {
        let id = EntryId(self.sets.len() as u32);
        let prev = self.index.insert(entry.set.bits(), id);
        assert!(prev.is_none(), "duplicate MEMO entry for {}", entry.set);
        self.sets.push(entry.set);
        self.cardinalities.push(entry.cardinality);
        self.eqs.push(entry.eq);
        self.boundary_ids
            .push(self.boundaries.intern_owned(entry.boundary));
        self.outer_flags.push(entry.outer_enabled);
        self.payloads.push(entry.payload);
        id
    }

    /// All entries in insertion (size-ascending) order.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, EntryRef<'_, P>)> {
        (0..self.sets.len() as u32).map(move |i| (EntryId(i), self.entry(EntryId(i))))
    }
}

/// Storage abstraction over a MEMO: either the real [`Memo`] or a per-worker
/// [`MemoShard`] layered over a frozen level prefix.
///
/// [`JoinVisitor`](crate::JoinVisitor) callbacks are generic over this trait
/// so the *same* visitor code runs unchanged in the serial walk (directly on
/// the `Memo`) and inside a parallel level worker (on a shard). The
/// required methods are per-field accessors — the struct-of-arrays layout
/// flows through the trait, so a caller touching one field costs one column
/// probe; [`MemoStore::entry`] assembles a full view from them.
pub trait MemoStore<P> {
    /// Number of entries visible through this store.
    fn len(&self) -> usize;
    /// True when no entries are visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Entry id covering `set`, if present.
    fn id_of(&self, set: TableSet) -> Option<EntryId>;
    /// The entry's table set.
    fn set(&self, id: EntryId) -> TableSet;
    /// The entry's cardinality.
    fn cardinality(&self, id: EntryId) -> f64;
    /// The entry's column-equivalence classes.
    fn eq_classes(&self, id: EntryId) -> &EqClasses;
    /// The entry's boundary classes.
    fn boundary(&self, id: EntryId) -> &[u16];
    /// May the entry serve as a join outer?
    fn outer_enabled(&self, id: EntryId) -> bool;
    /// The entry's payload.
    fn payload(&self, id: EntryId) -> &P;
    /// The entry's payload, mutably.
    fn payload_mut(&mut self, id: EntryId) -> &mut P;
    /// A borrowed view of the entry (assembled from the field accessors).
    fn entry(&self, id: EntryId) -> EntryRef<'_, P> {
        EntryRef {
            set: self.set(id),
            cardinality: self.cardinality(id),
            eq: self.eq_classes(id),
            boundary: self.boundary(id),
            outer_enabled: self.outer_enabled(id),
            payload: self.payload(id),
        }
    }
    /// Views of two input entries plus the joined entry with exclusive
    /// payload access.
    fn join_view(
        &mut self,
        a: EntryId,
        b: EntryId,
        j: EntryId,
    ) -> (EntryRef<'_, P>, EntryRef<'_, P>, JoinedRef<'_, P>);
    /// Insert a new entry; panics if the set is already present.
    fn insert(&mut self, entry: MemoEntry<P>) -> EntryId;
}

impl<P> MemoStore<P> for Memo<P> {
    fn len(&self) -> usize {
        Memo::len(self)
    }
    fn id_of(&self, set: TableSet) -> Option<EntryId> {
        Memo::id_of(self, set)
    }
    fn set(&self, id: EntryId) -> TableSet {
        Memo::set(self, id)
    }
    fn cardinality(&self, id: EntryId) -> f64 {
        Memo::cardinality(self, id)
    }
    fn eq_classes(&self, id: EntryId) -> &EqClasses {
        Memo::eq_classes(self, id)
    }
    fn boundary(&self, id: EntryId) -> &[u16] {
        Memo::boundary(self, id)
    }
    fn outer_enabled(&self, id: EntryId) -> bool {
        Memo::outer_enabled(self, id)
    }
    fn payload(&self, id: EntryId) -> &P {
        Memo::payload(self, id)
    }
    fn payload_mut(&mut self, id: EntryId) -> &mut P {
        Memo::payload_mut(self, id)
    }
    fn entry(&self, id: EntryId) -> EntryRef<'_, P> {
        Memo::entry(self, id)
    }
    fn join_view(
        &mut self,
        a: EntryId,
        b: EntryId,
        j: EntryId,
    ) -> (EntryRef<'_, P>, EntryRef<'_, P>, JoinedRef<'_, P>) {
        Memo::join_view(self, a, b, j)
    }
    fn insert(&mut self, entry: MemoEntry<P>) -> EntryId {
        Memo::insert(self, entry)
    }
}

/// A per-worker MEMO overlay for intra-level parallel enumeration.
///
/// During a parallel DP level every worker shares the frozen `base` MEMO
/// (all entries of strictly smaller levels — join inputs never live at the
/// current level, so workers only ever *read* the base) and accumulates the
/// current level's entries it creates in a private `local` tail. Local
/// entries stay array-of-structs ([`MemoEntry`] records): a shard holds a
/// handful of short-lived entries drained at the level barrier, so
/// columnarizing them would buy nothing — they are scattered into the real
/// MEMO's columns on merge. Local entries get provisional ids continuing
/// the base numbering (`base.len() + local index`); at the level barrier
/// the engine drains the shards and re-inserts their entries into the real
/// MEMO in globally ascending `set.bits()` order, which reproduces the
/// exact ids the serial walk would have assigned.
#[derive(Debug)]
pub struct MemoShard<'a, P> {
    base: &'a Memo<P>,
    local: Vec<MemoEntry<P>>,
    local_index: FxHashMap<u64, EntryId>,
}

impl<'a, P> MemoShard<'a, P> {
    /// A shard layered over the frozen `base`.
    pub fn new(base: &'a Memo<P>) -> Self {
        Self {
            base,
            local: Vec::new(),
            local_index: FxHashMap::default(),
        }
    }

    fn base_len(&self) -> u32 {
        self.base.len() as u32
    }

    fn local_entry(&self, id: EntryId) -> &MemoEntry<P> {
        &self.local[(id.0 - self.base_len()) as usize]
    }

    /// Consume the shard, returning its locally created entries in creation
    /// order (ascending `set.bits()` within the level, by construction).
    pub fn into_locals(self) -> Vec<MemoEntry<P>> {
        self.local
    }
}

impl<P> MemoStore<P> for MemoShard<'_, P> {
    fn len(&self) -> usize {
        self.base.len() + self.local.len()
    }
    fn id_of(&self, set: TableSet) -> Option<EntryId> {
        self.base
            .id_of(set)
            .or_else(|| self.local_index.get(&set.bits()).copied())
    }
    fn set(&self, id: EntryId) -> TableSet {
        if id.0 < self.base_len() {
            self.base.set(id)
        } else {
            self.local_entry(id).set
        }
    }
    fn cardinality(&self, id: EntryId) -> f64 {
        if id.0 < self.base_len() {
            self.base.cardinality(id)
        } else {
            self.local_entry(id).cardinality
        }
    }
    fn eq_classes(&self, id: EntryId) -> &EqClasses {
        if id.0 < self.base_len() {
            self.base.eq_classes(id)
        } else {
            &self.local_entry(id).eq
        }
    }
    fn boundary(&self, id: EntryId) -> &[u16] {
        if id.0 < self.base_len() {
            self.base.boundary(id)
        } else {
            &self.local_entry(id).boundary
        }
    }
    fn outer_enabled(&self, id: EntryId) -> bool {
        if id.0 < self.base_len() {
            self.base.outer_enabled(id)
        } else {
            self.local_entry(id).outer_enabled
        }
    }
    fn payload(&self, id: EntryId) -> &P {
        if id.0 < self.base_len() {
            self.base.payload(id)
        } else {
            &self.local_entry(id).payload
        }
    }
    fn payload_mut(&mut self, id: EntryId) -> &mut P {
        let bl = self.base_len();
        assert!(id.0 >= bl, "cannot mutate a frozen base entry from a shard");
        &mut self.local[(id.0 - bl) as usize].payload
    }
    fn entry(&self, id: EntryId) -> EntryRef<'_, P> {
        if id.0 < self.base_len() {
            self.base.entry(id)
        } else {
            self.local_entry(id).as_view()
        }
    }
    fn join_view(
        &mut self,
        a: EntryId,
        b: EntryId,
        j: EntryId,
    ) -> (EntryRef<'_, P>, EntryRef<'_, P>, JoinedRef<'_, P>) {
        let bl = self.base_len();
        assert!(a != j && b != j && a != b, "join entries must be distinct");
        assert!(j.0 >= bl, "joined entry must be shard-local");
        // Join inputs live at strictly smaller DP levels than the joined
        // entry, so during level-parallel enumeration `a` and `b` are always
        // frozen base entries; the general local/local case is still handled
        // via the distinctness assertion above.
        let local = self.local.as_mut_ptr();
        // SAFETY: `a`, `b`, `j` are distinct and their local indices are in
        // bounds, so the shared views never alias the mutable payload.
        unsafe {
            let ea: EntryRef<'_, P> = if a.0 < bl {
                self.base.entry(a)
            } else {
                (*local.add((a.0 - bl) as usize)).as_view()
            };
            let eb: EntryRef<'_, P> = if b.0 < bl {
                self.base.entry(b)
            } else {
                (*local.add((b.0 - bl) as usize)).as_view()
            };
            let ej = &mut *local.add((j.0 - bl) as usize);
            (
                ea,
                eb,
                JoinedRef {
                    set: ej.set,
                    cardinality: ej.cardinality,
                    eq: &ej.eq,
                    boundary: &ej.boundary,
                    outer_enabled: ej.outer_enabled,
                    payload: &mut ej.payload,
                },
            )
        }
    }
    fn insert(&mut self, entry: MemoEntry<P>) -> EntryId {
        let id = EntryId(self.base_len() + self.local.len() as u32);
        assert!(
            self.base.id_of(entry.set).is_none(),
            "duplicate MEMO entry for {} (already frozen)",
            entry.set
        );
        let prev = self.local_index.insert(entry.set.bits(), id);
        assert!(prev.is_none(), "duplicate MEMO entry for {}", entry.set);
        self.local.push(entry);
        id
    }
}

/// Compute an entry's boundary classes: representatives (under `eq`) of the
/// entry's columns that appear in join predicates reaching outside `set`.
pub fn boundary_classes(block: &QueryBlock, set: TableSet, eq: &EqClasses) -> Vec<u16> {
    let mut out: Vec<u16> = Vec::new();
    for p in block.join_preds() {
        let (lt, rt) = (p.left.table, p.right.table);
        let inside_col = if set.contains(lt) && !set.contains(rt) {
            Some(p.left)
        } else if set.contains(rt) && !set.contains(lt) {
            Some(p.right)
        } else {
            None
        };
        if let Some(c) = inside_col {
            let id = block.col_id(c).expect("join column is interesting");
            let rep = eq.find(id);
            if !out.contains(&rep) {
                out.push(rep);
            }
        }
    }
    out
}

/// Is `set` outer-enabled: no member is the null side of an outer join whose
/// preserving anchor lies outside `set`?
pub fn outer_enabled(block: &QueryBlock, set: TableSet) -> bool {
    block
        .outer_joins()
        .iter()
        .all(|oj| !set.contains(oj.null_side) || set.contains(oj.preserving))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote_catalog::{Catalog, ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            b.add_table(TableDef::new(
                format!("t{i}"),
                100.0,
                vec![
                    ColumnDef::uniform("c0", 100.0, 10.0),
                    ColumnDef::uniform("c1", 100.0, 10.0),
                ],
            ));
        }
        b.build().unwrap()
    }

    fn col(t: u8, c: u16) -> ColRef {
        ColRef::new(TableRef(t), c)
    }

    #[test]
    fn memo_insert_and_lookup() {
        let mut memo: Memo<()> = Memo::new();
        let s = TableSet::first_n(2);
        let id = memo.insert(MemoEntry {
            set: s,
            cardinality: 10.0,
            eq: EqClasses::new(0),
            boundary: vec![],
            outer_enabled: true,
            payload: (),
        });
        assert_eq!(memo.id_of(s), Some(id));
        assert_eq!(memo.id_of(TableSet::first_n(1)), None);
        assert_eq!(memo.entry(id).cardinality, 10.0);
        assert_eq!(memo.cardinality(id), 10.0);
        assert_eq!(memo.set(id), s);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn memo_rejects_duplicates() {
        let mut memo: Memo<()> = Memo::new();
        let e = || MemoEntry {
            set: TableSet::first_n(1),
            cardinality: 1.0,
            eq: EqClasses::new(0),
            boundary: vec![],
            outer_enabled: true,
            payload: (),
        };
        memo.insert(e());
        memo.insert(e());
    }

    #[test]
    fn boundary_lists_are_interned() {
        let mut memo: Memo<()> = Memo::new();
        let mk = |bits: u64, boundary: Vec<u16>| MemoEntry {
            set: TableSet::from_bits(bits),
            cardinality: 1.0,
            eq: EqClasses::new(0),
            boundary,
            outer_enabled: true,
            payload: (),
        };
        let a = memo.insert(mk(0b001, vec![3, 5]));
        let b = memo.insert(mk(0b010, vec![3, 5]));
        let c = memo.insert(mk(0b100, vec![7]));
        // Equal lists share one interned value; comparison is a u32 compare.
        assert_eq!(memo.boundary_id(a), memo.boundary_id(b));
        assert_ne!(memo.boundary_id(a), memo.boundary_id(c));
        assert_eq!(memo.distinct_boundaries(), 2);
        assert_eq!(memo.boundary(a), &[3, 5]);
        assert_eq!(memo.boundary(c), &[7]);
        assert_eq!(memo.entry(b).boundary, &[3, 5]);
    }

    #[test]
    fn join_view_borrows_three_entries() {
        let mut memo: Memo<u32> = Memo::new();
        let mk = |bits: u64, v: u32| MemoEntry {
            set: TableSet::from_bits(bits),
            cardinality: 1.0,
            eq: EqClasses::new(0),
            boundary: vec![],
            outer_enabled: true,
            payload: v,
        };
        let a = memo.insert(mk(0b001, 1));
        let b = memo.insert(mk(0b010, 2));
        let j = memo.insert(mk(0b011, 0));
        let (ea, eb, ej) = memo.join_view(a, b, j);
        *ej.payload = ea.payload + eb.payload;
        assert_eq!(*memo.entry(j).payload, 3);
        assert_eq!(*memo.payload(j), 3);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn join_view_rejects_aliasing() {
        let mut memo: Memo<()> = Memo::new();
        let a = memo.insert(MemoEntry {
            set: TableSet::first_n(1),
            cardinality: 1.0,
            eq: EqClasses::new(0),
            boundary: vec![],
            outer_enabled: true,
            payload: (),
        });
        let _ = memo.join_view(a, a, a);
    }

    #[test]
    fn shard_overlays_frozen_base() {
        let mut memo: Memo<u32> = Memo::new();
        let mk = |bits: u64, v: u32| MemoEntry {
            set: TableSet::from_bits(bits),
            cardinality: 1.0,
            eq: EqClasses::new(0),
            boundary: vec![],
            outer_enabled: true,
            payload: v,
        };
        let a = memo.insert(mk(0b001, 1));
        let b = memo.insert(mk(0b010, 2));
        let mut shard = MemoShard::new(&memo);
        // Base entries are visible through the shard.
        assert_eq!(
            MemoStore::id_of(&shard, TableSet::from_bits(0b001)),
            Some(a)
        );
        assert_eq!(*MemoStore::entry(&shard, b).payload, 2);
        assert_eq!(MemoStore::len(&shard), 2);
        // Local inserts continue the base numbering.
        let j = shard.insert(mk(0b011, 0));
        assert_eq!(j, EntryId(2));
        assert_eq!(MemoStore::len(&shard), 3);
        assert_eq!(
            MemoStore::id_of(&shard, TableSet::from_bits(0b011)),
            Some(j)
        );
        let (ea, eb, ej) = shard.join_view(a, b, j);
        *ej.payload = ea.payload + eb.payload;
        assert_eq!(*MemoStore::payload_mut(&mut shard, j), 3);
        let locals = shard.into_locals();
        assert_eq!(locals.len(), 1);
        assert_eq!(locals[0].payload, 3);
    }

    #[test]
    #[should_panic(expected = "frozen base entry")]
    fn shard_refuses_to_mutate_base() {
        let mut memo: Memo<()> = Memo::new();
        let a = memo.insert(MemoEntry {
            set: TableSet::first_n(1),
            cardinality: 1.0,
            eq: EqClasses::new(0),
            boundary: vec![],
            outer_enabled: true,
            payload: (),
        });
        let mut shard = MemoShard::new(&memo);
        let _ = shard.payload_mut(a);
    }

    #[test]
    fn boundary_tracks_spanning_predicates() {
        let cat = catalog(3);
        let mut b = QueryBlockBuilder::new();
        for i in 0..3 {
            b.add_table(TableId(i));
        }
        b.join(col(0, 0), col(1, 0));
        b.join(col(1, 1), col(2, 1));
        let block = b.build(&cat).unwrap();
        let eq = EqClasses::new(block.n_interesting_cols());

        // {t0}: one boundary column (t0.c0).
        let s0 = TableSet::singleton(TableRef(0));
        assert_eq!(boundary_classes(&block, s0, &eq).len(), 1);
        // {t0,t1}: boundary is t1.c1 (reaches t2).
        let s01 = TableSet::first_n(2);
        let b01 = boundary_classes(&block, s01, &eq);
        assert_eq!(b01, vec![eq.find(block.col_id(col(1, 1)).unwrap())]);
        // Full set: no boundary.
        assert!(boundary_classes(&block, TableSet::first_n(3), &eq).is_empty());
    }

    #[test]
    fn boundary_dedupes_by_class() {
        // Two predicates from t0.c0 and t0.c1 to t1, with c0 ≡ c1 merged.
        let cat = catalog(2);
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        b.add_table(TableId(1));
        b.join(col(0, 0), col(1, 0));
        b.join(col(0, 1), col(1, 1));
        let block = b.build(&cat).unwrap();
        let mut eq = EqClasses::new(block.n_interesting_cols());
        let c0 = block.col_id(col(0, 0)).unwrap();
        let c1 = block.col_id(col(0, 1)).unwrap();
        eq.union(c0, c1);
        let s0 = TableSet::singleton(TableRef(0));
        assert_eq!(
            boundary_classes(&block, s0, &eq).len(),
            1,
            "merged classes dedupe"
        );
    }

    #[test]
    fn outer_enabled_rules() {
        let cat = catalog(3);
        let mut b = QueryBlockBuilder::new();
        for i in 0..3 {
            b.add_table(TableId(i));
        }
        b.join(col(0, 0), col(1, 0));
        b.left_outer_join(col(1, 1), col(2, 1)); // t1 preserves, t2 null side
        let block = b.build(&cat).unwrap();
        assert!(outer_enabled(&block, TableSet::singleton(TableRef(0))));
        assert!(outer_enabled(&block, TableSet::singleton(TableRef(1))));
        assert!(
            !outer_enabled(&block, TableSet::singleton(TableRef(2))),
            "pending null side"
        );
        let s12: TableSet = [TableRef(1), TableRef(2)].into_iter().collect();
        assert!(outer_enabled(&block, s12), "anchor joined in");
        let s02: TableSet = [TableRef(0), TableRef(2)].into_iter().collect();
        assert!(!outer_enabled(&block, s02));
    }
}
