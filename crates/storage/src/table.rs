//! Counted tables with lazy hash indexes, backed by a columnar store.
//!
//! Tables keep a *derivation count* per tuple — the `count` column of §4.1 of
//! the paper ("for each tuple t, t.count represents the number of derivations
//! of t in Ri"). A tuple is visible iff its count is positive; counting
//! maintenance and DRed manipulate counts directly.
//!
//! Since PR 3 the row payloads live in a [`TableStore`] (columnar row
//! groups, optionally spilled to disk — see [`crate::store`]): the table
//! itself holds only the per-row counts, a row-hash → slot map for count
//! adjustment, and the lazily-built key indexes. Rows are appended to the
//! store once and never moved; a count dropping to zero makes the slot
//! invisible (≡ absent), and re-deriving the same tuple revives the slot
//! rather than appending a duplicate payload.

use crate::index::{HashIndex, SortedIndex};
use crate::schema::Schema;
use crate::store::{ColumnarStore, RelationStorageStats, TableStore};
use crate::value::{hash_values, CmpOp, Row, Value, ValueType};
use crate::StorageError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Below this many appended rows a range predicate is answered by the
/// vectorized kernel directly; above it, `scan_filtered` builds (and then
/// incrementally maintains) a sorted index for the predicate column.
const SORTED_INDEX_MIN_ROWS: u32 = 4096;

/// How a mutation changed tuple visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// The tuple became visible (count went 0 → positive).
    Appeared,
    /// Count changed but visibility did not.
    CountChanged,
    /// The tuple became invisible (count went positive → 0).
    Disappeared,
    /// No-op (e.g. deleting an absent tuple).
    Unchanged,
}

/// One relation instance: schema + counted rows + lazily-built indexes.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    store: Box<dyn TableStore>,
    /// Derivation count per appended row; 0 = invisible (≡ absent).
    counts: Vec<i64>,
    /// Row hash ([`hash_values`]) → slots, for count adjustment and dedup.
    /// Keys are already well-mixed SipHash outputs, so the cheap fixed-seed
    /// map hasher is safe here and saves a SipHash round per mutation.
    slots: crate::fxhash::FxHashMap<u64, Vec<u32>>,
    visible: usize,
    /// Lazily built hash indexes: key columns → slot lists. Once built, an
    /// index is maintained *incrementally* at every visibility transition
    /// (append, revival, retraction) — including DRed over-deletion and
    /// counting-IVM retractions — instead of being invalidated wholesale.
    indexes: HashMap<Vec<usize>, HashIndex>,
    /// Sorted (range) indexes by column, maintained the same way.
    sorted: HashMap<usize, SortedIndex>,
    generation: u64,
    /// Generation at the last storage flush; lets [`Table::flush_storage`]
    /// skip clean relations so a database-wide flush is O(dirty).
    flushed_generation: u64,
}

impl Table {
    /// A table over the default in-memory columnar engine.
    pub fn new(schema: Schema) -> Self {
        let types: Vec<ValueType> = schema.columns.iter().map(|c| c.ty).collect();
        Table::with_store(schema, Box::new(ColumnarStore::new(types)))
    }

    /// A table over an explicit storage engine (e.g. a spilling store).
    pub fn with_store(schema: Schema, store: Box<dyn TableStore>) -> Self {
        Table {
            schema,
            store,
            counts: Vec::new(),
            slots: crate::fxhash::FxHashMap::default(),
            visible: 0,
            indexes: HashMap::new(),
            sorted: HashMap::new(),
            generation: 0,
            flushed_generation: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of visible tuples.
    pub fn len(&self) -> usize {
        self.visible
    }

    pub fn is_empty(&self) -> bool {
        self.visible == 0
    }

    /// Monotonically increasing mutation counter; used by readers to detect
    /// staleness (e.g. cached grounding plans) and by incremental
    /// checkpoints to skip relations untouched since the last flush
    /// (see [`crate::Database::relation_generations`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Find the slot holding a row equal to `r`, visible or not.
    fn find_slot(&self, r: &[Value]) -> Option<u32> {
        self.find_slot_hashed(hash_values(r), r)
    }

    /// [`Self::find_slot`] with the row hash precomputed, so mutation paths
    /// hash each row exactly once even when they fall through to `append`.
    fn find_slot_hashed(&self, h: u64, r: &[Value]) -> Option<u32> {
        self.slots
            .get(&h)?
            .iter()
            .copied()
            .find(|&i| *self.store.get(i) == *r)
    }

    pub fn contains(&self, r: &Row) -> bool {
        matches!(self.find_slot(r), Some(i) if self.counts[i as usize] > 0)
    }

    pub fn count(&self, r: &Row) -> i64 {
        self.find_slot(r)
            .map(|i| self.counts[i as usize])
            .unwrap_or(0)
    }

    /// Iterate visible rows (materialized from the store).
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.iter_counted().map(|(r, _)| r)
    }

    /// Iterate `(row, count)` pairs.
    pub fn iter_counted(&self) -> impl Iterator<Item = (Row, i64)> + '_ {
        (0..self.store.appended()).filter_map(move |i| {
            let c = self.counts[i as usize];
            (c > 0).then(|| (self.store.get(i), c))
        })
    }

    /// Visit visible rows in ascending [`Row`] order without materializing
    /// the whole relation: a k-way merge over the store's sorted runs,
    /// holding one row per run. Appended rows are pairwise distinct, so the
    /// merge has no ties and the order equals sorting a full snapshot.
    pub fn for_each_sorted(&self, f: &mut dyn FnMut(&Row, i64)) {
        let runs = self.store.sorted_runs();
        let mut heap: BinaryHeap<Reverse<(Row, usize, usize)>> = BinaryHeap::new();
        for (ri, run) in runs.iter().enumerate() {
            if let Some((pos, row)) = self.next_visible(run, 0) {
                heap.push(Reverse((row, ri, pos)));
            }
        }
        while let Some(Reverse((row, ri, pos))) = heap.pop() {
            f(&row, self.counts[runs[ri][pos] as usize]);
            if let Some((next, row)) = self.next_visible(&runs[ri], pos + 1) {
                heap.push(Reverse((row, ri, next)));
            }
        }
    }

    /// First visible slot in `run` at or after `pos`, with its row.
    fn next_visible(&self, run: &[u32], mut pos: usize) -> Option<(usize, Row)> {
        while pos < run.len() {
            if self.counts[run[pos] as usize] > 0 {
                return Some((pos, self.store.get(run[pos])));
            }
            pos += 1;
        }
        None
    }

    /// Snapshot of all visible rows (sorted for deterministic output).
    pub fn rows_sorted(&self) -> Vec<Row> {
        let mut v = Vec::with_capacity(self.visible);
        self.for_each_sorted(&mut |r, _| v.push(r.clone()));
        v
    }

    /// Insert with derivation count 1. Returns the membership transition.
    pub fn insert(&mut self, r: Row) -> Result<Membership, StorageError> {
        self.adjust(r, 1)
    }

    /// Delete one derivation of the tuple.
    pub fn delete(&mut self, r: &Row) -> Membership {
        match self.adjust(r.clone(), -1) {
            Ok(m) => m,
            Err(_) => Membership::Unchanged,
        }
    }

    /// Remove a tuple entirely, regardless of count.
    pub fn purge(&mut self, r: &Row) -> Membership {
        self.touch();
        match self.find_slot(r) {
            Some(i) if self.counts[i as usize] > 0 => {
                self.counts[i as usize] = 0;
                self.visible -= 1;
                self.index_remove(r, i);
                Membership::Disappeared
            }
            _ => Membership::Unchanged,
        }
    }

    /// Append a brand-new row to the store and register its slot under its
    /// precomputed hash `h`.
    fn append(&mut self, h: u64, r: &Row, count: i64) {
        let idx = self.store.push(r);
        debug_assert_eq!(idx as usize, self.counts.len());
        self.counts.push(count);
        self.slots.entry(h).or_default().push(idx);
        self.visible += 1;
        self.index_insert(r, idx);
    }

    /// Register a visibility transition (tuple became visible at `slot`)
    /// with every live index.
    fn index_insert(&mut self, r: &[Value], slot: u32) {
        for ix in self.indexes.values_mut() {
            ix.insert(r, slot);
        }
        for sx in self.sorted.values_mut() {
            sx.insert(r, slot);
        }
    }

    /// Register a retraction (tuple at `slot` became invisible) with every
    /// live index. `r` need only be *equal* to the stored row — equal keys
    /// hash and order identically even across `Int`/`Float` representations.
    fn index_remove(&mut self, r: &[Value], slot: u32) {
        for ix in self.indexes.values_mut() {
            ix.remove(r, slot);
        }
        for sx in self.sorted.values_mut() {
            sx.remove(r, slot);
        }
    }

    /// Adjust the derivation count of `r` by `delta` (may be negative).
    ///
    /// Counts are clamped at zero: deleting more derivations than exist
    /// leaves the tuple absent (this is what DRed's over-deletion relies on).
    pub fn adjust(&mut self, r: Row, delta: i64) -> Result<Membership, StorageError> {
        if delta == 0 {
            return Ok(Membership::Unchanged);
        }
        self.schema.check_row(&r)?;
        self.touch();
        let h = hash_values(&r);
        match self.find_slot_hashed(h, &r) {
            Some(i) => {
                let old = self.counts[i as usize];
                if old <= 0 {
                    // Invisible slot ≡ absent tuple.
                    if delta > 0 {
                        self.counts[i as usize] = delta;
                        self.visible += 1;
                        self.index_insert(&r, i);
                        Ok(Membership::Appeared)
                    } else {
                        Ok(Membership::Unchanged)
                    }
                } else {
                    let c = old + delta;
                    if c <= 0 {
                        self.counts[i as usize] = 0;
                        self.visible -= 1;
                        self.index_remove(&r, i);
                        Ok(Membership::Disappeared)
                    } else {
                        self.counts[i as usize] = c;
                        Ok(Membership::CountChanged)
                    }
                }
            }
            None => {
                if delta > 0 {
                    self.append(h, &r, delta);
                    Ok(Membership::Appeared)
                } else {
                    Ok(Membership::Unchanged)
                }
            }
        }
    }

    /// Set a tuple's count to an absolute value (used when re-deriving).
    pub fn set_count(&mut self, r: Row, count: i64) -> Result<Membership, StorageError> {
        self.schema.check_row(&r)?;
        self.touch();
        let h = hash_values(&r);
        let slot = self.find_slot_hashed(h, &r);
        if count <= 0 {
            return Ok(match slot {
                Some(i) if self.counts[i as usize] > 0 => {
                    self.counts[i as usize] = 0;
                    self.visible -= 1;
                    self.index_remove(&r, i);
                    Membership::Disappeared
                }
                _ => Membership::Unchanged,
            });
        }
        Ok(match slot {
            Some(i) => {
                let was_visible = self.counts[i as usize] > 0;
                self.counts[i as usize] = count;
                if was_visible {
                    Membership::CountChanged
                } else {
                    self.visible += 1;
                    self.index_insert(&r, i);
                    Membership::Appeared
                }
            }
            None => {
                self.append(h, &r, count);
                Membership::Appeared
            }
        })
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.touch();
        self.store.clear();
        self.counts.clear();
        self.slots.clear();
        self.visible = 0;
        // Slot numbering restarts at 0: drop the indexes rather than pay
        // per-row removals; they rebuild lazily on the next lookup.
        self.indexes.clear();
        self.sorted.clear();
    }

    /// Look up rows whose values at `key_cols` equal `key_vals`, using (and
    /// building if needed) a hash index.
    pub fn lookup(&mut self, key_cols: &[usize], key_vals: &[Value]) -> Vec<Row> {
        debug_assert_eq!(key_cols.len(), key_vals.len());
        self.ensure_index(key_cols);
        self.indexes
            .get(key_cols)
            .and_then(|idx| idx.get(key_vals))
            .map(|hits| hits.iter().map(|&i| self.store.get(i)).collect())
            .unwrap_or_default()
    }

    /// Like [`Table::lookup`], but appends `(row, count)` pairs to `out`.
    pub fn lookup_counted(
        &mut self,
        key_cols: &[usize],
        key_vals: &[Value],
        out: &mut Vec<(Row, i64)>,
    ) {
        self.ensure_index(key_cols);
        let Some(idx) = self.indexes.get(key_cols) else {
            return;
        };
        if let Some(hits) = idx.get(key_vals) {
            for &i in hits {
                out.push((self.store.get(i), self.counts[i as usize]));
            }
        }
    }

    /// Index-nested-loop probe, cells-only: for every visible row matching
    /// `key_vals` on `key_cols` that passes every `(col, op, value)`
    /// predicate, append the cells at `needed` to `cells` and the row's
    /// count to `counts_out`. Avoids materializing full [`Row`]s per hit.
    pub fn probe_cells(
        &mut self,
        key_cols: &[usize],
        key_vals: &[Value],
        preds: &[(usize, CmpOp, Value)],
        needed: &[usize],
        cells: &mut Vec<Value>,
        counts_out: &mut Vec<i64>,
    ) {
        self.ensure_index(key_cols);
        let Some(idx) = self.indexes.get(key_cols) else {
            return;
        };
        let Some(hits) = idx.get(key_vals) else {
            return;
        };
        for &i in hits {
            let c = self.counts[i as usize];
            if c <= 0 {
                continue;
            }
            if !preds
                .iter()
                .all(|(pc, op, v)| op.eval(&self.store.get_cell(i, *pc), v))
            {
                continue;
            }
            for &nc in needed {
                cells.push(self.store.get_cell(i, nc));
            }
            counts_out.push(c);
        }
    }

    /// Vectorized filtered scan, cells-only: visit every visible row passing
    /// all `(col, op, value)` predicates, in slot order, appending `needed`
    /// cells and counts.
    ///
    /// The first predicate runs as a branch-free filter kernel over the
    /// typed column buffers ([`crate::column::ColumnBuf::filter_matches`]);
    /// remaining predicates verify per hit. On large tables a range
    /// predicate instead walks a sorted index (built on first use, then
    /// incrementally maintained).
    pub fn scan_filtered(
        &mut self,
        preds: &[(usize, CmpOp, Value)],
        needed: &[usize],
        cells: &mut Vec<Value>,
        counts_out: &mut Vec<i64>,
    ) {
        // Sorted-index path: a range predicate on a big table.
        if self.store.appended() >= SORTED_INDEX_MIN_ROWS {
            let range = preds
                .iter()
                .enumerate()
                .find(|(_, (_, op, _))| SortedIndex::supports(*op) && *op != CmpOp::Eq);
            if let Some((pi, &(col, op, ref probe))) = range {
                self.ensure_sorted_index(col);
                let mut slots: Vec<u32> = Vec::new();
                self.sorted[&col].lookup_range(op, probe, &mut slots);
                for i in slots {
                    let c = self.counts[i as usize];
                    if c <= 0 {
                        continue;
                    }
                    let ok = preds.iter().enumerate().all(|(pj, (pc, pop, pv))| {
                        pj == pi || pop.eval(&self.store.get_cell(i, *pc), pv)
                    });
                    if !ok {
                        continue;
                    }
                    for &nc in needed {
                        cells.push(self.store.get_cell(i, nc));
                    }
                    counts_out.push(c);
                }
                return;
            }
        }
        let counts = &self.counts;
        let mut hits: Vec<u32> = Vec::new();
        self.store.for_each_group(&mut |start, cols| {
            let rows = cols.first().map_or(0, |c| c.len());
            match preds.first() {
                Some((pc, op, v)) => {
                    hits.clear();
                    cols[*pc].filter_matches(*op, v, start, &mut hits);
                    for &i in &hits {
                        let c = counts[i as usize];
                        if c <= 0 {
                            continue;
                        }
                        let off = (i - start) as usize;
                        if !preds[1..]
                            .iter()
                            .all(|(qc, qop, qv)| qop.eval(&cols[*qc].get(off), qv))
                        {
                            continue;
                        }
                        for &nc in needed {
                            cells.push(cols[nc].get(off));
                        }
                        counts_out.push(c);
                    }
                }
                None => {
                    for off in 0..rows {
                        let i = start as usize + off;
                        let c = counts[i];
                        if c <= 0 {
                            continue;
                        }
                        for &nc in needed {
                            cells.push(cols[nc].get(off));
                        }
                        counts_out.push(c);
                    }
                }
            }
        });
    }

    /// Build a hash-join map over the visible rows passing `preds`: join key
    /// cells → `(needed cells, 1)` per matching row, in slot order. Counts
    /// are clamped to membership (1) — this is the `Old`-source build used by
    /// the evaluator's hash-join strategy, probed lock-free by the caller.
    pub fn join_map(
        &self,
        key_cols: &[usize],
        needed: &[usize],
        preds: &[(usize, CmpOp, Value)],
    ) -> crate::datalog::JoinMap {
        let mut map = crate::datalog::JoinMap::default();
        let mut keybuf: Vec<Value> = Vec::with_capacity(key_cols.len());
        let counts = &self.counts;
        self.store.for_each_group(&mut |start, cols| {
            let rows = cols.first().map_or(0, |c| c.len());
            for off in 0..rows {
                let i = start as usize + off;
                if counts[i] <= 0 {
                    continue;
                }
                if !preds
                    .iter()
                    .all(|(pc, op, v)| op.eval(&cols[*pc].get(off), v))
                {
                    continue;
                }
                keybuf.clear();
                keybuf.extend(key_cols.iter().map(|&k| cols[k].get(off)));
                let payload: Box<[Value]> = needed.iter().map(|&nc| cols[nc].get(off)).collect();
                // Probe by slice first: only unseen keys pay the owned-key
                // allocation (typically far fewer keys than rows).
                match map.get_mut(keybuf.as_slice()) {
                    Some(bucket) => bucket.push((payload, 1)),
                    None => {
                        map.insert(keybuf.clone(), vec![(payload, 1)]);
                    }
                }
            }
        });
        map
    }

    /// Number of distinct values in `col` among visible rows — the planner's
    /// NDV statistic. Served from a live index when one exists; otherwise a
    /// transient scan (no index is built or retained).
    pub fn distinct_estimate(&self, col: usize) -> usize {
        if let Some(sx) = self.sorted.get(&col) {
            return sx.distinct();
        }
        if let Some(ix) = self.indexes.get([col].as_slice()) {
            return ix.distinct();
        }
        let mut seen: HashSet<Value> = HashSet::new();
        let counts = &self.counts;
        self.store.for_each_group(&mut |start, cols| {
            let rows = cols.first().map_or(0, |c| c.len());
            for off in 0..rows {
                if counts[start as usize + off] > 0 {
                    seen.insert(cols[col].get(off));
                }
            }
        });
        seen.len()
    }

    /// Build (if needed) the sorted index for `col`; it is incrementally
    /// maintained from then on.
    pub fn ensure_sorted_index(&mut self, col: usize) {
        if self.sorted.contains_key(&col) {
            return;
        }
        let mut sx = SortedIndex::new(col);
        let counts = &self.counts;
        self.store.for_each_group(&mut |start, cols| {
            let rows = cols.first().map_or(0, |c| c.len());
            for off in 0..rows {
                let i = start + off as u32;
                if counts[i as usize] > 0 {
                    sx.insert_cell(cols[col].get(off), i);
                }
            }
        });
        self.sorted.insert(col, sx);
    }

    /// Seal the open row group (and write its segment, for spilling
    /// engines). A phase-boundary hook: no logical mutation, so indexes and
    /// the generation counter are untouched. Clean relations — no mutation
    /// since the previous flush and no rows waiting in the open group — are
    /// skipped outright, so flushing the whole database costs O(dirty
    /// relations), not O(relations).
    pub fn flush_storage(&mut self) {
        if self.generation == self.flushed_generation && self.store.open_rows() == 0 {
            return;
        }
        self.store.flush();
        self.flushed_generation = self.generation;
    }

    /// Storage footprint of this relation's payload store. `rows` reports
    /// visible tuples; the per-row count/slot bookkeeping kept by the table
    /// itself (~16 bytes/row) is not included.
    pub fn storage_stats(&self) -> RelationStorageStats {
        let mut s = self.store.stats();
        s.rows = self.visible as u64;
        s
    }

    fn ensure_index(&mut self, key_cols: &[usize]) {
        if !self.indexes.contains_key(key_cols) {
            let mut idx = HashIndex::new(key_cols.to_vec());
            let counts = &self.counts;
            self.store.for_each_group(&mut |start, cols| {
                let rows = cols.first().map_or(0, |c| c.len());
                for off in 0..rows {
                    let i = start + off as u32;
                    if counts[i as usize] > 0 {
                        let key: Vec<Value> = key_cols.iter().map(|&c| cols[c].get(off)).collect();
                        idx.insert_key(key, i);
                    }
                }
            });
            self.indexes.insert(key_cols.to_vec(), idx);
        }
    }

    fn touch(&mut self) {
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn table() -> Table {
        Table::new(
            Schema::build("R")
                .col("x", ValueType::Int)
                .col("y", ValueType::Text)
                .finish(),
        )
    }

    #[test]
    fn insert_then_contains() {
        let mut t = table();
        assert_eq!(t.insert(row![1, "a"]).unwrap(), Membership::Appeared);
        assert!(t.contains(&row![1, "a"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_insert_increments_count_not_len() {
        let mut t = table();
        t.insert(row![1, "a"]).unwrap();
        assert_eq!(t.insert(row![1, "a"]).unwrap(), Membership::CountChanged);
        assert_eq!(t.len(), 1);
        assert_eq!(t.count(&row![1, "a"]), 2);
    }

    #[test]
    fn delete_respects_counts() {
        let mut t = table();
        t.insert(row![1, "a"]).unwrap();
        t.insert(row![1, "a"]).unwrap();
        assert_eq!(t.delete(&row![1, "a"]), Membership::CountChanged);
        assert!(t.contains(&row![1, "a"]));
        assert_eq!(t.delete(&row![1, "a"]), Membership::Disappeared);
        assert!(!t.contains(&row![1, "a"]));
    }

    #[test]
    fn delete_absent_is_unchanged() {
        let mut t = table();
        assert_eq!(t.delete(&row![9, "z"]), Membership::Unchanged);
    }

    #[test]
    fn negative_adjust_clamps_at_zero() {
        let mut t = table();
        t.insert(row![1, "a"]).unwrap();
        assert_eq!(
            t.adjust(row![1, "a"], -100).unwrap(),
            Membership::Disappeared
        );
        assert_eq!(t.count(&row![1, "a"]), 0);
        // Further deletes do not create negative ghosts.
        assert_eq!(t.adjust(row![1, "a"], -1).unwrap(), Membership::Unchanged);
    }

    #[test]
    fn schema_is_enforced_on_insert() {
        let mut t = table();
        assert!(t.insert(row!["bad", 1]).is_err());
    }

    #[test]
    fn lookup_builds_index_and_finds_matches() {
        let mut t = table();
        t.insert(row![1, "a"]).unwrap();
        t.insert(row![1, "b"]).unwrap();
        t.insert(row![2, "c"]).unwrap();
        let hits = t.lookup(&[0], &[Value::Int(1)]);
        assert_eq!(hits.len(), 2);
        let hits = t.lookup(&[0], &[Value::Int(3)]);
        assert!(hits.is_empty());
    }

    #[test]
    fn mutation_invalidates_indexes() {
        let mut t = table();
        t.insert(row![1, "a"]).unwrap();
        assert_eq!(t.lookup(&[0], &[Value::Int(1)]).len(), 1);
        t.insert(row![1, "b"]).unwrap();
        assert_eq!(t.lookup(&[0], &[Value::Int(1)]).len(), 2);
    }

    #[test]
    fn set_count_overwrites() {
        let mut t = table();
        t.insert(row![1, "a"]).unwrap();
        t.set_count(row![1, "a"], 5).unwrap();
        assert_eq!(t.count(&row![1, "a"]), 5);
        assert_eq!(
            t.set_count(row![1, "a"], 0).unwrap(),
            Membership::Disappeared
        );
    }

    #[test]
    fn generation_advances_on_mutation() {
        let mut t = table();
        let g0 = t.generation();
        t.insert(row![1, "a"]).unwrap();
        assert!(t.generation() > g0);
    }

    #[test]
    fn rows_sorted_is_deterministic() {
        let mut t = table();
        t.insert(row![2, "b"]).unwrap();
        t.insert(row![1, "a"]).unwrap();
        let rows = t.rows_sorted();
        assert_eq!(rows[0], row![1, "a"]);
        assert_eq!(rows[1], row![2, "b"]);
    }

    #[test]
    fn disappeared_tuple_can_reappear() {
        let mut t = table();
        t.insert(row![1, "a"]).unwrap();
        assert_eq!(t.delete(&row![1, "a"]), Membership::Disappeared);
        assert_eq!(t.len(), 0);
        assert!(t.rows_sorted().is_empty(), "invisible rows stay hidden");
        assert_eq!(t.insert(row![1, "a"]).unwrap(), Membership::Appeared);
        assert_eq!(t.len(), 1);
        assert_eq!(t.count(&row![1, "a"]), 1);
    }

    #[test]
    fn sorted_scan_merges_across_sealed_groups() {
        let mut t = table();
        for i in (0..20).rev() {
            t.insert(row![i, "x"]).unwrap();
        }
        t.flush_storage();
        for i in (20..40).rev() {
            t.insert(row![i, "y"]).unwrap();
        }
        let rows = t.rows_sorted();
        assert_eq!(rows.len(), 40);
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "globally sorted");
        let stats = t.storage_stats();
        assert_eq!(stats.rows, 40);
        assert!(stats.bytes_resident > 0);
    }

    #[test]
    fn numeric_equality_dedups_across_int_and_float() {
        // Int(3) == Float(3.0) by Value semantics; an Any-typed column must
        // treat them as the same tuple (one slot, count 2).
        let mut t = Table::new(Schema::build("A").col("x", ValueType::Any).finish());
        t.insert(row![3i64]).unwrap();
        assert_eq!(t.insert(row![3.0f64]).unwrap(), Membership::CountChanged);
        assert_eq!(t.len(), 1);
        assert_eq!(t.count(&row![3i64]), 2);
    }
}
