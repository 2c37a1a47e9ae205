//! Secondary indexes.
//!
//! A B-tree-ordered map from column value to the posting list of row ids.
//! Supports the probe shapes SIEVE's rewrites generate: point lookups
//! (`owner = 120`), ranges (`ts_time BETWEEN 09:00 AND 10:00`), and IN
//! lists. Each probe charges one index descent; fetching the rows
//! themselves is charged by [`crate::table::Table::fetch`].

use crate::stats::CounterBlock;
use crate::table::{Row, RowId};
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Which side of a range bound is included; mirrors the policy model's
/// comparison-operator set for ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeBound {
    /// No bound on this side.
    Unbounded,
    /// Bound including the endpoint (`>=` / `<=`).
    Inclusive(Value),
    /// Bound excluding the endpoint (`>` / `<`).
    Exclusive(Value),
}

impl RangeBound {
    fn as_std(&self) -> Bound<&Value> {
        match self {
            RangeBound::Unbounded => Bound::Unbounded,
            RangeBound::Inclusive(v) => Bound::Included(v),
            RangeBound::Exclusive(v) => Bound::Excluded(v),
        }
    }
}

/// A secondary index over one column of a table.
#[derive(Debug, Clone)]
pub struct Index {
    /// Name of the index (e.g. `idx_wifi_dataset_owner`).
    pub name: String,
    /// Indexed column position in the base table.
    pub column: usize,
    /// Indexed column name (for planner/EXPLAIN display).
    pub column_name: String,
    entries: BTreeMap<Value, Vec<RowId>>,
    len: u64,
}

impl Index {
    /// Build an index over `column` from the given rows.
    pub fn build<'a>(
        name: impl Into<String>,
        column: usize,
        column_name: impl Into<String>,
        rows: impl IntoIterator<Item = (RowId, &'a Row)>,
    ) -> Self {
        let mut entries: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
        let mut len = 0u64;
        for (id, row) in rows {
            entries.entry(row[column].clone()).or_default().push(id);
            len += 1;
        }
        Index {
            name: name.into(),
            column,
            column_name: column_name.into(),
            entries,
            len,
        }
    }

    /// Register one newly inserted row.
    pub fn insert(&mut self, id: RowId, row: &Row) {
        self.entries
            .entry(row[self.column].clone())
            .or_default()
            .push(id);
        self.len += 1;
    }

    /// Number of indexed entries (rows).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Point lookup: rows with `col = key`. One probe charged.
    pub fn lookup(&self, key: &Value, stats: &CounterBlock) -> Vec<RowId> {
        stats.index_probes(1);
        self.entries.get(key).cloned().unwrap_or_default()
    }

    /// Range scan between two bounds. One probe charged (a single B-tree
    /// descent followed by a leaf walk).
    pub fn range(&self, low: &RangeBound, high: &RangeBound, stats: &CounterBlock) -> Vec<RowId> {
        stats.index_probes(1);
        // An (Excluded(x), Excluded(x)) std range panics; an empty interval
        // is a legal (if silly) policy predicate, so detect inverted /
        // empty intervals up front.
        if let (RangeBound::Inclusive(a) | RangeBound::Exclusive(a), RangeBound::Inclusive(b) | RangeBound::Exclusive(b)) = (low, high) {
            if a > b
                || (a == b
                    && (matches!(low, RangeBound::Exclusive(_))
                        || matches!(high, RangeBound::Exclusive(_))))
            {
                return Vec::new();
            }
        }
        self.entries
            .range::<Value, _>((low.as_std(), high.as_std()))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// IN-list lookup: one probe per list element.
    pub fn lookup_in(&self, keys: &[Value], stats: &CounterBlock) -> Vec<RowId> {
        stats.index_probes(keys.len() as u64);
        let mut out: Vec<RowId> = keys
            .iter()
            .flat_map(|k| self.entries.get(k).into_iter().flatten().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Exact number of rows matching a point key (used by EXPLAIN for
    /// precise cardinalities where the engine has them).
    pub fn count_eq(&self, key: &Value) -> u64 {
        self.entries.get(key).map_or(0, |v| v.len() as u64)
    }

    /// Exact number of rows in a range.
    pub fn count_range(&self, low: &RangeBound, high: &RangeBound) -> u64 {
        if let (RangeBound::Inclusive(a) | RangeBound::Exclusive(a), RangeBound::Inclusive(b) | RangeBound::Exclusive(b)) = (low, high) {
            if a > b
                || (a == b
                    && (matches!(low, RangeBound::Exclusive(_))
                        || matches!(high, RangeBound::Exclusive(_))))
            {
                return 0;
            }
        }
        self.entries
            .range::<Value, _>((low.as_std(), high.as_std()))
            .map(|(_, ids)| ids.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::table::Table;
    use crate::value::DataType;

    fn indexed_table() -> (Table, Index) {
        let mut t = Table::new(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ));
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        let stats = CounterBlock::new();
        let idx = Index::build("idx_owner", 1, "owner", t.scan(&stats));
        (t, idx)
    }

    #[test]
    fn point_lookup_finds_all_matches() {
        let (_, idx) = indexed_table();
        let stats = CounterBlock::new();
        let hits = idx.lookup(&Value::Int(3), &stats);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|&id| id % 10 == 3));
        assert_eq!(stats.snapshot().index_probes, 1);
    }

    #[test]
    fn missing_key_is_empty() {
        let (_, idx) = indexed_table();
        let stats = CounterBlock::new();
        assert!(idx.lookup(&Value::Int(42), &stats).is_empty());
    }

    #[test]
    fn range_scan_inclusive_exclusive() {
        let (_, idx) = indexed_table();
        let stats = CounterBlock::new();
        let hits = idx.range(
            &RangeBound::Inclusive(Value::Int(2)),
            &RangeBound::Exclusive(Value::Int(4)),
            &stats,
        );
        assert_eq!(hits.len(), 20); // owners 2 and 3
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let (_, idx) = indexed_table();
        let stats = CounterBlock::new();
        assert!(idx
            .range(
                &RangeBound::Exclusive(Value::Int(5)),
                &RangeBound::Exclusive(Value::Int(5)),
                &stats
            )
            .is_empty());
        assert!(idx
            .range(
                &RangeBound::Inclusive(Value::Int(9)),
                &RangeBound::Inclusive(Value::Int(1)),
                &stats
            )
            .is_empty());
    }

    #[test]
    fn in_list_dedups_and_counts_probes() {
        let (_, idx) = indexed_table();
        let stats = CounterBlock::new();
        let hits = idx.lookup_in(&[Value::Int(1), Value::Int(1), Value::Int(2)], &stats);
        assert_eq!(hits.len(), 20);
        assert_eq!(stats.snapshot().index_probes, 3);
    }

    #[test]
    fn counts_are_exact() {
        let (_, idx) = indexed_table();
        assert_eq!(idx.count_eq(&Value::Int(0)), 10);
        assert_eq!(
            idx.count_range(
                &RangeBound::Unbounded,
                &RangeBound::Exclusive(Value::Int(5))
            ),
            50
        );
        assert_eq!(idx.distinct_keys(), 10);
    }

    #[test]
    fn incremental_insert_visible() {
        let (mut t, mut idx) = indexed_table();
        let id = t.insert(vec![Value::Int(100), Value::Int(55)]);
        idx.insert(id, t.row(id));
        let stats = CounterBlock::new();
        assert_eq!(idx.lookup(&Value::Int(55), &stats), vec![id]);
        assert_eq!(idx.len(), 101);
    }
}
