//! Cracker maps (§3.1): the two-column `(head, tail)` tables that sideways
//! cracking materializes per attribute pair, plus the special key map
//! `M_A,key` used to resolve deletion positions (§3.5).

use crate::bitvec::BitVec;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::{CrackPolicy, CrackedArray, Span};

/// A cracker map `M_AB`: head = values of attribute `A`, tail = values of
/// attribute `B`, physically reorganized (cracked) on the head as a side
/// effect of queries, with a cursor into the set's tape recording how far
/// its reorganization history has progressed.
#[derive(Debug, Clone)]
pub struct CrackerMap {
    /// Attribute index of the tail (`B`).
    pub tail_attr: usize,
    /// The cracked head/tail arrays and their index.
    pub arr: CrackedArray<Val>,
    /// Tape position of the next entry this map has *not* yet applied.
    pub cursor: usize,
    /// How many queries touched this map (LFU storage management).
    pub accesses: u64,
}

impl CrackerMap {
    /// Seed a map from parallel head/tail value vectors with an empty
    /// reorganization history (cursor at tape position 0 — the map must
    /// replay the whole tape to align with its siblings).
    pub fn seed(tail_attr: usize, head: Vec<Val>, tail: Vec<Val>) -> Self {
        CrackerMap {
            tail_attr,
            arr: CrackedArray::new(head, tail),
            cursor: 0,
            accesses: 0,
        }
    }

    /// Storage footprint in tuples (the paper's unit: one map row = one
    /// tuple of budget).
    pub fn tuples(&self) -> usize {
        self.arr.len()
    }

    /// Crack by `pred` under `policy` (the set's policy — a map must
    /// always crack with its siblings' policy or alignment breaks).
    pub fn crack(&mut self, pred: &RangePred, policy: &CrackPolicy) -> Span {
        self.arr.crack_range_with(pred, policy)
    }

    /// Bit vector over `[range.0, range.1)` marking the head values that
    /// match `pred` — the qualifying filter an inexact (coarse-granular)
    /// span needs. Built word-at-a-time ([`BitVec::from_fn`]), with the
    /// head slice hoisted so the per-bit work is one range comparison.
    pub fn head_filter_bv(&self, range: (usize, usize), pred: &RangePred) -> BitVec {
        let heads = &self.arr.head()[range.0..range.1];
        BitVec::from_fn(heads.len(), |i| pred.matches(heads[i]))
    }
}

/// The key map `M_A,key`: head = values of `A`, tail = tuple keys. It is
/// aligned through the same tape and serves two purposes: resolving the
/// physical positions of deletions for all sibling maps, and providing
/// `(value, key)` results when a plan needs tuple identities (e.g. before
/// a join).
#[derive(Debug, Clone)]
pub struct KeyMap {
    /// The cracked head/key arrays and their index.
    pub arr: CrackedArray<RowId>,
    /// Tape position of the next entry not yet applied.
    pub cursor: usize,
    /// Access counter.
    pub accesses: u64,
}

impl KeyMap {
    /// Seed from parallel head/key vectors at tape position 0.
    pub fn seed(head: Vec<Val>, keys: Vec<RowId>) -> Self {
        KeyMap {
            arr: CrackedArray::new(head, keys),
            cursor: 0,
            accesses: 0,
        }
    }

    /// Storage footprint in tuples.
    pub fn tuples(&self) -> usize {
        self.arr.len()
    }

    /// Crack by `pred` under `policy` (see [`CrackerMap::crack`]).
    pub fn crack(&mut self, pred: &RangePred, policy: &CrackPolicy) -> Span {
        self.arr.crack_range_with(pred, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::types::RangePred;

    #[test]
    fn seed_and_crack() {
        let mut m = CrackerMap::seed(1, vec![3, 1, 2], vec![30, 10, 20]);
        let r = m.arr.crack_range(&RangePred::closed(2, 3));
        let (h, t) = m.arr.view(r);
        let mut pairs: Vec<_> = h.iter().zip(t).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(&2, &20), (&3, &30)]);
        assert_eq!(m.cursor, 0);
    }

    #[test]
    fn key_map_tracks_keys() {
        let mut km = KeyMap::seed(vec![3, 1, 2], vec![0, 1, 2]);
        let r = km.arr.crack_range(&RangePred::point(1));
        let (_, keys) = km.arr.view(r);
        assert_eq!(keys, &[1]);
        assert_eq!(km.tuples(), 3);
    }
}
