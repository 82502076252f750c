//! Incrementally maintained sparse local-trust storage: the cell store
//! of the `EvidenceStore` that EigenTrust and PowerTrust share (`walk.rs`),
//! which runs a power iteration over the row-normalized matrix.
//!
//! The original implementation kept the cells in a
//! `HashMap<(u32, u32), _>` and rebuilt row storage from scratch on
//! every refresh — and, worse, `HashMap`'s per-instance random iteration
//! order made the floating-point accumulation order (and therefore the
//! low bits of every score) irreproducible between runs.
//!
//! [`LocalMatrix`] replaces that with a CSR-style adjacency the
//! `record()` path updates in place: one row per rater, each row a
//! ratee-sorted vector of cells. Refreshes iterate rows in rater order
//! and cells in ratee order, so
//!
//! * no per-refresh rebuild: row storage persists across refreshes and
//!   `upsert` touches only the affected row;
//! * deterministic accumulation order: results are bit-identical across
//!   runs, processes and thread counts;
//! * cheap clones: a handful of flat `Vec` copies instead of re-hashing
//!   every entry.

/// A sparse row-major matrix of per-(rater, ratee) cells, sorted by
/// ratee within each row.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalMatrix<C> {
    rows: Vec<Vec<(u32, C)>>,
}

impl<C> LocalMatrix<C> {
    /// Creates an empty matrix with `n` rows.
    pub fn new(n: usize) -> Self {
        LocalMatrix {
            rows: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of rows (raters).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Grows to at least `n` rows.
    pub fn resize(&mut self, n: usize) {
        if n > self.rows.len() {
            self.rows.resize_with(n, Vec::new);
        }
    }

    /// The cells of one row, in ascending ratee order.
    pub fn row(&self, rater: usize) -> &[(u32, C)] {
        &self.rows[rater]
    }

    /// Appends `cell` at the end of `rater`'s row — the decode path for
    /// untrusted snapshots. A `ratee` out of range, or at or below the
    /// row's last one, is rejected, so every row stays strictly
    /// ascending.
    pub fn push(&mut self, rater: usize, ratee: u32, cell: C) -> Result<(), String> {
        let n = self.rows.len();
        if ratee as usize >= n {
            return Err(format!("cell ratee {ratee} out of range (n = {n})"));
        }
        let row = &mut self.rows[rater];
        if let Some(&(last, _)) = row.last() {
            if ratee <= last {
                return Err(format!(
                    "row {rater} lists ratee {ratee} after ratee {last}: \
                     ratees must be strictly ascending"
                ));
            }
        }
        row.push((ratee, cell));
        Ok(())
    }

    /// Iterates `(rater, ratee, cell)` in ascending (rater, ratee) order —
    /// the deterministic accumulation order every refresh uses.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &C)> {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |(j, c)| (i as u32, *j, c)))
    }

    /// Number of stored cells.
    #[cfg(test)]
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

impl<C: Default> LocalMatrix<C> {
    /// The cell for `(rater, ratee)`, inserted at its sorted position if
    /// absent. O(log d) to find, O(d) to insert, for row degree `d`.
    /// (Production record paths go through [`LocalMatrix::upsert_memo`];
    /// this single-shot form remains as the reference for tests.)
    #[cfg(test)]
    pub fn upsert(&mut self, rater: u32, ratee: u32) -> &mut C {
        self.upsert_memo(rater, ratee, &mut UpsertMemo::default())
    }

    /// [`LocalMatrix::upsert`] through a caller-held memo: when the
    /// `(rater, ratee)` key matches the memo (the previous upsert), the
    /// cell position is reused without re-searching the row. Batched
    /// merges — ballot-stuffed copies, shard outboxes drained in rater
    /// order — are mostly such runs. The memo is invalidated on any key
    /// change, so interleaved keys stay correct (just un-memoized).
    pub fn upsert_memo(&mut self, rater: u32, ratee: u32, memo: &mut UpsertMemo) -> &mut C {
        let row = &mut self.rows[rater as usize];
        if memo.key == Some((rater, ratee)) {
            return &mut row[memo.pos].1;
        }
        let pos = match row.binary_search_by_key(&ratee, |&(j, _)| j) {
            Ok(pos) => pos,
            Err(pos) => {
                row.insert(pos, (ratee, C::default()));
                pos
            }
        };
        *memo = UpsertMemo {
            key: Some((rater, ratee)),
            pos,
        };
        &mut row[pos].1
    }
}

/// One-cell memo for [`LocalMatrix::upsert_memo`]. A fresh (default)
/// memo always misses, so `upsert` is the degenerate single-shot case.
#[derive(Debug, Clone, Default)]
pub(crate) struct UpsertMemo {
    key: Option<(u32, u32)>,
    pos: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_inserts_sorted_and_updates_in_place() {
        let mut m: LocalMatrix<f64> = LocalMatrix::new(3);
        *m.upsert(1, 5) += 1.0;
        *m.upsert(1, 2) += 2.0;
        *m.upsert(1, 5) += 3.0;
        assert_eq!(m.row(1), &[(2, 2.0), (5, 4.0)]);
        assert_eq!(m.row(0), &[]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn iter_is_in_row_major_sorted_order() {
        let mut m: LocalMatrix<u64> = LocalMatrix::new(3);
        *m.upsert(2, 1) += 1;
        *m.upsert(0, 9) += 1;
        *m.upsert(0, 3) += 1;
        let order: Vec<(u32, u32)> = m.iter().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(order, vec![(0, 3), (0, 9), (2, 1)]);
    }

    #[test]
    fn memoized_upsert_matches_plain_upsert() {
        // Same key sequence through a memo and through plain upserts
        // must produce identical matrices — runs, interleavings and
        // memo-invalidating inserts included.
        let keys = [
            (1u32, 5u32),
            (1, 5),
            (1, 5),
            (1, 2), // invalidates the memo, inserts before pos
            (1, 5), // re-search after the shift
            (0, 7),
            (1, 5),
        ];
        let mut plain: LocalMatrix<u64> = LocalMatrix::new(3);
        let mut memoized: LocalMatrix<u64> = LocalMatrix::new(3);
        let mut memo = UpsertMemo::default();
        for &(i, j) in &keys {
            *plain.upsert(i, j) += 1;
            *memoized.upsert_memo(i, j, &mut memo) += 1;
        }
        for row in 0..3 {
            assert_eq!(plain.row(row), memoized.row(row));
        }
        assert_eq!(memoized.row(1), &[(2, 1), (5, 5)]);
    }

    #[test]
    fn resize_only_grows() {
        let mut m: LocalMatrix<f64> = LocalMatrix::new(2);
        m.resize(5);
        assert_eq!(m.len(), 5);
        m.resize(1);
        assert_eq!(m.len(), 5);
        *m.upsert(4, 0) += 1.0;
        assert_eq!(m.row(4).len(), 1);
    }
}
