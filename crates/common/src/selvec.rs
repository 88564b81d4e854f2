//! Selection vectors: the qualifying-row set a predicate produces.
//!
//! A [`SelVec`] is either the compact "every row qualifies" form or a sorted
//! list of qualifying row ids (`u32`, matching the chunk row-count bound).
//! Operators evaluate predicates into a `SelVec` and iterate the survivors
//! directly, so an all-true residual costs nothing and a partial one costs
//! one id list instead of a rematerialized chunk.
//!
//! Contract:
//! * ids are strictly increasing and `< len` of the chunk they select from;
//! * `All(n)` and `Ids(0..n)` are semantically equal — producers should
//!   collapse to `All` when every row qualifies (see [`SelVec::from_mask`])
//!   so consumers can branch on [`SelVec::is_all`] for the no-copy path.

/// Qualifying rows of one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelVec {
    /// All rows `0..n` qualify.
    All(usize),
    /// Sorted, deduplicated qualifying row ids.
    Ids(Vec<u32>),
}

impl SelVec {
    /// Every row of an `n`-row chunk.
    pub fn all(n: usize) -> Self {
        SelVec::All(n)
    }

    /// No rows.
    pub fn none() -> Self {
        SelVec::Ids(Vec::new())
    }

    /// The rows `0..n` that pass (a NULL row never does), through
    /// [`compact`]; when every row passes, the compact `All` form.
    pub fn select(n: usize, valid: Option<&[bool]>, pass: impl Fn(usize) -> bool) -> Self {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        compact(&mut ids, 0, valid, false, pass);
        if ids.len() == n {
            SelVec::All(n)
        } else {
            SelVec::Ids(ids)
        }
    }

    /// Collapse a boolean mask into a selection vector (`true` = keep).
    pub fn from_mask(mask: &[bool]) -> Self {
        Self::select(mask.len(), None, |i| mask[i])
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            SelVec::All(n) => *n,
            SelVec::Ids(ids) => ids.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every row of the source chunk is selected.
    pub fn is_all(&self) -> bool {
        matches!(self, SelVec::All(_))
    }

    /// The raw `&[u32]` id view, or `None` in the compact all-rows form.
    pub fn ids(&self) -> Option<&[u32]> {
        match self {
            SelVec::All(_) => None,
            SelVec::Ids(ids) => Some(ids),
        }
    }

    /// Iterate the selected row indices.
    pub fn iter(&self) -> SelIter<'_> {
        match self {
            SelVec::All(n) => SelIter::All(0..*n),
            SelVec::Ids(ids) => SelIter::Ids(ids.iter()),
        }
    }

    /// Expand back into a boolean mask over an `n`-row chunk.
    pub fn to_mask(&self, n: usize) -> Vec<bool> {
        match self {
            SelVec::All(_) => vec![true; n],
            SelVec::Ids(ids) => {
                let mut mask = vec![false; n];
                for &i in ids {
                    mask[i as usize] = true;
                }
                mask
            }
        }
    }
}

/// A row id the selection kernel compacts: `u32` within a chunk, `usize`
/// within a stored table.
pub trait RowId: Copy {
    fn row(self) -> usize;
}

impl RowId for u32 {
    #[inline]
    fn row(self) -> usize {
        self as usize
    }
}

impl RowId for usize {
    #[inline]
    fn row(self) -> usize {
        self
    }
}

/// Branch-free selection, the one kernel every predicate evaluator compacts
/// its survivors with: keep the ids of `ids[from..]` whose row passes, in
/// place and in order. Each id is written at the output cursor
/// unconditionally and the cursor advances by the verdict, so an
/// unpredictable filter costs no mispredicted branch per row. NULLs fold in
/// as `valid & pass | !valid & pass_on_null`: `pass` is asked about every
/// row, NULL or not, and must not panic on a NULL row's placeholder value.
#[inline]
pub fn compact<I: RowId>(
    ids: &mut Vec<I>,
    from: usize,
    valid: Option<&[bool]>,
    pass_on_null: bool,
    pass: impl Fn(usize) -> bool,
) {
    #[inline(always)]
    fn run<I: RowId>(ids: &mut Vec<I>, from: usize, pass: impl Fn(usize) -> bool) {
        let mut kept = from;
        for i in from..ids.len() {
            let id = ids[i];
            ids[kept] = id;
            kept += pass(id.row()) as usize;
        }
        ids.truncate(kept);
    }
    match valid {
        None => run(ids, from, pass),
        Some(v) => run(ids, from, |r| v[r] & pass(r) | !v[r] & pass_on_null),
    }
}

/// Iterator over the selected row indices of a [`SelVec`].
pub enum SelIter<'a> {
    All(std::ops::Range<usize>),
    Ids(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Ids(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelIter::All(r) => r.size_hint(),
            SelIter::Ids(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for SelIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_collapses_to_all() {
        assert_eq!(SelVec::from_mask(&[true, true]), SelVec::All(2));
        assert_eq!(
            SelVec::from_mask(&[true, false, true]),
            SelVec::Ids(vec![0, 2])
        );
        assert_eq!(SelVec::from_mask(&[]), SelVec::All(0));
    }

    #[test]
    fn roundtrips_through_mask() {
        let mask = [true, false, false, true, true];
        let sel = SelVec::from_mask(&mask);
        assert_eq!(sel.len(), 3);
        assert!(!sel.is_all());
        assert_eq!(sel.to_mask(5), mask.to_vec());
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 3, 4]);
        assert_eq!(sel.ids(), Some(&[0u32, 3, 4][..]));
    }

    #[test]
    fn compact_narrows_in_place_and_folds_nulls() {
        // Ids before `from` are left alone; later ones keep their order.
        let mut ids: Vec<usize> = vec![7, 10, 11, 12, 13, 14];
        compact(&mut ids, 1, None, false, |r| r % 2 == 0);
        assert_eq!(ids, vec![7, 10, 12, 14]);
        // A NULL row passes iff the conjunct accepts NULL, whatever its
        // placeholder value says.
        let valid = [true, false, true, false];
        for (on_null, want) in [(false, vec![0u32]), (true, vec![0, 1, 3])] {
            let mut ids: Vec<u32> = (0..4).collect();
            compact(&mut ids, 0, Some(&valid), on_null, |r| r < 2);
            assert_eq!(ids, want);
        }
        assert_eq!(
            SelVec::select(4, Some(&valid), |_| true),
            SelVec::Ids(vec![0, 2])
        );
        assert_eq!(SelVec::select(2, None, |_| true), SelVec::All(2));
    }

    #[test]
    fn all_iterates_every_row() {
        let sel = SelVec::all(3);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(sel.ids(), None);
        assert!(SelVec::none().is_empty());
    }
}
