//! Dictionary-coded string vectors.
//!
//! The TDE stores every string column as fixed-width tokens plus a
//! dictionary (Sect. 4.1.1) and models decompression as a join placed above
//! filters and aggregates (Sect. 4.1.2). [`StrVec`] is that token form kept
//! in memory: a shared string table and one `u32` code per row. Scans hand
//! out the stored codes with the column's dictionary, operators work on the
//! codes, and a `String` is only built when a row is materialized
//! ([`StrVec::get`] → `Value::Str`).
//!
//! The table need be neither sorted nor duplicate-free, and may hold entries
//! no row references. Codes on null rows are placeholders and may lie
//! outside the table (an all-null column has an empty one); everything here
//! tolerates that, and callers consult the null mask before trusting a code.

use std::collections::HashMap;
use std::sync::Arc;

/// One string per row, as a code into a shared table.
#[derive(Debug, Clone)]
pub struct StrVec {
    table: Arc<Vec<String>>,
    codes: Vec<u32>,
}

impl StrVec {
    /// Codes over an existing table (the scan path: the table is the stored
    /// column's dictionary, shared, never copied).
    pub fn new(table: Arc<Vec<String>>, codes: Vec<u32>) -> Self {
        StrVec { table, codes }
    }

    /// An empty vector with room for `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        StrVec::new(Arc::new(Vec::new()), Vec::with_capacity(cap))
    }

    /// Intern one string per row; `None` rows get the placeholder code.
    pub fn from_opt_strs<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        let rows = rows.into_iter();
        let mut b = StrBuilder::with_capacity(rows.size_hint().0);
        for row in rows {
            b.push(row);
        }
        b.finish()
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    pub fn table(&self) -> &Arc<Vec<String>> {
        &self.table
    }

    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The string at row `i` (`""` for a placeholder code outside the table).
    pub fn get(&self, i: usize) -> &str {
        self.table
            .get(self.codes[i] as usize)
            .map_or("", String::as_str)
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    pub fn take(&self, indices: &[usize]) -> Self {
        StrVec::new(
            Arc::clone(&self.table),
            indices.iter().map(|&i| self.codes[i]).collect(),
        )
    }

    /// Gather with optional sources; `None` rows get the placeholder code.
    pub fn take_opt(&self, indices: &[Option<u32>]) -> Self {
        StrVec::new(
            Arc::clone(&self.table),
            indices
                .iter()
                .map(|idx| idx.map_or(0, |i| self.codes[i as usize]))
                .collect(),
        )
    }

    pub fn slice(&self, start: usize, len: usize) -> Self {
        StrVec::new(
            Arc::clone(&self.table),
            self.codes[start..start + len].to_vec(),
        )
    }

    /// Append `other`'s rows. Vectors over the same table (`Arc::ptr_eq` —
    /// morsels of one scan merging at an Exchange, Sort or TopN) append
    /// their codes as they are; otherwise every entry `other` references is
    /// looked up in, or added to, this table once and its codes remapped.
    pub fn append(&mut self, other: &StrVec) {
        if self.codes.is_empty() {
            self.table = Arc::clone(&other.table);
        }
        if Arc::ptr_eq(&self.table, &other.table) {
            self.codes.extend_from_slice(&other.codes);
            return;
        }
        const UNSEEN: u32 = u32::MAX;
        let mut remap = vec![UNSEEN; other.table.len()];
        // Codes of `other` whose strings this table lacks, in first-use order.
        let mut fresh: Vec<u32> = Vec::new();
        {
            let mut index: HashMap<&str, u32> = HashMap::with_capacity(self.table.len());
            for (i, s) in self.table.iter().enumerate() {
                index.entry(s).or_insert(i as u32);
            }
            for &c in &other.codes {
                // Placeholder codes outside the table stay placeholders.
                let Some(s) = other.table.get(c as usize) else {
                    continue;
                };
                if remap[c as usize] == UNSEEN {
                    let next = (self.table.len() + fresh.len()) as u32;
                    let code = *index.entry(s).or_insert(next);
                    if code == next {
                        fresh.push(c);
                    }
                    remap[c as usize] = code;
                }
            }
        }
        if !fresh.is_empty() {
            Arc::make_mut(&mut self.table)
                .extend(fresh.iter().map(|&c| other.table[c as usize].clone()));
        }
        self.codes.extend(
            other
                .codes
                .iter()
                .map(|&c| remap.get(c as usize).map_or(0, |&m| m)),
        );
    }

    /// Rows whose validity bit is clear carry no string: skip them.
    fn valid_codes<'a>(&'a self, valid: Option<&'a [bool]>) -> impl Iterator<Item = u32> + 'a {
        self.codes
            .iter()
            .enumerate()
            .filter(move |(i, _)| valid.is_none_or(|v| v[*i]))
            .map(|(_, &c)| c)
    }

    /// The sorted, duplicate-free strings the valid rows hold, and per row
    /// its index into that list (0 on null rows). A function of the logical
    /// content only: equal vectors over different tables give equal output,
    /// which is what keeps the storage and wire encodings table-blind.
    pub fn sorted_dictionary(&self, valid: Option<&[bool]>) -> (Vec<String>, Vec<u32>) {
        let mut referenced = vec![false; self.table.len()];
        for c in self.valid_codes(valid) {
            referenced[c as usize] = true;
        }
        let mut entries: Vec<u32> = (0..self.table.len() as u32)
            .filter(|&c| referenced[c as usize])
            .collect();
        entries.sort_unstable_by(|&a, &b| self.table[a as usize].cmp(&self.table[b as usize]));
        let mut dict: Vec<String> = Vec::with_capacity(entries.len());
        let mut remap = vec![0u32; self.table.len()];
        for &c in &entries {
            let s = &self.table[c as usize];
            if dict.last() != Some(s) {
                dict.push(s.clone());
            }
            remap[c as usize] = (dict.len() - 1) as u32;
        }
        let codes = self
            .codes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if valid.is_none_or(|v| v[i]) {
                    remap[c as usize]
                } else {
                    0
                }
            })
            .collect();
        (dict, codes)
    }

    /// `f` of every valid row's string (`default` on null rows). When the
    /// table is no larger than the vector `f` runs once per referenced entry
    /// and the results are mapped through the codes; a short vector over a
    /// long table evaluates per row instead.
    pub fn map_rows<T: Clone>(
        &self,
        valid: Option<&[bool]>,
        default: T,
        mut f: impl FnMut(&str) -> T,
    ) -> Vec<T> {
        let is_valid = |i: usize| valid.is_none_or(|v| v[i]);
        if self.table.len() > self.len() {
            return (0..self.len())
                .map(|i| {
                    if is_valid(i) {
                        f(self.get(i))
                    } else {
                        default.clone()
                    }
                })
                .collect();
        }
        let mut memo: Vec<Option<T>> = vec![None; self.table.len()];
        (0..self.len())
            .map(|i| {
                if !is_valid(i) {
                    return default.clone();
                }
                let c = self.codes[i] as usize;
                memo[c].get_or_insert_with(|| f(&self.table[c])).clone()
            })
            .collect()
    }

    /// A string-to-string function applied to the vector (`UPPER`, `LOWER`):
    /// once per referenced entry when the table is no larger than the
    /// vector — the codes carry over, only the table is rewritten — else per
    /// row with the results interned.
    pub fn map_strs(&self, valid: Option<&[bool]>, mut f: impl FnMut(&str) -> String) -> StrVec {
        if self.table.len() > self.len() {
            let mapped: Vec<Option<String>> = (0..self.len())
                .map(|i| valid.is_none_or(|v| v[i]).then(|| f(self.get(i))))
                .collect();
            return StrVec::from_opt_strs(mapped.iter().map(|s| s.as_deref()));
        }
        let mut table = vec![String::new(); self.table.len()];
        let mut done = vec![false; self.table.len()];
        for c in self.valid_codes(valid) {
            let c = c as usize;
            if !done[c] {
                done[c] = true;
                table[c] = f(&self.table[c]);
            }
        }
        StrVec::new(Arc::new(table), self.codes.clone())
    }

    /// Drop table entries no valid row references (a no-op unless the table
    /// is longer than the vector). Results leaving the engine call this so a
    /// ten-row answer does not pin — or get priced by caches as — a whole
    /// stored dictionary.
    pub fn compact(&mut self, valid: Option<&[bool]>) {
        if self.table.len() <= self.len() {
            return;
        }
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut table = Vec::new();
        let old = Arc::clone(&self.table);
        for (i, code) in self.codes.iter_mut().enumerate() {
            *code = match old.get(*code as usize) {
                Some(s) if valid.is_none_or(|v| v[i]) => *remap.entry(*code).or_insert_with(|| {
                    table.push(s.clone());
                    (table.len() - 1) as u32
                }),
                _ => 0,
            };
        }
        self.table = Arc::new(table);
    }

    /// In-memory footprint: the codes plus the table, counted once.
    pub fn approx_bytes(&self) -> usize {
        self.codes.len() * 4 + self.table.iter().map(|s| s.len() + 24).sum::<usize>()
    }
}

/// The write side of a [`StrVec`]: interns strings as they arrive, one
/// code per row, table entries in first-seen order. Each distinct string
/// is copied once, as the index key that becomes its table entry.
#[derive(Debug)]
pub(crate) struct StrBuilder {
    index: HashMap<String, u32>,
    codes: Vec<u32>,
}

impl StrBuilder {
    pub fn with_capacity(cap: usize) -> Self {
        StrBuilder {
            index: HashMap::new(),
            codes: Vec::with_capacity(cap),
        }
    }

    /// Append one row; `None` gets the placeholder code.
    pub fn push(&mut self, s: Option<&str>) {
        let code = s.map_or(0, |s| match self.index.get(s) {
            Some(&c) => c,
            None => {
                let c = self.index.len() as u32;
                self.index.insert(s.to_owned(), c);
                c
            }
        });
        self.codes.push(code);
    }

    pub fn finish(self) -> StrVec {
        let mut table = vec![String::new(); self.index.len()];
        for (s, c) in self.index {
            table[c as usize] = s;
        }
        StrVec::new(Arc::new(table), self.codes)
    }
}

/// Row-wise equality of the resolved strings: two vectors holding the same
/// strings are equal whatever their tables look like.
impl PartialEq for StrVec {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.table, &other.table) && self.codes == other.codes {
            return true;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(rows: &[&str]) -> StrVec {
        StrVec::from_opt_strs(rows.iter().map(|s| Some(*s)))
    }

    #[test]
    fn interning_shares_entries() {
        let v = sv(&["b", "a", "b", "b"]);
        assert_eq!(v.table().as_slice(), &["b", "a"]);
        assert_eq!(v.codes(), &[0, 1, 0, 0]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec!["b", "a", "b", "b"]);
    }

    #[test]
    fn append_same_table_copies_codes_and_other_table_remaps() {
        let a = sv(&["x", "y"]);
        let mut same = a.slice(0, 1);
        same.append(&a.slice(1, 1));
        assert!(Arc::ptr_eq(same.table(), a.table()));
        assert_eq!(same, a);

        let mut merged = a.clone();
        // Duplicate and unreferenced entries in the other table.
        let other = StrVec::new(
            Arc::new(vec!["unused".into(), "y".into(), "z".into(), "z".into()]),
            vec![3, 1, 2],
        );
        merged.append(&other);
        assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            vec!["x", "y", "z", "y", "z"]
        );
        assert_eq!(merged.table().as_slice(), &["x", "y", "z"]);
    }

    #[test]
    fn append_to_empty_adopts_the_table() {
        let a = sv(&["x", "y"]);
        let mut e = StrVec::with_capacity(2);
        e.append(&a);
        assert!(Arc::ptr_eq(e.table(), a.table()));
    }

    #[test]
    fn placeholder_codes_outside_the_table_are_tolerated() {
        let all_null = StrVec::new(Arc::new(Vec::new()), vec![0, 0]);
        assert_eq!(all_null.get(1), "");
        let mut a = sv(&["x"]);
        a.append(&all_null);
        assert_eq!(a.codes(), &[0, 0, 0]);
        let valid = [false, false];
        let (dict, codes) = all_null.sorted_dictionary(Some(&valid));
        assert!(dict.is_empty());
        assert_eq!(codes, vec![0, 0]);
    }

    #[test]
    fn sorted_dictionary_ignores_the_table_shape() {
        let a = sv(&["b", "a", "b"]);
        let b = StrVec::new(
            Arc::new(vec!["zz".into(), "b".into(), "a".into(), "b".into()]),
            vec![3, 2, 1],
        );
        assert_eq!(a, b);
        assert_eq!(a.sorted_dictionary(None), b.sorted_dictionary(None));
        assert_eq!(a.sorted_dictionary(None).0, vec!["a", "b"]);
    }

    #[test]
    fn map_rows_evaluates_once_per_referenced_entry() {
        let v = sv(&["aa", "b", "aa", "aa"]);
        let mut calls = 0;
        let lens = v.map_rows(Some(&[true, true, true, false]), -1, |s| {
            calls += 1;
            s.len() as i64
        });
        assert_eq!(lens, vec![2, 1, 2, -1]);
        assert_eq!(calls, 2);
    }

    #[test]
    fn map_strs_keeps_codes() {
        let v = sv(&["a", "B", "a"]);
        let up = v.map_strs(None, |s| s.to_uppercase());
        assert_eq!(up.iter().collect::<Vec<_>>(), vec!["A", "B", "A"]);
        assert_eq!(up.codes(), v.codes());
    }

    #[test]
    fn compact_drops_unreferenced_entries() {
        let big: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let mut v = StrVec::new(Arc::new(big), vec![7, 99, 7]);
        let before = v.clone();
        v.compact(None);
        assert_eq!(v, before);
        assert_eq!(v.table().as_slice(), &["s7", "s99"]);
    }
}
