//! Packed composite keys for the keyed operators (hash agg, hash join).
//!
//! The row-at-a-time path keys its hash tables on `Vec<Value>` — one heap
//! allocation plus an enum-dispatched `Hash` per row. This module replaces
//! that on the hot path with a fixed-width `KeyBuf`: each key column packs
//! into one `u64` word per row, encoded column-at-a-time into a row-major
//! arena, with hashes folded in the same batched passes. Equality is plain
//! word-slice comparison, so the table maps `hash -> candidate ids` and
//! disambiguates collisions against the arena.
//!
//! Per-column word encoding (the column's `DataType` is fixed per operator,
//! so no cross-type tag is needed inside a word):
//! * `Bool`  — `0`/`1`;
//! * `Int`   — the `i64` bits (NOT the f64 bits `Value::hash` uses: byte
//!   equality must not merge `2^53` and `2^53 + 1`);
//! * `Real`  — `f64::to_bits` (total_cmp semantics: `-0.0 != 0.0`, NaN
//!   payloads distinct — exactly how `Value::eq` groups);
//! * `Date`  — the `i32` sign-extended;
//! * `Str`   — collation-normalized, then the small-string fast path packs
//!   up to 7 bytes inline (`1<<63 | len<<56 | bytes`), longer strings take
//!   a dict code from the operator-local interner (top bit clear, so the
//!   two sub-encodings can never collide). String vectors arrive
//!   dictionary-coded, so this translation runs once per referenced table
//!   entry ([`TableWords`]) and each row is `word_of_entry[code]`.
//!
//! One extra word per key carries the per-column null bitmap, so NULL group
//! keys form groups (SQL GROUP BY) while join encoders mark NULL keys
//! unmatchable (SQL equi-join) via the `ok` flags instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};
use tabviz_common::hash::mix64;
use tabviz_common::{Collation, ColumnVec, DataType, Values};
use tabviz_obs::Counter;

/// Packed keys cover at most this many key columns; wider composites fall
/// back to the `Value`-row path (`kernel_fallback_wide_key`).
pub(crate) const MAX_KEY_COLS: usize = 8;

/// Why a keyed operator could not take the packed-key fast path, or `None`
/// when it can. Decided once per operator from its key schema.
pub(crate) fn fallback_reason(n_key_cols: usize, kernels_enabled: bool) -> Option<&'static str> {
    if !kernels_enabled {
        Some(tabviz_obs::reason::KERNEL_FALLBACK_DISABLED)
    } else if n_key_cols > MAX_KEY_COLS {
        Some(tabviz_obs::reason::KERNEL_FALLBACK_WIDE_KEY)
    } else {
        None
    }
}

/// Process-wide kernel-selection counters (same pattern as the scan's
/// pruning counters): how many keyed operators took each path.
pub(crate) struct KernelMetrics {
    pub fastpath: Counter,
    pub fallback: Counter,
}

pub(crate) fn kernel_metrics() -> &'static KernelMetrics {
    static METRICS: OnceLock<KernelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = tabviz_obs::global();
        KernelMetrics {
            fastpath: reg.counter("tv_tde_kernel_fastpath_total"),
            fallback: reg.counter("tv_tde_kernel_fallback_total"),
        }
    })
}

/// Record one operator's kernel choice: bump the counter and attribute the
/// decision into the flight recorder (label = operator stage, reason =
/// `kernel_fastpath` / `kernel_fallback_*`).
pub(crate) fn report_kernel_choice(op_stage: &'static str, fallback: Option<&'static str>) {
    let m = kernel_metrics();
    let reason = match fallback {
        None => {
            m.fastpath.inc();
            tabviz_obs::reason::KERNEL_FASTPATH
        }
        Some(why) => {
            m.fallback.inc();
            why
        }
    };
    tabviz_obs::event_with(
        tabviz_obs::stage::KERNEL_SELECT,
        Some(op_stage),
        None,
        Some(reason),
    );
}

/// Identity hasher for already-mixed `u64` keys: the packed-key hashes are
/// `mix64` outputs, so re-hashing through SipHash would only burn cycles.
#[derive(Default)]
pub(crate) struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are expected; fold defensively if anything else
        // ever lands here.
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

pub(crate) type PreHashedMap<V> = HashMap<u64, V, BuildHasherDefault<PreHashed>>;

const STR_INLINE: u64 = 1 << 63;
const HASH_SEED: u64 = 0x7462_7669_7a6b_6579; // "tabvizkey"

/// Fixed per-operator key layout: column types/collations plus the word
/// stride (one word per column + the trailing null-bitmap word).
#[derive(Debug, Clone)]
pub(crate) struct KeyLayout {
    pub dtypes: Vec<DataType>,
    pub collations: Vec<Collation>,
    pub stride: usize,
}

impl KeyLayout {
    pub fn new(dtypes: Vec<DataType>, collations: Vec<Collation>) -> Self {
        debug_assert_eq!(dtypes.len(), collations.len());
        debug_assert!(dtypes.len() <= MAX_KEY_COLS);
        let stride = dtypes.len() + 1;
        KeyLayout {
            dtypes,
            collations,
            stride,
        }
    }
}

/// One chunk's keys, encoded: row-major words (`len * stride`), the folded
/// per-row hashes, and per-row matchability (`ok[i] == false` means the key
/// can never equal any other key — NULL under join semantics, or a string
/// absent from a frozen interner).
pub(crate) struct EncodedKeys {
    pub words: Vec<u64>,
    pub hashes: Vec<u64>,
    pub ok: Vec<bool>,
}

impl EncodedKeys {
    pub fn row(&self, i: usize, stride: usize) -> &[u64] {
        &self.words[i * stride..(i + 1) * stride]
    }
}

/// How the string interner behaves during encoding.
pub(crate) enum InternMode<'a> {
    /// Assign fresh codes to unseen long strings (build side / aggregation).
    Grow(&'a mut HashMap<String, u32>),
    /// Read-only: an unseen long string marks the row unmatchable (probe
    /// side — a code absent from the build interner cannot match any build
    /// row).
    Frozen(&'a HashMap<String, u32>),
}

/// Normalize a string under `collation` without allocating when it is
/// already in normal form (Binary, or CI with no uppercase ASCII).
fn normalized(s: &str, collation: Collation) -> std::borrow::Cow<'_, str> {
    match collation {
        Collation::Binary => std::borrow::Cow::Borrowed(s),
        Collation::CaseInsensitive => {
            if s.bytes().any(|b| b.is_ascii_uppercase()) {
                std::borrow::Cow::Owned(s.to_ascii_lowercase())
            } else {
                std::borrow::Cow::Borrowed(s)
            }
        }
    }
}

fn inline_str_word(s: &str) -> Option<u64> {
    let bytes = s.as_bytes();
    if bytes.len() > 7 {
        return None;
    }
    let mut w = STR_INLINE | ((bytes.len() as u64) << 56);
    for (i, &b) in bytes.iter().enumerate() {
        w |= u64::from(b) << (8 * i);
    }
    Some(w)
}

fn str_word(s: &str, collation: Collation, mode: &mut InternMode<'_>) -> Option<u64> {
    let norm = normalized(s, collation);
    if let Some(w) = inline_str_word(&norm) {
        return Some(w);
    }
    match mode {
        InternMode::Grow(map) => {
            let next = map.len() as u32;
            Some(u64::from(*map.entry(norm.into_owned()).or_insert(next)))
        }
        InternMode::Frozen(map) => map.get(norm.as_ref()).map(|&c| u64::from(c)),
    }
}

/// One key column's memo of string-table entry → key word, owned by the
/// operator so it survives from chunk to chunk: the chunks of one scan share
/// the stored column's dictionary (`Arc::ptr_eq`), so an entry is normalized,
/// packed or interned at most once per operator however many rows hold it.
/// A chunk over a different table restarts the memo.
#[derive(Default)]
pub(crate) struct TableWords {
    table: Option<Arc<Vec<String>>>,
    words: Vec<u64>,
    /// Entries translated so far (distinct referenced entries, not rows).
    pub translated: u64,
}

/// Memo slot not filled yet. Neither sentinel is a valid word: inline words
/// carry a length below 8 in bits 56..63, interned codes fit 32 bits.
const WORD_UNSET: u64 = u64::MAX;
/// Memo slot of a string absent from a frozen interner.
const WORD_UNMATCHABLE: u64 = u64::MAX - 1;

impl TableWords {
    pub fn for_columns(n: usize) -> Vec<TableWords> {
        (0..n).map(|_| TableWords::default()).collect()
    }

    fn bind(&mut self, table: &Arc<Vec<String>>) {
        if !self.table.as_ref().is_some_and(|t| Arc::ptr_eq(t, table)) {
            self.words.clear();
            self.words.resize(table.len(), WORD_UNSET);
            self.table = Some(Arc::clone(table));
        }
    }
}

/// Encode one chunk's key columns into packed words, column-at-a-time,
/// folding per-row hashes in the same passes. `memos` holds one
/// [`TableWords`] per key column.
///
/// `nulls_group`: `true` gives GROUP BY semantics (a NULL key cell sets its
/// null-bitmap bit and still forms a valid key); `false` gives equi-join
/// semantics (any NULL key cell marks the row unmatchable).
pub(crate) fn encode_keys(
    layout: &KeyLayout,
    cols: &[&ColumnVec],
    len: usize,
    nulls_group: bool,
    mut mode: InternMode<'_>,
    memos: &mut [TableWords],
) -> EncodedKeys {
    let stride = layout.stride;
    let n_cols = cols.len();
    debug_assert_eq!(n_cols, layout.dtypes.len());
    let mut words = vec![0u64; len * stride];
    let mut hashes = vec![HASH_SEED; len];
    let mut ok = vec![true; len];

    for (ci, col) in cols.iter().enumerate() {
        let valid = col.nulls.valid_bits();
        // Column-at-a-time: one pass writes this column's word for every
        // row and folds it into the row hash.
        macro_rules! encode_pass {
            ($get_word:expr) => {
                for i in 0..len {
                    let w: u64 = if valid.is_none_or(|b| b[i]) {
                        match $get_word(i) {
                            Some(w) => w,
                            None => {
                                ok[i] = false;
                                0
                            }
                        }
                    } else if nulls_group {
                        words[i * stride + n_cols] |= 1 << ci;
                        0
                    } else {
                        ok[i] = false;
                        0
                    };
                    words[i * stride + ci] = w;
                    hashes[i] = mix64(hashes[i] ^ w);
                }
            };
        }
        match &col.values {
            Values::Bool(v) => encode_pass!(|i: usize| Some(u64::from(v[i]))),
            Values::Int(v) => encode_pass!(|i: usize| Some(v[i] as u64)),
            Values::Real(v) => encode_pass!(|i: usize| Some(v[i].to_bits())),
            Values::Date(v) => encode_pass!(|i: usize| Some(i64::from(v[i]) as u64)),
            Values::Str(v) => {
                let collation = layout.collations[ci];
                let memo = &mut memos[ci];
                memo.bind(v.table());
                let (table, codes) = (v.table(), v.codes());
                encode_pass!(|i: usize| {
                    let c = codes[i] as usize;
                    if memo.words[c] == WORD_UNSET {
                        memo.words[c] =
                            str_word(&table[c], collation, &mut mode).unwrap_or(WORD_UNMATCHABLE);
                        memo.translated += 1;
                    }
                    Some(memo.words[c]).filter(|&w| w != WORD_UNMATCHABLE)
                });
            }
        }
    }

    // Fold the null-bitmap word so NULL-in-different-columns keys hash
    // apart.
    for i in 0..len {
        hashes[i] = mix64(hashes[i] ^ words[i * stride + n_cols]);
    }

    EncodedKeys { words, hashes, ok }
}

/// Grouping table over packed keys: dense group ids in first-seen order,
/// group-key words parked in an arena, `hash -> candidate group ids` map.
pub(crate) struct GroupTable {
    pub layout: KeyLayout,
    interner: HashMap<String, u32>,
    memos: Vec<TableWords>,
    arena: Vec<u64>,
    map: PreHashedMap<Vec<u32>>,
    n_groups: u32,
}

impl GroupTable {
    pub fn new(layout: KeyLayout) -> Self {
        GroupTable {
            memos: TableWords::for_columns(layout.dtypes.len()),
            layout,
            interner: HashMap::new(),
            arena: Vec::new(),
            map: PreHashedMap::default(),
            n_groups: 0,
        }
    }

    pub fn n_groups(&self) -> usize {
        self.n_groups as usize
    }

    /// Encode one chunk's key columns (all rows, column-at-a-time).
    pub fn encode(&mut self, cols: &[&ColumnVec], len: usize) -> EncodedKeys {
        encode_keys(
            &self.layout,
            cols,
            len,
            true,
            InternMode::Grow(&mut self.interner),
            &mut self.memos,
        )
    }

    /// String-table entries translated into key words so far, over all key
    /// columns.
    #[cfg(test)]
    pub fn translations(&self) -> u64 {
        self.memos.iter().map(|m| m.translated).sum()
    }

    /// Map `row` to its dense group id, inserting a new group when the key
    /// is unseen. Returns `(group_id, newly_inserted)`.
    pub fn lookup_or_insert(&mut self, keys: &EncodedKeys, row: usize) -> (u32, bool) {
        let stride = self.layout.stride;
        let row_words = keys.row(row, stride);
        let hash = keys.hashes[row];
        let bucket = self.map.entry(hash).or_default();
        for &gid in bucket.iter() {
            let start = gid as usize * stride;
            if &self.arena[start..start + stride] == row_words {
                return (gid, false);
            }
        }
        let gid = self.n_groups;
        self.n_groups += 1;
        bucket.push(gid);
        self.arena.extend_from_slice(row_words);
        (gid, true)
    }
}

/// Packed-key join index over the build chunk: `hash -> build row ids`,
/// with the build keys parked row-major for collision disambiguation. The
/// interner is frozen after `build`, so concurrent probe branches share it
/// read-only behind the `Arc<JoinBuild>`.
pub(crate) struct PackedJoinIndex {
    layout: KeyLayout,
    interner: HashMap<String, u32>,
    words: Vec<u64>,
    map: PreHashedMap<Vec<u32>>,
}

impl PackedJoinIndex {
    /// Index every matchable build row (NULL keys never match).
    pub fn build(layout: KeyLayout, cols: &[&ColumnVec], len: usize) -> Self {
        let mut interner = HashMap::new();
        let mut memos = TableWords::for_columns(cols.len());
        let grow = InternMode::Grow(&mut interner);
        let keys = encode_keys(&layout, cols, len, false, grow, &mut memos);
        let mut map: PreHashedMap<Vec<u32>> = PreHashedMap::default();
        for i in 0..len {
            if keys.ok[i] {
                map.entry(keys.hashes[i]).or_default().push(i as u32);
            }
        }
        PackedJoinIndex {
            layout,
            interner,
            words: keys.words,
            map,
        }
    }

    /// Encode a probe chunk against the frozen interner. `memos` belong to
    /// the probing operator (the index is shared between probe branches).
    pub fn encode_probe(
        &self,
        cols: &[&ColumnVec],
        len: usize,
        memos: &mut [TableWords],
    ) -> EncodedKeys {
        let frozen = InternMode::Frozen(&self.interner);
        encode_keys(&self.layout, cols, len, false, frozen, memos)
    }

    /// Build rows whose key equals probe `row` (empty when unmatchable).
    pub fn matches<'a>(
        &'a self,
        probe: &'a EncodedKeys,
        row: usize,
    ) -> impl Iterator<Item = u32> + 'a {
        let stride = self.layout.stride;
        let candidates = if probe.ok[row] {
            self.map
                .get(&probe.hashes[row])
                .map(Vec::as_slice)
                .unwrap_or(&[])
        } else {
            &[]
        };
        let row_words = probe.row(row, stride);
        candidates.iter().copied().filter(move |&b| {
            let start = b as usize * stride;
            &self.words[start..start + stride] == row_words
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::{NullMask, StrVec};

    fn str_col(vals: &[&str]) -> ColumnVec {
        ColumnVec::from_values(Values::Str(StrVec::from_opt_strs(
            vals.iter().map(|s| Some(*s)),
        )))
    }

    #[test]
    fn inline_and_interned_strings_are_disjoint() {
        let w = inline_str_word("abc").unwrap();
        assert!(w & STR_INLINE != 0);
        assert!(inline_str_word("12345678").is_none());
        // Interned codes have the top bit clear.
        let mut map = HashMap::new();
        let code = str_word(
            "a very long string",
            Collation::Binary,
            &mut InternMode::Grow(&mut map),
        )
        .unwrap();
        assert_eq!(code & STR_INLINE, 0);
    }

    #[test]
    fn int_keys_do_not_collapse_beyond_f64_precision() {
        let a = (1i64 << 53) as u64;
        let b = ((1i64 << 53) + 1) as u64;
        assert_ne!(a, b, "packed Int words must stay exact");
    }

    #[test]
    fn group_table_assigns_first_seen_dense_ids() {
        let layout = KeyLayout::new(vec![DataType::Str], vec![Collation::CaseInsensitive]);
        let mut t = GroupTable::new(layout);
        let col = str_col(&["b", "A", "a", "b", "a longer string than seven", "A"]);
        let keys = t.encode(&[&col], 6);
        let ids: Vec<(u32, bool)> = (0..6).map(|i| t.lookup_or_insert(&keys, i)).collect();
        // CI collation merges "A" and "a"; first-seen order b=0, a=1, long=2.
        assert_eq!(
            ids,
            vec![
                (0, true),
                (1, true),
                (1, false),
                (0, false),
                (2, true),
                (1, false)
            ]
        );
        assert_eq!(t.n_groups(), 3);
    }

    #[test]
    fn null_keys_group_but_never_join() {
        let layout = KeyLayout::new(vec![DataType::Int], vec![Collation::Binary]);
        let col = ColumnVec::new(
            Values::Int(vec![7, 0, 7]),
            NullMask::from_valid_bits(vec![true, false, true]),
        );
        // GROUP BY: the NULL row forms its own group.
        let mut t = GroupTable::new(layout.clone());
        let keys = t.encode(&[&col], 3);
        assert!(keys.ok.iter().all(|&o| o));
        let g0 = t.lookup_or_insert(&keys, 0).0;
        let g1 = t.lookup_or_insert(&keys, 1).0;
        let g2 = t.lookup_or_insert(&keys, 2).0;
        assert_eq!(g0, g2);
        assert_ne!(g0, g1);
        // Join: the NULL row is unmatchable on both sides.
        let idx = PackedJoinIndex::build(layout, &[&col], 3);
        let probe = idx.encode_probe(&[&col], 3, &mut TableWords::for_columns(1));
        assert!(!probe.ok[1]);
        assert_eq!(idx.matches(&probe, 0).count(), 2); // rows 0 and 2
        assert_eq!(idx.matches(&probe, 1).count(), 0);
    }

    #[test]
    fn probe_string_missing_from_build_interner_is_unmatchable() {
        let layout = KeyLayout::new(vec![DataType::Str], vec![Collation::Binary]);
        let build = str_col(&["a long build-side string"]);
        let idx = PackedJoinIndex::build(layout, &[&build], 1);
        let probe_col = str_col(&["a long probe-only string", "a long build-side string"]);
        let probe = idx.encode_probe(&[&probe_col], 2, &mut TableWords::for_columns(1));
        assert!(!probe.ok[0]);
        assert!(probe.ok[1]);
        assert_eq!(idx.matches(&probe, 1).count(), 1);
    }

    #[test]
    fn fallback_reasons() {
        assert_eq!(fallback_reason(2, true), None);
        assert_eq!(
            fallback_reason(2, false),
            Some(tabviz_obs::reason::KERNEL_FALLBACK_DISABLED)
        );
        assert_eq!(
            fallback_reason(MAX_KEY_COLS + 1, true),
            Some(tabviz_obs::reason::KERNEL_FALLBACK_WIDE_KEY)
        );
    }
}
