//! Query fusion (Sect. 3.4), in two steps.
//!
//! **Projection fusion** is the paper's: "We replace a group of queries of
//! the form [πP1(R), .., πPn(R)] with a single query πP(R), where R is the
//! common relation ... and P = ∪ Pi. ... it is quite common for different
//! zones of a dashboard to share the same filters but request different
//! columns." In the ASP query model, "same relation" means same source, FROM
//! subtree, normalized filter set, and grouping; the fusable difference is
//! the aggregate list ([`fuse`]).
//!
//! **Level-of-detail fusion** goes one step further for queries that also
//! differ in their *grouping*: several of them are replaced by one cover
//! query over the union of their group-by columns, from which each rolls up
//! ([`synthesize_covers`]). A cover moves more rows than its members, so it
//! is sent only when it removes a whole wave of the connection pool.
//!
//! Either way each original query is answered from the executed result by
//! the intelligent cache's post-processing (projection, roll-up).

use std::collections::HashMap;
use std::sync::Arc;
use tabviz_cache::QuerySpec;
use tabviz_tql::{write_expr, AggCall, AggFunc, TableMeta};

/// The outcome of fusing a batch.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// Queries to actually execute (one per fusion group).
    pub fused: Vec<QuerySpec>,
    /// For each input query, the index of the fused query covering it.
    pub assignment: Vec<usize>,
}

impl FusionPlan {
    /// How many queries fusion eliminated.
    pub fn saved(&self) -> usize {
        self.assignment.len() - self.fused.len()
    }
}

/// Source, relation and normalized filter set: what must coincide for two
/// queries to be answerable from one result at all.
fn relation_key(spec: &QuerySpec) -> String {
    let mut filters: Vec<String> = spec.filters.iter().map(write_expr).collect();
    filters.sort();
    filters.dedup();
    format!("{}\u{1}{}", spec.bucket_key(), filters.join("\u{2}"))
}

/// Fusion-group key: everything that must coincide for projection-list
/// fusion to be valid.
fn fusion_key(spec: &QuerySpec) -> String {
    let mut groups: Vec<&str> = spec.group_by.iter().map(String::as_str).collect();
    groups.sort_unstable();
    format!("{}\u{1}{}", relation_key(spec), groups.join("\u{2}"))
}

/// Fuse a batch of queries.
///
/// Queries with ordering or Top-N are left alone (their result shape depends
/// on the projection, so merging would change semantics); everything else
/// groups by `fusion_key` and unions aggregate lists.
pub fn fuse(specs: &[QuerySpec]) -> FusionPlan {
    let mut fused: Vec<QuerySpec> = Vec::new();
    let mut assignment = Vec::with_capacity(specs.len());
    let mut groups: HashMap<String, usize> = HashMap::new();
    for spec in specs {
        if spec.topn.is_some() || !spec.order.is_empty() {
            assignment.push(fused.len());
            fused.push(spec.clone());
            continue;
        }
        let key = fusion_key(spec);
        match groups.get(&key) {
            Some(&idx) => {
                let target = &mut fused[idx];
                for a in &spec.aggs {
                    let covered = target
                        .aggs
                        .iter()
                        .any(|t| t.func == a.func && t.arg == a.arg);
                    if !covered {
                        let mut call = a.clone();
                        // Avoid alias collisions across fused queries.
                        if target.aggs.iter().any(|t| t.alias == call.alias) {
                            call.alias = format!("{}_{}", call.alias, target.aggs.len());
                        }
                        target.aggs.push(call);
                    }
                }
                assignment.push(idx);
            }
            None => {
                groups.insert(key, fused.len());
                assignment.push(fused.len());
                fused.push(spec.clone());
            }
        }
    }
    FusionPlan { fused, assignment }
}

/// A cover may hold at most this share of its table's rows. Above it the
/// result is the detail data again rather than an aggregate of it, and the
/// transfer plus the local roll-ups cost more than the wave the cover saves.
const COVER_MAX_ROW_FRACTION: f64 = 0.25;

/// What the cover rule knows about the size of one relation: the catalog
/// metadata of the tables it reads.
#[derive(Debug, Clone)]
pub struct RelationStats {
    tables: Vec<Arc<TableMeta>>,
}

impl RelationStats {
    pub fn new(tables: Vec<Arc<TableMeta>>) -> Self {
        RelationStats { tables }
    }

    /// Rows of the largest table — the fact side of a star join, which is
    /// what bounds the number of groups.
    fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.row_count).max().unwrap_or(0)
    }

    /// Estimated rows of a grouping by `columns`: the product of their
    /// distinct counts, at most one group per row. `None` when a count is
    /// unknown.
    fn groups<'a>(&self, columns: impl Iterator<Item = &'a String>) -> Option<usize> {
        let mut product = 1usize;
        for column in columns {
            let ndv = self
                .tables
                .iter()
                .find_map(|t| t.distinct_counts.get(column))?;
            product = product.saturating_mul((*ndv).max(1));
        }
        Some(product.min(self.row_count()))
    }
}

/// One synthesized cover query and the queries it stands in for.
#[derive(Debug, Clone)]
pub struct Cover {
    pub spec: QuerySpec,
    /// Indices into the `remote` slice given to [`synthesize_covers`].
    pub members: Vec<usize>,
}

/// Queries being merged into one cover (a single query while it has one
/// member).
#[derive(Clone)]
struct CoverSet {
    /// Index of the [`relation_key`] group; only sets of one group merge.
    group: usize,
    columns: Vec<String>,
    members: Vec<usize>,
}

/// Roll-up needs every aggregate re-aggregatable (COUNTD is not: the
/// distinct sets are gone) and the result untruncated and unordered.
fn coverable(spec: &QuerySpec) -> bool {
    spec.topn.is_none()
        && spec.order.is_empty()
        && spec.aggs.iter().all(|a| a.func != AggFunc::CountD)
}

/// The cheapest admissible merge of two sets: `(a, b, estimated rows)`.
fn cheapest_merge(
    sets: &[CoverSet],
    stats: &[Option<RelationStats>],
) -> Option<(usize, usize, usize)> {
    let mut best: Option<(usize, usize, usize)> = None;
    for (a, left) in sets.iter().enumerate() {
        let Some(st) = &stats[left.group] else {
            continue;
        };
        let limit = st.row_count() as f64 * COVER_MAX_ROW_FRACTION;
        for (b, right) in sets.iter().enumerate().skip(a + 1) {
            if right.group != left.group {
                continue;
            }
            let added = right.columns.iter().filter(|c| !left.columns.contains(c));
            let Some(rows) = st.groups(left.columns.iter().chain(added)) else {
                continue;
            };
            if rows as f64 <= limit && best.is_none_or(|(_, _, r)| rows < r) {
                best = Some((a, b, rows));
            }
        }
    }
    best
}

/// The query over the union grouping from which every member rolls up:
/// the members' aggregates, AVG decomposed into the SUM and COUNT it is
/// re-derived from.
fn cover_spec(members: &[&QuerySpec], columns: Vec<String>) -> QuerySpec {
    let first = members[0];
    let mut cover = QuerySpec::new(first.source.clone(), first.relation.clone());
    cover.filters = first.filters.clone();
    cover.normalize();
    cover.group_by = columns;
    for a in members.iter().flat_map(|m| &m.aggs) {
        let parts: &[AggFunc] = match a.func {
            AggFunc::Avg => &[AggFunc::Sum, AggFunc::Count],
            ref f => std::slice::from_ref(f),
        };
        for &func in parts {
            if !cover.aggs.iter().any(|c| c.func == func && c.arg == a.arg) {
                let alias = format!("__cover_{}", cover.aggs.len());
                cover.aggs.push(AggCall::new(func, a.arg.clone(), alias));
            }
        }
    }
    debug_assert!(members.iter().all(|m| tabviz_cache::subsumes(&cover, m)));
    cover
}

/// Level-of-detail fusion: choose cover queries for the remote queries of
/// one source.
///
/// `remote` are the queries about to be sent, `slots` the source's pool
/// size. They go out in `ceil(remote / slots)` waves and the batch waits for
/// the last, so the objective is the wave count, not the query count: a
/// cover is a bigger result than either member, and removing a query that
/// would have shared a wave anyway buys nothing. The rule therefore merges
/// exactly as many pairs as it takes to drop a wave — always the pair whose
/// cover is estimated smallest, `min(Π ndv(column), rows)` from `stats` —
/// and keeps going wave by wave until a needed merge has no admissible pair
/// (different relation or filters, not `coverable`, or a cover above
/// `COVER_MAX_ROW_FRACTION` of the table). A wave that cannot be removed
/// whole is left alone.
pub fn synthesize_covers(
    remote: &[&QuerySpec],
    slots: usize,
    stats: impl Fn(&QuerySpec) -> Option<RelationStats>,
) -> Vec<Cover> {
    let slots = slots.max(1);
    if remote.len() <= slots {
        return Vec::new();
    }
    let mut groups: HashMap<String, usize> = HashMap::new();
    let mut sets: Vec<CoverSet> = Vec::new();
    for (i, spec) in remote.iter().enumerate().filter(|(_, s)| coverable(s)) {
        let next = groups.len();
        sets.push(CoverSet {
            group: *groups.entry(relation_key(spec)).or_insert(next),
            columns: spec.group_by.clone(),
            members: vec![i],
        });
    }
    // Statistics only for groups that have anything to merge.
    let mut group_stats: Vec<Option<RelationStats>> = vec![None; groups.len()];
    for (n, set) in sets.iter().enumerate() {
        let has_partner = sets[n + 1..].iter().any(|s| s.group == set.group);
        if has_partner && group_stats[set.group].is_none() {
            group_stats[set.group] = stats(remote[set.members[0]]);
        }
    }

    let mut sending = remote.len();
    while sending > slots {
        // Merges that take the last, partly filled wave away.
        let needed = sending - slots * (sending.div_ceil(slots) - 1);
        let mut trial = sets.clone();
        for _ in 0..needed {
            let Some((a, b, _)) = cheapest_merge(&trial, &group_stats) else {
                return covers_of(remote, sets);
            };
            let merged = trial.remove(b);
            for column in merged.columns {
                if !trial[a].columns.contains(&column) {
                    trial[a].columns.push(column);
                }
            }
            trial[a].members.extend(merged.members);
        }
        sets = trial;
        sending -= needed;
    }
    covers_of(remote, sets)
}

fn covers_of(remote: &[&QuerySpec], sets: Vec<CoverSet>) -> Vec<Cover> {
    sets.into_iter()
        .filter(|set| set.members.len() > 1)
        .map(|set| {
            let members: Vec<&QuerySpec> = set.members.iter().map(|&i| remote[i]).collect();
            Cover {
                spec: cover_spec(&members, set.columns),
                members: set.members,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_cache::subsumes;
    use tabviz_tql::expr::{bin, col, lit, BinOp};
    use tabviz_tql::{AggCall, AggFunc, LogicalPlan, SortKey};

    fn base() -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
    }

    #[test]
    fn same_relation_different_measures_fuse() {
        let q1 = base().agg(AggCall::new(AggFunc::Count, None, "n"));
        let q2 = base().agg(AggCall::new(AggFunc::Avg, Some(col("delay")), "avg"));
        let q3 = base().agg(AggCall::new(AggFunc::Count, None, "n2"));
        let plan = fuse(&[q1.clone(), q2.clone(), q3.clone()]);
        assert_eq!(plan.fused.len(), 1);
        assert_eq!(plan.saved(), 2);
        assert_eq!(plan.assignment, vec![0, 0, 0]);
        // Union of distinct (func, arg) pairs: COUNT(*) and AVG(delay).
        assert_eq!(plan.fused[0].aggs.len(), 2);
        // The fused query must subsume each original.
        for q in [&q1, &q2] {
            assert!(subsumes(&plan.fused[0], q), "fused must cover {q:?}");
        }
    }

    #[test]
    fn different_filters_do_not_fuse() {
        let q1 = base().agg(AggCall::new(AggFunc::Count, None, "n"));
        let q2 = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(10i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let plan = fuse(&[q1, q2]);
        assert_eq!(plan.fused.len(), 2);
        assert_eq!(plan.saved(), 0);
    }

    #[test]
    fn different_grouping_does_not_fuse() {
        let q1 = base().agg(AggCall::new(AggFunc::Count, None, "n"));
        let q2 = base()
            .group("origin")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        assert_eq!(fuse(&[q1, q2]).fused.len(), 2);
    }

    #[test]
    fn filter_order_is_irrelevant() {
        let a = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .filter(bin(BinOp::Lt, col("dist"), lit(100i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let b = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Lt, col("dist"), lit(100i64)))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "s"));
        assert_eq!(fuse(&[a, b]).fused.len(), 1);
    }

    #[test]
    fn topn_queries_never_fuse() {
        let q1 = base()
            .agg(AggCall::new(AggFunc::Count, None, "n"))
            .order_by(vec![SortKey::desc("n")])
            .top(5);
        let q2 = base().agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "s"));
        let plan = fuse(&[q1, q2]);
        assert_eq!(plan.fused.len(), 2);
    }

    #[test]
    fn alias_collisions_resolved() {
        let q1 = base().agg(AggCall::new(AggFunc::Count, None, "x"));
        let q2 = base().agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "x"));
        let plan = fuse(&[q1, q2]);
        assert_eq!(plan.fused.len(), 1);
        let aliases: Vec<&str> = plan.fused[0]
            .aggs
            .iter()
            .map(|a| a.alias.as_str())
            .collect();
        assert_eq!(aliases.len(), 2);
        assert_ne!(aliases[0], aliases[1]);
    }

    // ------------------------------------------ level-of-detail fusion --

    /// Row and distinct counts of the 5 000-row FAA `flights` table.
    fn flights_stats() -> RelationStats {
        use tabviz_common::{DataType, Field, Schema};
        let columns = [
            ("carrier", 12),
            ("origin_state", 22),
            ("dest_state", 22),
            ("dest", 30),
            ("weekday", 7),
            ("dep_hour", 11),
        ];
        let fields = columns
            .iter()
            .map(|(name, _)| Field::new(*name, DataType::Str))
            .collect();
        let mut meta = TableMeta::new(Arc::new(Schema::new(fields).unwrap()), 5_000);
        meta.distinct_counts = columns
            .iter()
            .map(|&(name, ndv)| (name.to_string(), ndv))
            .collect();
        RelationStats::new(vec![Arc::new(meta)])
    }

    fn zone(group: &str) -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group(group)
            .agg(AggCall::new(AggFunc::Count, None, "flights"))
            .agg(AggCall::new(
                AggFunc::Avg,
                Some(col("arr_delay")),
                "avg_delay",
            ))
    }

    /// The six remote nodes of a cold Fig. 1 load.
    fn fig1_remote() -> Vec<QuerySpec> {
        vec![
            zone("carrier"),
            zone("origin_state"),
            zone("dest_state"),
            zone("dest"),
            QuerySpec::new("faa", LogicalPlan::scan("flights"))
                .group("weekday")
                .agg(AggCall::new(AggFunc::Count, None, "flights"))
                .agg(AggCall::new(AggFunc::CountD, Some(col("date")), "days")),
            zone("dep_hour"),
        ]
    }

    fn covers(remote: &[QuerySpec], slots: usize) -> Vec<Cover> {
        let refs: Vec<&QuerySpec> = remote.iter().collect();
        synthesize_covers(&refs, slots, |_| Some(flights_stats()))
    }

    /// Queries sent once the covers replace their members.
    fn sent(remote: &[QuerySpec], slots: usize) -> usize {
        let covers = covers(remote, slots);
        remote.len() - covers.iter().map(|c| c.members.len()).sum::<usize>() + covers.len()
    }

    #[test]
    fn fig1_is_one_wave_at_pool_4_and_untouched_at_pool_8() {
        let remote = fig1_remote();
        assert_eq!(sent(&remote, 4), 4);
        assert_eq!(sent(&remote, 8), 6);
        assert_eq!(sent(&remote, 6), 6, "six queries fit six connections");
    }

    #[test]
    fn a_cover_rolls_up_to_every_member() {
        let remote = fig1_remote();
        let covers = covers(&remote, 4);
        assert_eq!(covers.len(), 2);
        for cover in &covers {
            assert_eq!(cover.members.len(), 2);
            assert_eq!(cover.spec.group_by.len(), 2);
            // COUNT(*), and AVG as the SUM and COUNT it is re-derived from.
            let funcs: Vec<AggFunc> = cover.spec.aggs.iter().map(|a| a.func).collect();
            assert_eq!(funcs, [AggFunc::Count, AggFunc::Sum, AggFunc::Count]);
            for &m in &cover.members {
                assert!(subsumes(&cover.spec, &remote[m]), "{:?}", remote[m]);
            }
        }
        // Smallest estimated cover first: carrier x dep_hour = 132 rows.
        assert_eq!(covers[0].spec.group_by, ["carrier", "dep_hour"]);
    }

    #[test]
    fn no_cover_unless_a_whole_wave_goes() {
        // Two waves at pool 4 need two merges; with one mergeable pair the
        // second wave stays, so the pair is left alone too.
        let mut remote = fig1_remote();
        for spec in &mut remote[2..] {
            spec.aggs
                .push(AggCall::new(AggFunc::CountD, Some(col("date")), "days"));
        }
        assert!(covers(&remote, 4).is_empty());
        // The same pair is worth merging when it does empty a wave.
        assert_eq!(sent(&remote, 5), 5);
    }

    #[test]
    fn only_rollable_queries_with_equal_filters_become_members() {
        let filtered = zone("dest").filter(bin(BinOp::Gt, col("delay"), lit(0i64)));
        let remote = vec![
            zone("carrier"),
            zone("origin_state"),
            fig1_remote().remove(4), // COUNTD
            zone("dest_state")
                .order_by(vec![SortKey::desc("flights")])
                .top(5),
            zone("dep_hour").order_by(vec![SortKey::asc("dep_hour")]),
            filtered,
        ];
        // One connection: every merge removes a wave, so everything that can
        // merge does.
        let covers = covers(&remote, 1);
        assert_eq!(covers.len(), 1);
        assert_eq!(covers[0].members, [0, 1]);
    }

    #[test]
    fn a_cover_that_is_no_longer_an_aggregate_is_refused() {
        // carrier x origin_state x dest_state = 5 808 groups, capped at the
        // table's 5 000 rows: that is the table, not an aggregate of it.
        let remote = vec![zone("carrier"), zone("origin_state"), zone("dest_state")];
        let covers = covers(&remote, 1);
        assert_eq!(covers.len(), 1);
        assert_eq!(covers[0].spec.group_by, ["carrier", "origin_state"]);
        // Fig. 1 at pool 2 stops at two pair covers for the same reason.
        assert_eq!(sent(&fig1_remote(), 2), 4);
    }

    #[test]
    fn unknown_statistics_mean_no_cover() {
        let remote = fig1_remote();
        let refs: Vec<&QuerySpec> = remote.iter().collect();
        assert!(synthesize_covers(&refs, 4, |_| None).is_empty());
    }
}
