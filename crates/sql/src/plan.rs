//! Binder and planner: resolve a parsed [`Query`] against a [`Catalog`]
//! and lower it onto the existing operators.
//!
//! Binding rules (see DESIGN.md §11):
//! * `FROM`/`JOIN` tables must be registered; columns resolve
//!   case-insensitively, qualified (`t.c`) or unqualified when unique.
//! * `JOIN … ON` takes equalities only, each with exactly one side per
//!   table and pairwise equal key types; it lowers to
//!   [`HashJoinPlan`] with the left (`FROM`) table as the probe side, so
//!   the combined schema is left columns followed by right columns.
//! * With `GROUP BY` (or any aggregate call), every plain column in the
//!   select list must be a grouping column; aggregate calls lower to
//!   [`AggregateSpec`]s validated by the operator's own binder
//!   ([`bind_aggregate`]), deduplicated across SELECT and HAVING.
//! * `WHERE` binds over the (joined) input schema and must be
//!   aggregate-free; `HAVING` binds over group keys and aggregates.
//! * Literals coerce to the compared column's type at bind time —
//!   including `'YYYY-MM-DD'` strings against `DATE` columns — or fail
//!   with a bind error at the literal's span.
//! * `ORDER BY` keys must appear in the select list (by name, alias, or
//!   1-based position); `LIMIT` takes a non-negative integer.

use crate::ast::{AggCall, ColumnRef, Expr, Literal, Query};
use crate::catalog::{Catalog, CatalogTable};
use crate::error::{Span, SqlError};
use rexa_core::function::bind_aggregate;
use rexa_core::{AggregateSpec, HashAggregatePlan, HashJoinPlan};
use rexa_exec::vector::VectorData;
use rexa_exec::{DataChunk, LogicalType, Validity, Value, Vector};
use std::cmp::Ordering;
use std::sync::Arc;

pub use crate::ast::CmpOp;

/// A bound filter predicate, evaluated a chunk at a time into a selection
/// vector ([`Predicate::select`]). SQL three-valued logic collapses at the
/// filter: a comparison involving NULL is not satisfied.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// `column <op> literal` (literal already coerced to the column type).
    CmpLit {
        col: usize,
        op: CmpOp,
        lit: Value,
    },
    /// `column <op> column` (same logical type on both sides).
    CmpCols {
        left: usize,
        op: CmpOp,
        right: usize,
    },
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Narrow `sel` — ascending row indices of `chunk` — in place to the
    /// rows that satisfy the predicate. The survivors stay ascending, so a
    /// filter built on this preserves row order.
    pub fn select(&self, chunk: &DataChunk, sel: &mut Vec<u32>) {
        match self {
            Predicate::CmpLit { col, op, lit } => select_lit(chunk.column(*col), *op, lit, sel),
            Predicate::CmpCols { left, op, right } => {
                select_cols(chunk.column(*left), chunk.column(*right), *op, sel)
            }
            Predicate::And(l, r) => {
                l.select(chunk, sel);
                if !sel.is_empty() {
                    r.select(chunk, sel);
                }
            }
            Predicate::Or(l, r) => {
                // The right side sees only the candidates the left side
                // rejected; the two disjoint survivor lists merge back into
                // one ascending list.
                let mut rejected = sel.clone();
                l.select(chunk, sel);
                let mut passed = sel.iter().peekable();
                rejected.retain(|row| {
                    while passed.next_if(|&p| p < row).is_some() {}
                    passed.peek() != Some(&row)
                });
                r.select(chunk, &mut rejected);
                if !rejected.is_empty() {
                    let left = std::mem::take(sel);
                    *sel = merge_ascending(&left, &rejected);
                }
            }
        }
    }
}

/// The ascending union of two disjoint ascending lists.
fn merge_ascending(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Keep the candidates in `sel` for which `pass(row)` holds, in place and
/// in order. The store is unconditional and only the write cursor depends
/// on the outcome, so the loop does not branch on the data.
#[inline(always)]
fn compact(sel: &mut Vec<u32>, pass: impl Fn(usize) -> bool) {
    let mut n = 0;
    for i in 0..sel.len() {
        let r = sel[i];
        sel[n] = r;
        n += usize::from(pass(r as usize));
    }
    sel.truncate(n);
}

/// [`compact`] on `ord(row)` satisfying `op`, with `op` dispatched once per
/// call rather than per row, and rows NULL in any of `validity` dropped —
/// checked only when some mask has NULLs.
#[inline(always)]
fn narrow(op: CmpOp, validity: &[&Validity], sel: &mut Vec<u32>, ord: impl Fn(usize) -> Ordering) {
    #[inline(always)]
    fn by(validity: &[&Validity], sel: &mut Vec<u32>, pass: impl Fn(usize) -> bool) {
        if validity.iter().all(|v| v.no_nulls()) {
            compact(sel, pass);
        } else {
            compact(sel, |r| validity.iter().all(|v| v.is_valid(r)) && pass(r));
        }
    }
    match op {
        CmpOp::Eq => by(validity, sel, |r| ord(r).is_eq()),
        CmpOp::Ne => by(validity, sel, |r| ord(r).is_ne()),
        CmpOp::Lt => by(validity, sel, |r| ord(r).is_lt()),
        CmpOp::Le => by(validity, sel, |r| ord(r).is_le()),
        CmpOp::Gt => by(validity, sel, |r| ord(r).is_gt()),
        CmpOp::Ge => by(validity, sel, |r| ord(r).is_ge()),
    }
}

/// `column <op> literal` over the candidates: one loop per physical type.
fn select_lit(vec: &Vector, op: CmpOp, lit: &Value, sel: &mut Vec<u32>) {
    let valid = &[vec.validity()];
    match (vec.data(), lit) {
        (VectorData::I32(v), Value::Int32(x) | Value::Date(x)) => {
            narrow(op, valid, sel, |r| v[r].cmp(x))
        }
        (VectorData::I64(v), Value::Int64(x)) => narrow(op, valid, sel, |r| v[r].cmp(x)),
        (VectorData::F64(v), Value::Float64(x)) => narrow(op, valid, sel, |r| v[r].total_cmp(x)),
        (VectorData::Str(v), Value::Varchar(x)) => {
            narrow(op, valid, sel, |r| v.get(r).cmp(x.as_str()))
        }
        // The binder coerces literals to the column type, so this arm is
        // unreachable for bound plans; treat as not-satisfied, never panic.
        _ => sel.clear(),
    }
}

/// `column <op> column` over the candidates (the binder guarantees equal
/// types): one loop per physical type.
fn select_cols(a: &Vector, b: &Vector, op: CmpOp, sel: &mut Vec<u32>) {
    let valid = &[a.validity(), b.validity()];
    match (a.data(), b.data()) {
        (VectorData::I32(x), VectorData::I32(y)) => narrow(op, valid, sel, |r| x[r].cmp(&y[r])),
        (VectorData::I64(x), VectorData::I64(y)) => narrow(op, valid, sel, |r| x[r].cmp(&y[r])),
        (VectorData::F64(x), VectorData::F64(y)) => {
            narrow(op, valid, sel, |r| x[r].total_cmp(&y[r]))
        }
        (VectorData::Str(x), VectorData::Str(y)) => {
            narrow(op, valid, sel, |r| x.get(r).cmp(y.get(r)))
        }
        _ => sel.clear(),
    }
}

/// `WHERE`: the predicate and the columns the filter passes up.
#[derive(Clone, Debug)]
pub struct FilterNode {
    /// The predicate, bound over [`PhysicalPlan::input_schema`].
    pub predicate: Predicate,
    /// The `input_schema` columns the operators above the filter read,
    /// ascending: the grouping columns and aggregate arguments, or the
    /// projection when there is no aggregation. The filter gathers only
    /// these; `COUNT(*)` alone keeps none.
    pub keep: Vec<usize>,
}

/// One `ORDER BY` key over the projected output.
#[derive(Clone, Copy, Debug)]
pub struct SortKey {
    /// Output column index.
    pub col: usize,
    pub desc: bool,
}

/// The join step: build side and lowered plan.
#[derive(Clone)]
pub struct JoinNode {
    /// The build-side (right, `JOIN`ed) table.
    pub right: Arc<CatalogTable>,
    /// Lowered join plan: probe keys index the left table's schema, build
    /// keys the right table's.
    pub plan: HashJoinPlan,
}

/// A fully bound, executable query plan:
/// scan → \[join\] → \[filter\] → \[aggregate\] → \[having\] → project →
/// \[sort/limit\].
#[derive(Clone)]
pub struct PhysicalPlan {
    /// The probe-side (`FROM`) table.
    pub left: Arc<CatalogTable>,
    /// Optional hash join against a second table.
    pub join: Option<JoinNode>,
    /// Schema of the scan: left columns, then (joined) right columns.
    /// `filter` and `aggregate` index it.
    pub input_schema: Vec<LogicalType>,
    /// `WHERE`, bound over `input_schema`, and the columns it passes up.
    pub filter: Option<FilterNode>,
    /// The aggregation over `input_schema`, when the query groups or
    /// aggregates. Empty `group_cols` selects the ungrouped (single-row)
    /// path. Footprint estimates read this; execution runs
    /// `agg_input_plan`.
    pub aggregate: Option<HashAggregatePlan>,
    /// Schema of the chunks the aggregation — or, without one, the
    /// projection — reads: `input_schema` narrowed to the filter's kept
    /// columns, or `input_schema` itself when there is no filter.
    pub agg_input_schema: Vec<LogicalType>,
    /// `aggregate` with its columns remapped onto `agg_input_schema`.
    pub agg_input_plan: Option<HashAggregatePlan>,
    /// Schema of the aggregate's output (group keys then aggregates), or
    /// `agg_input_schema` when there is no aggregation.
    pub agg_output_schema: Vec<LogicalType>,
    /// `HAVING`, bound over `agg_output_schema`.
    pub having: Option<Predicate>,
    /// Select-list projection over `agg_output_schema`.
    pub projection: Vec<usize>,
    /// Output column names, parallel to `projection`.
    pub output_names: Vec<String>,
    /// Output column types, parallel to `projection`.
    pub output_types: Vec<LogicalType>,
    /// `ORDER BY` keys over the projected output.
    pub order_by: Vec<SortKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
    /// The aggregation's input arrives grouped: the scanned table was
    /// declared sorted ([`Catalog::declare_sorted`]) and the grouping keys
    /// cover a prefix of its sort columns (order-preserving steps — WHERE —
    /// in between are fine; a JOIN is not). Execution asserts the
    /// sorted-input fast path instead of sampling.
    pub input_sorted: bool,
}

impl PhysicalPlan {
    /// Upper bound on input rows (exact scan cardinality before filtering),
    /// for admission footprint estimates.
    pub fn input_rows(&self) -> usize {
        let left = self.left.data.rows();
        match &self.join {
            None => left,
            // An equi-join can expand; use the larger side as the estimate.
            Some(j) => left.max(j.right.data.rows()),
        }
    }

    /// A compact `EXPLAIN`-style rendering of the operator tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let mut indent = 0usize;
        let mut line = |s: String, indent: &mut usize| {
            out.push_str(&"  ".repeat(*indent));
            out.push_str(&s);
            out.push('\n');
            *indent += 1;
        };
        if self.limit.is_some() || !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|k| {
                    format!(
                        "{}{}",
                        self.output_names[k.col],
                        if k.desc { " DESC" } else { "" }
                    )
                })
                .collect();
            let limit = self.limit.map_or(String::new(), |n| format!(" limit={n}"));
            line(format!("SORT [{}]{limit}", keys.join(", ")), &mut indent);
        }
        line(
            format!("PROJECT [{}]", self.output_names.join(", ")),
            &mut indent,
        );
        if self.having.is_some() {
            line("FILTER (having)".into(), &mut indent);
        }
        if let Some(agg) = &self.aggregate {
            line(
                format!(
                    "HASH_AGGREGATE groups={} aggregates={}{}",
                    agg.group_cols.len(),
                    agg.aggregates.len(),
                    if self.input_sorted {
                        " input=sorted"
                    } else {
                        ""
                    }
                ),
                &mut indent,
            );
        }
        if let Some(f) = &self.filter {
            let names = self.input_scope().output_star_names();
            let kept: Vec<&str> = f.keep.iter().map(|&c| names[c].as_str()).collect();
            line(
                format!("FILTER (where) keep=[{}]", kept.join(", ")),
                &mut indent,
            );
        }
        if let Some(j) = &self.join {
            line(
                format!("HASH_JOIN keys={}", j.plan.probe_keys.len()),
                &mut indent,
            );
            line(format!("SCAN {}", self.left.name), &mut indent);
            out.push_str(&"  ".repeat(indent - 1));
            out.push_str(&format!("SCAN {}\n", j.right.name));
        } else {
            line(format!("SCAN {}", self.left.name), &mut indent);
        }
        out
    }

    /// Name resolution over the scanned tables.
    fn input_scope(&self) -> Scope {
        match &self.join {
            None => Scope::single(Arc::clone(&self.left)),
            Some(j) => Scope::joined(Arc::clone(&self.left), Arc::clone(&j.right)),
        }
    }
}

/// Parse, bind, and lower `sql` against `catalog`.
pub fn plan(sql: &str, catalog: &Catalog) -> Result<PhysicalPlan, SqlError> {
    plan_traced(sql, catalog, None)
}

/// Like [`plan`], recording `parse`, `bind`, and enclosing `plan` timeline
/// spans on an `sql` track when a span collector is supplied (the service
/// passes its per-query collector so front-end time shows up on the same
/// Perfetto timeline as execution).
pub fn plan_traced(
    sql: &str,
    catalog: &Catalog,
    spans: Option<&std::sync::Arc<rexa_obs::SpanCollector>>,
) -> Result<PhysicalPlan, SqlError> {
    use rexa_obs::span::{arg1, cat, NO_ARGS};
    let sbuf = spans.map(|sc| sc.track("sql"));
    let t_plan = sbuf.as_ref().map(|b| b.now_ns());
    let t_parse = t_plan;
    let query = crate::parser::parse(sql)?;
    if let (Some(b), Some(t)) = (&sbuf, t_parse) {
        b.complete("parse", cat::SQL, t, arg1("bytes", sql.len() as u64));
    }
    let t_bind = sbuf.as_ref().map(|b| b.now_ns());
    let plan = bind(&query, catalog)?;
    if let Some(b) = &sbuf {
        if let Some(t) = t_bind {
            b.complete("bind", cat::SQL, t, NO_ARGS);
        }
        if let Some(t) = t_plan {
            b.complete("plan", cat::SQL, t, NO_ARGS);
        }
    }
    Ok(plan)
}

/// Bind and lower an already-parsed query.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<PhysicalPlan, SqlError> {
    let left = catalog.resolve(&query.from.name, query.from.span)?;
    let (join, scope) = match &query.join {
        None => (None, Scope::single(Arc::clone(&left))),
        Some(j) => {
            let right = catalog.resolve(&j.table.name, j.table.span)?;
            if right.name == left.name {
                return Err(SqlError::bind(
                    "self-joins are not supported (register the table twice under different names)",
                    j.table.span,
                ));
            }
            let scope = Scope::joined(Arc::clone(&left), Arc::clone(&right));
            let plan = bind_join_on(&scope, &left, &right, &j.on)?;
            (
                Some(JoinNode {
                    right: Arc::clone(&right),
                    plan,
                }),
                scope,
            )
        }
    };
    let input_schema = scope.schema.clone();

    let predicate = match &query.where_clause {
        None => None,
        Some(expr) => {
            if expr.has_aggregate() {
                return Err(SqlError::bind(
                    "aggregate calls are not allowed in WHERE (use HAVING)",
                    expr.span(),
                ));
            }
            Some(bind_predicate(expr, &|c| {
                scope.resolve(c).map(|i| (i, input_schema[i]))
            })?)
        }
    };

    let wants_aggregation = !query.group_by.is_empty()
        || query.having.is_some()
        || query.items.iter().any(|i| i.expr.has_aggregate());

    let mut binder = OutputBinder {
        scope: &scope,
        input_schema: &input_schema,
        group_cols: Vec::new(),
        aggregates: Vec::new(),
    };

    let (aggregate, mut agg_output_schema, having, outputs) = if wants_aggregation {
        if query.star {
            return Err(SqlError::bind(
                "SELECT * cannot be combined with GROUP BY or aggregates",
                query.from.span,
            ));
        }
        for c in &query.group_by {
            let idx = scope.resolve(c)?;
            if binder.group_cols.contains(&idx) {
                return Err(SqlError::bind(
                    format!("duplicate GROUP BY column `{c}`"),
                    c.span,
                ));
            }
            binder.group_cols.push(idx);
        }
        let mut outputs = Vec::new();
        for item in &query.items {
            let (slot, name) = binder.bind_select_item(&item.expr)?;
            outputs.push(Output {
                slot,
                name: item.alias.clone().unwrap_or(name),
            });
        }
        let having = match &query.having {
            None => None,
            Some(expr) => Some(bind_having(expr, &mut binder)?),
        };
        let agg_plan = HashAggregatePlan {
            group_cols: binder.group_cols.clone(),
            aggregates: binder.aggregates.clone(),
        };
        let mut agg_schema: Vec<LogicalType> = agg_plan
            .group_cols
            .iter()
            .map(|&c| input_schema[c])
            .collect();
        for spec in &agg_plan.aggregates {
            // Already validated in `bind_agg_call`; cannot fail here.
            agg_schema.push(
                bind_aggregate(*spec, &input_schema)
                    .map_err(SqlError::Engine)?
                    .output_type,
            );
        }
        (Some(agg_plan), agg_schema, having, outputs)
    } else {
        let mut outputs = Vec::new();
        if query.star {
            for (i, name) in scope.output_star_names().into_iter().enumerate() {
                outputs.push(Output { slot: i, name });
            }
        } else {
            for item in &query.items {
                match &item.expr {
                    Expr::Column(c) => {
                        let idx = scope.resolve(c)?;
                        outputs.push(Output {
                            slot: idx,
                            name: item
                                .alias
                                .clone()
                                .unwrap_or_else(|| c.name.to_ascii_lowercase()),
                        });
                    }
                    other => {
                        return Err(SqlError::bind(
                            "only columns and aggregate calls are supported in the select list",
                            other.span(),
                        ))
                    }
                }
            }
        }
        (None, input_schema.clone(), None, outputs)
    };

    let mut projection: Vec<usize> = outputs.iter().map(|o| o.slot).collect();
    let output_names: Vec<String> = outputs.iter().map(|o| o.name.clone()).collect();
    let output_types: Vec<LogicalType> = projection.iter().map(|&i| agg_output_schema[i]).collect();

    // ORDER BY binds over the projected output: by alias/name, by matching
    // select-list expression, or by 1-based position.
    let mut order_by = Vec::new();
    for key in &query.order_by {
        let col = bind_order_key(
            &key.expr,
            query,
            &outputs,
            &scope,
            aggregate.as_ref(),
            &binder,
        )?;
        order_by.push(SortKey {
            col,
            desc: key.desc,
        });
    }

    let limit = query.limit.map(|l| l.n as usize);

    // Sorted-input detection: grouping keys covering a prefix of the
    // scanned table's declared sort columns arrive grouped (equal key
    // tuples are adjacent — any permutation of a sorted prefix groups
    // contiguously). A WHERE filter preserves row order; a JOIN does not
    // guarantee it, so joined inputs never claim sortedness.
    let input_sorted = match &aggregate {
        Some(agg) if join.is_none() && !agg.group_cols.is_empty() => {
            let sorted = &left.sorted_by;
            agg.group_cols.len() <= sorted.len()
                && agg
                    .group_cols
                    .iter()
                    .all(|c| sorted[..agg.group_cols.len()].contains(c))
        }
        _ => false,
    };

    // The filter passes up only the columns read above it, and the
    // aggregate (or, without one, the projection) is remapped onto them.
    // It keeps row order, so `input_sorted` — decided over the scan schema
    // above — still holds.
    let (filter, agg_input_schema, agg_input_plan) = match predicate {
        None => (None, input_schema.clone(), aggregate.clone()),
        Some(predicate) => {
            let mut keep: Vec<usize> = match &aggregate {
                Some(agg) => agg
                    .group_cols
                    .iter()
                    .copied()
                    .chain(agg.aggregates.iter().filter_map(|a| a.arg))
                    .collect(),
                None => projection.clone(),
            };
            keep.sort_unstable();
            keep.dedup();
            let slot = |c: usize| keep.binary_search(&c).expect("kept column");
            let kept_schema: Vec<LogicalType> = keep.iter().map(|&c| input_schema[c]).collect();
            let agg_input_plan = aggregate.as_ref().map(|agg| HashAggregatePlan {
                group_cols: agg.group_cols.iter().map(|&c| slot(c)).collect(),
                aggregates: agg
                    .aggregates
                    .iter()
                    .map(|a| AggregateSpec {
                        arg: a.arg.map(slot),
                        ..*a
                    })
                    .collect(),
            });
            if aggregate.is_none() {
                projection = projection.iter().map(|&c| slot(c)).collect();
                agg_output_schema = kept_schema.clone();
            }
            (
                Some(FilterNode { predicate, keep }),
                kept_schema,
                agg_input_plan,
            )
        }
    };

    Ok(PhysicalPlan {
        left,
        join,
        input_schema,
        filter,
        aggregate,
        agg_input_schema,
        agg_input_plan,
        agg_output_schema,
        having,
        projection,
        output_names,
        output_types,
        order_by,
        limit,
        input_sorted,
    })
}

/// One projected output column: its index in the pre-projection schema and
/// its display name.
struct Output {
    slot: usize,
    name: String,
}

/// Name resolution over the `FROM`(+`JOIN`) tables.
struct Scope {
    /// (table, offset of its first column in the combined schema).
    tables: Vec<(Arc<CatalogTable>, usize)>,
    schema: Vec<LogicalType>,
}

impl Scope {
    fn single(t: Arc<CatalogTable>) -> Self {
        let schema = t.schema.clone();
        Scope {
            tables: vec![(t, 0)],
            schema,
        }
    }

    fn joined(left: Arc<CatalogTable>, right: Arc<CatalogTable>) -> Self {
        let mut schema = left.schema.clone();
        schema.extend_from_slice(&right.schema);
        let offset = left.schema.len();
        Scope {
            tables: vec![(left, 0), (right, offset)],
            schema,
        }
    }

    /// Resolve a column reference to a combined-schema index.
    fn resolve(&self, c: &ColumnRef) -> Result<usize, SqlError> {
        if let Some(qualifier) = &c.table {
            let Some((t, off)) = self
                .tables
                .iter()
                .find(|(t, _)| t.name.eq_ignore_ascii_case(qualifier))
            else {
                return Err(SqlError::bind(
                    format!("unknown table qualifier `{qualifier}`"),
                    c.span,
                ));
            };
            return match t.column_index(&c.name) {
                Some(i) => Ok(off + i),
                None => Err(SqlError::bind(
                    format!("table `{}` has no column `{}`", t.name, c.name),
                    c.span,
                )),
            };
        }
        let mut found = None;
        for (t, off) in &self.tables {
            if let Some(i) = t.column_index(&c.name) {
                if found.is_some() {
                    return Err(SqlError::bind(
                        format!(
                            "column `{}` is ambiguous (qualify it with a table name)",
                            c.name
                        ),
                        c.span,
                    ));
                }
                found = Some(off + i);
            }
        }
        found.ok_or_else(|| SqlError::bind(format!("unknown column `{}`", c.name), c.span))
    }

    /// Output names for `SELECT *`: bare column names, qualified with the
    /// table name when two tables share a column name.
    fn output_star_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (t, _) in &self.tables {
            for col in &t.columns {
                let duplicated = self
                    .tables
                    .iter()
                    .filter(|(u, _)| u.column_index(col).is_some())
                    .count()
                    > 1;
                if duplicated {
                    names.push(format!("{}.{}", t.name, col));
                } else {
                    names.push(col.clone());
                }
            }
        }
        names
    }
}

/// Bind `JOIN … ON` equalities to a [`HashJoinPlan`]: left table is the
/// probe side, right the build side.
fn bind_join_on(
    scope: &Scope,
    left: &CatalogTable,
    right: &CatalogTable,
    on: &[(ColumnRef, ColumnRef)],
) -> Result<HashJoinPlan, SqlError> {
    let left_cols = left.schema.len();
    let mut probe_keys = Vec::new();
    let mut build_keys = Vec::new();
    for (a, b) in on {
        let ia = scope.resolve(a)?;
        let ib = scope.resolve(b)?;
        let span = a.span.merge(b.span);
        let (probe, build) = if ia < left_cols && ib >= left_cols {
            (ia, ib - left_cols)
        } else if ib < left_cols && ia >= left_cols {
            (ib, ia - left_cols)
        } else {
            return Err(SqlError::bind(
                "join condition must compare one column from each table",
                span,
            ));
        };
        if left.schema[probe] != right.schema[build] {
            return Err(SqlError::bind(
                format!(
                    "join key type mismatch: {} vs {}",
                    left.schema[probe], right.schema[build]
                ),
                span,
            ));
        }
        probe_keys.push(probe);
        build_keys.push(build);
    }
    Ok(HashJoinPlan {
        build_keys,
        probe_keys,
    })
}

/// Maps a column reference to `(index, type)` in whatever schema a
/// predicate runs over.
type ColumnResolver<'a> = dyn Fn(&ColumnRef) -> Result<(usize, LogicalType), SqlError> + 'a;

/// Bind a predicate tree; `resolve` maps a column reference to
/// `(index, type)` in whatever schema the predicate runs over.
fn bind_predicate(expr: &Expr, resolve: &ColumnResolver) -> Result<Predicate, SqlError> {
    match expr {
        Expr::And(l, r) => Ok(Predicate::And(
            Box::new(bind_predicate(l, resolve)?),
            Box::new(bind_predicate(r, resolve)?),
        )),
        Expr::Or(l, r) => Ok(Predicate::Or(
            Box::new(bind_predicate(l, resolve)?),
            Box::new(bind_predicate(r, resolve)?),
        )),
        Expr::Cmp { op, left, right } => bind_comparison(*op, left, right, resolve),
        other => Err(SqlError::bind(
            "expected a comparison or AND/OR combination",
            other.span(),
        )),
    }
}

fn bind_comparison(
    op: CmpOp,
    left: &Expr,
    right: &Expr,
    resolve: &ColumnResolver,
) -> Result<Predicate, SqlError> {
    match (left, right) {
        (Expr::Column(lc), Expr::Column(rc)) => {
            let (li, lt) = resolve(lc)?;
            let (ri, rt) = resolve(rc)?;
            if lt != rt {
                return Err(SqlError::bind(
                    format!("cannot compare {lt} with {rt}"),
                    lc.span.merge(rc.span),
                ));
            }
            Ok(Predicate::CmpCols {
                left: li,
                op,
                right: ri,
            })
        }
        (Expr::Column(c), Expr::Literal(lit, lit_span)) => {
            let (i, t) = resolve(c)?;
            Ok(Predicate::CmpLit {
                col: i,
                op,
                lit: coerce_literal(lit, t, *lit_span)?,
            })
        }
        (Expr::Literal(lit, lit_span), Expr::Column(c)) => {
            let (i, t) = resolve(c)?;
            Ok(Predicate::CmpLit {
                col: i,
                op: flip(op),
                lit: coerce_literal(lit, t, *lit_span)?,
            })
        }
        (Expr::Literal(..), Expr::Literal(..)) => Err(SqlError::bind(
            "comparison needs at least one column",
            left.span().merge(right.span()),
        )),
        _ => Err(SqlError::bind(
            "unsupported comparison operand",
            left.span().merge(right.span()),
        )),
    }
}

/// `lit <op> col` rewritten as `col <flip(op)> lit`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Coerce a literal to a column's type, or fail at the literal's span.
fn coerce_literal(lit: &Literal, ty: LogicalType, span: Span) -> Result<Value, SqlError> {
    match (lit, ty) {
        (Literal::Int(v), LogicalType::Int32) => {
            i32::try_from(*v).map(Value::Int32).map_err(|_| {
                SqlError::bind(format!("integer literal {v} out of range for INT32"), span)
            })
        }
        (Literal::Int(v), LogicalType::Int64) => Ok(Value::Int64(*v)),
        (Literal::Int(v), LogicalType::Float64) => Ok(Value::Float64(*v as f64)),
        (Literal::Float(v), LogicalType::Float64) => Ok(Value::Float64(*v)),
        (Literal::Int(v), LogicalType::Date) => i32::try_from(*v).map(Value::Date).map_err(|_| {
            SqlError::bind(format!("integer literal {v} out of range for DATE"), span)
        }),
        (Literal::Str(s), LogicalType::Date) => match parse_date(s) {
            Some(days) => Ok(Value::Date(days)),
            None => Err(SqlError::bind(
                format!("`{s}` is not a date (expected 'YYYY-MM-DD')"),
                span,
            )),
        },
        (Literal::Str(s), LogicalType::Varchar) => Ok(Value::Varchar(s.clone())),
        _ => Err(SqlError::bind(
            format!("literal {lit} cannot be compared with a {ty} column"),
            span,
        )),
    }
}

/// `'YYYY-MM-DD'` to days since 1970-01-01 (the engine's DATE encoding).
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let (y, m, d) = (it.next()?, it.next()?, it.next()?);
    if it.next().is_some() || y.len() != 4 || m.len() != 2 || d.len() != 2 {
        return None;
    }
    let y: i64 = y.parse().ok()?;
    let m: u32 = m.parse().ok()?;
    let d: u32 = d.parse().ok()?;
    if !(1..=12).contains(&m) || d < 1 || d > days_in_month(y, m) {
        return None;
    }
    i32::try_from(days_from_civil(y, m, d)).ok()
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days from the civil epoch 1970-01-01 (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Accumulates grouping columns and deduplicated aggregate specs while the
/// select list and `HAVING` bind.
struct OutputBinder<'a> {
    scope: &'a Scope,
    input_schema: &'a [LogicalType],
    group_cols: Vec<usize>,
    aggregates: Vec<AggregateSpec>,
}

impl OutputBinder<'_> {
    /// Bind one select-list expression in an aggregating query; returns the
    /// output slot in (group keys ++ aggregates) space plus a derived name.
    fn bind_select_item(&mut self, expr: &Expr) -> Result<(usize, String), SqlError> {
        match expr {
            Expr::Column(c) => {
                let idx = self.scope.resolve(c)?;
                match self.group_cols.iter().position(|&g| g == idx) {
                    Some(pos) => Ok((pos, c.name.to_ascii_lowercase())),
                    None => Err(SqlError::bind(
                        format!(
                            "column `{}` must appear in GROUP BY or inside an aggregate",
                            c.name
                        ),
                        c.span,
                    )),
                }
            }
            Expr::Agg(call) => {
                let agg_idx = self.bind_agg_call(call)?;
                Ok((
                    self.group_cols.len() + agg_idx,
                    expr.to_string().to_ascii_lowercase(),
                ))
            }
            other => Err(SqlError::bind(
                "only columns and aggregate calls are supported in the select list",
                other.span(),
            )),
        }
    }

    /// Lower an aggregate call to an [`AggregateSpec`], validate it with
    /// the operator's binder, and return its index in the deduplicated
    /// aggregate list.
    fn bind_agg_call(&mut self, call: &AggCall) -> Result<usize, SqlError> {
        let arg = match &call.arg {
            None => None,
            Some(c) => Some(self.scope.resolve(c)?),
        };
        let spec = match (call.func.as_str(), arg) {
            ("COUNT", None) => AggregateSpec::count_star(),
            ("COUNT", Some(c)) => AggregateSpec::count(c),
            ("SUM", Some(c)) => AggregateSpec::sum(c),
            ("MIN", Some(c)) => AggregateSpec::min(c),
            ("MAX", Some(c)) => AggregateSpec::max(c),
            ("AVG", Some(c)) => AggregateSpec::avg(c),
            ("ANY_VALUE", Some(c)) => AggregateSpec::any_value(c),
            ("VAR_SAMP", Some(c)) => AggregateSpec::var_samp(c),
            ("STDDEV_SAMP", Some(c)) => AggregateSpec::stddev_samp(c),
            (name, _) => {
                return Err(SqlError::bind(
                    format!(
                        "unknown aggregate function `{name}` (supported: {})",
                        crate::parser::AGGREGATE_FUNCTIONS.join(", ")
                    ),
                    call.span,
                ))
            }
        };
        // The operator's own binder is the single source of truth for type
        // rules (SUM over VARCHAR, MIN/MAX over VARCHAR, …).
        bind_aggregate(spec, self.input_schema)
            .map_err(|e| SqlError::bind(e.to_string(), call.span))?;
        match self.aggregates.iter().position(|s| *s == spec) {
            Some(i) => Ok(i),
            None => {
                self.aggregates.push(spec);
                Ok(self.aggregates.len() - 1)
            }
        }
    }
}

/// Bind `HAVING` over the aggregate output space: group keys by name,
/// aggregate calls by (deduplicated) spec.
fn bind_having(expr: &Expr, binder: &mut OutputBinder<'_>) -> Result<Predicate, SqlError> {
    match expr {
        Expr::And(l, r) => Ok(Predicate::And(
            Box::new(bind_having(l, binder)?),
            Box::new(bind_having(r, binder)?),
        )),
        Expr::Or(l, r) => Ok(Predicate::Or(
            Box::new(bind_having(l, binder)?),
            Box::new(bind_having(r, binder)?),
        )),
        Expr::Cmp { op, left, right } => {
            // Normalize to `operand <op> literal`; HAVING comparisons
            // between two aggregates/keys are rare and unsupported.
            let (operand, lit, lit_span, op) = match (&**left, &**right) {
                (l, Expr::Literal(lit, s)) => (l, lit, *s, *op),
                (Expr::Literal(lit, s), r) => (r, lit, *s, flip(*op)),
                _ => {
                    return Err(SqlError::bind(
                        "HAVING comparisons must have a literal on one side",
                        expr.span(),
                    ))
                }
            };
            let (slot, ty) = bind_having_operand(operand, binder)?;
            Ok(Predicate::CmpLit {
                col: slot,
                op,
                lit: coerce_literal(lit, ty, lit_span)?,
            })
        }
        other => Err(SqlError::bind(
            "expected a comparison or AND/OR combination in HAVING",
            other.span(),
        )),
    }
}

/// Resolve a HAVING operand to a slot in the aggregate output schema.
fn bind_having_operand(
    expr: &Expr,
    binder: &mut OutputBinder<'_>,
) -> Result<(usize, LogicalType), SqlError> {
    match expr {
        Expr::Column(c) => {
            let idx = binder.scope.resolve(c)?;
            match binder.group_cols.iter().position(|&g| g == idx) {
                Some(pos) => Ok((pos, binder.input_schema[idx])),
                None => Err(SqlError::bind(
                    format!("HAVING column `{}` must be a GROUP BY column", c.name),
                    c.span,
                )),
            }
        }
        Expr::Agg(call) => {
            let agg_idx = binder.bind_agg_call(call)?;
            let ty = bind_aggregate(binder.aggregates[agg_idx], binder.input_schema)
                .map_err(SqlError::Engine)?
                .output_type;
            Ok((binder.group_cols.len() + agg_idx, ty))
        }
        other => Err(SqlError::bind("unsupported HAVING operand", other.span())),
    }
}

/// Resolve one `ORDER BY` key to an output column index.
fn bind_order_key(
    expr: &Expr,
    query: &Query,
    outputs: &[Output],
    scope: &Scope,
    aggregate: Option<&HashAggregatePlan>,
    binder: &OutputBinder<'_>,
) -> Result<usize, SqlError> {
    match expr {
        // 1-based output position, SQL style.
        Expr::Literal(Literal::Int(n), span) => {
            let n = *n;
            if n < 1 || n as usize > outputs.len() {
                return Err(SqlError::bind(
                    format!("ORDER BY position {n} out of range (1..={})", outputs.len()),
                    *span,
                ));
            }
            Ok(n as usize - 1)
        }
        Expr::Column(c) => {
            // Alias match first (unqualified only), then resolve as a
            // column and match on the projected slot.
            if c.table.is_none() {
                if let Some(pos) = outputs
                    .iter()
                    .position(|o| o.name.eq_ignore_ascii_case(&c.name))
                {
                    return Ok(pos);
                }
            }
            let idx = scope.resolve(c)?;
            let slot = match aggregate {
                None => idx,
                Some(plan) => match plan.group_cols.iter().position(|&g| g == idx) {
                    Some(pos) => pos,
                    None => {
                        return Err(SqlError::bind(
                            format!("ORDER BY column `{}` must be a GROUP BY column", c.name),
                            c.span,
                        ))
                    }
                },
            };
            match outputs.iter().position(|o| o.slot == slot) {
                Some(pos) => Ok(pos),
                None => Err(SqlError::bind(
                    format!(
                        "ORDER BY column `{}` must appear in the SELECT list",
                        c.name
                    ),
                    c.span,
                )),
            }
        }
        Expr::Agg(call) => {
            let Some(_) = aggregate else {
                return Err(SqlError::bind(
                    "aggregate in ORDER BY requires GROUP BY",
                    call.span,
                ));
            };
            // Re-lower the call and find the matching select item. A fresh
            // spec is fine: lowering is deterministic, and the select list
            // has already registered every projected aggregate.
            let mut probe = OutputBinder {
                scope,
                input_schema: binder.input_schema,
                group_cols: binder.group_cols.clone(),
                aggregates: binder.aggregates.clone(),
            };
            let agg_idx = probe.bind_agg_call(call)?;
            if agg_idx >= binder.aggregates.len() {
                return Err(SqlError::bind(
                    "ORDER BY aggregate must appear in the SELECT list or HAVING",
                    call.span,
                ));
            }
            let slot = binder.group_cols.len() + agg_idx;
            match outputs.iter().position(|o| o.slot == slot) {
                Some(pos) => Ok(pos),
                None => Err(SqlError::bind(
                    "ORDER BY aggregate must appear in the SELECT list",
                    call.span,
                )),
            }
        }
        other => Err(SqlError::bind(
            "unsupported ORDER BY expression",
            other.span(),
        )),
    }
    .and_then(|pos| {
        // Defensive: the sort sink indexes projected rows.
        if pos < query.items.len().max(outputs.len()) {
            Ok(pos)
        } else {
            Err(SqlError::bind(
                "ORDER BY position out of range",
                expr.span(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_exec::ChunkCollection;

    /// A catalog holding one empty table `t` with the given columns.
    fn catalog(columns: &[(&str, LogicalType)]) -> Catalog {
        let types = columns.iter().map(|&(_, t)| t).collect();
        let names = columns.iter().map(|&(n, _)| n.to_string()).collect();
        let mut catalog = Catalog::new();
        catalog
            .register_collection("t", names, Arc::new(ChunkCollection::new(types)))
            .unwrap();
        catalog
    }

    /// The rows of `chunk` that `pred` selects.
    fn selected(pred: &Predicate, chunk: &DataChunk) -> Vec<u32> {
        let mut sel: Vec<u32> = (0..chunk.len() as u32).collect();
        pred.select(chunk, &mut sel);
        sel
    }

    fn cmp_lit(col: usize, op: CmpOp, lit: Value) -> Predicate {
        Predicate::CmpLit { col, op, lit }
    }

    #[test]
    fn lowcard_query_keeps_and_remaps_only_the_aggregate_columns() {
        use LogicalType::*;
        let lineitem = [
            ("l_orderkey", Int64),
            ("l_partkey", Int64),
            ("l_suppkey", Int64),
            ("l_linenumber", Int32),
            ("l_quantity", Int64),
            ("l_extendedprice", Int64),
            ("l_discount", Int64),
            ("l_tax", Int64),
            ("l_returnflag", Varchar),
            ("l_linestatus", Varchar),
            ("l_shipdate", Date),
            ("l_commitdate", Date),
            ("l_receiptdate", Date),
            ("l_shipinstruct", Varchar),
            ("l_shipmode", Varchar),
            ("l_comment", Varchar),
        ];
        let plan = plan(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
             SUM(l_discount), MIN(l_tax), MAX(l_extendedprice), COUNT(*) \
             FROM t WHERE l_shipdate <= '1997-12-01' GROUP BY l_returnflag, l_linestatus",
            &catalog(&lineitem),
        )
        .unwrap();
        let filter = plan.filter.as_ref().unwrap();
        // The predicate reads the scan schema; the filter passes up the six
        // columns the aggregate reads, in scan order.
        assert!(matches!(
            filter.predicate,
            Predicate::CmpLit { col: 10, .. }
        ));
        assert_eq!(filter.keep, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(
            plan.agg_input_schema,
            vec![Int64, Int64, Int64, Int64, Varchar, Varchar]
        );
        // `aggregate` stays over the scan schema; `agg_input_plan` is the
        // same plan over the kept columns.
        let scan = plan.aggregate.as_ref().unwrap();
        assert_eq!(scan.group_cols, vec![8, 9]);
        let agg = plan.agg_input_plan.as_ref().unwrap();
        assert_eq!(agg.group_cols, vec![4, 5]);
        let args: Vec<Option<usize>> = agg.aggregates.iter().map(|a| a.arg).collect();
        assert_eq!(
            args,
            vec![Some(0), Some(1), Some(2), Some(3), Some(1), None]
        );
        let kinds = |p: &HashAggregatePlan| p.aggregates.iter().map(|a| a.kind).collect::<Vec<_>>();
        assert_eq!(kinds(agg), kinds(scan));
        assert!(plan.explain().contains(
            "FILTER (where) keep=[l_quantity, l_extendedprice, l_discount, l_tax, \
             l_returnflag, l_linestatus]"
        ));
    }

    #[test]
    fn plain_scan_filter_keeps_the_projection_and_count_star_keeps_nothing() {
        use LogicalType::*;
        let cat = catalog(&[("a", Int64), ("b", Varchar), ("c", Date), ("d", Float64)]);
        let p = plan("SELECT d, b FROM t WHERE a > 1 ORDER BY b", &cat).unwrap();
        assert_eq!(p.filter.as_ref().unwrap().keep, vec![1, 3]);
        assert_eq!(p.agg_input_schema, vec![Varchar, Float64]);
        assert_eq!(p.agg_output_schema, p.agg_input_schema);
        assert_eq!(p.projection, vec![1, 0]);
        assert_eq!(p.output_types, vec![Float64, Varchar]);
        assert!(p.explain().contains("FILTER (where) keep=[b, d]"));

        let p = plan("SELECT COUNT(*) FROM t WHERE c >= 3", &cat).unwrap();
        assert!(p.filter.as_ref().unwrap().keep.is_empty());
        assert!(p.agg_input_schema.is_empty());

        // Without a WHERE nothing is narrowed.
        let p = plan("SELECT b, SUM(a) FROM t GROUP BY b", &cat).unwrap();
        assert_eq!(p.agg_input_schema, p.input_schema);
        assert_eq!(p.agg_input_plan.unwrap().group_cols, vec![1]);
    }

    #[test]
    fn select_applies_every_operator_per_type() {
        let chunk = DataChunk::new(vec![
            Vector::from_i32(vec![1, 2, 3]),
            Vector::from_i64(vec![1, 2, 3]),
            Vector::from_f64(vec![1.0, 2.0, 3.0]),
            Vector::from_strs(["a", "b", "c"]),
            Vector::from_dates(vec![1, 2, 3]),
        ]);
        let lits = [
            Value::Int32(2),
            Value::Int64(2),
            Value::Float64(2.0),
            Value::Varchar("b".into()),
            Value::Date(2),
        ];
        let expected: [(CmpOp, &[u32]); 6] = [
            (CmpOp::Eq, &[1]),
            (CmpOp::Ne, &[0, 2]),
            (CmpOp::Lt, &[0]),
            (CmpOp::Le, &[0, 1]),
            (CmpOp::Gt, &[2]),
            (CmpOp::Ge, &[1, 2]),
        ];
        for (col, lit) in lits.iter().enumerate() {
            for (op, want) in expected {
                let got = selected(&cmp_lit(col, op, lit.clone()), &chunk);
                assert_eq!(got, want, "column {col} {op:?} {lit:?}");
            }
        }
        // A literal of the wrong type (never bound) selects nothing.
        assert!(selected(&cmp_lit(0, CmpOp::Ne, Value::Int64(9)), &chunk).is_empty());
    }

    #[test]
    fn select_drops_nulls_on_either_side() {
        let a = Vector::from_values(
            LogicalType::Int64,
            &[
                Value::Int64(1),
                Value::Null,
                Value::Int64(3),
                Value::Int64(4),
            ],
        )
        .unwrap();
        let b = Vector::from_values(
            LogicalType::Int64,
            &[
                Value::Int64(1),
                Value::Int64(2),
                Value::Null,
                Value::Int64(4),
            ],
        )
        .unwrap();
        let chunk = DataChunk::new(vec![a, b]);
        let eq = Predicate::CmpCols {
            left: 0,
            op: CmpOp::Eq,
            right: 1,
        };
        assert_eq!(selected(&eq, &chunk), vec![0, 3]);
        let ne = Predicate::CmpCols {
            left: 0,
            op: CmpOp::Ne,
            right: 1,
        };
        assert!(selected(&ne, &chunk).is_empty());
        assert_eq!(
            selected(&cmp_lit(0, CmpOp::Ne, Value::Int64(3)), &chunk),
            vec![0, 3]
        );
    }

    #[test]
    fn or_merges_survivors_in_ascending_order_and_and_narrows() {
        let chunk = DataChunk::new(vec![Vector::from_i64((0..10).collect())]);
        let lt3 = cmp_lit(0, CmpOp::Lt, Value::Int64(3));
        let gt6 = cmp_lit(0, CmpOp::Gt, Value::Int64(6));
        let odd = Predicate::Or(
            Box::new(Predicate::Or(
                Box::new(cmp_lit(0, CmpOp::Eq, Value::Int64(7))),
                Box::new(cmp_lit(0, CmpOp::Eq, Value::Int64(1))),
            )),
            Box::new(cmp_lit(0, CmpOp::Eq, Value::Int64(5))),
        );
        let either = Predicate::Or(Box::new(gt6.clone()), Box::new(lt3.clone()));
        assert_eq!(selected(&either, &chunk), vec![0, 1, 2, 7, 8, 9]);
        assert_eq!(selected(&odd, &chunk), vec![1, 5, 7]);
        let both = Predicate::And(Box::new(either), Box::new(odd));
        assert_eq!(selected(&both, &chunk), vec![1, 7]);
        // Rows the left side already passed are not selected twice.
        let overlap = Predicate::Or(Box::new(lt3.clone()), Box::new(lt3));
        assert_eq!(selected(&overlap, &chunk), vec![0, 1, 2]);
        // A pre-narrowed candidate list is respected.
        let mut sel = vec![2, 4, 8];
        Predicate::Or(
            Box::new(gt6),
            Box::new(cmp_lit(0, CmpOp::Eq, Value::Int64(2))),
        )
        .select(&chunk, &mut sel);
        assert_eq!(sel, vec![2, 8]);
    }

    #[test]
    fn date_parsing_matches_epoch_days() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        // The lineitem generator anchors 1992-01-01 at day 8035.
        assert_eq!(parse_date("1992-01-01"), Some(8035));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
        assert_eq!(parse_date("2000-02-29"), Some(11016));
        assert_eq!(parse_date("1900-02-29"), None);
        assert_eq!(parse_date("1998-13-01"), None);
        assert_eq!(parse_date("1998-00-01"), None);
        assert_eq!(parse_date("98-01-01"), None);
        assert_eq!(parse_date("not a date"), None);
    }
}
