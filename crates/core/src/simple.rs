//! A naive single-threaded reference aggregator over owned values.
//!
//! Deliberately simple (BTreeMap over `Vec<Value>` keys): the differential
//! oracle the property and integration tests compare the real operator
//! against. Not memory-accounted, not fast — correctness only.

use crate::function::{AggKind, AggregateSpec};
use rexa_exec::pipeline::ChunkSource;
use rexa_exec::{DataChunk, LogicalType, Result, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A totally-ordered wrapper so `Vec<Value>` can key a BTreeMap.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRow(pub Vec<Value>);

impl Eq for KeyRow {}
impl PartialOrd for KeyRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeyRow {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            let ord = a.total_cmp(b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

#[derive(Debug, Clone)]
pub(crate) enum RefState {
    Count(i64),
    SumI(i64),
    SumF(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
    Any(Option<Value>),
    /// Exact two-pass variance for the oracle: keep all values.
    Spread {
        values: Vec<f64>,
        sample_stddev: bool,
    },
}

impl RefState {
    pub(crate) fn new(kind: AggKind, arg_type: Option<LogicalType>) -> RefState {
        match kind {
            AggKind::CountStar | AggKind::Count => RefState::Count(0),
            AggKind::Sum => match arg_type {
                Some(LogicalType::Float64) => RefState::SumF(0.0),
                _ => RefState::SumI(0),
            },
            AggKind::Min => RefState::Min(None),
            AggKind::Max => RefState::Max(None),
            AggKind::Avg => RefState::Avg { sum: 0.0, count: 0 },
            AggKind::AnyValue => RefState::Any(None),
            AggKind::VarSamp => RefState::Spread {
                values: Vec::new(),
                sample_stddev: false,
            },
            AggKind::StdDevSamp => RefState::Spread {
                values: Vec::new(),
                sample_stddev: true,
            },
        }
    }

    pub(crate) fn update(&mut self, kind: AggKind, v: Option<&Value>) {
        match self {
            RefState::Count(c) => {
                let counts = match kind {
                    AggKind::CountStar => true,
                    _ => v.is_some_and(|v| !v.is_null()),
                };
                if counts {
                    *c += 1;
                }
            }
            RefState::SumI(s) => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    *s = s.wrapping_add(match v {
                        Value::Int32(x) => *x as i64,
                        Value::Int64(x) => *x,
                        _ => unreachable!(),
                    });
                }
            }
            RefState::SumF(s) => {
                if let Some(Value::Float64(x)) = v.filter(|v| !v.is_null()) {
                    *s += x;
                }
            }
            RefState::Min(cur) | RefState::Max(cur) => {
                let is_min = kind == AggKind::Min;
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    let replace = match cur {
                        None => true,
                        Some(c) => {
                            let ord = v.total_cmp(c);
                            if is_min {
                                ord == Ordering::Less
                            } else {
                                ord == Ordering::Greater
                            }
                        }
                    };
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
            RefState::Avg { sum, count } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    *sum += match v {
                        Value::Int32(x) => *x as f64,
                        Value::Int64(x) => *x as f64,
                        Value::Float64(x) => *x,
                        _ => unreachable!(),
                    };
                    *count += 1;
                }
            }
            RefState::Any(cur) => {
                if cur.is_none() {
                    *cur = Some(v.cloned().unwrap_or(Value::Null));
                }
            }
            RefState::Spread { values, .. } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    values.push(match v {
                        Value::Int32(x) => *x as f64,
                        Value::Int64(x) => *x as f64,
                        Value::Float64(x) => *x,
                        _ => unreachable!(),
                    });
                }
            }
        }
    }

    pub(crate) fn finalize(self) -> Value {
        match self {
            RefState::Count(c) => Value::Int64(c),
            RefState::SumI(s) => Value::Int64(s),
            RefState::SumF(s) => Value::Float64(s),
            RefState::Min(v) | RefState::Max(v) => v.unwrap_or(Value::Null),
            RefState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / count as f64)
                }
            }
            RefState::Any(v) => v.unwrap_or(Value::Null),
            RefState::Spread {
                values,
                sample_stddev,
            } => {
                if values.len() < 2 {
                    return Value::Null;
                }
                let n = values.len() as f64;
                let mean = values.iter().sum::<f64>() / n;
                let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
                Value::Float64(if sample_stddev { var.sqrt() } else { var })
            }
        }
    }
}

/// Aggregate `source` with the reference implementation. Returns the result
/// rows sorted by group key: `(group values ++ aggregate values)`. With no
/// group columns this is the global aggregate: exactly one row of aggregate
/// values, even on empty input (`COUNT` and `SUM` 0, the others NULL).
pub fn reference_aggregate(
    source: &dyn ChunkSource,
    input_schema: &[LogicalType],
    group_cols: &[usize],
    aggregates: &[AggregateSpec],
) -> Result<Vec<Vec<Value>>> {
    let new_states = || -> Vec<RefState> {
        aggregates
            .iter()
            .map(|a| RefState::new(a.kind, a.arg.map(|c| input_schema[c])))
            .collect()
    };
    let mut groups: BTreeMap<KeyRow, Vec<RefState>> = BTreeMap::new();
    if group_cols.is_empty() {
        groups.insert(KeyRow(Vec::new()), new_states());
    }
    let mut reader = source.reader();
    while let Some(chunk) = reader.next()? {
        for i in 0..chunk.len() {
            let key = KeyRow(
                group_cols
                    .iter()
                    .map(|&c| match chunk.column(c).value(i) {
                        // Same key normalization as the operator's hash and
                        // matchers: -0.0 and 0.0 form one group (total_cmp,
                        // which orders this BTreeMap, would split them).
                        Value::Float64(f) => {
                            Value::Float64(rexa_exec::hashing::normalize_f64_key(f))
                        }
                        v => v,
                    })
                    .collect(),
            );
            let states = groups.entry(key).or_insert_with(new_states);
            for (state, spec) in states.iter_mut().zip(aggregates) {
                let v = spec.arg.map(|c| chunk.column(c).value(i));
                state.update(spec.kind, v.as_ref());
            }
        }
    }
    Ok(groups
        .into_iter()
        .map(|(k, states)| {
            let mut row = k.0;
            row.extend(states.into_iter().map(RefState::finalize));
            row
        })
        .collect())
}

/// Normalize an aggregation result (a collected [`DataChunk`] stream) into
/// sorted rows comparable with [`reference_aggregate`]'s output.
pub fn sorted_rows(chunks: &[DataChunk]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = chunks
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect();
    rows.sort_by_key(|a| KeyRow(a.clone()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_exec::pipeline::CollectionSource;
    use rexa_exec::{ChunkCollection, Vector};

    #[test]
    fn reference_groups_and_sums() {
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
        coll.push(DataChunk::new(vec![
            Vector::from_i64(vec![1, 2, 1, 2, 1]),
            Vector::from_i64(vec![10, 20, 30, 40, 50]),
        ]))
        .unwrap();
        let source = CollectionSource::new(&coll);
        let rows = reference_aggregate(
            &source,
            coll.types(),
            &[0],
            &[AggregateSpec::sum(1), AggregateSpec::count_star()],
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int64(1), Value::Int64(90), Value::Int64(3)],
                vec![Value::Int64(2), Value::Int64(60), Value::Int64(2)],
            ]
        );
    }

    #[test]
    fn reference_without_groups_is_one_sql_row() {
        let aggs = [AggregateSpec::count_star(), AggregateSpec::min(0)];
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64]);
        let source = CollectionSource::new(&coll);
        let empty = reference_aggregate(&source, coll.types(), &[], &aggs).unwrap();
        assert_eq!(empty, vec![vec![Value::Int64(0), Value::Null]]);
        coll.push(DataChunk::new(vec![Vector::from_i64(vec![4, 2, 9])]))
            .unwrap();
        let source = CollectionSource::new(&coll);
        let rows = reference_aggregate(&source, coll.types(), &[], &aggs).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(3), Value::Int64(2)]]);
    }

    #[test]
    fn key_row_ordering_handles_nulls() {
        let a = KeyRow(vec![Value::Null]);
        let b = KeyRow(vec![Value::Int64(0)]);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }
}
