//! Aggregate functions and their fixed-size states.
//!
//! States are opaque byte regions inside the row layout, zero-initialized by
//! page allocation. `ANY_VALUE` is special: it has no state at all — its
//! value is materialized as a write-once payload column next to the group
//! keys when the group is first created (a legal ANY_VALUE, and the reason
//! variable-size aggregate results can live inside the spillable layout —
//! see DESIGN.md).

use rexa_exec::{Error, LogicalType, Result};

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)`: number of rows.
    CountStar,
    /// `COUNT(col)`: number of non-NULL values.
    Count,
    /// `SUM(col)`: integer inputs sum to `Int64` (wrapping), floats to
    /// `Float64`.
    Sum,
    /// `MIN(col)` over fixed-width types.
    Min,
    /// `MAX(col)` over fixed-width types.
    Max,
    /// `AVG(col)`: `Float64`.
    Avg,
    /// `ANY_VALUE(col)`: an arbitrary input value of the group (rexa picks
    /// the first). Works for every type, including strings.
    AnyValue,
    /// `VAR_SAMP(col)`: sample variance, `Float64` (Welford's algorithm;
    /// NULL for fewer than two non-NULL inputs).
    VarSamp,
    /// `STDDEV_SAMP(col)`: sample standard deviation, `Float64`.
    StdDevSamp,
}

/// One aggregate in a query: a function and its argument column (an index
/// into the input schema), if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateSpec {
    /// The function.
    pub kind: AggKind,
    /// Input column index; `None` only for `COUNT(*)`.
    pub arg: Option<usize>,
}

impl AggregateSpec {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggregateSpec {
            kind: AggKind::CountStar,
            arg: None,
        }
    }
    /// `COUNT(col)`.
    pub fn count(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::Count,
            arg: Some(col),
        }
    }
    /// `SUM(col)`.
    pub fn sum(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::Sum,
            arg: Some(col),
        }
    }
    /// `MIN(col)`.
    pub fn min(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::Min,
            arg: Some(col),
        }
    }
    /// `MAX(col)`.
    pub fn max(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::Max,
            arg: Some(col),
        }
    }
    /// `AVG(col)`.
    pub fn avg(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::Avg,
            arg: Some(col),
        }
    }
    /// `ANY_VALUE(col)`.
    pub fn any_value(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::AnyValue,
            arg: Some(col),
        }
    }
    /// `VAR_SAMP(col)`.
    pub fn var_samp(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::VarSamp,
            arg: Some(col),
        }
    }
    /// `STDDEV_SAMP(col)`.
    pub fn stddev_samp(col: usize) -> Self {
        AggregateSpec {
            kind: AggKind::StdDevSamp,
            arg: Some(col),
        }
    }
}

/// A validated aggregate: spec plus resolved argument type, state size,
/// output type, and the monomorphized kernels of the vectorized hot path.
#[derive(Debug, Clone, Copy)]
pub struct BoundAggregate {
    /// The original spec.
    pub spec: AggregateSpec,
    /// The argument column's type (`None` for `COUNT(*)`).
    pub arg_type: Option<LogicalType>,
    /// Bytes of in-row state (0 for `ANY_VALUE`).
    pub state_size: usize,
    /// The result type.
    pub output_type: LogicalType,
    /// Selection-vector update/combine/finalize kernels, resolved once here
    /// at bind time (see [`crate::kernel`]). They are the only
    /// implementation of the aggregate semantics; the independent oracle is
    /// [`crate::simple`].
    pub kernels: crate::kernel::AggKernels,
}

// Equality on the *binding* only: the kernels are a pure function of
// (spec, arg_type), and function-pointer addresses are not comparable
// across codegen units anyway.
impl PartialEq for BoundAggregate {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.arg_type == other.arg_type
            && self.state_size == other.state_size
            && self.output_type == other.output_type
    }
}

impl Eq for BoundAggregate {}

/// Validate an aggregate against the input schema.
pub fn bind_aggregate(spec: AggregateSpec, schema: &[LogicalType]) -> Result<BoundAggregate> {
    let arg_type = match spec.arg {
        None => {
            if spec.kind != AggKind::CountStar {
                return Err(Error::InvalidInput(format!(
                    "{:?} requires an argument column",
                    spec.kind
                )));
            }
            None
        }
        Some(c) => {
            if c >= schema.len() {
                return Err(Error::InvalidInput(format!(
                    "aggregate argument column {c} out of range ({} columns)",
                    schema.len()
                )));
            }
            Some(schema[c])
        }
    };
    let (state_size, output_type) = match (spec.kind, arg_type) {
        (AggKind::CountStar, _) | (AggKind::Count, _) => (8, LogicalType::Int64),
        (AggKind::Sum, Some(LogicalType::Int32 | LogicalType::Int64)) => (8, LogicalType::Int64),
        (AggKind::Sum, Some(LogicalType::Float64)) => (8, LogicalType::Float64),
        (AggKind::Sum, Some(t)) => {
            return Err(Error::InvalidInput(format!("SUM over {t} not supported")))
        }
        (AggKind::Avg, Some(LogicalType::Int32 | LogicalType::Int64 | LogicalType::Float64)) => {
            (16, LogicalType::Float64)
        }
        (AggKind::Avg, Some(t)) => {
            return Err(Error::InvalidInput(format!("AVG over {t} not supported")))
        }
        (AggKind::Min | AggKind::Max, Some(LogicalType::Varchar)) => {
            // Updating a string state in place would break the row<->heap
            // line-up metadata the pointer recomputation relies on.
            return Err(Error::Unsupported(
                "MIN/MAX over VARCHAR (use ANY_VALUE or fixed-width keys; see DESIGN.md)".into(),
            ));
        }
        (AggKind::Min | AggKind::Max, Some(t)) => (16, t),
        (
            AggKind::VarSamp | AggKind::StdDevSamp,
            Some(LogicalType::Int32 | LogicalType::Int64 | LogicalType::Float64),
        ) => (24, LogicalType::Float64),
        (AggKind::VarSamp | AggKind::StdDevSamp, Some(t)) => {
            return Err(Error::InvalidInput(format!(
                "VAR/STDDEV over {t} not supported"
            )))
        }
        (AggKind::AnyValue, Some(t)) => (0, t),
        (k, None) => {
            return Err(Error::InvalidInput(format!(
                "{k:?} requires an argument column"
            )))
        }
    };
    Ok(BoundAggregate {
        spec,
        arg_type,
        state_size,
        output_type,
        kernels: crate::kernel::resolve(spec.kind, arg_type),
    })
}

// The semantic tests below drive the bound kernels through the safe
// `kernel::TestStates` harness: state 0 is the accumulator unless a test
// says otherwise.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TestStates;
    use rexa_exec::{Value, Vector};

    #[test]
    fn bind_rejects_bad_args() {
        let schema = [LogicalType::Int64, LogicalType::Varchar];
        assert!(bind_aggregate(AggregateSpec::sum(5), &schema).is_err());
        assert!(bind_aggregate(AggregateSpec::sum(1), &schema).is_err()); // string sum
        assert!(bind_aggregate(AggregateSpec::min(1), &schema).is_err()); // string min
        assert!(bind_aggregate(
            AggregateSpec {
                kind: AggKind::Sum,
                arg: None
            },
            &schema
        )
        .is_err());
        assert!(bind_aggregate(AggregateSpec::count_star(), &schema).is_ok());
        assert!(bind_aggregate(AggregateSpec::any_value(1), &schema).is_ok());
    }

    #[test]
    fn count_and_count_star() {
        let schema = [LogicalType::Int64];
        let star = bind_aggregate(AggregateSpec::count_star(), &schema).unwrap();
        let cnt = bind_aggregate(AggregateSpec::count(0), &schema).unwrap();
        let col = Vector::from_values(
            LogicalType::Int64,
            &[Value::Int64(1), Value::Null, Value::Int64(3)],
        )
        .unwrap();
        let mut s1 = TestStates::new(&star, 1);
        let mut s2 = TestStates::new(&cnt, 1);
        s1.update(&[0; 3], None);
        s2.update(&[0; 3], Some(&col));
        assert_eq!(s1.finalize(0), Value::Int64(3));
        assert_eq!(s2.finalize(0), Value::Int64(2));
    }

    #[test]
    fn sum_int_and_float() {
        let si = bind_aggregate(AggregateSpec::sum(0), &[LogicalType::Int32]).unwrap();
        assert_eq!(si.output_type, LogicalType::Int64);
        let mut s = TestStates::new(&si, 1);
        s.update(&[0; 3], Some(&Vector::from_i32(vec![1, 2, 3])));
        assert_eq!(s.finalize(0), Value::Int64(6));

        let sf = bind_aggregate(AggregateSpec::sum(0), &[LogicalType::Float64]).unwrap();
        let mut s = TestStates::new(&sf, 1);
        s.update(&[0; 2], Some(&Vector::from_f64(vec![0.5, 1.5])));
        assert_eq!(s.finalize(0), Value::Float64(2.0));
    }

    #[test]
    fn min_max_with_nulls_and_negatives() {
        let schema = [LogicalType::Int64];
        let mn = bind_aggregate(AggregateSpec::min(0), &schema).unwrap();
        let mx = bind_aggregate(AggregateSpec::max(0), &schema).unwrap();
        let col = Vector::from_values(
            LogicalType::Int64,
            &[Value::Null, Value::Int64(-5), Value::Int64(2), Value::Null],
        )
        .unwrap();
        let mut smn = TestStates::new(&mn, 1);
        let mut smx = TestStates::new(&mx, 1);
        smn.update(&[0; 4], Some(&col));
        smx.update(&[0; 4], Some(&col));
        assert_eq!(smn.finalize(0), Value::Int64(-5));
        assert_eq!(smx.finalize(0), Value::Int64(2));
    }

    #[test]
    fn min_all_null_is_null() {
        let mn = bind_aggregate(AggregateSpec::min(0), &[LogicalType::Int64]).unwrap();
        let col = Vector::from_values(LogicalType::Int64, &[Value::Null]).unwrap();
        let mut s = TestStates::new(&mn, 1);
        s.update(&[0], Some(&col));
        assert_eq!(s.finalize(0), Value::Null);
    }

    #[test]
    fn min_zero_is_a_real_value() {
        // Regression guard: zeroed state must not make 0 look like "seen 0".
        let mn = bind_aggregate(AggregateSpec::min(0), &[LogicalType::Int64]).unwrap();
        let mut s = TestStates::new(&mn, 1);
        s.update(&[0], Some(&Vector::from_i64(vec![5])));
        assert_eq!(s.finalize(0), Value::Int64(5));
    }

    #[test]
    fn avg_and_avg_of_nothing() {
        let avg = bind_aggregate(AggregateSpec::avg(0), &[LogicalType::Int32]).unwrap();
        // State 1 is never updated.
        let mut s = TestStates::new(&avg, 2);
        s.update(&[0; 3], Some(&Vector::from_i32(vec![1, 2, 4])));
        assert_eq!(s.finalize(0), Value::Float64(7.0 / 3.0));
        assert_eq!(s.finalize(1), Value::Null);
    }

    #[test]
    fn combine_merges_partial_states() {
        let schema = [LogicalType::Int64];
        for (spec, expect) in [
            (AggregateSpec::sum(0), Value::Int64(10)),
            (AggregateSpec::min(0), Value::Int64(1)),
            (AggregateSpec::max(0), Value::Int64(4)),
            (AggregateSpec::count(0), Value::Int64(4)),
        ] {
            let agg = bind_aggregate(spec, &schema).unwrap();
            let mut s = TestStates::new(&agg, 2);
            s.update(&[0, 0, 1, 1], Some(&Vector::from_i64(vec![1, 2, 3, 4])));
            s.combine(1, 0);
            assert_eq!(s.finalize(0), expect, "{spec:?}");
        }
    }

    #[test]
    fn combine_min_with_empty_src() {
        let agg = bind_aggregate(AggregateSpec::min(0), &[LogicalType::Int64]).unwrap();
        // State 1 is never updated; state 2 starts empty and adopts state 0.
        let mut s = TestStates::new(&agg, 3);
        s.update(&[0], Some(&Vector::from_i64(vec![3])));
        s.combine(1, 0);
        assert_eq!(s.finalize(0), Value::Int64(3));
        s.combine(0, 2);
        assert_eq!(s.finalize(2), Value::Int64(3));
    }

    #[test]
    fn min_max_date_output_type() {
        let agg = bind_aggregate(AggregateSpec::max(0), &[LogicalType::Date]).unwrap();
        assert_eq!(agg.output_type, LogicalType::Date);
        let mut s = TestStates::new(&agg, 1);
        s.update(&[0; 3], Some(&Vector::from_dates(vec![100, 300, 200])));
        assert_eq!(s.finalize(0), Value::Date(300));
    }

    #[test]
    fn float_min_handles_nan_total_order() {
        let agg = bind_aggregate(AggregateSpec::min(0), &[LogicalType::Float64]).unwrap();
        let mut s = TestStates::new(&agg, 1);
        s.update(&[0; 2], Some(&Vector::from_f64(vec![f64::NAN, 1.0])));
        assert_eq!(s.finalize(0), Value::Float64(1.0));
    }
}

#[cfg(test)]
mod variance_tests {
    use super::*;
    use crate::kernel::TestStates;
    use rexa_exec::{Value, Vector};

    #[test]
    fn variance_matches_two_pass() {
        let agg = bind_aggregate(AggregateSpec::var_samp(0), &[LogicalType::Float64]).unwrap();
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = TestStates::new(&agg, 1);
        s.update(&[0; 8], Some(&Vector::from_f64(vals.to_vec())));
        let Value::Float64(v) = s.finalize(0) else {
            panic!()
        };
        // Two-pass sample variance of this classic dataset is 32/7.
        assert!((v - 32.0 / 7.0).abs() < 1e-12, "{v}");
    }

    #[test]
    fn stddev_combine_equals_single_pass() {
        let agg = bind_aggregate(AggregateSpec::stddev_samp(0), &[LogicalType::Int64]).unwrap();
        let col = Vector::from_i64((0..1000).map(|i| (i * i) % 97).collect());
        // State 0 folds everything; states 1 and 2 split it at row 400 and
        // are then combined.
        let mut s = TestStates::new(&agg, 3);
        s.update(&[0; 1000], Some(&col));
        let split: Vec<usize> = (0..1000).map(|i| if i < 400 { 1 } else { 2 }).collect();
        s.update(&split, Some(&col));
        s.combine(2, 1);
        let Value::Float64(x) = s.finalize(0) else {
            panic!()
        };
        let Value::Float64(y) = s.finalize(1) else {
            panic!()
        };
        assert!((x - y).abs() < 1e-9, "{x} vs {y}");
    }

    #[test]
    fn variance_of_one_value_is_null() {
        let agg = bind_aggregate(AggregateSpec::var_samp(0), &[LogicalType::Int64]).unwrap();
        let mut s = TestStates::new(&agg, 1);
        s.update(&[0], Some(&Vector::from_i64(vec![42])));
        assert_eq!(s.finalize(0), Value::Null);
    }

    #[test]
    fn variance_rejects_strings_and_dates() {
        assert!(bind_aggregate(AggregateSpec::var_samp(0), &[LogicalType::Varchar]).is_err());
        assert!(bind_aggregate(AggregateSpec::stddev_samp(0), &[LogicalType::Date]).is_err());
    }

    #[test]
    fn combine_with_empty_side_is_identity() {
        let agg = bind_aggregate(AggregateSpec::var_samp(0), &[LogicalType::Int64]).unwrap();
        // State 1 stays empty; state 2 starts empty and adopts state 0.
        let mut s = TestStates::new(&agg, 3);
        s.update(&[0; 3], Some(&Vector::from_i64(vec![1, 2, 3])));
        let before = s.finalize(0);
        s.combine(1, 0);
        assert_eq!(s.finalize(0), before);
        s.combine(0, 2);
        assert_eq!(s.finalize(2), before);
    }
}
