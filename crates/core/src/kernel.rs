//! Monomorphized, selection-driven aggregate kernels: the one
//! implementation of the aggregate semantics.
//!
//! Interpreting an aggregate once per *row* — a `match` on `AggKind` plus a
//! `match` on the input's physical type for every input tuple — would
//! dominate aggregation throughput once the working set is cache-resident,
//! so each bound aggregate resolves to three function pointers **at bind
//! time** instead:
//!
//! * [`UpdateFn`] folds a whole chunk of input rows into their target
//!   states in one call (row `k` folds into `rows[k] + off`),
//! * [`CombineFn`] merges a batch of `(src, dst)` state pairs (phase 2),
//! * [`FinalizeFn`] materializes a batch of states directly into a
//!   [`Vector`], skipping per-row boxed [`rexa_exec::Value`]s.
//!
//! Each pointer is one monomorphized instantiation per (function × physical
//! input type), so the kind/type dispatch happens once per *column per
//! chunk*. Kernels with an argument column additionally branch once per call
//! on [`Validity::no_nulls`] to skip the per-row validity test on NULL-free
//! vectors (the common case).
//!
//! Every caller — the operator's hash and in-stream phase 1, its phase-2
//! combine and finalize, [`crate::ungrouped`] and the in-memory baseline —
//! goes through these kernels. Their independent oracle is
//! [`crate::simple`]: the unit tests here check each state against
//! `RefState`, and the differential tests check whole runs against
//! `reference_aggregate`.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::function::AggKind;
#[cfg(test)]
use crate::function::BoundAggregate;
use rexa_exec::vector::VectorData;
#[cfg(test)]
use rexa_exec::Value;
use rexa_exec::{LogicalType, Validity, Vector};

/// Vectorized update: fold input row `k` of `col` into the state at
/// `rows[k] + off`, for all `k`. The selection is implicitly the identity —
/// phase 1 resolves a target row for *every* input row, so passing a
/// selection (and prebuilt state pointers) would only add per-row
/// indirections to the hottest loop in the system. `col` is `None` only for
/// `COUNT(*)`.
///
/// # Safety
/// `rows.len()` must equal `col.len()` when a column is present; every
/// `rows[k] + off` must point to a writable, properly initialized state of
/// the aggregate this kernel was resolved for. Rows may repeat (several
/// input rows of one group in one chunk).
pub type UpdateFn = unsafe fn(rows: &[*mut u8], off: usize, col: Option<&Vector>);

/// Vectorized combine: merge state `src` into state `dst` for every
/// `(src, dst)` pair.
///
/// # Safety
/// Both pointers of every pair must address valid states of the resolved
/// aggregate; `src` and `dst` must not alias within a pair.
pub type CombineFn = unsafe fn(pairs: &[(*const u8, *mut u8)]);

/// Vectorized finalize: materialize one output row per state, directly as a
/// [`Vector`] of the aggregate's output type.
///
/// # Safety
/// Every pointer must address a valid state of the resolved aggregate.
pub type FinalizeFn = unsafe fn(states: &[*const u8]) -> Vector;

/// The three kernels of one bound aggregate, resolved at bind time.
///
/// Deliberately not `PartialEq`: function-pointer addresses are not unique
/// across codegen units. Two aggregates are interchangeable iff their
/// *binding* (spec, types) is equal — resolution is a pure function of that,
/// so `BoundAggregate`'s manual `PartialEq` ignores this field.
#[derive(Debug, Clone, Copy)]
pub struct AggKernels {
    /// Selection-vector update (phase 1 and phase 2 pointer-insertion).
    pub update: UpdateFn,
    /// Columnar state combine (phase 2 duplicate groups).
    pub combine: CombineFn,
    /// Vectorized finalize into an output [`Vector`].
    pub finalize: FinalizeFn,
}

// ---------------------------------------------------------------------------
// Unaligned state accessors (states live inside packed row layouts).
// ---------------------------------------------------------------------------

#[inline]
unsafe fn read_i64(p: *const u8) -> i64 {
    std::ptr::read_unaligned(p as *const i64)
}
#[inline]
unsafe fn write_i64(p: *mut u8, v: i64) {
    std::ptr::write_unaligned(p as *mut i64, v);
}
#[inline]
unsafe fn read_f64(p: *const u8) -> f64 {
    std::ptr::read_unaligned(p as *const f64)
}
#[inline]
unsafe fn write_f64(p: *mut u8, v: f64) {
    std::ptr::write_unaligned(p as *mut f64, v);
}

/// Min/Max state: `[u64 seen][8-byte value]`.
const MM_VALUE: usize = 8;

/// A fixed-width input column type a kernel can be monomorphized over.
trait FixedCol: Copy {
    fn slice(col: &Vector) -> &[Self];
    fn as_i64(self) -> i64;
    fn as_f64(self) -> f64;
}

impl FixedCol for i32 {
    #[inline]
    fn slice(col: &Vector) -> &[Self] {
        match col.data() {
            VectorData::I32(v) => v,
            _ => unreachable!("kernel resolved for i32 input"),
        }
    }
    #[inline]
    fn as_i64(self) -> i64 {
        self as i64
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl FixedCol for i64 {
    #[inline]
    fn slice(col: &Vector) -> &[Self] {
        match col.data() {
            VectorData::I64(v) => v,
            _ => unreachable!("kernel resolved for i64 input"),
        }
    }
    #[inline]
    fn as_i64(self) -> i64 {
        self
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl FixedCol for f64 {
    #[inline]
    fn slice(col: &Vector) -> &[Self] {
        match col.data() {
            VectorData::F64(v) => v,
            _ => unreachable!("kernel resolved for f64 input"),
        }
    }
    #[inline]
    fn as_i64(self) -> i64 {
        unreachable!("float input never folds into an integer state")
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self
    }
}

// ---------------------------------------------------------------------------
// Update kernels.
// ---------------------------------------------------------------------------

/// Run `$body(row)` for every input row (identity selection), with a
/// validity-free fast path when the input column has no NULLs. No software
/// prefetch here: by update time the probe's compare pass has already pulled
/// every target row into cache, so a prefetch is pure per-row overhead.
macro_rules! for_valid {
    ($rows:ident, $col:ident, |$row:ident| $body:expr) => {{
        debug_assert_eq!($rows.len(), $col.len());
        let validity = $col.validity();
        if validity.no_nulls() {
            for $row in 0..$rows.len() {
                $body
            }
        } else {
            for $row in 0..$rows.len() {
                if validity.is_valid($row) {
                    $body
                }
            }
        }
    }};
}

unsafe fn update_count_star(rows: &[*mut u8], off: usize, _col: Option<&Vector>) {
    for &r in rows {
        let s = r.add(off);
        write_i64(s, read_i64(s) + 1);
    }
}

unsafe fn update_count(rows: &[*mut u8], off: usize, col: Option<&Vector>) {
    let col = col.unwrap();
    for_valid!(rows, col, |row| {
        let s = rows[row].add(off);
        write_i64(s, read_i64(s) + 1);
    });
}

unsafe fn update_sum_int<T: FixedCol>(rows: &[*mut u8], off: usize, col: Option<&Vector>) {
    let col = col.unwrap();
    let vals = T::slice(col);
    for_valid!(rows, col, |row| {
        let s = rows[row].add(off);
        write_i64(s, read_i64(s).wrapping_add(vals[row].as_i64()));
    });
}

unsafe fn update_sum_f64(rows: &[*mut u8], off: usize, col: Option<&Vector>) {
    let col = col.unwrap();
    let vals = f64::slice(col);
    for_valid!(rows, col, |row| {
        let s = rows[row].add(off);
        write_f64(s, read_f64(s) + vals[row]);
    });
}

unsafe fn update_avg<T: FixedCol>(rows: &[*mut u8], off: usize, col: Option<&Vector>) {
    let col = col.unwrap();
    let vals = T::slice(col);
    for_valid!(rows, col, |row| {
        let s = rows[row].add(off);
        write_f64(s, read_f64(s) + vals[row].as_f64());
        write_i64(s.add(8), read_i64(s.add(8)) + 1);
    });
}

unsafe fn update_minmax_int<T: FixedCol, const MIN: bool>(
    rows: &[*mut u8],
    off: usize,
    col: Option<&Vector>,
) {
    let col = col.unwrap();
    let vals = T::slice(col);
    for_valid!(rows, col, |row| {
        let s = rows[row].add(off);
        let v = vals[row].as_i64();
        let seen = read_i64(s) != 0;
        let cur = read_i64(s.add(MM_VALUE));
        if !seen || (MIN && v < cur) || (!MIN && v > cur) {
            write_i64(s.add(MM_VALUE), v);
        }
        write_i64(s, 1);
    });
}

unsafe fn update_minmax_f64<const MIN: bool>(rows: &[*mut u8], off: usize, col: Option<&Vector>) {
    let col = col.unwrap();
    let vals = f64::slice(col);
    for_valid!(rows, col, |row| {
        let s = rows[row].add(off);
        let v = vals[row];
        let seen = read_i64(s) != 0;
        let cur = read_f64(s.add(MM_VALUE));
        if !seen || (MIN && v.total_cmp(&cur).is_lt()) || (!MIN && v.total_cmp(&cur).is_gt()) {
            write_f64(s.add(MM_VALUE), v);
        }
        write_i64(s, 1);
    });
}

unsafe fn update_welford<T: FixedCol>(rows: &[*mut u8], off: usize, col: Option<&Vector>) {
    let col = col.unwrap();
    let vals = T::slice(col);
    for_valid!(rows, col, |row| {
        let s = rows[row].add(off);
        let x = vals[row].as_f64();
        let n = read_i64(s) + 1;
        let mean = read_f64(s.add(8));
        let m2 = read_f64(s.add(16));
        let delta = x - mean;
        let mean2 = mean + delta / n as f64;
        write_i64(s, n);
        write_f64(s.add(8), mean2);
        write_f64(s.add(16), m2 + delta * (x - mean2));
    });
}

unsafe fn update_any_value(_rows: &[*mut u8], _off: usize, _col: Option<&Vector>) {
    unreachable!("ANY_VALUE has no state; its payload column is write-once");
}

// ---------------------------------------------------------------------------
// Combine kernels.
// ---------------------------------------------------------------------------

unsafe fn combine_add_i64(pairs: &[(*const u8, *mut u8)]) {
    for &(src, dst) in pairs {
        write_i64(dst, read_i64(dst) + read_i64(src));
    }
}

unsafe fn combine_sum_int(pairs: &[(*const u8, *mut u8)]) {
    for &(src, dst) in pairs {
        write_i64(dst, read_i64(dst).wrapping_add(read_i64(src)));
    }
}

unsafe fn combine_add_f64(pairs: &[(*const u8, *mut u8)]) {
    for &(src, dst) in pairs {
        write_f64(dst, read_f64(dst) + read_f64(src));
    }
}

unsafe fn combine_avg(pairs: &[(*const u8, *mut u8)]) {
    for &(src, dst) in pairs {
        write_f64(dst, read_f64(dst) + read_f64(src));
        write_i64(dst.add(8), read_i64(dst.add(8)) + read_i64(src.add(8)));
    }
}

unsafe fn combine_minmax_int<const MIN: bool>(pairs: &[(*const u8, *mut u8)]) {
    for &(src, dst) in pairs {
        if read_i64(src) == 0 {
            continue; // src never saw a value
        }
        let dst_seen = read_i64(dst) != 0;
        let sv = read_i64(src.add(MM_VALUE));
        let dv = read_i64(dst.add(MM_VALUE));
        if !dst_seen || (MIN && sv < dv) || (!MIN && sv > dv) {
            write_i64(dst.add(MM_VALUE), sv);
        }
        write_i64(dst, 1);
    }
}

unsafe fn combine_minmax_f64<const MIN: bool>(pairs: &[(*const u8, *mut u8)]) {
    for &(src, dst) in pairs {
        if read_i64(src) == 0 {
            continue;
        }
        let dst_seen = read_i64(dst) != 0;
        let sv = read_f64(src.add(MM_VALUE));
        let dv = read_f64(dst.add(MM_VALUE));
        if !dst_seen || (MIN && sv.total_cmp(&dv).is_lt()) || (!MIN && sv.total_cmp(&dv).is_gt()) {
            write_f64(dst.add(MM_VALUE), sv);
        }
        write_i64(dst, 1);
    }
}

unsafe fn combine_welford(pairs: &[(*const u8, *mut u8)]) {
    for &(src, dst) in pairs {
        let nb = read_i64(src);
        if nb == 0 {
            continue;
        }
        let na = read_i64(dst);
        let (ma, m2a) = (read_f64(dst.add(8)), read_f64(dst.add(16)));
        let (mb, m2b) = (read_f64(src.add(8)), read_f64(src.add(16)));
        let n = na + nb;
        let delta = mb - ma;
        let mean = ma + delta * nb as f64 / n as f64;
        let m2 = m2a + m2b + delta * delta * na as f64 * nb as f64 / n as f64;
        write_i64(dst, n);
        write_f64(dst.add(8), mean);
        write_f64(dst.add(16), m2);
    }
}

unsafe fn combine_any_value(_pairs: &[(*const u8, *mut u8)]) {
    unreachable!("ANY_VALUE has no state; its payload column is write-once");
}

// ---------------------------------------------------------------------------
// Finalize kernels.
// ---------------------------------------------------------------------------

unsafe fn finalize_i64(states: &[*const u8]) -> Vector {
    let vals: Vec<i64> = states.iter().map(|&s| read_i64(s)).collect();
    let n = vals.len();
    Vector::from_i64_validity(vals, Validity::all_valid(n))
}

unsafe fn finalize_sum_f64(states: &[*const u8]) -> Vector {
    let vals: Vec<f64> = states.iter().map(|&s| read_f64(s)).collect();
    let n = vals.len();
    Vector::from_f64_validity(vals, Validity::all_valid(n))
}

unsafe fn finalize_avg(states: &[*const u8]) -> Vector {
    let mut vals = Vec::with_capacity(states.len());
    let mut validity = Validity::all_valid(0);
    for &s in states {
        let count = read_i64(s.add(8));
        if count == 0 {
            vals.push(0.0);
            validity.push(false);
        } else {
            vals.push(read_f64(s) / count as f64);
            validity.push(true);
        }
    }
    Vector::from_f64_validity(vals, validity)
}

/// Shared shape of the Min/Max finalizers: the state is NULL unless its
/// `seen` flag is set.
macro_rules! finalize_minmax {
    ($name:ident, $elem:ty, $read:ident, $valoff:expr, $ctor:ident, $map:expr) => {
        unsafe fn $name(states: &[*const u8]) -> Vector {
            let mut vals: Vec<$elem> = Vec::with_capacity(states.len());
            let mut validity = Validity::all_valid(0);
            for &s in states {
                if read_i64(s) == 0 {
                    vals.push(Default::default());
                    validity.push(false);
                } else {
                    #[allow(clippy::redundant_closure_call)]
                    vals.push(($map)($read(s.add($valoff))));
                    validity.push(true);
                }
            }
            Vector::$ctor(vals, validity)
        }
    };
}

finalize_minmax!(
    finalize_minmax_i64,
    i64,
    read_i64,
    MM_VALUE,
    from_i64_validity,
    |v| v
);
finalize_minmax!(
    finalize_minmax_i32,
    i32,
    read_i64,
    MM_VALUE,
    from_i32_validity,
    |v| v as i32
);
finalize_minmax!(
    finalize_minmax_date,
    i32,
    read_i64,
    MM_VALUE,
    from_dates_validity,
    |v| v as i32
);
finalize_minmax!(
    finalize_minmax_f64,
    f64,
    read_f64,
    MM_VALUE,
    from_f64_validity,
    |v| v
);

unsafe fn finalize_welford<const STDDEV: bool>(states: &[*const u8]) -> Vector {
    let mut vals = Vec::with_capacity(states.len());
    let mut validity = Validity::all_valid(0);
    for &s in states {
        let n = read_i64(s);
        if n < 2 {
            vals.push(0.0);
            validity.push(false);
        } else {
            let var = read_f64(s.add(16)) / (n - 1) as f64;
            vals.push(if STDDEV { var.sqrt() } else { var });
            validity.push(true);
        }
    }
    Vector::from_f64_validity(vals, validity)
}

unsafe fn finalize_any_value(_states: &[*const u8]) -> Vector {
    unreachable!("ANY_VALUE has no state; its payload column is gathered directly");
}

// ---------------------------------------------------------------------------
// Resolution.
// ---------------------------------------------------------------------------

/// Resolve the monomorphized kernels of a validated aggregate. Called from
/// `bind_aggregate` after type checking, so every reachable combination is
/// covered; anything else is a bind-layer bug.
pub fn resolve(kind: AggKind, arg_type: Option<LogicalType>) -> AggKernels {
    use LogicalType as T;
    let (update, combine, finalize): (UpdateFn, CombineFn, FinalizeFn) = match (kind, arg_type) {
        (AggKind::CountStar, _) => (update_count_star, combine_add_i64, finalize_i64),
        (AggKind::Count, _) => (update_count, combine_add_i64, finalize_i64),
        (AggKind::Sum, Some(T::Int32)) => (update_sum_int::<i32>, combine_sum_int, finalize_i64),
        (AggKind::Sum, Some(T::Int64)) => (update_sum_int::<i64>, combine_sum_int, finalize_i64),
        (AggKind::Sum, Some(T::Float64)) => (update_sum_f64, combine_add_f64, finalize_sum_f64),
        (AggKind::Avg, Some(T::Int32)) => (update_avg::<i32>, combine_avg, finalize_avg),
        (AggKind::Avg, Some(T::Int64)) => (update_avg::<i64>, combine_avg, finalize_avg),
        (AggKind::Avg, Some(T::Float64)) => (update_avg::<f64>, combine_avg, finalize_avg),
        (AggKind::Min, Some(t @ (T::Int32 | T::Int64 | T::Date))) => (
            match t {
                T::Int32 | T::Date => update_minmax_int::<i32, true>,
                _ => update_minmax_int::<i64, true>,
            },
            combine_minmax_int::<true>,
            match t {
                T::Int32 => finalize_minmax_i32,
                T::Date => finalize_minmax_date,
                _ => finalize_minmax_i64,
            },
        ),
        (AggKind::Max, Some(t @ (T::Int32 | T::Int64 | T::Date))) => (
            match t {
                T::Int32 | T::Date => update_minmax_int::<i32, false>,
                _ => update_minmax_int::<i64, false>,
            },
            combine_minmax_int::<false>,
            match t {
                T::Int32 => finalize_minmax_i32,
                T::Date => finalize_minmax_date,
                _ => finalize_minmax_i64,
            },
        ),
        (AggKind::Min, Some(T::Float64)) => (
            update_minmax_f64::<true>,
            combine_minmax_f64::<true>,
            finalize_minmax_f64,
        ),
        (AggKind::Max, Some(T::Float64)) => (
            update_minmax_f64::<false>,
            combine_minmax_f64::<false>,
            finalize_minmax_f64,
        ),
        (AggKind::VarSamp, Some(T::Int32)) => (
            update_welford::<i32>,
            combine_welford,
            finalize_welford::<false>,
        ),
        (AggKind::VarSamp, Some(T::Int64)) => (
            update_welford::<i64>,
            combine_welford,
            finalize_welford::<false>,
        ),
        (AggKind::VarSamp, Some(T::Float64)) => (
            update_welford::<f64>,
            combine_welford,
            finalize_welford::<false>,
        ),
        (AggKind::StdDevSamp, Some(T::Int32)) => (
            update_welford::<i32>,
            combine_welford,
            finalize_welford::<true>,
        ),
        (AggKind::StdDevSamp, Some(T::Int64)) => (
            update_welford::<i64>,
            combine_welford,
            finalize_welford::<true>,
        ),
        (AggKind::StdDevSamp, Some(T::Float64)) => (
            update_welford::<f64>,
            combine_welford,
            finalize_welford::<true>,
        ),
        (AggKind::AnyValue, _) => (update_any_value, combine_any_value, finalize_any_value),
        (k, t) => unreachable!("bind accepted {k:?} over {t:?} but no kernel exists"),
    };
    AggKernels {
        update,
        combine,
        finalize,
    }
}

/// A safe harness over one bound aggregate's kernels for unit tests: a set
/// of zeroed states, updates that fan input rows out over them, pairwise
/// combine, and finalize. Every bounds and aliasing condition the kernels
/// rely on is checked here, so the tests themselves need no `unsafe`.
#[cfg(test)]
pub(crate) struct TestStates<'a> {
    agg: &'a BoundAggregate,
    states: Vec<Vec<u8>>,
}

#[cfg(test)]
impl<'a> TestStates<'a> {
    /// `count` zeroed states of `agg` (which must have a state).
    pub(crate) fn new(agg: &'a BoundAggregate, count: usize) -> Self {
        assert!(agg.state_size > 0, "{:?} has no state", agg.spec);
        TestStates {
            agg,
            states: vec![vec![0u8; agg.state_size]; count],
        }
    }

    /// Fold input row `k` of `col` into state `targets[k]`, for every `k`.
    pub(crate) fn update(&mut self, targets: &[usize], col: Option<&Vector>) {
        assert_eq!(col.is_some(), self.agg.spec.arg.is_some());
        if let Some(col) = col {
            assert_eq!(col.len(), targets.len());
        }
        let rows: Vec<*mut u8> = targets
            .iter()
            .map(|&t| self.states[t].as_mut_ptr())
            .collect();
        // SAFETY: one pointer per input row, each to a live state of this
        // aggregate (zero-initialized, changed only by its kernels).
        unsafe { (self.agg.kernels.update)(&rows, 0, col) };
    }

    /// Merge state `src` into state `dst`.
    pub(crate) fn combine(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst);
        let src = self.states[src].as_ptr();
        let dst = self.states[dst].as_mut_ptr();
        // SAFETY: two distinct live states of this aggregate.
        unsafe { (self.agg.kernels.combine)(&[(src, dst)]) };
    }

    /// The final value of state `i`.
    pub(crate) fn finalize(&self, i: usize) -> Value {
        // SAFETY: a live state of this aggregate.
        let out = unsafe { (self.agg.kernels.finalize)(&[self.states[i].as_ptr()]) };
        assert_eq!(out.logical_type(), self.agg.output_type);
        out.value(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{bind_aggregate, AggregateSpec};
    use crate::simple::RefState;

    /// Every bindable (spec, input type) combination with a state.
    fn all_stateful() -> Vec<(AggregateSpec, LogicalType)> {
        let mut out = Vec::new();
        for ty in [
            LogicalType::Int32,
            LogicalType::Int64,
            LogicalType::Float64,
            LogicalType::Date,
        ] {
            for spec in [
                AggregateSpec::count_star(),
                AggregateSpec::count(0),
                AggregateSpec::sum(0),
                AggregateSpec::min(0),
                AggregateSpec::max(0),
                AggregateSpec::avg(0),
                AggregateSpec::var_samp(0),
                AggregateSpec::stddev_samp(0),
            ] {
                if bind_aggregate(spec, &[ty]).is_ok() {
                    out.push((spec, ty));
                }
            }
        }
        out
    }

    /// A deterministic input column with NULLs, duplicates, negatives, and
    /// (for floats) NaN and -0.0.
    fn test_column(ty: LogicalType, rows: usize) -> Vector {
        let vals: Vec<Value> = (0..rows)
            .map(|i| {
                if i % 5 == 3 {
                    return Value::Null;
                }
                let v = ((i as i64 * 37) % 23) - 11;
                match ty {
                    LogicalType::Int32 => Value::Int32(v as i32),
                    LogicalType::Int64 => Value::Int64(v),
                    LogicalType::Date => Value::Date(v as i32),
                    LogicalType::Float64 => {
                        if i % 11 == 7 {
                            Value::Float64(f64::NAN)
                        } else if i % 13 == 1 {
                            Value::Float64(-0.0)
                        } else {
                            Value::Float64(v as f64 / 3.0)
                        }
                    }
                    LogicalType::Varchar => unreachable!(),
                }
            })
            .collect();
        Vector::from_values(ty, &vals).unwrap()
    }

    /// The oracle's states for `targets` (row `k` folds into state
    /// `targets[k]`), mirroring [`TestStates::update`].
    fn reference_states(
        spec: AggregateSpec,
        ty: LogicalType,
        count: usize,
        targets: &[usize],
        col: Option<&Vector>,
    ) -> Vec<RefState> {
        let mut states = vec![RefState::new(spec.kind, spec.arg.map(|_| ty)); count];
        for (row, &t) in targets.iter().enumerate() {
            states[t].update(spec.kind, col.map(|c| c.value(row)).as_ref());
        }
        states
    }

    /// Kernel result vs oracle result. Bit-identical, except where the two
    /// legitimately compute differently: Welford vs two-pass variance, and
    /// float sums after `combine` re-associated them (`exact == false`).
    fn assert_agrees(kernel: &Value, oracle: &Value, exact: bool, what: &str) {
        match (kernel, oracle) {
            (Value::Float64(a), Value::Float64(b)) if !exact => assert!(
                (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                "{what}: {a} vs {b}"
            ),
            _ => assert!(
                kernel.total_cmp(oracle).is_eq(),
                "{what}: {kernel:?} vs {oracle:?}"
            ),
        }
    }

    fn is_welford(spec: AggregateSpec) -> bool {
        matches!(spec.kind, AggKind::VarSamp | AggKind::StdDevSamp)
    }

    /// Update, combine and finalize through the kernels must agree with the
    /// reference states of `simple::RefState` for every aggregate, with
    /// rows fanned out over several states.
    #[test]
    fn kernels_match_reference_states_bitwise() {
        const ROWS: usize = 257;
        const GROUPS: usize = 7;
        for (spec, ty) in all_stateful() {
            let agg = bind_aggregate(spec, &[ty]).unwrap();
            let col = test_column(ty, ROWS);
            let arg = spec.arg.map(|_| &col);
            let targets: Vec<usize> = (0..ROWS).map(|row| row % GROUPS).collect();

            // Per-state update: each state folds its rows in input order on
            // both sides, so everything but Welford is bit-identical.
            let mut states = TestStates::new(&agg, GROUPS);
            states.update(&targets, arg);
            let oracle = reference_states(spec, ty, GROUPS, &targets, arg);
            for (g, want) in oracle.into_iter().enumerate() {
                let what = format!("update: {spec:?} over {ty}, state {g}");
                assert_agrees(
                    &states.finalize(g),
                    &want.finalize(),
                    !is_welford(spec),
                    &what,
                );
            }

            // Combine everything into state 0; the oracle folds all rows
            // into one state.
            for g in 1..GROUPS {
                states.combine(g, 0);
            }
            let whole = reference_states(spec, ty, 1, &vec![0; ROWS], arg);
            let reassociated = agg.output_type == LogicalType::Float64
                && matches!(spec.kind, AggKind::Sum | AggKind::Avg);
            let what = format!("combine: {spec:?} over {ty}");
            let exact = !is_welford(spec) && !reassociated;
            let want = whole.into_iter().next().unwrap().finalize();
            assert_agrees(&states.finalize(0), &want, exact, &what);
        }
    }

    /// An all-NULL input column must leave states empty and finalize to the
    /// oracle's (mostly NULL) outputs.
    #[test]
    fn kernels_match_oracle_on_all_null_input() {
        for (spec, ty) in all_stateful() {
            if spec.arg.is_none() {
                continue;
            }
            let agg = bind_aggregate(spec, &[ty]).unwrap();
            let col = Vector::from_values(ty, &vec![Value::Null; 9]).unwrap();
            let mut states = TestStates::new(&agg, 1);
            states.update(&[0; 9], Some(&col));
            let want = reference_states(spec, ty, 1, &[0; 9], Some(&col));
            let want = want.into_iter().next().unwrap().finalize();
            assert_agrees(
                &states.finalize(0),
                &want,
                true,
                &format!("{spec:?} over {ty}"),
            );
        }
    }

    /// Binding the same aggregate twice yields equal `BoundAggregate`s
    /// (kernel resolution is a pure function of the binding, so equality
    /// deliberately ignores the function pointers).
    #[test]
    fn resolution_is_deterministic() {
        for (spec, ty) in all_stateful() {
            let a = bind_aggregate(spec, &[ty]).unwrap();
            let b = bind_aggregate(spec, &[ty]).unwrap();
            assert_eq!(a, b, "{spec:?} over {ty}");
        }
    }
}
