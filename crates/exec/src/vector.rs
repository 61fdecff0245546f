//! Column vectors: the unit of vectorized data flow.

use crate::error::{Error, Result};
use crate::types::LogicalType;
use crate::validity::Validity;
use crate::value::Value;

/// Compact storage for a vector of strings: concatenated bytes plus
/// `n + 1` offsets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StrVec {
    offsets: Vec<u32>,
    bytes: Vec<u8>,
}

impl StrVec {
    /// An empty string vector.
    pub fn new() -> Self {
        StrVec {
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if there are no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a string.
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(
            u32::try_from(self.bytes.len()).expect("string vector exceeds 4 GiB of character data"),
        );
    }

    /// The string at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        // SAFETY: `bytes` and `offsets` are private and only `push(&str)`
        // appends to them, one whole `&str` per offset, so every offset
        // range is valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[start..end]) }
    }

    /// Overwrite `self` with strings `sel` of `src`, reserving the character
    /// data once and reusing `self`'s allocations.
    fn assign_gather(&mut self, src: &StrVec, sel: &[u32]) {
        let span = |r: u32| src.offsets[r as usize] as usize..src.offsets[r as usize + 1] as usize;
        self.offsets.clear();
        self.offsets.reserve(sel.len() + 1);
        self.offsets.push(0);
        self.bytes.clear();
        self.bytes
            .reserve(sel.iter().map(|&r| span(r).len()).sum::<usize>());
        for &r in sel {
            // Whole strings of `src` are copied, so every offset range stays
            // valid UTF-8.
            self.bytes.extend_from_slice(&src.bytes[span(r)]);
            self.offsets.push(
                u32::try_from(self.bytes.len())
                    .expect("string vector exceeds 4 GiB of character data"),
            );
        }
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrVec {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut v = StrVec::new();
        for s in iter {
            v.push(s.as_ref());
        }
        v
    }
}

/// Physical storage of a [`Vector`].
#[derive(Debug, Clone, PartialEq)]
pub enum VectorData {
    /// 32-bit integers (also backs [`LogicalType::Date`]).
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Strings.
    Str(StrVec),
}

impl VectorData {
    fn len(&self) -> usize {
        match self {
            VectorData::I32(v) => v.len(),
            VectorData::I64(v) => v.len(),
            VectorData::F64(v) => v.len(),
            VectorData::Str(v) => v.len(),
        }
    }

    fn empty_for(ty: LogicalType) -> Self {
        match ty {
            LogicalType::Int32 | LogicalType::Date => VectorData::I32(Vec::new()),
            LogicalType::Int64 => VectorData::I64(Vec::new()),
            LogicalType::Float64 => VectorData::F64(Vec::new()),
            LogicalType::Varchar => VectorData::Str(StrVec::new()),
        }
    }
}

/// A typed column of up to [`crate::VECTOR_SIZE`] values with a validity mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    ty: LogicalType,
    data: VectorData,
    validity: Validity,
}

impl Vector {
    /// An empty vector of the given type.
    pub fn empty(ty: LogicalType) -> Self {
        Vector {
            ty,
            data: VectorData::empty_for(ty),
            validity: Validity::all_valid(0),
        }
    }

    /// Build from 32-bit integers, no NULLs.
    pub fn from_i32(vals: Vec<i32>) -> Self {
        let validity = Validity::all_valid(vals.len());
        Vector {
            ty: LogicalType::Int32,
            data: VectorData::I32(vals),
            validity,
        }
    }

    /// Build a date vector (days since epoch), no NULLs.
    pub fn from_dates(vals: Vec<i32>) -> Self {
        let validity = Validity::all_valid(vals.len());
        Vector {
            ty: LogicalType::Date,
            data: VectorData::I32(vals),
            validity,
        }
    }

    /// Build from 64-bit integers, no NULLs.
    pub fn from_i64(vals: Vec<i64>) -> Self {
        let validity = Validity::all_valid(vals.len());
        Vector {
            ty: LogicalType::Int64,
            data: VectorData::I64(vals),
            validity,
        }
    }

    /// Build from 64-bit floats, no NULLs.
    pub fn from_f64(vals: Vec<f64>) -> Self {
        let validity = Validity::all_valid(vals.len());
        Vector {
            ty: LogicalType::Float64,
            data: VectorData::F64(vals),
            validity,
        }
    }

    /// Build from strings, no NULLs.
    pub fn from_strs<S: AsRef<str>>(vals: impl IntoIterator<Item = S>) -> Self {
        let data: StrVec = vals.into_iter().collect();
        let validity = Validity::all_valid(data.len());
        Vector {
            ty: LogicalType::Varchar,
            data: VectorData::Str(data),
            validity,
        }
    }

    /// Build from 32-bit integers with an explicit validity mask (vectorized
    /// kernel output; invalid rows carry an arbitrary placeholder value).
    pub fn from_i32_validity(vals: Vec<i32>, validity: Validity) -> Self {
        assert_eq!(vals.len(), validity.len());
        Vector {
            ty: LogicalType::Int32,
            data: VectorData::I32(vals),
            validity,
        }
    }

    /// Build a date vector with an explicit validity mask.
    pub fn from_dates_validity(vals: Vec<i32>, validity: Validity) -> Self {
        assert_eq!(vals.len(), validity.len());
        Vector {
            ty: LogicalType::Date,
            data: VectorData::I32(vals),
            validity,
        }
    }

    /// Build from 64-bit integers with an explicit validity mask.
    pub fn from_i64_validity(vals: Vec<i64>, validity: Validity) -> Self {
        assert_eq!(vals.len(), validity.len());
        Vector {
            ty: LogicalType::Int64,
            data: VectorData::I64(vals),
            validity,
        }
    }

    /// Build from 64-bit floats with an explicit validity mask.
    pub fn from_f64_validity(vals: Vec<f64>, validity: Validity) -> Self {
        assert_eq!(vals.len(), validity.len());
        Vector {
            ty: LogicalType::Float64,
            data: VectorData::F64(vals),
            validity,
        }
    }

    /// Build from owned [`Value`]s of a declared type; `Value::Null` entries
    /// become NULLs.
    pub fn from_values(ty: LogicalType, vals: &[Value]) -> Result<Self> {
        let mut v = Vector::empty(ty);
        for val in vals {
            v.push_value(val)?;
        }
        Ok(v)
    }

    /// The logical type of this vector.
    pub fn logical_type(&self) -> LogicalType {
        self.ty
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw physical storage (used by vectorized kernels like hashing).
    #[inline]
    pub fn data(&self) -> &VectorData {
        &self.data
    }

    /// The validity mask.
    pub fn validity(&self) -> &Validity {
        &self.validity
    }

    /// Mutable access to the validity mask.
    pub fn validity_mut(&mut self) -> &mut Validity {
        &mut self.validity
    }

    /// The underlying 32-bit integer slice. Panics on type mismatch.
    #[inline]
    pub fn i32s(&self) -> &[i32] {
        match &self.data {
            VectorData::I32(v) => v,
            _ => panic!("vector is {}, not int32/date", self.ty),
        }
    }

    /// The underlying 64-bit integer slice. Panics on type mismatch.
    #[inline]
    pub fn i64s(&self) -> &[i64] {
        match &self.data {
            VectorData::I64(v) => v,
            _ => panic!("vector is {}, not int64", self.ty),
        }
    }

    /// The underlying float slice. Panics on type mismatch.
    #[inline]
    pub fn f64s(&self) -> &[f64] {
        match &self.data {
            VectorData::F64(v) => v,
            _ => panic!("vector is {}, not float64", self.ty),
        }
    }

    /// The string at row `i`. Panics on type mismatch.
    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        match &self.data {
            VectorData::Str(v) => v.get(i),
            _ => panic!("vector is {}, not varchar", self.ty),
        }
    }

    /// The string storage. Panics on type mismatch.
    pub fn strs(&self) -> &StrVec {
        match &self.data {
            VectorData::Str(v) => v,
            _ => panic!("vector is {}, not varchar", self.ty),
        }
    }

    /// The owned value at row `i` (NULL-aware). For tests and result
    /// extraction; not used on hot paths.
    pub fn value(&self, i: usize) -> Value {
        if !self.validity.is_valid(i) {
            return Value::Null;
        }
        match (&self.data, self.ty) {
            (VectorData::I32(v), LogicalType::Date) => Value::Date(v[i]),
            (VectorData::I32(v), _) => Value::Int32(v[i]),
            (VectorData::I64(v), _) => Value::Int64(v[i]),
            (VectorData::F64(v), _) => Value::Float64(v[i]),
            (VectorData::Str(v), _) => Value::Varchar(v.get(i).to_string()),
        }
    }

    /// A copy of rows `[start, start + count)` as a new vector.
    pub fn slice(&self, start: usize, count: usize) -> Vector {
        assert!(start + count <= self.len());
        let data = match &self.data {
            VectorData::I32(v) => VectorData::I32(v[start..start + count].to_vec()),
            VectorData::I64(v) => VectorData::I64(v[start..start + count].to_vec()),
            VectorData::F64(v) => VectorData::F64(v[start..start + count].to_vec()),
            VectorData::Str(v) => {
                let mut s = StrVec::new();
                for i in start..start + count {
                    s.push(v.get(i));
                }
                VectorData::Str(s)
            }
        };
        let mut validity = Validity::all_valid(0);
        for i in start..start + count {
            validity.push(self.validity.is_valid(i));
        }
        Vector {
            ty: self.ty,
            data,
            validity,
        }
    }

    /// Rows `sel` of this vector, in `sel` order, as a new vector.
    pub fn gather(&self, sel: &[u32]) -> Vector {
        let mut out = Vector::empty(self.ty);
        out.assign_gather(self, sel);
        out
    }

    /// Overwrite `self` with rows `sel` of `src`, in `sel` order, taking
    /// `src`'s type and reusing `self`'s buffers when the physical types
    /// agree: a reader gathering every chunk into the same vector allocates
    /// only until its buffers reach chunk size.
    pub fn assign_gather(&mut self, src: &Vector, sel: &[u32]) {
        fn fill<T: Copy>(out: &mut Vec<T>, src: &[T], sel: &[u32]) {
            out.clear();
            out.extend(sel.iter().map(|&r| src[r as usize]));
        }
        match (&mut self.data, &src.data) {
            (VectorData::I32(out), VectorData::I32(v)) => fill(out, v, sel),
            (VectorData::I64(out), VectorData::I64(v)) => fill(out, v, sel),
            (VectorData::F64(out), VectorData::F64(v)) => fill(out, v, sel),
            (VectorData::Str(out), VectorData::Str(v)) => out.assign_gather(v, sel),
            (data, _) => {
                *data = VectorData::empty_for(src.ty);
                return self.assign_gather(src, sel);
            }
        }
        self.ty = src.ty;
        self.validity = src.validity.gather(sel);
    }

    /// Append an owned value, which must match the vector's type or be NULL.
    pub fn push_value(&mut self, val: &Value) -> Result<()> {
        match (val, &mut self.data) {
            (Value::Null, data) => {
                // Push a zero of the right physical type, marked invalid.
                match data {
                    VectorData::I32(v) => v.push(0),
                    VectorData::I64(v) => v.push(0),
                    VectorData::F64(v) => v.push(0.0),
                    VectorData::Str(v) => v.push(""),
                }
                self.validity.push(false);
                return Ok(());
            }
            (Value::Int32(x), VectorData::I32(v)) if self.ty == LogicalType::Int32 => v.push(*x),
            (Value::Date(x), VectorData::I32(v)) if self.ty == LogicalType::Date => v.push(*x),
            (Value::Int64(x), VectorData::I64(v)) => v.push(*x),
            (Value::Float64(x), VectorData::F64(v)) => v.push(*x),
            (Value::Varchar(x), VectorData::Str(v)) => v.push(x),
            _ => {
                return Err(Error::InvalidInput(format!(
                    "cannot push {:?} into a {} vector",
                    val.logical_type(),
                    self.ty
                )))
            }
        }
        self.validity.push(true);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_round_trip() {
        let v = Vector::from_i64(vec![1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.i64s(), &[1, 2, 3]);
        assert_eq!(v.value(1), Value::Int64(2));
        assert_eq!(v.logical_type(), LogicalType::Int64);
    }

    #[test]
    fn date_is_i32_backed() {
        let v = Vector::from_dates(vec![10, 20]);
        assert_eq!(v.logical_type(), LogicalType::Date);
        assert_eq!(v.i32s(), &[10, 20]);
        assert_eq!(v.value(0), Value::Date(10));
    }

    #[test]
    fn strings() {
        let v = Vector::from_strs(["a", "", "long string that is not inlined anywhere"]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.str_at(0), "a");
        assert_eq!(v.str_at(1), "");
        assert_eq!(v.str_at(2), "long string that is not inlined anywhere");
    }

    #[test]
    fn nulls_via_values() {
        let vals = vec![Value::Int64(1), Value::Null, Value::Int64(3)];
        let v = Vector::from_values(LogicalType::Int64, &vals).unwrap();
        assert_eq!(v.value(0), Value::Int64(1));
        assert_eq!(v.value(1), Value::Null);
        assert_eq!(v.value(2), Value::Int64(3));
        assert_eq!(v.validity().null_count(), 1);
    }

    #[test]
    fn type_mismatch_push_errors() {
        let mut v = Vector::empty(LogicalType::Int64);
        let err = v.push_value(&Value::Varchar("x".into())).unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
    }

    #[test]
    fn int32_vs_date_push_are_distinct() {
        let mut d = Vector::empty(LogicalType::Date);
        assert!(d.push_value(&Value::Int32(5)).is_err());
        assert!(d.push_value(&Value::Date(5)).is_ok());

        let mut i = Vector::empty(LogicalType::Int32);
        assert!(i.push_value(&Value::Date(5)).is_err());
        assert!(i.push_value(&Value::Int32(5)).is_ok());
    }

    #[test]
    #[should_panic(expected = "not int64")]
    fn wrong_accessor_panics() {
        Vector::from_i32(vec![1]).i64s();
    }

    #[test]
    fn slice_copies_values_and_validity() {
        let vals = vec![
            Value::Int64(1),
            Value::Null,
            Value::Int64(3),
            Value::Int64(4),
        ];
        let v = Vector::from_values(LogicalType::Int64, &vals).unwrap();
        let s = v.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value(0), Value::Null);
        assert_eq!(s.value(1), Value::Int64(3));
    }

    #[test]
    fn slice_strings() {
        let v = Vector::from_strs(["aa", "bb", "cc"]);
        let s = v.slice(2, 1);
        assert_eq!(s.str_at(0), "cc");
        let empty = v.slice(1, 0);
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn gather_picks_rows_in_selection_order() {
        let v = Vector::from_i64(vec![10, 11, 12, 13]);
        assert_eq!(v.gather(&[3, 0, 2]).i64s(), &[13, 10, 12]);
        let d = Vector::from_dates(vec![5, 6, 7]).gather(&[1]);
        assert_eq!(d.logical_type(), LogicalType::Date);
        assert_eq!(d.value(0), Value::Date(6));
        assert_eq!(
            Vector::from_f64(vec![0.5, -1.0]).gather(&[1]).f64s(),
            &[-1.0]
        );
    }

    #[test]
    fn gather_carries_nulls_and_drops_an_unneeded_mask() {
        let vals = vec![Value::Int32(1), Value::Null, Value::Int32(3), Value::Null];
        let v = Vector::from_values(LogicalType::Int32, &vals).unwrap();
        let g = v.gather(&[0, 1, 2]);
        assert_eq!(
            (0..3).map(|i| g.value(i)).collect::<Vec<_>>(),
            vals[..3].to_vec()
        );
        assert!(v.gather(&[0, 2]).validity().no_nulls());
    }

    #[test]
    fn gather_strings_with_nulls() {
        let vals = vec![
            Value::Varchar("alpha".into()),
            Value::Null,
            Value::Varchar(String::new()),
            Value::Varchar("a much longer string value".into()),
        ];
        let v = Vector::from_values(LogicalType::Varchar, &vals).unwrap();
        let g = v.gather(&[3, 1, 2, 0]);
        assert_eq!(g.value(0), vals[3]);
        assert_eq!(g.value(1), Value::Null);
        assert_eq!(g.value(2), vals[2]);
        assert_eq!(g.value(3), vals[0]);
        assert_eq!(g.strs().len(), 4);
    }

    #[test]
    fn gather_empty_and_full_selections() {
        let v = Vector::from_strs(["x", "yy", "zzz"]);
        let empty = v.gather(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.logical_type(), LogicalType::Varchar);
        assert_eq!(v.gather(&[0, 1, 2]), v);
        let n = Vector::from_values(LogicalType::Int64, &[Value::Null, Value::Int64(2)]).unwrap();
        assert_eq!(n.gather(&[0, 1]).validity().null_count(), 1);
    }

    #[test]
    fn assign_gather_reuses_and_retypes_the_target() {
        let mut out = Vector::from_i64(vec![0; 8]);
        out.assign_gather(&Vector::from_i64(vec![1, 2, 3]), &[2]);
        assert_eq!(out.i64s(), &[3]);
        // A target of another physical type is replaced.
        out.assign_gather(&Vector::from_strs(["p", "q"]), &[1, 0]);
        assert_eq!(out.logical_type(), LogicalType::Varchar);
        assert_eq!((out.str_at(0), out.str_at(1)), ("q", "p"));
        // Same physical type, different logical type (INT32 vs DATE).
        let mut out = Vector::from_i32(vec![9]);
        out.assign_gather(&Vector::from_dates(vec![4, 5]), &[0]);
        assert_eq!(out.value(0), Value::Date(4));
    }

    #[test]
    fn null_string_round_trip() {
        let vals = vec![Value::Varchar("x".into()), Value::Null];
        let v = Vector::from_values(LogicalType::Varchar, &vals).unwrap();
        assert_eq!(v.value(0), Value::Varchar("x".into()));
        assert_eq!(v.value(1), Value::Null);
    }
}
