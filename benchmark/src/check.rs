//! Result verification: a result set is reduced to its row count plus the
//! wrapping sum of one hash per row. The sum does not depend on row order
//! (phase-2 workers emit groups in scheduling order) but does depend on
//! which value sits in which column of which row.

use rexa_exec::vector::VectorData;
use rexa_exec::{DataChunk, Validity, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checksum {
    pub rows: u64,
    pub hash_sum: u64,
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const NULL_CELL: u64 = 0x6e75_6c6c;

fn str_cell(s: &str) -> u64 {
    // FNV-1a over the bytes.
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn value_cell(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_CELL,
        Value::Int32(x) | Value::Date(x) => *x as i64 as u64,
        Value::Int64(x) => *x as u64,
        Value::Float64(x) => x.to_bits(),
        Value::Varchar(s) => str_cell(s),
    }
}

/// Fold the next cell into a row's running hash; column position matters.
fn fold(row: u64, cell: u64) -> u64 {
    mix(row.wrapping_add(cell).wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Fold one column's cells into the running row hashes.
fn fold_column(rows: &mut [u64], valid: &Validity, cell: impl Fn(usize) -> u64) {
    for (i, row) in rows.iter_mut().enumerate() {
        *row = fold(
            *row,
            if valid.is_valid(i) {
                cell(i)
            } else {
                NULL_CELL
            },
        );
    }
}

impl Checksum {
    /// Checksum of reference rows (`rexa_core::simple` output).
    pub fn of_rows(rows: &[Vec<Value>]) -> Checksum {
        let hash_sum = rows
            .iter()
            .map(|row| row.iter().fold(0, |h, v| fold(h, value_cell(v))))
            .fold(0u64, u64::wrapping_add);
        Checksum {
            rows: rows.len() as u64,
            hash_sum,
        }
    }

    /// Add a result chunk, column by column over the typed vectors (a result
    /// can be as large as the input, so no `Value` is built per cell).
    pub fn add_chunk(&mut self, chunk: &DataChunk) {
        let n = chunk.len();
        let mut rows = vec![0u64; n];
        for col in chunk.columns() {
            let valid = col.validity();
            match col.data() {
                VectorData::I32(v) => fold_column(&mut rows, valid, |i| v[i] as i64 as u64),
                VectorData::I64(v) => fold_column(&mut rows, valid, |i| v[i] as u64),
                VectorData::F64(v) => fold_column(&mut rows, valid, |i| v[i].to_bits()),
                VectorData::Str(v) => fold_column(&mut rows, valid, |i| str_cell(v.get(i))),
            }
        }
        self.rows += n as u64;
        self.hash_sum = rows.into_iter().fold(self.hash_sum, u64::wrapping_add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_exec::LogicalType;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int64(1), Value::Varchar("a".into()), Value::Date(9)],
            vec![Value::Int64(2), Value::Null, Value::Date(7)],
            vec![Value::Int64(3), Value::Varchar("ccc".into()), Value::Null],
        ]
    }

    fn chunk_of(rows: &[Vec<Value>]) -> DataChunk {
        let mut chunk =
            DataChunk::empty(&[LogicalType::Int64, LogicalType::Varchar, LogicalType::Date]);
        for r in rows {
            chunk.push_row(r).unwrap();
        }
        chunk
    }

    #[test]
    fn chunk_path_agrees_with_value_path_in_any_row_order() {
        let reference = Checksum::of_rows(&rows());
        let mut shuffled = rows();
        shuffled.rotate_left(1);
        // Split across two chunks as well: chunking must not matter.
        let mut sum = Checksum::default();
        sum.add_chunk(&chunk_of(&shuffled[..1]));
        sum.add_chunk(&chunk_of(&shuffled[1..]));
        assert_eq!(sum, reference);
    }

    #[test]
    fn detects_a_changed_cell_a_swapped_column_and_a_missing_row() {
        let reference = Checksum::of_rows(&rows());
        let mut changed = rows();
        changed[1][0] = Value::Int64(20);
        assert_ne!(Checksum::of_rows(&changed), reference);
        // Two values trading places between rows keeps every column's
        // multiset, which a per-column sum would miss.
        let mut swapped = rows();
        swapped[0][2] = Value::Date(7);
        swapped[1][2] = Value::Date(9);
        assert_ne!(Checksum::of_rows(&swapped), reference);
        assert_ne!(Checksum::of_rows(&rows()[..2]), reference);
    }
}
