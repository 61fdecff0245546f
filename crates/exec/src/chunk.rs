//! `DataChunk`: a horizontal slice of a table, at most [`VECTOR_SIZE`] rows,
//! stored column-major — the unit that flows through pipelines.

use crate::error::{Error, Result};
use crate::types::LogicalType;
use crate::value::Value;
use crate::vector::Vector;

/// Maximum number of tuples per chunk (DuckDB's standard vector size; the
/// paper scans morsels "in batches of up to 2,048 tuples").
pub const VECTOR_SIZE: usize = 2048;

/// A batch of rows in column-major representation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataChunk {
    columns: Vec<Vector>,
    len: usize,
}

impl DataChunk {
    /// Assemble a chunk from equal-length columns.
    ///
    /// # Panics
    /// If the columns differ in length or exceed [`VECTOR_SIZE`].
    pub fn new(columns: Vec<Vector>) -> Self {
        let len = columns.first().map_or(0, Vector::len);
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), len, "column {i} length mismatch");
        }
        assert!(
            len <= VECTOR_SIZE,
            "chunk of {len} rows exceeds VECTOR_SIZE"
        );
        DataChunk { columns, len }
    }

    /// An empty chunk with the given column types.
    pub fn empty(types: &[LogicalType]) -> Self {
        DataChunk {
            columns: types.iter().map(|&t| Vector::empty(t)).collect(),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The column vectors.
    pub fn columns(&self) -> &[Vector] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Vector {
        &self.columns[i]
    }

    /// The logical types of all columns.
    pub fn types(&self) -> Vec<LogicalType> {
        self.columns.iter().map(Vector::logical_type).collect()
    }

    /// Append one row of owned values (slow path: builders and tests).
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::InvalidInput(format!(
                "row has {} values, chunk has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        if self.len == VECTOR_SIZE {
            return Err(Error::InvalidInput("chunk full".into()));
        }
        for (col, val) in self.columns.iter_mut().zip(row) {
            col.push_value(val)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Row `i` as owned values (slow path).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// A copy of rows `[start, start + count)` as a new chunk.
    pub fn slice(&self, start: usize, count: usize) -> DataChunk {
        DataChunk {
            columns: self.columns.iter().map(|c| c.slice(start, count)).collect(),
            len: count,
        }
    }

    /// Rows `sel` (indices into this chunk, at most [`VECTOR_SIZE`]) as a
    /// new chunk, column by column.
    pub fn gather(&self, sel: &[u32]) -> DataChunk {
        let columns: Vec<usize> = (0..self.columns.len()).collect();
        let mut out = DataChunk::empty(&[]);
        self.gather_into(&columns, sel, &mut out);
        out
    }

    /// Overwrite `out` with rows `sel` of the columns `columns`, in that
    /// order, reusing `out`'s buffers. The result has `sel.len()` rows even
    /// when `columns` is empty, so a filter feeding `COUNT(*)` alone keeps
    /// its row count.
    pub fn gather_into(&self, columns: &[usize], sel: &[u32], out: &mut DataChunk) {
        assert!(
            sel.len() <= VECTOR_SIZE,
            "selection of {} rows exceeds VECTOR_SIZE",
            sel.len()
        );
        out.columns.truncate(columns.len());
        for (i, &c) in columns.iter().enumerate() {
            match out.columns.get_mut(i) {
                Some(v) => v.assign_gather(&self.columns[c], sel),
                None => out.columns.push(self.columns[c].gather(sel)),
            }
        }
        out.len = sel.len();
    }

    /// A chunk with the subset of columns given by `projection`.
    pub fn project(&self, projection: &[usize]) -> DataChunk {
        DataChunk {
            columns: projection
                .iter()
                .map(|&i| self.columns[i].clone())
                .collect(),
            len: self.len,
        }
    }
}

/// An owned, in-memory sequence of chunks with a shared schema — the simplest
/// input for the aggregation operator (generated data, test fixtures). The
/// persistent-table source in `rexa-storage` provides the paged alternative.
#[derive(Debug, Clone, Default)]
pub struct ChunkCollection {
    types: Vec<LogicalType>,
    chunks: Vec<DataChunk>,
    rows: usize,
}

impl ChunkCollection {
    /// An empty collection with the given schema.
    pub fn new(types: Vec<LogicalType>) -> Self {
        ChunkCollection {
            types,
            chunks: Vec::new(),
            rows: 0,
        }
    }

    /// The schema.
    pub fn types(&self) -> &[LogicalType] {
        &self.types
    }

    /// Append a chunk; its types must match the schema.
    pub fn push(&mut self, chunk: DataChunk) -> Result<()> {
        if chunk.types() != self.types {
            return Err(Error::InvalidInput(format!(
                "chunk schema {:?} does not match collection schema {:?}",
                chunk.types(),
                self.types
            )));
        }
        self.rows += chunk.len();
        self.chunks.push(chunk);
        Ok(())
    }

    /// Total number of rows across all chunks.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The chunks.
    pub fn chunks(&self) -> &[DataChunk] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Approximate in-memory size in bytes (row-width based; strings counted
    /// by character data). Used by benchmarks to size memory limits.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0;
        for chunk in &self.chunks {
            for col in chunk.columns() {
                total += match col.logical_type() {
                    LogicalType::Varchar => {
                        let mut bytes = 16 * col.len();
                        for i in 0..col.len() {
                            bytes += col.str_at(i).len();
                        }
                        bytes
                    }
                    t => t.row_width() * col.len(),
                };
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_chunk() -> DataChunk {
        DataChunk::new(vec![
            Vector::from_i64(vec![1, 2, 3]),
            Vector::from_strs(["a", "b", "c"]),
        ])
    }

    #[test]
    fn basic_accessors() {
        let c = two_col_chunk();
        assert_eq!(c.len(), 3);
        assert_eq!(c.column_count(), 2);
        assert_eq!(c.types(), vec![LogicalType::Int64, LogicalType::Varchar]);
        assert_eq!(c.row(1), vec![Value::Int64(2), Value::Varchar("b".into())]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_panic() {
        DataChunk::new(vec![
            Vector::from_i64(vec![1]),
            Vector::from_i64(vec![1, 2]),
        ]);
    }

    #[test]
    fn push_row_and_fill() {
        let mut c = DataChunk::empty(&[LogicalType::Int32]);
        for i in 0..VECTOR_SIZE {
            c.push_row(&[Value::Int32(i as i32)]).unwrap();
        }
        assert_eq!(c.len(), VECTOR_SIZE);
        assert!(matches!(
            c.push_row(&[Value::Int32(0)]),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn push_row_arity_check() {
        let mut c = DataChunk::empty(&[LogicalType::Int32, LogicalType::Int64]);
        assert!(c.push_row(&[Value::Int32(1)]).is_err());
    }

    #[test]
    fn projection() {
        let c = two_col_chunk();
        let p = c.project(&[1]);
        assert_eq!(p.column_count(), 1);
        assert_eq!(p.len(), 3);
        assert_eq!(p.column(0).str_at(2), "c");
    }

    #[test]
    fn gather_selects_rows_of_every_column() {
        let c = two_col_chunk();
        let g = c.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(0), vec![Value::Int64(3), Value::Varchar("c".into())]);
        assert_eq!(g.row(1), vec![Value::Int64(1), Value::Varchar("a".into())]);
        assert_eq!(c.gather(&[0, 1, 2]), c);
        let empty = c.gather(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.types(), c.types());
    }

    #[test]
    fn gather_into_projects_and_reuses_the_target() {
        let mut c = DataChunk::empty(&[LogicalType::Int64, LogicalType::Varchar]);
        c.push_row(&[Value::Null, Value::Varchar("x".into())])
            .unwrap();
        c.push_row(&[Value::Int64(7), Value::Null]).unwrap();
        let mut out = DataChunk::empty(&[]);
        c.gather_into(&[1, 0], &[1], &mut out);
        assert_eq!(out.types(), vec![LogicalType::Varchar, LogicalType::Int64]);
        assert_eq!(out.row(0), vec![Value::Null, Value::Int64(7)]);
        c.gather_into(&[0], &[0, 1], &mut out);
        assert_eq!(out.column_count(), 1);
        assert_eq!(out.row(0), vec![Value::Null]);
        assert_eq!(out.row(1), vec![Value::Int64(7)]);
        // No columns: the row count survives.
        c.gather_into(&[], &[0, 1], &mut out);
        assert_eq!((out.column_count(), out.len()), (0, 2));
    }

    #[test]
    fn collection_schema_enforced() {
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64]);
        assert!(coll.push(two_col_chunk()).is_err());
        coll.push(DataChunk::new(vec![Vector::from_i64(vec![5])]))
            .unwrap();
        assert_eq!(coll.rows(), 1);
        assert_eq!(coll.chunk_count(), 1);
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let mut coll = ChunkCollection::new(vec![LogicalType::Varchar]);
        coll.push(DataChunk::new(vec![Vector::from_strs(["abcd"])]))
            .unwrap();
        assert_eq!(coll.approx_bytes(), 16 + 4);
    }

    #[test]
    fn empty_chunk_has_zero_len() {
        let c = DataChunk::empty(&[LogicalType::Varchar, LogicalType::Date]);
        assert!(c.is_empty());
        assert_eq!(c.types(), vec![LogicalType::Varchar, LogicalType::Date]);
    }
}
