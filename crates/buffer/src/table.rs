//! A persistent table: serialized column-major chunks on database pages.
//!
//! This is the substrate the benchmark scans sit on. Chunks are serialized
//! into fixed-size pages of the database file; scanning pins pages through
//! the buffer manager, so repeated scans keep the base table cached in
//! memory — until intermediates push it out, which is the persistent/
//! temporary interplay the paper's Figure 4 visualizes.
//!
//! Unlike the temporary-data page layout of `rexa-layout`, persistent pages
//! *are* (de)serialized: they are written once at load time and the cost is
//! off the query path. (DuckDB additionally compresses them; we do not —
//! orthogonal to the paper's contributions, see DESIGN.md.)

use crate::handle::BlockHandle;
use crate::manager::BufferManager;
use rexa_exec::pipeline::{CancelToken, ChunkReader, ChunkSource};
use rexa_exec::{DataChunk, Error, LogicalType, Result, Validity, Vector};
use rexa_storage::DatabaseFile;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Blocks claimed per scan morsel.
const BLOCKS_PER_MORSEL: usize = 4;

// ---- chunk (de)serialization ------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err(Error::Internal("truncated page".into()));
    }
    let v = u32::from_le_bytes(bytes[*pos..end].try_into().unwrap());
    *pos = end;
    Ok(v)
}

fn serialize_validity(out: &mut Vec<u8>, v: &Validity) {
    if v.no_nulls() {
        out.push(0);
        return;
    }
    out.push(1);
    let mut byte = 0u8;
    for i in 0..v.len() {
        if v.is_valid(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !v.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// Serialize one chunk (without a length prefix).
fn serialize_chunk(chunk: &DataChunk, out: &mut Vec<u8>) {
    put_u32(out, chunk.len() as u32);
    for col in chunk.columns() {
        serialize_validity(out, col.validity());
        match col.logical_type() {
            LogicalType::Int32 | LogicalType::Date => {
                for &v in col.i32s() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            LogicalType::Int64 => {
                for &v in col.i64s() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            LogicalType::Float64 => {
                for &v in col.f64s() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            LogicalType::Varchar => {
                let mut total = 0u32;
                let lens: Vec<u32> = (0..col.len())
                    .map(|i| {
                        let l = col.str_at(i).len() as u32;
                        total += l;
                        l
                    })
                    .collect();
                put_u32(out, total);
                for l in lens {
                    put_u32(out, l);
                }
                for i in 0..col.len() {
                    out.extend_from_slice(col.str_at(i).as_bytes());
                }
            }
        }
    }
}

fn deserialize_validity(bytes: &[u8], pos: &mut usize, rows: usize) -> Result<Option<Vec<bool>>> {
    if *pos >= bytes.len() {
        return Err(Error::Internal("truncated page".into()));
    }
    let has_nulls = bytes[*pos] == 1;
    *pos += 1;
    if !has_nulls {
        return Ok(None);
    }
    let nbytes = rows.div_ceil(8);
    if *pos + nbytes > bytes.len() {
        return Err(Error::Internal("truncated validity".into()));
    }
    let valid = (0..rows)
        .map(|i| (bytes[*pos + i / 8] >> (i % 8)) & 1 == 1)
        .collect();
    *pos += nbytes;
    Ok(Some(valid))
}

/// Deserialize one chunk at `pos`, advancing it.
fn deserialize_chunk(bytes: &[u8], pos: &mut usize, schema: &[LogicalType]) -> Result<DataChunk> {
    let rows = get_u32(bytes, pos)? as usize;
    let mut columns = Vec::with_capacity(schema.len());
    for &ty in schema {
        let nulls = deserialize_validity(bytes, pos, rows)?;
        let mut col = match ty {
            LogicalType::Int32 | LogicalType::Date => {
                let mut vals = Vec::with_capacity(rows);
                for _ in 0..rows {
                    vals.push(get_u32(bytes, pos)? as i32);
                }
                if ty == LogicalType::Date {
                    Vector::from_dates(vals)
                } else {
                    Vector::from_i32(vals)
                }
            }
            LogicalType::Int64 => {
                let mut vals = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let lo = get_u32(bytes, pos)? as u64;
                    let hi = get_u32(bytes, pos)? as u64;
                    vals.push((lo | (hi << 32)) as i64);
                }
                Vector::from_i64(vals)
            }
            LogicalType::Float64 => {
                let mut vals = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let lo = get_u32(bytes, pos)? as u64;
                    let hi = get_u32(bytes, pos)? as u64;
                    vals.push(f64::from_bits(lo | (hi << 32)));
                }
                Vector::from_f64(vals)
            }
            LogicalType::Varchar => {
                let total = get_u32(bytes, pos)? as usize;
                let mut lens = Vec::with_capacity(rows);
                for _ in 0..rows {
                    lens.push(get_u32(bytes, pos)? as usize);
                }
                if *pos + total > bytes.len() {
                    return Err(Error::Internal("truncated string data".into()));
                }
                let mut strs = Vec::with_capacity(rows);
                let mut off = *pos;
                for l in lens {
                    strs.push(
                        std::str::from_utf8(&bytes[off..off + l])
                            .map_err(|_| Error::Internal("invalid UTF-8 on page".into()))?,
                    );
                    off += l;
                }
                *pos += total;
                Vector::from_strs(strs)
            }
        };
        if let Some(valid) = nulls {
            for (i, ok) in valid.iter().enumerate() {
                if !ok {
                    col.validity_mut().set_invalid(i);
                }
            }
        }
        columns.push(col);
    }
    Ok(DataChunk::new(columns))
}

// ---- the table ---------------------------------------------------------

/// A persistent, paged, immutable table.
#[derive(Debug)]
pub struct Table {
    schema: Vec<LogicalType>,
    blocks: Vec<Arc<BlockHandle>>,
    rows: usize,
}

/// Builds a [`Table`] by streaming chunks into database pages.
pub struct TableBuilder {
    mgr: Arc<BufferManager>,
    db: Arc<DatabaseFile>,
    schema: Vec<LogicalType>,
    blocks: Vec<Arc<BlockHandle>>,
    /// Serialized chunks (each length-prefixed) pending in the current page.
    pending: Vec<u8>,
    pending_chunks: u32,
    rows: usize,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(mgr: Arc<BufferManager>, db: Arc<DatabaseFile>, schema: Vec<LogicalType>) -> Self {
        TableBuilder {
            mgr,
            db,
            schema,
            blocks: Vec::new(),
            pending: Vec::new(),
            pending_chunks: 0,
            rows: 0,
        }
    }

    fn page_capacity(&self) -> usize {
        self.db.page_size() - 4 // block header: u32 chunk count
    }

    /// Append one chunk; splits it if it does not fit on a page.
    pub fn append(&mut self, chunk: &DataChunk) -> Result<()> {
        if chunk.types() != self.schema {
            return Err(Error::InvalidInput("chunk schema mismatch".into()));
        }
        if chunk.is_empty() {
            return Ok(());
        }
        let mut ser = Vec::new();
        serialize_chunk(chunk, &mut ser);
        let entry = 4 + ser.len(); // u32 length prefix
        if self.pending.len() + entry > self.page_capacity() {
            if entry > self.page_capacity() {
                // Chunk alone exceeds a page: split in half and recurse.
                if chunk.len() == 1 {
                    return Err(Error::Unsupported(
                        "a single row exceeds the page size".into(),
                    ));
                }
                let half = chunk.len() / 2;
                self.append(&chunk.slice(0, half))?;
                return self.append(&chunk.slice(half, chunk.len() - half));
            }
            self.flush_page()?;
        }
        put_u32(&mut self.pending, ser.len() as u32);
        self.pending.extend_from_slice(&ser);
        self.pending_chunks += 1;
        self.rows += chunk.len();
        Ok(())
    }

    fn flush_page(&mut self) -> Result<()> {
        if self.pending_chunks == 0 {
            return Ok(());
        }
        let mut page = vec![0u8; self.db.page_size()];
        page[0..4].copy_from_slice(&self.pending_chunks.to_le_bytes());
        page[4..4 + self.pending.len()].copy_from_slice(&self.pending);
        let id = self.db.append_block(&page)?;
        self.blocks.push(self.mgr.register_persistent(&self.db, id));
        self.pending.clear();
        self.pending_chunks = 0;
        Ok(())
    }

    /// Finish building: flush the last page and return the table.
    pub fn finish(mut self) -> Result<Table> {
        self.flush_page()?;
        Ok(Table {
            schema: self.schema,
            blocks: self.blocks,
            rows: self.rows,
        })
    }
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &[LogicalType] {
        &self.schema
    }

    /// Total row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pages.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// A morsel-driven parallel scan source over this table.
    pub fn scan<'a>(&'a self, mgr: &Arc<BufferManager>) -> TableSource<'a> {
        TableSource {
            table: self,
            mgr: Arc::clone(mgr),
            cursor: AtomicUsize::new(0),
            cancel: None,
        }
    }

    /// A scan that aborts with [`rexa_exec::Error::Cancelled`] when `cancel`
    /// fires (used by the benchmark harness to impose query timeouts).
    pub fn scan_with_cancel<'a>(
        &'a self,
        mgr: &Arc<BufferManager>,
        cancel: CancelToken,
    ) -> TableSource<'a> {
        TableSource {
            table: self,
            mgr: Arc::clone(mgr),
            cursor: AtomicUsize::new(0),
            cancel: Some(cancel),
        }
    }
}

/// A [`ChunkSource`] scanning a persistent [`Table`] through the buffer
/// manager: each morsel pins a few pages, deserializes their chunks, and
/// unpins (leaving the pages cached and evictable).
pub struct TableSource<'a> {
    table: &'a Table,
    mgr: Arc<BufferManager>,
    cursor: AtomicUsize,
    cancel: Option<CancelToken>,
}

struct TableReader<'a> {
    source: &'a TableSource<'a>,
    /// Chunks deserialized from the current morsel, not yet handed out.
    ready: VecDeque<DataChunk>,
    /// The chunk most recently lent out by [`ChunkReader::next`].
    current: Option<DataChunk>,
}

impl ChunkReader for TableReader<'_> {
    fn next(&mut self) -> Result<Option<&DataChunk>> {
        loop {
            if let Some(chunk) = self.ready.pop_front() {
                self.current = Some(chunk);
                return Ok(self.current.as_ref());
            }
            if let Some(cancel) = &self.source.cancel {
                cancel.check()?;
            }
            let n = self.source.table.blocks.len();
            let start = self
                .source
                .cursor
                .fetch_add(BLOCKS_PER_MORSEL, Ordering::Relaxed);
            if start >= n {
                return Ok(None);
            }
            let end = (start + BLOCKS_PER_MORSEL).min(n);
            for handle in &self.source.table.blocks[start..end] {
                let pin = self.source.mgr.pin(handle)?;
                // SAFETY: persistent pages are immutable once written.
                let bytes = unsafe { pin.slice() };
                let mut pos = 0usize;
                let chunks = get_u32(bytes, &mut pos)?;
                for _ in 0..chunks {
                    let len = get_u32(bytes, &mut pos)? as usize;
                    let end_pos = pos + len;
                    let chunk = deserialize_chunk(bytes, &mut pos, &self.source.table.schema)?;
                    debug_assert_eq!(pos, end_pos, "chunk length prefix mismatch");
                    pos = end_pos;
                    self.ready.push_back(chunk);
                }
                // `pin` drops here: the page stays cached until evicted.
            }
        }
    }
}

impl ChunkSource for TableSource<'_> {
    fn reader(&self) -> Box<dyn ChunkReader + '_> {
        Box::new(TableReader {
            source: self,
            ready: VecDeque::new(),
            current: None,
        })
    }

    fn total_rows(&self) -> Option<usize> {
        Some(self.table.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::BufferManagerConfig;
    use parking_lot::Mutex;
    use rexa_exec::pipeline::Pipeline;
    use rexa_exec::ExecContext;
    use rexa_exec::{pipeline::LocalSink, pipeline::ParallelSink, Value};
    use rexa_storage::scratch_dir;

    fn setup(page_size: usize, limit: usize) -> (Arc<BufferManager>, Arc<DatabaseFile>) {
        let dir = scratch_dir("table").unwrap();
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(limit)
                .page_size(page_size)
                .temp_dir(dir.join("tmp")),
        )
        .unwrap();
        let db = Arc::new(DatabaseFile::create(&dir.join("t.db"), page_size).unwrap());
        (mgr, db)
    }

    fn chunk(range: std::ops::Range<i64>) -> DataChunk {
        let vals: Vec<i64> = range.clone().collect();
        let strs: Vec<String> = range.map(|i| format!("row-{i}")).collect();
        DataChunk::new(vec![Vector::from_i64(vals), Vector::from_strs(strs)])
    }

    fn scan_all(table: &Table, mgr: &Arc<BufferManager>, threads: usize) -> Vec<(i64, String)> {
        struct Collect {
            rows: Mutex<Vec<(i64, String)>>,
        }
        struct LocalCollect<'a> {
            parent: &'a Collect,
            rows: Vec<(i64, String)>,
        }
        impl ParallelSink for Collect {
            fn local(&self, _worker: usize) -> Result<Box<dyn LocalSink + '_>> {
                Ok(Box::new(LocalCollect {
                    parent: self,
                    rows: Vec::new(),
                }))
            }
        }
        impl LocalSink for LocalCollect<'_> {
            fn sink(&mut self, chunk: &DataChunk) -> Result<()> {
                for i in 0..chunk.len() {
                    self.rows
                        .push((chunk.column(0).i64s()[i], chunk.column(1).str_at(i).into()));
                }
                Ok(())
            }
            fn combine(self: Box<Self>) -> Result<()> {
                self.parent.rows.lock().extend(self.rows);
                Ok(())
            }
        }
        let sink = Collect {
            rows: Mutex::new(Vec::new()),
        };
        let source = table.scan(mgr);
        Pipeline::run(&source, &sink, threads, &ExecContext::new()).unwrap();
        let mut rows = sink.rows.into_inner();
        rows.sort();
        rows
    }

    #[test]
    fn build_and_scan_round_trip() {
        let (mgr, db) = setup(4096, 1 << 20);
        let schema = vec![LogicalType::Int64, LogicalType::Varchar];
        let mut b = TableBuilder::new(mgr.clone(), db, schema);
        for start in (0..1000).step_by(100) {
            b.append(&chunk(start..start + 100)).unwrap();
        }
        let table = b.finish().unwrap();
        assert_eq!(table.rows(), 1000);
        assert!(table.block_count() > 1, "should span multiple small pages");

        let rows = scan_all(&table, &mgr, 4);
        assert_eq!(rows.len(), 1000);
        for (i, (k, s)) in rows.iter().enumerate() {
            assert_eq!(*k, i as i64);
            assert_eq!(s, &format!("row-{i}"));
        }
    }

    #[test]
    fn oversized_chunk_is_split() {
        let (mgr, db) = setup(512, 1 << 20);
        let schema = vec![LogicalType::Int64, LogicalType::Varchar];
        let mut b = TableBuilder::new(mgr.clone(), db, schema);
        b.append(&chunk(0..200)).unwrap(); // far larger than one 512 B page
        let table = b.finish().unwrap();
        assert_eq!(table.rows(), 200);
        let rows = scan_all(&table, &mgr, 2);
        assert_eq!(rows.len(), 200);
        assert_eq!(rows[199].0, 199);
    }

    #[test]
    fn scan_under_tight_memory_evicts_persistent_pages_for_free() {
        // Limit fits only a couple of pages; scanning must still succeed by
        // evicting earlier pages (free: no temp I/O).
        let (mgr, db) = setup(1024, 4 * 1024);
        let schema = vec![LogicalType::Int64, LogicalType::Varchar];
        let mut b = TableBuilder::new(mgr.clone(), db, schema);
        for start in (0..2000).step_by(100) {
            b.append(&chunk(start..start + 100)).unwrap();
        }
        let table = b.finish().unwrap();
        assert!(table.block_count() > 10);

        let rows = scan_all(&table, &mgr, 4);
        assert_eq!(rows.len(), 2000);
        let stats = mgr.stats();
        assert!(stats.evictions_persistent > 0, "must have evicted");
        assert_eq!(stats.evictions_temporary, 0);
        assert_eq!(stats.temp_bytes_written, 0, "persistent eviction is free");
        assert!(stats.memory_used <= mgr.memory_limit());
    }

    #[test]
    fn repeated_scans_hit_cache_when_memory_allows() {
        let (mgr, db) = setup(4096, 1 << 22);
        let schema = vec![LogicalType::Int64, LogicalType::Varchar];
        let mut b = TableBuilder::new(mgr.clone(), db, schema);
        b.append(&chunk(0..500)).unwrap();
        let table = b.finish().unwrap();

        scan_all(&table, &mgr, 2);
        let resident_after_first = mgr.stats().persistent_resident;
        assert!(resident_after_first > 0, "pages stay cached");
        scan_all(&table, &mgr, 2);
        assert_eq!(mgr.stats().evictions_persistent, 0);
    }

    #[test]
    fn nulls_survive_round_trip() {
        let (mgr, db) = setup(4096, 1 << 20);
        let schema = vec![LogicalType::Int64];
        let mut b = TableBuilder::new(mgr.clone(), db, schema.clone());
        let mut c = DataChunk::empty(&schema);
        for i in 0..50 {
            let v = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int64(i)
            };
            c.push_row(&[v]).unwrap();
        }
        b.append(&c).unwrap();
        let table = b.finish().unwrap();

        let source = table.scan(&mgr);
        let mut reader = source.reader();
        let out = reader.next().unwrap().unwrap();
        assert_eq!(out.len(), 50);
        for i in 0..50 {
            let expect = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int64(i)
            };
            assert_eq!(out.column(0).value(i as usize), expect);
        }
        assert!(reader.next().unwrap().is_none());
    }

    #[test]
    fn empty_table_scan() {
        let (mgr, db) = setup(4096, 1 << 20);
        let b = TableBuilder::new(mgr.clone(), db, vec![LogicalType::Int32]);
        let table = b.finish().unwrap();
        assert_eq!(table.rows(), 0);
        let source = table.scan(&mgr);
        assert!(source.reader().next().unwrap().is_none());
    }
}
