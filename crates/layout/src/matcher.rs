//! Group-key comparison between column-major input values and a
//! materialized row — the comparison a hash-table probe performs after the
//! salt matched.

use crate::row_layout::TupleDataLayout;
use crate::string::RexaString;
use rexa_exec::hashing::normalize_f64_key;
use rexa_exec::vector::VectorData;
use rexa_exec::Vector;

/// Compare the group-key columns of input row `input_row` against the
/// materialized row at `row`. NULLs compare equal to NULLs (SQL GROUP BY
/// semantics: NULL forms one group).
///
/// # Safety
/// `row` must point to a live row of `layout` whose pages (row and heap) are
/// pinned and pointer-recomputed.
pub unsafe fn rows_match(
    layout: &TupleDataLayout,
    cols: &[&Vector],
    input_row: usize,
    row: *const u8,
) -> bool {
    for (c, col) in cols.iter().enumerate() {
        let input_valid = col.validity().is_valid(input_row);
        let row_valid = layout.is_valid(row, c);
        if input_valid != row_valid {
            return false;
        }
        if !input_valid {
            continue; // NULL == NULL for grouping
        }
        let slot = row.add(layout.offset(c));
        let eq = match col.data() {
            VectorData::I32(v) => std::ptr::read_unaligned(slot as *const i32) == v[input_row],
            VectorData::I64(v) => std::ptr::read_unaligned(slot as *const i64) == v[input_row],
            VectorData::F64(v) => {
                // Bitwise comparison: NaN != NaN must still form one group.
                // The input value is key-normalized (-0.0 -> 0.0) because
                // materialized rows only ever contain the normalized form.
                std::ptr::read_unaligned(slot as *const u64)
                    == normalize_f64_key(v[input_row]).to_bits()
            }
            VectorData::Str(v) => RexaString::read_from(slot).eq_bytes(v.get(input_row).as_bytes()),
        };
        if !eq {
            return false;
        }
    }
    true
}

/// Selection-vector form of [`rows_match`]: compare a *batch* of candidate
/// (input row, materialized row) pairs, grouped **by column** so the type
/// dispatch happens once per column per call instead of once per row.
///
/// `input_rows[p]` / `row_ptrs[p]` describe candidate `p`. On return,
/// `matched` holds the positions `p` whose pairs agree on every group-key
/// column and `no_match` the positions that differ; both preserve the input
/// order, and `matched.len() + no_match.len() == input_rows.len()`. The
/// vectors are cleared on entry (caller-owned scratch).
///
/// # Safety
/// Every pointer in `row_ptrs` must address a live row of `layout` whose
/// pages (row and heap) are pinned and pointer-recomputed.
pub unsafe fn rows_match_sel(
    layout: &TupleDataLayout,
    cols: &[&Vector],
    input_rows: &[u32],
    row_ptrs: &[*const u8],
    matched: &mut Vec<u32>,
    no_match: &mut Vec<u32>,
) {
    debug_assert_eq!(input_rows.len(), row_ptrs.len());
    matched.clear();
    no_match.clear();
    matched.extend(0..input_rows.len() as u32);
    for (c, col) in cols.iter().enumerate() {
        if matched.is_empty() {
            break;
        }
        let off = layout.offset(c);
        let validity = col.validity();
        // One shrinking pass over the still-matching candidates: compact the
        // survivors in place, spill the failures to `no_match`.
        let mut keep = 0usize;
        macro_rules! compact {
            (|$i:ident, $slot:ident| $eq:expr) => {
                for k in 0..matched.len() {
                    let p = matched[k];
                    let $i = input_rows[p as usize] as usize;
                    let row = row_ptrs[p as usize];
                    let input_valid = validity.is_valid($i);
                    let ok = if input_valid != layout.is_valid(row, c) {
                        false
                    } else if !input_valid {
                        true // NULL == NULL for grouping
                    } else {
                        let $slot = row.add(off);
                        $eq
                    };
                    if ok {
                        matched[keep] = p;
                        keep += 1;
                    } else {
                        no_match.push(p);
                    }
                }
            };
        }
        match col.data() {
            VectorData::I32(v) => {
                compact!(|i, slot| std::ptr::read_unaligned(slot as *const i32) == v[i]);
            }
            VectorData::I64(v) => {
                compact!(|i, slot| std::ptr::read_unaligned(slot as *const i64) == v[i]);
            }
            VectorData::F64(v) => {
                compact!(|i, slot| std::ptr::read_unaligned(slot as *const u64)
                    == normalize_f64_key(v[i]).to_bits());
            }
            VectorData::Str(v) => {
                compact!(|i, slot| RexaString::read_from(slot).eq_bytes(v.get(i).as_bytes()));
            }
        }
        matched.truncate(keep);
    }
    // Failures were appended column by column, scrambling the original
    // order; restore it so callers can keep their probe selections ordered
    // (ordered selections keep the operator's combine order — and therefore
    // its float results — in input order).
    no_match.sort_unstable();
}

/// Compare a batch of candidate (row, row) pairs of materialized rows on the
/// first `key_cols` columns, grouped by column (used in phase 2, where both
/// sides are rows; payload columns after the keys are not compared).
/// Contract mirrors [`rows_match_sel`]: `matched` and `no_match` receive the
/// positions of agreeing / differing pairs, in order.
///
/// # Safety
/// Every pointer in `a_ptrs` and `b_ptrs` must address live rows of
/// `layout`, pinned and pointer-recomputed.
pub unsafe fn row_row_match_sel(
    layout: &TupleDataLayout,
    key_cols: usize,
    a_ptrs: &[*const u8],
    b_ptrs: &[*const u8],
    matched: &mut Vec<u32>,
    no_match: &mut Vec<u32>,
) {
    debug_assert_eq!(a_ptrs.len(), b_ptrs.len());
    matched.clear();
    no_match.clear();
    matched.extend(0..a_ptrs.len() as u32);
    for c in 0..key_cols {
        if matched.is_empty() {
            break;
        }
        let off = layout.offset(c);
        let ty = layout.types()[c];
        let mut keep = 0usize;
        macro_rules! compact {
            (|$sa:ident, $sb:ident| $eq:expr) => {
                for k in 0..matched.len() {
                    let p = matched[k];
                    let a = a_ptrs[p as usize];
                    let b = b_ptrs[p as usize];
                    let av = layout.is_valid(a, c);
                    let ok = if av != layout.is_valid(b, c) {
                        false
                    } else if !av {
                        true
                    } else {
                        let $sa = a.add(off);
                        let $sb = b.add(off);
                        $eq
                    };
                    if ok {
                        matched[keep] = p;
                        keep += 1;
                    } else {
                        no_match.push(p);
                    }
                }
            };
        }
        match ty {
            rexa_exec::LogicalType::Int32 | rexa_exec::LogicalType::Date => {
                compact!(|sa, sb| std::ptr::read_unaligned(sa as *const i32)
                    == std::ptr::read_unaligned(sb as *const i32));
            }
            rexa_exec::LogicalType::Int64 | rexa_exec::LogicalType::Float64 => {
                compact!(|sa, sb| std::ptr::read_unaligned(sa as *const u64)
                    == std::ptr::read_unaligned(sb as *const u64));
            }
            rexa_exec::LogicalType::Varchar => {
                compact!(|sa, sb| RexaString::read_from(sa)
                    .eq_bytes(RexaString::read_from(sb).as_bytes()));
            }
        }
        matched.truncate(keep);
    }
    no_match.sort_unstable();
}

/// Find the runs of adjacent equal group keys in a chunk of column-major
/// input. `run_starts` receives the index of every row that begins a new
/// run (always including 0 for non-empty input), cleared on entry.
///
/// Equality semantics match [`rows_match`]'s input side: NULL equals NULL,
/// Float64 compares by key-normalized bit pattern (NaN == NaN, -0.0 == 0.0),
/// Varchar by bytes. The type dispatch happens once per column, not per row.
pub fn adjacent_runs(cols: &[&Vector], len: usize, run_starts: &mut Vec<u32>) {
    run_starts.clear();
    if len == 0 {
        return;
    }
    run_starts.push(0);
    if len == 1 {
        return;
    }
    macro_rules! adjacent_neq {
        ($col:expr, $v:expr, |$a:ident, $b:ident| $eq:expr, $on_neq:expr) => {{
            let validity = $col.validity();
            for i in 1..len {
                let va = validity.is_valid(i - 1);
                let vb = validity.is_valid(i);
                let eq = if va != vb {
                    false
                } else if !va {
                    true // NULL == NULL for grouping
                } else {
                    let $a = i - 1;
                    let $b = i;
                    $eq
                };
                if !eq {
                    $on_neq(i);
                }
            }
        }};
    }
    macro_rules! scan_col {
        ($col:expr, $on_neq:expr) => {
            match $col.data() {
                VectorData::I32(v) => adjacent_neq!($col, v, |a, b| v[a] == v[b], $on_neq),
                VectorData::I64(v) => adjacent_neq!($col, v, |a, b| v[a] == v[b], $on_neq),
                VectorData::F64(v) => adjacent_neq!(
                    $col,
                    v,
                    |a, b| normalize_f64_key(v[a]).to_bits() == normalize_f64_key(v[b]).to_bits(),
                    $on_neq
                ),
                VectorData::Str(v) => adjacent_neq!(
                    $col,
                    v,
                    |a, b| v.get(a).as_bytes() == v.get(b).as_bytes(),
                    $on_neq
                ),
            }
        };
    }
    match cols {
        [col] => {
            // Single key column (the common case): push run starts directly,
            // no scratch needed.
            scan_col!(col, |i: usize| run_starts.push(i as u32));
        }
        _ => {
            // Multi-column keys: a row starts a run if *any* column differs
            // from the previous row. Mark differing rows column by column,
            // then collect.
            let mut neq = vec![false; len];
            for col in cols {
                scan_col!(col, |i: usize| neq[i] = true);
            }
            for (i, &n) in neq.iter().enumerate().skip(1) {
                if n {
                    run_starts.push(i as u32);
                }
            }
        }
    }
}

/// Compare the first `key_cols` columns of two rows that live in *different*
/// layouts (e.g. a join's build and probe rows). The key columns must have
/// identical types in both layouts, in the same order, but offsets may
/// differ (validity width depends on the total column count).
///
/// # Safety
/// `a` must be a live row of `layout_a` and `b` of `layout_b`, both pinned
/// and pointer-recomputed.
pub unsafe fn row_row_match_cross(
    layout_a: &TupleDataLayout,
    layout_b: &TupleDataLayout,
    key_cols: usize,
    a: *const u8,
    b: *const u8,
) -> bool {
    debug_assert!(key_cols <= layout_a.column_count());
    debug_assert!(key_cols <= layout_b.column_count());
    for c in 0..key_cols {
        debug_assert_eq!(layout_a.types()[c], layout_b.types()[c]);
        let av = layout_a.is_valid(a, c);
        let bv = layout_b.is_valid(b, c);
        if av != bv {
            return false;
        }
        if !av {
            continue;
        }
        let sa = a.add(layout_a.offset(c));
        let sb = b.add(layout_b.offset(c));
        let eq = match layout_a.types()[c] {
            rexa_exec::LogicalType::Int32 | rexa_exec::LogicalType::Date => {
                std::ptr::read_unaligned(sa as *const i32)
                    == std::ptr::read_unaligned(sb as *const i32)
            }
            rexa_exec::LogicalType::Int64 | rexa_exec::LogicalType::Float64 => {
                std::ptr::read_unaligned(sa as *const u64)
                    == std::ptr::read_unaligned(sb as *const u64)
            }
            rexa_exec::LogicalType::Varchar => {
                let ra = RexaString::read_from(sa);
                let rb = RexaString::read_from(sb);
                ra.eq_bytes(rb.as_bytes())
            }
        };
        if !eq {
            return false;
        }
    }
    true
}
