//! NULL tracking for vectors: a bit-packed validity mask.

/// A validity mask over the rows of a [`crate::Vector`].
///
/// `None` inside means "all rows valid", the common fast path: no bitmask is
/// allocated or consulted until the first NULL is set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Validity {
    /// One bit per row, 1 = valid. Lazily allocated.
    bits: Option<Vec<u64>>,
    /// Number of rows covered.
    len: usize,
}

impl Validity {
    /// An all-valid mask over `len` rows.
    pub fn all_valid(len: usize) -> Self {
        Validity { bits: None, len }
    }

    /// Number of rows covered by this mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if no row is NULL (fast path check).
    pub fn no_nulls(&self) -> bool {
        self.bits.is_none()
    }

    /// Whether row `i` is valid (non-NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        match &self.bits {
            None => true,
            Some(bits) => (bits[i / 64] >> (i % 64)) & 1 == 1,
        }
    }

    /// Mark row `i` as NULL, materializing the bitmask if necessary.
    pub fn set_invalid(&mut self, i: usize) {
        assert!(i < self.len, "validity index {i} out of range {}", self.len);
        let bits = self
            .bits
            .get_or_insert_with(|| vec![u64::MAX; self.len.div_ceil(64)]);
        bits[i / 64] &= !(1u64 << (i % 64));
    }

    /// Mark row `i` as valid.
    pub fn set_valid(&mut self, i: usize) {
        assert!(i < self.len);
        if let Some(bits) = &mut self.bits {
            bits[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Extend the mask to cover one more row, with the given validity.
    pub fn push(&mut self, valid: bool) {
        let i = self.len;
        self.len += 1;
        if let Some(bits) = &mut self.bits {
            if bits.len() * 64 < self.len {
                bits.push(u64::MAX);
            }
        } else if !valid {
            self.bits = Some(vec![u64::MAX; self.len.div_ceil(64)]);
        }
        if !valid {
            self.set_invalid(i);
        }
    }

    /// The mask of rows `sel`, in `sel` order. An all-valid source, or a
    /// selection that picks no NULL, yields a maskless result.
    pub fn gather(&self, sel: &[u32]) -> Validity {
        let Some(bits) = &self.bits else {
            return Validity::all_valid(sel.len());
        };
        let mut out = vec![0u64; sel.len().div_ceil(64)];
        let mut nulls = false;
        for (i, &r) in sel.iter().enumerate() {
            let r = r as usize;
            let bit = (bits[r / 64] >> (r % 64)) & 1;
            out[i / 64] |= bit << (i % 64);
            nulls |= bit == 0;
        }
        if !nulls {
            return Validity::all_valid(sel.len());
        }
        // Bits past `sel.len()` stay valid, as `push` keeps them.
        if !sel.len().is_multiple_of(64) {
            *out.last_mut().expect("non-empty selection") |= u64::MAX << (sel.len() % 64);
        }
        Validity {
            bits: Some(out),
            len: sel.len(),
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match &self.bits {
            None => 0,
            Some(bits) => {
                let mut nulls = 0;
                for i in 0..self.len {
                    if (bits[i / 64] >> (i % 64)) & 1 == 0 {
                        nulls += 1;
                    }
                }
                nulls
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_valid_has_no_mask() {
        let v = Validity::all_valid(100);
        assert!(v.no_nulls());
        assert!(v.is_valid(0));
        assert!(v.is_valid(99));
        assert_eq!(v.null_count(), 0);
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn set_invalid_materializes() {
        let mut v = Validity::all_valid(130);
        v.set_invalid(0);
        v.set_invalid(64);
        v.set_invalid(129);
        assert!(!v.no_nulls());
        assert!(!v.is_valid(0));
        assert!(v.is_valid(1));
        assert!(!v.is_valid(64));
        assert!(v.is_valid(65));
        assert!(!v.is_valid(129));
        assert_eq!(v.null_count(), 3);
    }

    #[test]
    fn set_valid_restores() {
        let mut v = Validity::all_valid(10);
        v.set_invalid(5);
        assert!(!v.is_valid(5));
        v.set_valid(5);
        assert!(v.is_valid(5));
        assert_eq!(v.null_count(), 0);
    }

    #[test]
    fn push_grows() {
        let mut v = Validity::all_valid(0);
        for i in 0..200 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 200);
        for i in 0..200 {
            assert_eq!(v.is_valid(i), i % 3 != 0, "row {i}");
        }
        assert_eq!(v.null_count(), 67);
    }

    #[test]
    fn push_all_valid_stays_maskless() {
        let mut v = Validity::all_valid(0);
        for _ in 0..100 {
            v.push(true);
        }
        assert!(v.no_nulls());
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn gather_keeps_selected_nulls_and_drops_unneeded_masks() {
        let mut v = Validity::all_valid(200);
        v.set_invalid(3);
        v.set_invalid(130);
        let sel: Vec<u32> = (0..200).step_by(2).collect();
        let g = v.gather(&sel);
        assert_eq!(g.len(), 100);
        assert_eq!(g.null_count(), 1, "row 130 is selected, row 3 is not");
        assert!(!g.is_valid(65));
        assert!(v.gather(&[0, 1, 2, 199]).no_nulls());
        assert!(Validity::all_valid(10).gather(&[9, 0]).no_nulls());
        assert!(v.gather(&[]).is_empty());
        // The mask keeps extending correctly after a gather.
        let mut g = v.gather(&[3]);
        g.push(true);
        assert!(!g.is_valid(0) && g.is_valid(1));
    }

    #[test]
    fn push_after_materialization_tracks_words() {
        let mut v = Validity::all_valid(0);
        v.push(false);
        for _ in 0..127 {
            v.push(true);
        }
        v.push(false);
        assert_eq!(v.len(), 129);
        assert!(!v.is_valid(0));
        assert!(!v.is_valid(128));
        assert_eq!(v.null_count(), 2);
    }
}
