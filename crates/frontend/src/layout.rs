//! Statespace memory layout assigned by the frontend.
//!
//! Every array declared in the source program is given a contiguous range of
//! statespace addresses; element `a[i]` lives at `base(a) + i`. The layout is
//! returned alongside the CDFG so that callers can pre-load input data and
//! read back results at the right addresses.

use std::fmt;

/// One array placed in the statespace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArraySymbol {
    /// Array name as written in the source.
    pub name: String,
    /// Base address of element 0.
    pub base: i64,
    /// Number of elements.
    pub len: usize,
}

impl ArraySymbol {
    /// Address of element `index`.
    ///
    /// Wraps on overflow, consistent with the wrapping address arithmetic of
    /// the statespace and `BinOp::eval`.
    pub fn address(&self, index: usize) -> i64 {
        self.base.wrapping_add(index as i64)
    }
}

/// The complete statespace layout of a compiled program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MemoryLayout {
    arrays: Vec<ArraySymbol>,
    next_free: i64,
}

impl MemoryLayout {
    /// Creates an empty layout starting at address 0.
    pub fn new() -> Self {
        MemoryLayout::default()
    }

    /// Allocates `len` consecutive addresses for array `name` and returns the
    /// new symbol, or `None` when the array would overflow the statespace
    /// address range (allocating anyway would silently alias earlier arrays).
    pub fn allocate(&mut self, name: impl Into<String>, len: usize) -> Option<ArraySymbol> {
        let next_free = i64::try_from(len)
            .ok()
            .and_then(|len| self.next_free.checked_add(len))?;
        let sym = ArraySymbol {
            name: name.into(),
            base: self.next_free,
            len,
        };
        self.next_free = next_free;
        self.arrays.push(sym.clone());
        Some(sym)
    }

    /// Looks up an array by name: the first one declared under it.  An
    /// array declared again under that name (after a branch that declared
    /// one) has a base of its own, listed after it in [`Self::arrays`].
    pub fn array(&self, name: &str) -> Option<&ArraySymbol> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// All allocated arrays in declaration order.
    pub fn arrays(&self) -> &[ArraySymbol] {
        &self.arrays
    }

    /// Total number of statespace words allocated.
    pub fn total_words(&self) -> usize {
        self.arrays.iter().map(|a| a.len).sum()
    }
}

impl fmt::Display for MemoryLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for sym in &self.arrays {
            writeln!(
                f,
                "{:<12} base {:<5} len {:<5}",
                sym.name, sym.base, sym.len
            )?;
        }
        write!(f, "total {} words", self.total_words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_contiguous() {
        let mut layout = MemoryLayout::new();
        let a = layout.allocate("a", 5).unwrap();
        let b = layout.allocate("b", 3).unwrap();
        assert_eq!(a.base, 0);
        assert_eq!(b.base, 5);
        assert_eq!(a.address(4), 4);
        assert_eq!(b.address(2), 7);
        assert_eq!(layout.total_words(), 8);
    }

    #[test]
    fn lookup_by_name() {
        let mut layout = MemoryLayout::new();
        layout.allocate("coeff", 16).unwrap();
        assert!(layout.array("coeff").is_some());
        assert!(layout.array("other").is_none());
        assert_eq!(layout.arrays().len(), 1);
        assert!(layout.to_string().contains("coeff"));
    }

    #[test]
    fn exhausting_the_address_range_is_rejected_not_aliased() {
        let mut layout = MemoryLayout::new();
        layout.allocate("big", (i64::MAX - 2) as usize).unwrap();
        assert!(layout.allocate("more", 4).is_none());
        // The failed allocation left no symbol behind.
        assert!(layout.array("more").is_none());
    }
}
