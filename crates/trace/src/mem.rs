//! Simulated data address space.
//!
//! Workload data structures (sort buffers, hash tables, graph arrays,
//! shuffle partitions…) are mirrored into a simulated heap so that every
//! load/store in the trace carries a realistic virtual address. The heap is
//! a deterministic bump allocator: the same allocation sequence always
//! yields the same addresses, which keeps every measured table replayable.

/// Base virtual address of the simulated heap.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// Base virtual address of the simulated stack/scratch area.
pub const SCRATCH_BASE: u64 = 0x7000_0000;

/// A span of simulated data memory returned by [`SimAlloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRegion {
    base: u64,
    len: u64,
}

impl MemRegion {
    /// First byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of `offset` bytes into the region.
    ///
    /// Bounds are checked in debug builds only: the hot instrumentation path
    /// must stay branch-free in release mode.
    pub fn addr(&self, offset: u64) -> u64 {
        debug_assert!(
            offset < self.len,
            "offset {offset} out of region of len {}",
            self.len
        );
        self.base + offset
    }

    /// Address of element `index` of an array of `elem_size`-byte elements.
    pub fn elem(&self, index: u64, elem_size: u64) -> u64 {
        self.addr(index * elem_size)
    }

    /// Splits off the first `n` bytes as a sub-region.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_prefix(&self, n: u64) -> (MemRegion, MemRegion) {
        assert!(
            n <= self.len,
            "cannot split {n} bytes from region of len {}",
            self.len
        );
        (
            MemRegion {
                base: self.base,
                len: n,
            },
            MemRegion {
                base: self.base + n,
                len: self.len - n,
            },
        )
    }
}

/// Deterministic bump allocator over a simulated address range.
///
/// # Examples
///
/// ```
/// use bdb_trace::SimAlloc;
///
/// let mut heap = SimAlloc::heap();
/// let a = heap.alloc(100, 8);
/// let b = heap.alloc(100, 8);
/// assert!(b.base() >= a.base() + 100);
/// assert_eq!(a.base() % 8, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimAlloc {
    cursor: u64,
    allocated: u64,
}

impl SimAlloc {
    /// Allocator over the heap range (for long-lived workload data).
    pub fn heap() -> Self {
        Self {
            cursor: HEAP_BASE,
            allocated: 0,
        }
    }

    /// Allocator over the scratch range (for per-record framework scratch).
    pub fn scratch() -> Self {
        Self {
            cursor: SCRATCH_BASE,
            allocated: 0,
        }
    }

    /// Allocator starting at an arbitrary base (for tests).
    pub fn with_base(base: u64) -> Self {
        Self {
            cursor: base,
            allocated: 0,
        }
    }

    /// Allocates `len` bytes aligned to `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, len: u64, align: u64) -> MemRegion {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.cursor = (self.cursor + align - 1) & !(align - 1);
        let region = MemRegion {
            base: self.cursor,
            len,
        };
        self.cursor += len;
        self.allocated += len;
        region
    }

    /// Total bytes handed out so far (excluding alignment padding).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut a = SimAlloc::heap();
        let r1 = a.alloc(33, 16);
        let r2 = a.alloc(64, 64);
        assert_eq!(r1.base() % 16, 0);
        assert_eq!(r2.base() % 64, 0);
        assert!(r2.base() >= r1.base() + r1.len());
        assert_eq!(a.allocated_bytes(), 97);
    }

    #[test]
    fn elem_addressing() {
        let mut a = SimAlloc::with_base(0x1000);
        let r = a.alloc(80, 8);
        assert_eq!(r.elem(0, 8), 0x1000);
        assert_eq!(r.elem(9, 8), 0x1000 + 72);
    }

    #[test]
    fn split_prefix() {
        let mut a = SimAlloc::with_base(0x2000);
        let r = a.alloc(100, 4);
        let (head, tail) = r.split_prefix(40);
        assert_eq!(head.len(), 40);
        assert_eq!(tail.len(), 60);
        assert_eq!(tail.base(), head.base() + 40);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        let mut a = SimAlloc::heap();
        let _ = a.alloc(8, 3);
    }

    #[test]
    fn heap_and_scratch_are_disjoint_ranges() {
        let h = SimAlloc::heap().alloc(1 << 20, 8);
        let s = SimAlloc::scratch().alloc(1 << 20, 8);
        assert!(h.base() + h.len() <= s.base());
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut a = SimAlloc::heap();
            (0..10)
                .map(|i| a.alloc(i * 13 + 1, 8).base())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
