//! Code-address-space management.
//!
//! Every routine a workload or software stack executes owns a
//! [`CodeRegion`]: a contiguous span of instruction addresses. Executing
//! through the instrumented context advances a cursor inside the current
//! region, so the *instruction footprint* — how many distinct instruction
//! bytes a workload touches, the quantity behind the paper's Figures 6 and
//! 9 — emerges from which routines run and how far execution walks into
//! each of them. Deep stacks (Hadoop-like) register megabytes of routine
//! code; thin stacks (MPI-like) register little, which is precisely the
//! mechanism behind the paper's observation O4.

/// Base virtual address of the code segment.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Alignment of every region (one 4 KiB page).
pub const REGION_ALIGN: u64 = 4096;

/// Identifier of a registered [`CodeRegion`] within a [`CodeLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub(crate) u32);

impl RegionId {
    /// Raw index of this region in its layout.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous span of instruction addresses owned by one routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeRegion {
    /// Human-readable routine name, e.g. `"mapreduce::spill_sort"`.
    pub name: String,
    /// First instruction address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl CodeRegion {
    /// Address one past the last instruction byte.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }
}

/// The code layout of one simulated process: an append-only registry of
/// [`CodeRegion`]s packed into the code segment.
///
/// # Examples
///
/// ```
/// use bdb_trace::CodeLayout;
///
/// let mut layout = CodeLayout::new();
/// let a = layout.region("stack::reader", 16 * 1024);
/// let b = layout.region("stack::writer", 8 * 1024);
/// assert_ne!(a, b);
/// assert!(layout.get(b).base >= layout.get(a).end());
/// assert_eq!(layout.total_code_bytes(), 24 * 1024);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodeLayout {
    regions: Vec<CodeRegion>,
    next_base: u64,
}

impl CodeLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self {
            regions: Vec::new(),
            next_base: CODE_BASE,
        }
    }

    /// Registers a routine occupying `size` bytes of code and returns its id.
    ///
    /// Regions are page-aligned so that distinct routines never share cache
    /// lines or TLB pages, as separate functions in a real binary rarely do.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn region(&mut self, name: impl Into<String>, size: u64) -> RegionId {
        assert!(size > 0, "code region must be non-empty");
        // bdb-lint: allow(panic-hygiene): >4G regions is synthetic-trace abuse.
        let id = RegionId(u32::try_from(self.regions.len()).expect("too many regions"));
        let base = self.next_base;
        let padded = size.div_ceil(REGION_ALIGN) * REGION_ALIGN;
        self.next_base += padded;
        self.regions.push(CodeRegion {
            name: name.into(),
            base,
            size,
        });
        id
    }

    /// Looks up a region.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this layout.
    pub fn get(&self, id: RegionId) -> &CodeRegion {
        &self.regions[id.index()]
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Sum of all region sizes (static code bytes).
    pub fn total_code_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.size).sum()
    }

    /// Iterator over all regions in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &CodeRegion> {
        self.regions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut l = CodeLayout::new();
        let ids: Vec<_> = (0..20)
            .map(|i| l.region(format!("r{i}"), 1000 + i * 37))
            .collect();
        for w in ids.windows(2) {
            let a = l.get(w[0]);
            let b = l.get(w[1]);
            assert!(a.end() <= b.base);
        }
    }

    #[test]
    fn regions_are_page_aligned() {
        let mut l = CodeLayout::new();
        let a = l.region("a", 5);
        let b = l.region("b", 5000);
        assert_eq!(l.get(a).base % REGION_ALIGN, 0);
        assert_eq!(l.get(b).base % REGION_ALIGN, 0);
    }

    #[test]
    fn lookup_returns_registered_metadata() {
        let mut l = CodeLayout::new();
        let id = l.region("kernel::inner", 4096);
        let r = l.get(id);
        assert_eq!(r.name, "kernel::inner");
        assert_eq!(r.size, 4096);
        assert_eq!(r.base, CODE_BASE);
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_region_panics() {
        let mut l = CodeLayout::new();
        let _ = l.region("bad", 0);
    }
}
