//! The engine's filesystem boundary: every byte the engine persists or
//! reads back flows through a [`CacheStore`].
//!
//! Two backends implement the trait:
//!
//! * [`RealFs`] — a thin passthrough to `std::fs`. This is the only
//!   place in `crates/engine` allowed to touch the filesystem directly
//!   (the `raw-fs` lint bans `std::fs` everywhere else in the crate).
//! * [`ChaosFs`] — a deterministic fault injector wrapping [`RealFs`].
//!   A seeded [`ChaosPlan`] schedules ENOSPC-style write failures, torn
//!   (partial) writes, rename failures, read errors, and read-time bit
//!   corruption — the storage-level twin of the frame-level
//!   [`FaultPlan`](../../cluster/src/fault.rs) the cluster tests use.
//!   Injected faults are counted ([`ChaosCounters`]) so tests can assert
//!   that the engine's [`CacheCounters`](crate::CacheCounters) account
//!   for every single one.
//!
//! The trait's error contract is deliberately coarse: callers degrade
//! (miss, recompute, stop persisting) rather than branch on error kinds,
//! so a [`StoreError`] only carries the failed operation and a message.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// CRC-64/XZ over `bytes` — the content checksum stamped into every
/// cache entry. Re-exported from `bdb-codec`, the
/// single reference implementation shared with the binary container.
pub use bdb_codec::crc64;

/// A storage operation failed. Callers treat this as "degrade and keep
/// going" — the engine counts it and recomputes or stops persisting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The operation that failed (`"read"`, `"write"`, ...).
    pub op: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl StoreError {
    fn new(op: &'static str, path: &Path, message: impl std::fmt::Display) -> Self {
        StoreError {
            op,
            message: format!("{}: {message}", path.display()),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store {} failed: {}", self.op, self.message)
    }
}

impl std::error::Error for StoreError {}

/// Length and recency of one file, from [`CacheStore::meta`].
#[derive(Debug, Clone, Copy)]
pub struct FileMeta {
    /// File length in bytes.
    pub len: u64,
    /// Last-modified time — recency metadata for LRU eviction only.
    // bdb-lint: allow(determinism): eviction recency ordering only; never reaches profile bytes.
    pub modified: std::time::SystemTime,
}

/// Filesystem operations the engine needs, behind one seam so a fault
/// injector can sit underneath everything the engine persists.
///
/// Conventions: `read` and `meta` distinguish "not found" (`Ok(None)`)
/// from real I/O errors; `remove` of a missing file and `list` of a
/// missing directory succeed (idempotent cleanup). `list` is
/// non-recursive and returns the paths of regular files only, in byte
/// order of their names, so subdirectories such as `quarantine/` are
/// invisible to cache-cap accounting. It returns names, not sizes: the startup scan and the
/// key listing need nothing else, and a warm engine start lists the
/// directory on every session. `meta` is the one per-file stat, and only
/// cache-cap eviction calls it.
pub trait CacheStore: Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError>;
    /// Reads a whole file; `Ok(None)` when it does not exist.
    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError>;
    /// Writes (creates or truncates) a whole file.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError>;
    /// Atomically renames `from` to `to` (same directory tree).
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError>;
    /// Removes a file; missing files are not an error.
    fn remove(&self, path: &Path) -> Result<(), StoreError>;
    /// Lists the regular files directly under `dir` in byte order of
    /// their names (missing dir = empty). For the entries of one
    /// directory that is the order `Path`'s `Ord` gives.
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StoreError>;
    /// Length and mtime of a file; `Ok(None)` when it does not exist.
    fn meta(&self, path: &Path) -> Result<Option<FileMeta>, StoreError>;
    /// Best-effort mtime refresh marking `path` as recently used.
    fn touch(&self, path: &Path) -> Result<(), StoreError>;
}

/// The production backend: a passthrough to the host filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl CacheStore for RealFs {
    fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::new("create_dir_all", dir, e))
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::new("read", path, e)),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        std::fs::write(path, bytes).map_err(|e| StoreError::new("write", path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        std::fs::rename(from, to).map_err(|e| StoreError::new("rename", from, e))
    }

    fn remove(&self, path: &Path) -> Result<(), StoreError> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::new("remove", path, e)),
        }
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::new("list", dir, e)),
        };
        // `file_type` comes from the directory entry itself (`d_type`),
        // so the scan costs no syscall per file; std falls back to
        // `lstat` where the filesystem leaves the type unknown. Either
        // way a symlink is not a regular file.
        let mut files: Vec<PathBuf> = entries
            .flatten()
            .filter(|entry| entry.file_type().is_ok_and(|t| t.is_file()))
            .map(|entry| entry.path())
            .collect();
        // Every path is `dir` joined with one name, so comparing whole
        // paths as bytes orders them by name, as `Path`'s component-wise
        // `Ord` would, without parsing components on each comparison.
        files.sort_unstable_by(|a, b| a.as_os_str().cmp(b.as_os_str()));
        Ok(files)
    }

    fn meta(&self, path: &Path) -> Result<Option<FileMeta>, StoreError> {
        match std::fs::metadata(path) {
            Ok(meta) => Ok(Some(FileMeta {
                len: meta.len(),
                // bdb-lint: allow(determinism): recency metadata for cache eviction only.
                modified: meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH),
            })),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::new("meta", path, e)),
        }
    }

    fn touch(&self, path: &Path) -> Result<(), StoreError> {
        let file = std::fs::File::options()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::new("touch", path, e))?;
        // bdb-lint: allow(determinism): recency metadata for cache eviction only; never reaches profile bytes.
        file.set_modified(std::time::SystemTime::now())
            .map_err(|e| StoreError::new("touch", path, e))
    }
}

/// Seeded fault schedule for a [`ChaosFs`]. The default plan is
/// fault-free; each `Some(p)` arms one fault class to fire whenever the
/// schedule's next draw is divisible by `p` (so smaller periods fire
/// more often). The schedule is a pure function of `seed` and the
/// sequence of eligible operations — rerunning the same single-threaded
/// workload over the same plan injects the same faults at the same ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the deterministic draw stream.
    pub seed: u64,
    /// ENOSPC-style failures: the write fails and nothing is written.
    pub write_error_period: Option<u64>,
    /// Torn writes: a strict prefix is written, then the op fails.
    pub torn_write_period: Option<u64>,
    /// Rename failures: the op fails and the source is left in place.
    pub rename_error_period: Option<u64>,
    /// Read failures on existing files.
    pub read_error_period: Option<u64>,
    /// Read-time single-bit corruption of `.bin` cache entries.
    pub read_corruption_period: Option<u64>,
}

impl ChaosPlan {
    /// A fault-free plan with the given seed.
    pub fn clean(seed: u64) -> Self {
        ChaosPlan {
            seed,
            write_error_period: None,
            torn_write_period: None,
            rename_error_period: None,
            read_error_period: None,
            read_corruption_period: None,
        }
    }

    /// An aggressive all-faults plan for soak tests: every fault class
    /// armed with small, mutually prime periods.
    pub fn storm(seed: u64) -> Self {
        ChaosPlan {
            seed,
            write_error_period: Some(5),
            torn_write_period: Some(7),
            rename_error_period: Some(6),
            read_error_period: Some(11),
            read_corruption_period: Some(3),
        }
    }
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::clean(0)
    }
}

/// How many faults a [`ChaosFs`] has injected, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Writes failed with nothing written.
    pub write_errors: u64,
    /// Writes that persisted a strict prefix, then failed.
    pub torn_writes: u64,
    /// Renames failed with the source left intact.
    pub rename_errors: u64,
    /// Reads of existing files failed.
    pub read_errors: u64,
    /// `.bin` reads returned payloads with one flipped bit.
    pub read_corruptions: u64,
}

impl ChaosCounters {
    /// Injected faults the engine observes as failed store operations
    /// (everything except silent read corruption, which surfaces as a
    /// quarantined entry instead).
    pub fn op_errors(&self) -> u64 {
        self.write_errors + self.torn_writes + self.rename_errors + self.read_errors
    }
}

/// A [`CacheStore`] that wraps [`RealFs`] and injects faults per a
/// seeded [`ChaosPlan`]. Only the data path is fault-eligible (`read`,
/// `write`, `rename`); `list`/`meta`/`remove`/`touch`/`create_dir_all`
/// pass through untouched so fault accounting stays exact. Bit
/// corruption targets `.bin` cache entries (BDBC records, whose
/// checksum covers every byte) and flips exactly one bit — so every
/// injected corruption is guaranteed to be detectable.
pub struct ChaosFs {
    inner: RealFs,
    plan: ChaosPlan,
    rng: Mutex<u64>,
    write_errors: AtomicU64,
    torn_writes: AtomicU64,
    rename_errors: AtomicU64,
    read_errors: AtomicU64,
    read_corruptions: AtomicU64,
}

impl ChaosFs {
    /// A chaos store over the real filesystem with the given plan.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosFs {
            inner: RealFs,
            // SplitMix64 needs a non-trivial starting increment.
            rng: Mutex::new(plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9abc_def0),
            plan,
            write_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            rename_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            read_corruptions: AtomicU64::new(0),
        }
    }

    /// Injected-fault counts so far.
    pub fn counters(&self) -> ChaosCounters {
        ChaosCounters {
            write_errors: self.write_errors.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            rename_errors: self.rename_errors.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            read_corruptions: self.read_corruptions.load(Ordering::Relaxed),
        }
    }

    /// SplitMix64 step — a deterministic draw stream.
    fn next(&self) -> u64 {
        let mut state = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn fire(&self, period: Option<u64>) -> bool {
        period.is_some_and(|p| p > 0 && self.next().is_multiple_of(p))
    }

    fn fail(op: &'static str, path: &Path, what: &str) -> StoreError {
        StoreError::new(op, path, format!("injected chaos fault: {what}"))
    }
}

impl CacheStore for ChaosFs {
    fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError> {
        self.inner.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(mut bytes) = self.inner.read(path)? else {
            return Ok(None);
        };
        if self.fire(self.plan.read_error_period) {
            self.read_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Self::fail("read", path, "read error"));
        }
        let checksummed = path.extension().is_some_and(|e| e == "bin");
        if checksummed && !bytes.is_empty() && self.fire(self.plan.read_corruption_period) {
            let bit = (self.next() as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            self.read_corruptions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Some(bytes))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        if self.fire(self.plan.write_error_period) {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Self::fail("write", path, "out of space"));
        }
        if self.fire(self.plan.torn_write_period) && !bytes.is_empty() {
            let cut = (self.next() as usize) % bytes.len();
            let _ = self.inner.write(path, &bytes[..cut]);
            self.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Err(Self::fail("write", path, "torn write"));
        }
        self.inner.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        if self.fire(self.plan.rename_error_period) {
            self.rename_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Self::fail("rename", from, "rename error"));
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<(), StoreError> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
        self.inner.list(dir)
    }

    fn meta(&self, path: &Path) -> Result<Option<FileMeta>, StoreError> {
        self.inner.meta(path)
    }

    fn touch(&self, path: &Path) -> Result<(), StoreError> {
        self.inner.touch(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc64_reexport_matches_the_xz_check_value() {
        // The checksum the store stamps is bdb-codec's CRC-64/XZ.
        assert_eq!(crc64(b"123456789"), 0x995d_c9bb_df19_39fa);
    }

    #[test]
    fn real_fs_read_write_roundtrip_and_not_found() {
        let dir = scratch("realfs");
        let path = dir.join("x.bin");
        assert_eq!(RealFs.read(&path).unwrap(), None);
        RealFs.write(&path, b"abc").unwrap();
        assert_eq!(RealFs.read(&path).unwrap().unwrap(), b"abc");
        let to = dir.join("y.bin");
        RealFs.rename(&path, &to).unwrap();
        assert_eq!(RealFs.read(&path).unwrap(), None);
        assert_eq!(RealFs.list(&dir).unwrap().len(), 1);
        RealFs.remove(&to).unwrap();
        RealFs.remove(&to).unwrap(); // idempotent
        assert!(RealFs.list(&dir).unwrap().is_empty());
        assert!(RealFs.list(&dir.join("missing")).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_list_returns_regular_files_only() {
        let dir = scratch("list-files");
        RealFs.write(&dir.join("b.bin"), b"b").unwrap();
        RealFs.write(&dir.join("a.bin"), b"a").unwrap();
        // A crashed writer's temp file: the startup sweep finds it here.
        RealFs.write(&dir.join(".x.tmp"), b"torn").unwrap();
        let quarantine = dir.join("quarantine");
        RealFs.create_dir_all(&quarantine).unwrap();
        RealFs.write(&quarantine.join("q.bin"), b"q").unwrap();
        #[cfg(unix)]
        std::os::unix::fs::symlink(dir.join("a.bin"), dir.join("link.bin")).unwrap();
        assert_eq!(
            RealFs.list(&dir).unwrap(),
            vec![dir.join(".x.tmp"), dir.join("a.bin"), dir.join("b.bin")],
            "sorted, no subdirectory, nothing inside it, no symlink"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_list_orders_names_as_a_path_sort_does() {
        // Names that part at `-`, `.`, `_` or a digit, a stem that is a
        // prefix of another, and a temp file's leading dot.
        let dir = scratch("list-order");
        let names = [
            "a_b.bin",
            "a0.bin",
            ".a.bin.tmp1",
            "a.bin",
            "a-b.bin",
            "a.bin.tmp",
            "ab.bin",
            "a.b",
            "a",
        ];
        for name in names {
            RealFs.write(&dir.join(name), name.as_bytes()).unwrap();
        }
        let mut by_path: Vec<PathBuf> = names.iter().map(|name| dir.join(name)).collect();
        by_path.sort();
        let listed = RealFs.list(&dir).unwrap();
        assert_eq!(listed, by_path);
        let listed: Vec<_> = listed.iter().filter_map(|p| p.file_name()).collect();
        assert_eq!(
            listed,
            [
                ".a.bin.tmp1",
                "a",
                "a-b.bin",
                "a.b",
                "a.bin",
                "a.bin.tmp",
                "a0.bin",
                "a_b.bin",
                "ab.bin"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_meta_reads_length_and_misses_removed_files() {
        let dir = scratch("meta");
        let path = dir.join("m.bin");
        RealFs.write(&path, b"12345").unwrap();
        assert_eq!(RealFs.meta(&path).unwrap().map(|m| m.len), Some(5));
        RealFs.remove(&path).unwrap();
        assert!(RealFs.meta(&path).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_schedule_is_deterministic_per_seed() {
        let dir = scratch("chaos-det");
        let run = |seed: u64| {
            let chaos = ChaosFs::new(ChaosPlan::storm(seed));
            let mut outcomes = Vec::new();
            for i in 0..40 {
                let path = dir.join(format!("f{i}.bin"));
                outcomes.push(chaos.write(&path, b"{\"k\":1}\n").is_ok());
                outcomes.push(matches!(chaos.read(&path), Ok(Some(_))));
            }
            (outcomes, chaos.counters())
        };
        let (a1, c1) = run(42);
        let (a2, c2) = run(42);
        assert_eq!(a1, a2, "same seed must replay the same fault schedule");
        assert_eq!(c1, c2);
        let (b1, c3) = run(43);
        assert!(a1 != b1 || c1 != c3, "different seeds should diverge");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        let dir = scratch("chaos-torn");
        let chaos = ChaosFs::new(ChaosPlan {
            torn_write_period: Some(1), // every write tears
            ..ChaosPlan::clean(7)
        });
        let path = dir.join("t.json");
        let payload = b"0123456789abcdef";
        assert!(chaos.write(&path, payload).is_err());
        let on_disk = RealFs.read(&path).unwrap().unwrap_or_default();
        assert!(on_disk.len() < payload.len(), "must be a strict prefix");
        assert_eq!(&payload[..on_disk.len()], &on_disk[..]);
        assert_eq!(chaos.counters().torn_writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_corruption_flips_exactly_one_bit_of_a_cache_entry() {
        let dir = scratch("chaos-flip");
        let chaos = ChaosFs::new(ChaosPlan {
            read_corruption_period: Some(1), // every .bin read corrupts
            ..ChaosPlan::clean(3)
        });
        let path = dir.join("c.bin");
        let clean = b"BDBC\x01\x00\x02\x00payload-bytes".to_vec();
        RealFs.write(&path, &clean).unwrap();
        let mut last_byte_hit = false;
        for _ in 0..64 {
            let got = chaos.read(&path).unwrap().unwrap();
            let diff: Vec<usize> = (0..clean.len()).filter(|&i| got[i] != clean[i]).collect();
            assert_eq!(diff.len(), 1, "exactly one byte differs");
            last_byte_hit |= diff[0] == clean.len() - 1;
            assert_eq!(
                (got[diff[0]] ^ clean[diff[0]]).count_ones(),
                1,
                "exactly one bit flipped"
            );
        }
        assert_eq!(chaos.counters().read_corruptions, 64);
        assert!(last_byte_hit, "the final byte is corruption-eligible too");
        // Reads of other extensions are never corrupted.
        for other in ["c.wal", "c.json"] {
            let path = dir.join(other);
            RealFs.write(&path, &clean).unwrap();
            assert_eq!(chaos.read(&path).unwrap().unwrap(), clean, "{other}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
