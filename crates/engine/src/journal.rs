//! Write-ahead run journal: durable checkpoints for fleet progress.
//!
//! A [`RunJournal`] is an append-only file of length-prefixed records —
//! the same framing discipline as the cluster wire protocol
//! (`crates/cluster/src/wire.rs`): a 4-byte big-endian payload length,
//! the payload, then a big-endian CRC-64 of the payload. The payload is
//! a BDBC `JournalRecord`; a journal from before BDBC was the only
//! encoding has a JSON `start` record, fails to load, and is reset. The
//! journal checkpoints every completed profile and sweep, so an
//! interrupted `profile_all`, sweep campaign, or cluster coordinator
//! resumes exactly where it stopped instead of re-running finished work.
//!
//! Crash tolerance is structural: a crash (or injected torn write) can
//! only damage the *tail* of an append-only file, and the per-record CRC
//! makes a damaged tail detectable. Loading walks frames from the start
//! and stops at the first frame that is short, oversized, or fails its
//! CRC; everything before it is trusted, everything after is discarded
//! and the file is truncated back to the valid prefix. The first record
//! is always a `start` record carrying the run's context string (the
//! command line, in practice); a journal whose context does not match is
//! discarded wholesale — resuming under different inputs would splice
//! results from a different run.
//!
//! The journal degrades, never blocks: any append failure marks the
//! journal broken and stops journaling for the rest of the run. The
//! engine keeps computing — the next run simply resumes from the last
//! durable record. Replayed results are byte-identical to recomputation
//! by the determinism contract, which is what makes resume safe at all.

use crate::codec;
use crate::json::Value;
use crate::store::{crc64, CacheStore, StoreError};
use bdb_sim::SweepResult;
use bdb_wcrt::WorkloadProfile;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Hard cap on one journal record's payload, mirroring the wire
/// protocol's frame cap: anything larger is treated as corruption.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// What [`RunJournal::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Completed profiles loaded from the journal.
    pub loaded_tasks: usize,
    /// Completed sweeps loaded from the journal.
    pub loaded_sweeps: usize,
    /// Bytes of damaged tail discarded during load.
    pub discarded_bytes: usize,
    /// An existing journal was discarded (context mismatch or a header
    /// too damaged to validate).
    pub reset: bool,
    /// Store operations that failed while opening (the engine folds
    /// these into its `disk_errors` counter).
    pub io_errors: u64,
}

struct Loaded {
    tasks: BTreeMap<u64, WorkloadProfile>,
    sweeps: BTreeMap<u64, SweepResult>,
    valid_len: usize,
}

/// An append-only, CRC-framed checkpoint log for one run. See the
/// module docs for the crash-tolerance model.
pub struct RunJournal {
    store: Arc<dyn CacheStore>,
    path: PathBuf,
    tasks: BTreeMap<u64, WorkloadProfile>,
    sweeps: BTreeMap<u64, SweepResult>,
    broken: bool,
}

impl RunJournal {
    /// Opens (and, when `resume` is set, loads) the journal at `path`.
    ///
    /// With `resume`, an existing journal whose `start` record matches
    /// `context` is loaded — completed records become available through
    /// [`completed_task`](Self::completed_task) /
    /// [`completed_sweep`](Self::completed_sweep), and any damaged tail
    /// is truncated away. Without `resume`, or when the context does not
    /// match, the file is overwritten with a fresh journal containing
    /// just the `start` record.
    pub fn open(
        store: Arc<dyn CacheStore>,
        path: PathBuf,
        context: &str,
        resume: bool,
    ) -> (RunJournal, JournalStats) {
        let mut stats = JournalStats::default();
        if resume {
            match store.read(&path) {
                Ok(Some(bytes)) => match Self::parse(&bytes, context) {
                    Ok(loaded) => {
                        stats.loaded_tasks = loaded.tasks.len();
                        stats.loaded_sweeps = loaded.sweeps.len();
                        let mut broken = false;
                        if loaded.valid_len < bytes.len() {
                            stats.discarded_bytes = bytes.len() - loaded.valid_len;
                            // Truncate the damaged tail so appends extend
                            // the valid prefix, not the garbage.
                            // bdb-lint: allow(panic-reachability): guarded above — valid_len < bytes.len()
                            if store.write(&path, &bytes[..loaded.valid_len]).is_err() {
                                stats.io_errors += 1;
                                broken = true;
                            }
                        }
                        return (
                            RunJournal {
                                store,
                                path,
                                tasks: loaded.tasks,
                                sweeps: loaded.sweeps,
                                broken,
                            },
                            stats,
                        );
                    }
                    Err(()) => stats.reset = true,
                },
                Ok(None) => {}
                Err(_) => stats.io_errors += 1,
            }
        }
        // Fresh journal: just the start record.
        if let Some(parent) = path.parent() {
            let _ = store.create_dir_all(parent);
        }
        let start = Value::object(vec![
            ("kind", Value::Str("start".to_owned())),
            ("context", Value::Str(context.to_owned())),
        ]);
        let broken = match store.write(&path, &frame(&start)) {
            Ok(()) => false,
            Err(_) => {
                stats.io_errors += 1;
                true
            }
        };
        (
            RunJournal {
                store,
                path,
                tasks: BTreeMap::new(),
                sweeps: BTreeMap::new(),
                broken,
            },
            stats,
        )
    }

    /// The profile journaled for `fingerprint`, if the run already
    /// completed it.
    pub fn completed_task(&self, fingerprint: u64) -> Option<&WorkloadProfile> {
        self.tasks.get(&fingerprint)
    }

    /// The sweep journaled under `key`, if the run already completed it.
    pub fn completed_sweep(&self, key: u64) -> Option<&SweepResult> {
        self.sweeps.get(&key)
    }

    /// Completed profiles currently known to the journal.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Completed sweeps currently known to the journal.
    pub fn sweep_count(&self) -> usize {
        self.sweeps.len()
    }

    /// Whether an earlier store failure disabled journaling for this
    /// run (results are still computed, just not checkpointed).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Journals a completed profile. Returns `Ok(true)` when a record
    /// was durably appended, `Ok(false)` when nothing needed writing
    /// (duplicate, or journal already broken), and `Err` on the store
    /// failure that just broke the journal.
    pub fn record_task(
        &mut self,
        fingerprint: u64,
        profile: &WorkloadProfile,
    ) -> Result<bool, StoreError> {
        if self.broken || self.tasks.contains_key(&fingerprint) {
            return Ok(false);
        }
        let record = Value::object(vec![
            ("kind", Value::Str("task".to_owned())),
            ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
            ("profile", codec::profile_to_value(profile)),
        ]);
        match self.store.append(&self.path, &frame(&record)) {
            Ok(()) => {
                self.tasks.insert(fingerprint, profile.clone());
                Ok(true)
            }
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    /// Journals a completed sweep under `key` (see [`sweep_key`]).
    /// Same return contract as [`record_task`](Self::record_task).
    pub fn record_sweep(&mut self, key: u64, result: &SweepResult) -> Result<bool, StoreError> {
        if self.broken || self.sweeps.contains_key(&key) {
            return Ok(false);
        }
        let record = Value::object(vec![
            ("kind", Value::Str("sweep".to_owned())),
            ("key", Value::Str(format!("{key:016x}"))),
            ("result", codec::sweep_result_to_value(result)),
        ]);
        match self.store.append(&self.path, &frame(&record)) {
            Ok(()) => {
                self.sweeps.insert(key, result.clone());
                Ok(true)
            }
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    /// Journals an in-flight assignment (pure provenance: `assign`
    /// records are ignored on load, but make a crashed coordinator's
    /// journal show what was dispatched and never finished).
    pub fn record_assign(&mut self, fingerprint: u64) -> Result<(), StoreError> {
        if self.broken {
            return Ok(());
        }
        let record = Value::object(vec![
            ("kind", Value::Str("assign".to_owned())),
            ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
        ]);
        match self.store.append(&self.path, &frame(&record)) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    /// Walks frames from the start. `Err(())` means the journal is
    /// unusable (no valid `start` record, or its context differs);
    /// otherwise returns everything loadable plus the byte length of the
    /// valid prefix (shorter than the file when the tail is damaged).
    fn parse(bytes: &[u8], context: &str) -> Result<Loaded, ()> {
        let mut tasks = BTreeMap::new();
        let mut sweeps = BTreeMap::new();
        let mut offset = 0usize;
        let mut first = true;
        while offset < bytes.len() {
            let Some((payload, next)) = next_frame(bytes, offset) else {
                break; // torn or corrupt tail: discard from here
            };
            let Some(value) = decode_payload(payload) else {
                break;
            };
            let Some(kind) = value.get("kind").and_then(Value::as_str) else {
                break;
            };
            if first {
                if kind != "start" || value.get("context").and_then(Value::as_str) != Some(context)
                {
                    return Err(());
                }
                first = false;
                offset = next;
                continue;
            }
            let ok = match kind {
                "task" => (|| {
                    let fp = hex_u64(value.get("fingerprint")?.as_str()?)?;
                    let profile = codec::profile_from_value(value.get("profile")?).ok()?;
                    tasks.insert(fp, profile);
                    Some(())
                })()
                .is_some(),
                "sweep" => (|| {
                    let key = hex_u64(value.get("key")?.as_str()?)?;
                    let result = codec::sweep_result_from_value(value.get("result")?).ok()?;
                    sweeps.insert(key, result);
                    Some(())
                })()
                .is_some(),
                "assign" => true,
                _ => false,
            };
            if !ok {
                break;
            }
            offset = next;
        }
        if first {
            // Never saw a valid start record: nothing to trust.
            return Err(());
        }
        Ok(Loaded {
            tasks,
            sweeps,
            valid_len: offset,
        })
    }
}

/// The journal key for a sweep: a CRC-64 over the sweep label and the
/// exact capacity list. Sweeps are driven by arbitrary closures whose
/// content cannot be fingerprinted, so a journaled sweep is only valid
/// under the same run context (the journal's `start` record pins that).
pub fn sweep_key(label: &str, capacities_kib: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(label.len() + 1 + capacities_kib.len() * 8);
    bytes.extend_from_slice(label.as_bytes());
    bytes.push(0);
    for &kib in capacities_kib {
        bytes.extend_from_slice(&kib.to_be_bytes());
    }
    crc64(&bytes)
}

/// One framed record: `[u32 BE payload len][payload][u64 BE CRC-64]`,
/// the payload a BDBC `JournalRecord`.
fn frame(record: &Value) -> Vec<u8> {
    let payload = bdb_codec::encode_record(
        bdb_codec::RecordKind::JournalRecord,
        &bdb_codec::bval::encode_value(record),
    );
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc64(&payload).to_be_bytes());
    out
}

/// Decodes a frame payload as a BDBC journal record. `None` on any
/// decode failure (a damaged tail, or a pre-BDBC JSON record).
fn decode_payload(payload: &[u8]) -> Option<Value> {
    let inner = bdb_codec::decode_record_of(bdb_codec::RecordKind::JournalRecord, payload).ok()?;
    bdb_codec::bval::decode_value(inner).ok()
}

/// Decodes the frame at `offset`; `None` when it is short, oversized,
/// or fails its CRC (all treated as a damaged tail).
fn next_frame(bytes: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let rest = bytes.get(offset..)?;
    let len_bytes: [u8; 4] = rest.get(..4)?.try_into().ok()?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let payload = rest.get(4..4 + len)?;
    let crc_bytes: [u8; 8] = rest.get(4 + len..4 + len + 8)?.try_into().ok()?;
    if crc64(payload) != u64::from_be_bytes(crc_bytes) {
        return None;
    }
    Some((payload, offset + 4 + len + 8))
}

fn hex_u64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RealFs;
    use bdb_node::NodeConfig;
    use bdb_sim::{MachineConfig, MissRatioCurve, SweepMetric};
    use bdb_wcrt::profile_workload;
    use bdb_workloads::{catalog, Scale};

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bdb-journal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_profile(id: &str) -> WorkloadProfile {
        let reps = catalog::representatives();
        let w = reps.iter().find(|w| w.spec.id == id).unwrap();
        profile_workload(
            w,
            Scale::tiny(),
            MachineConfig::xeon_e5645(),
            NodeConfig::default(),
        )
    }

    fn sample_sweep() -> SweepResult {
        let curve = |metric| MissRatioCurve {
            label: "probe".to_owned(),
            metric,
            points: vec![(16, 0.5), (64, 0.25)],
        };
        SweepResult {
            instruction: curve(SweepMetric::Instruction),
            data: curve(SweepMetric::Data),
            unified: curve(SweepMetric::Unified),
        }
    }

    #[test]
    fn records_survive_reopen() {
        let dir = scratch("reopen");
        let path = dir.join("run.wal");
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let p = sample_profile("H-WordCount");
        let s = sample_sweep();

        let (mut journal, stats) = RunJournal::open(store.clone(), path.clone(), "ctx", false);
        assert_eq!(stats, JournalStats::default());
        assert!(journal.record_task(0xabc, &p).unwrap());
        assert!(!journal.record_task(0xabc, &p).unwrap(), "dedup");
        assert!(journal.record_sweep(0xdef, &s).unwrap());
        journal.record_assign(0x123).unwrap();

        let (resumed, stats) = RunJournal::open(store.clone(), path.clone(), "ctx", true);
        assert_eq!((stats.loaded_tasks, stats.loaded_sweeps), (1, 1));
        assert_eq!(stats.discarded_bytes, 0);
        assert!(!stats.reset);
        let back = resumed.completed_task(0xabc).unwrap();
        assert_eq!(
            crate::codec::profile_to_value(back).encode(),
            crate::codec::profile_to_value(&p).encode(),
            "journaled profile must replay byte-identically"
        );
        assert_eq!(resumed.completed_sweep(0xdef).unwrap(), &s);
        assert!(resumed.completed_task(0x123).is_none(), "assign ≠ done");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = scratch("torn");
        let path = dir.join("run.wal");
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let p = sample_profile("H-WordCount");
        let (mut journal, _) = RunJournal::open(store.clone(), path.clone(), "ctx", false);
        journal.record_task(1, &p).unwrap();
        let good = std::fs::read(&path).unwrap();
        let good_len = good.len();

        // A second record torn at every prefix length still resumes the
        // first record and truncates the tail back to the valid prefix.
        let record2 = {
            journal.record_task(2, &p).unwrap();
            std::fs::read(&path).unwrap()[good_len..].to_vec()
        };
        for cut in 0..record2.len() {
            let mut torn = good.clone();
            torn.extend_from_slice(&record2[..cut]);
            std::fs::write(&path, &torn).unwrap();
            let (resumed, stats) = RunJournal::open(store.clone(), path.clone(), "ctx", true);
            assert_eq!(stats.loaded_tasks, 1, "cut {cut}");
            assert_eq!(stats.discarded_bytes, cut, "cut {cut}");
            assert!(resumed.completed_task(1).is_some());
            assert!(resumed.completed_task(2).is_none());
            assert_eq!(
                std::fs::read(&path).unwrap().len(),
                good_len,
                "cut {cut}: file truncated to the valid prefix"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_body_discards_the_rest() {
        let dir = scratch("flip");
        let path = dir.join("run.wal");
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let p = sample_profile("H-WordCount");
        let (mut journal, _) = RunJournal::open(store.clone(), path.clone(), "ctx", false);
        journal.record_task(1, &p).unwrap();
        let good_len = std::fs::read(&path).unwrap().len();
        journal.record_task(2, &p).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit inside the second record: its CRC fails, so
        // the load keeps record 1 and truncates the rest away.
        let target = good_len + 20;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (resumed, stats) = RunJournal::open(store, path, "ctx", true);
        assert_eq!(stats.loaded_tasks, 1);
        assert!(stats.discarded_bytes > 0);
        assert!(resumed.completed_task(2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn context_mismatch_resets_the_journal() {
        let dir = scratch("ctx");
        let path = dir.join("run.wal");
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let p = sample_profile("H-WordCount");
        let (mut journal, _) = RunJournal::open(store.clone(), path.clone(), "run A", false);
        journal.record_task(1, &p).unwrap();
        let (resumed, stats) = RunJournal::open(store.clone(), path.clone(), "run B", true);
        assert!(stats.reset, "different context must not replay");
        assert_eq!(resumed.task_count(), 0);
        // And the reset journal is usable under the new context.
        let (again, stats) = RunJournal::open(store, path, "run B", true);
        assert!(!stats.reset);
        assert_eq!(again.task_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_without_resume_discards_existing_records() {
        let dir = scratch("fresh");
        let path = dir.join("run.wal");
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let p = sample_profile("H-WordCount");
        let (mut journal, _) = RunJournal::open(store.clone(), path.clone(), "ctx", false);
        journal.record_task(1, &p).unwrap();
        let (fresh, stats) = RunJournal::open(store, path, "ctx", false);
        assert_eq!(fresh.task_count(), 0);
        assert_eq!(stats.loaded_tasks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_are_bdbc_and_a_json_era_journal_resets() {
        let dir = scratch("legacy");
        let path = dir.join("run.wal");
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let p = sample_profile("H-WordCount");
        let (mut journal, _) = RunJournal::open(store.clone(), path.clone(), "ctx", false);
        assert!(journal.record_task(0xabc, &p).unwrap());
        let bytes = std::fs::read(&path).unwrap();
        let (start, _) = next_frame(&bytes, 0).expect("start frame");
        assert!(bdb_codec::is_binary(start), "payloads are BDBC records");

        // A journal whose start record is canonical JSON, framed as
        // before BDBC became the only encoding: resume resets it.
        let json_start = Value::object(vec![
            ("kind", Value::Str("start".to_owned())),
            ("context", Value::Str("ctx".to_owned())),
        ])
        .encode()
        .into_bytes();
        let mut legacy = (json_start.len() as u32).to_be_bytes().to_vec();
        legacy.extend_from_slice(&json_start);
        legacy.extend_from_slice(&crc64(&json_start).to_be_bytes());
        std::fs::write(&path, &legacy).unwrap();
        let (resumed, stats) = RunJournal::open(store, path, "ctx", true);
        assert!(stats.reset, "a JSON start record is not loadable");
        assert_eq!(resumed.task_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_key_separates_inputs() {
        let base = sweep_key("icache", &[16, 64]);
        assert_ne!(base, sweep_key("dcache", &[16, 64]));
        assert_ne!(base, sweep_key("icache", &[16, 64, 256]));
        assert_ne!(base, sweep_key("icache", &[64, 16]));
        assert_eq!(base, sweep_key("icache", &[16, 64]));
    }
}
