//! The write-ahead log: checksummed redo records, torn-tail recovery scan.
//!
//! Record framing on disk: `[len: u32][crc: u32][payload: len bytes]`, all
//! little-endian, `crc = fnv1a32(payload)`. Payloads are full-replacement redo
//! records ([`WalRecord`]), so replay is idempotent: applying a prefix of the
//! log twice (e.g. after a crash *during* recovery) lands in the same state as
//! applying it once. That is the whole ARIES-lite trick — no undo pass is ever
//! needed because records replace rather than delta.
//!
//! The recovery scan ([`Wal::open`]) reads records until it meets the end of
//! file, a frame that extends past the file, or a checksum mismatch. Everything
//! from the first bad frame on is a torn tail from an interrupted append: it is
//! discarded and the file truncated back to the last valid record. A torn tail
//! is produced deliberately by the [`sites::WAL_APPEND`] failpoint's `Panic`
//! action, which writes half a record and then simulates the crash.

use crate::codec::{fnv1a32, ByteReader, ByteWriter};
use crate::error::StoreError;
use gj_storage::fault::{sites, FailpointHit, FailpointRegistry};
use gj_storage::{Relation, Val};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Upper bound on a single record's payload; a length field beyond this is
/// treated as torn/corrupt rather than allocated.
const MAX_RECORD_BYTES: u32 = 1 << 30;

const TAG_ADD_RELATION: u8 = 1;
// Tag 2 held a full graph replacement before a graph became its "edge"
// relation; it stays unused, so such a record fails to decode.
const TAG_EDIT: u8 = 3;

/// One redo record: a full replacement of a relation, or an incremental edit
/// batch sized by the delta rather than the relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// `add_relation(name, …)`: the relation's complete flat buffer.
    AddRelation {
        /// Relation name.
        name: String,
        /// Number of columns.
        arity: u32,
        /// Row-major `rows × arity` flat values, sorted/deduped.
        values: Vec<Val>,
    },
    /// `commit_edits(name, …)`: an incremental edit batch, O(delta) bytes —
    /// this is what keeps a sustained update stream from rewriting full images
    /// into the log. Replay does not apply it: the store queues the batch on
    /// the relation, and the first load folds every queued batch into the
    /// relation's base (the image, or the last full replacement) with one
    /// [`Relation::with_edits`], equal to applying the batches in log order.
    ///
    /// Not idempotent *in isolation* (unlike the full-replacement records), but
    /// recovery always replays the log's valid prefix exactly once from the
    /// immutable image, which restores the replace-prefix-twice-lands-same-state
    /// guarantee at the log level.
    Edit {
        /// Relation name.
        name: String,
        /// Number of columns.
        arity: u32,
        /// Row-major flat values of the inserted rows.
        ins: Vec<Val>,
        /// Row-major flat values of the deleted rows.
        del: Vec<Val>,
    },
}

impl WalRecord {
    /// Builds the record for replacing `name` with `relation`.
    pub fn add_relation(name: &str, relation: &Relation) -> Self {
        WalRecord::AddRelation {
            name: name.to_string(),
            arity: relation.arity() as u32,
            values: relation.flat_values().to_vec(),
        }
    }

    /// Builds the record for an incremental edit batch on `name`.
    pub fn edit(name: &str, ins: &Relation, del: &Relation) -> Self {
        debug_assert_eq!(ins.arity(), del.arity(), "edit batch arity mismatch");
        WalRecord::Edit {
            name: name.to_string(),
            arity: ins.arity() as u32,
            ins: ins.flat_values().to_vec(),
            del: del.flat_values().to_vec(),
        }
    }

    /// Serializes the payload (framing is added by [`Wal::append`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            WalRecord::AddRelation { name, arity, values } => {
                w.put_u8(TAG_ADD_RELATION);
                w.put_str(name);
                w.put_u32(*arity);
                w.put_u64(values.len() as u64);
                for &v in values {
                    w.put_val(v);
                }
            }
            WalRecord::Edit { name, arity, ins, del } => {
                w.put_u8(TAG_EDIT);
                w.put_str(name);
                w.put_u32(*arity);
                for flat in [ins, del] {
                    w.put_u64(flat.len() as u64);
                    for &v in flat {
                        w.put_val(v);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Parses a payload produced by [`encode`](Self::encode).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, StoreError> {
        let mut r = ByteReader::new(payload, "wal record");
        match r.get_u8()? {
            TAG_ADD_RELATION => {
                let name = r.get_str()?;
                let arity = r.get_u32()?;
                let len = r.get_u64()? as usize;
                if arity == 0 || !len.is_multiple_of(arity as usize) {
                    return Err(StoreError::Corrupt(format!(
                        "wal record: {len} values are not a multiple of arity {arity}"
                    )));
                }
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(r.get_val()?);
                }
                Ok(WalRecord::AddRelation { name, arity, values })
            }
            TAG_EDIT => {
                let name = r.get_str()?;
                let arity = r.get_u32()?;
                let mut batches = [Vec::new(), Vec::new()];
                for batch in &mut batches {
                    let len = r.get_u64()? as usize;
                    if arity == 0 || !len.is_multiple_of(arity as usize) {
                        return Err(StoreError::Corrupt(format!(
                            "wal edit record: {len} values are not a multiple of arity {arity}"
                        )));
                    }
                    batch.reserve_exact(len);
                    for _ in 0..len {
                        batch.push(r.get_val()?);
                    }
                }
                let [ins, del] = batches;
                Ok(WalRecord::Edit { name, arity, ins, del })
            }
            tag => Err(StoreError::Corrupt(format!("wal record: unknown tag {tag}"))),
        }
    }
}

/// An open write-ahead log file positioned at its valid end.
#[derive(Debug)]
pub struct Wal {
    file: File,
    failpoints: Option<Arc<FailpointRegistry>>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scans it, truncates any
    /// torn tail, and returns the valid records in append order.
    pub fn open(
        path: &Path,
        failpoints: Option<Arc<FailpointRegistry>>,
    ) -> Result<(Wal, Vec<WalRecord>), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io("open wal", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| StoreError::io("read wal", e))?;

        let mut records = Vec::new();
        let mut pos = 0usize;
        while let Some(header) = bytes.get(pos..pos + 8) {
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if len > MAX_RECORD_BYTES {
                break; // absurd length: torn or corrupt frame
            }
            let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else { break };
            if fnv1a32(payload) != crc {
                break; // torn append: checksum does not match
            }
            records.push(WalRecord::decode(payload)?);
            pos += 8 + len as usize;
        }
        if pos < bytes.len() {
            // Discard the torn tail so later appends start at a clean frame.
            file.set_len(pos as u64).map_err(|e| StoreError::io("truncate wal tail", e))?;
        }
        file.seek(SeekFrom::Start(pos as u64)).map_err(|e| StoreError::io("seek wal", e))?;
        Ok((Wal { file, failpoints }, records))
    }

    /// Appends one record, passing the `wal_append` failpoint first. A `Panic`
    /// action writes a deliberately torn half-record before panicking, so the
    /// next recovery scan meets exactly the crash this site simulates.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        let payload = record.encode();
        if let Some(fp) = &self.failpoints {
            match fp.hit(sites::WAL_APPEND) {
                Some(FailpointHit::Trip) => return Err(StoreError::Fault(sites::WAL_APPEND)),
                Some(FailpointHit::Panic) => {
                    let torn = self.frame(&payload);
                    let half = &torn[..torn.len() / 2];
                    let _ = self.file.write_all(half);
                    let _ = self.file.flush();
                    // gj-lint: allow(no-panic-in-engines) — fault-injection failpoint: the panic IS the simulated crash under test
                    panic!("failpoint panic: {}", sites::WAL_APPEND);
                }
                None => {}
            }
        }
        let framed = self.frame(&payload);
        self.file.write_all(&framed).map_err(|e| StoreError::io("wal append", e))?;
        self.file.flush().map_err(|e| StoreError::io("wal flush", e))
    }

    /// Empties the log (runs after a checkpoint commits).
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.file.set_len(0).map_err(|e| StoreError::io("truncate wal", e))?;
        self.file.seek(SeekFrom::Start(0)).map_err(|e| StoreError::io("seek wal", e))?;
        Ok(())
    }

    fn frame(&self, payload: &[u8]) -> Vec<u8> {
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&fnv1a32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        framed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_storage::fault::FailAction;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gj-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.gj")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::AddRelation { name: "u1".into(), arity: 1, values: vec![1, 5, 9] },
            WalRecord::AddRelation { name: "u2".into(), arity: 1, values: vec![2, 4] },
            WalRecord::AddRelation { name: "r".into(), arity: 2, values: vec![1, 2, 3, 4] },
            WalRecord::Edit { name: "r".into(), arity: 2, ins: vec![5, 6], del: vec![1, 2] },
        ]
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = scratch("roundtrip");
        let (mut wal, replayed) = Wal::open(&path, None).unwrap();
        assert!(replayed.is_empty());
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let (_wal, replayed) = Wal::open(&path, None).unwrap();
        assert_eq!(replayed, sample_records());
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = scratch("torn");
        let (mut wal, _) = Wal::open(&path, None).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        // Tear the file mid-way through the last record's payload.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_wal, replayed) = Wal::open(&path, None).unwrap();
        assert_eq!(replayed, sample_records()[..3], "torn final record dropped");
        assert!(
            std::fs::metadata(&path).unwrap().len() < full.len() as u64 - 3,
            "tail truncated back to the last valid frame"
        );
        // Reopening again is stable (recovery is idempotent).
        let (_wal, replayed) = Wal::open(&path, None).unwrap();
        assert_eq!(replayed, sample_records()[..3]);
    }

    #[test]
    fn panic_failpoint_leaves_a_torn_record_recovery_discards() {
        let path = scratch("panic");
        let fp = Arc::new(FailpointRegistry::new());
        let (mut wal, _) = Wal::open(&path, Some(Arc::clone(&fp))).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        fp.arm(sites::WAL_APPEND, FailAction::Panic);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wal.append(&sample_records()[1])
        }));
        assert!(panicked.is_err(), "panic action must panic");
        drop(wal);
        let (_wal, replayed) = Wal::open(&path, None).unwrap();
        assert_eq!(replayed, sample_records()[..1], "torn record from the crash discarded");
    }

    #[test]
    fn trip_failpoint_is_a_typed_error_and_writes_nothing() {
        let path = scratch("trip");
        let fp = Arc::new(FailpointRegistry::new());
        fp.arm(sites::WAL_APPEND, FailAction::Trip);
        let (mut wal, _) = Wal::open(&path, Some(fp)).unwrap();
        let err = wal.append(&sample_records()[0]).unwrap_err();
        assert_eq!(err, StoreError::Fault(sites::WAL_APPEND));
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "nothing written");
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = scratch("truncate");
        let (mut wal, _) = Wal::open(&path, None).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        wal.truncate().unwrap();
        wal.append(&sample_records()[2]).unwrap();
        drop(wal);
        let (_wal, replayed) = Wal::open(&path, None).unwrap();
        assert_eq!(replayed, vec![sample_records()[2].clone()]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
        // Arity-0 relation frames are corrupt by definition.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_str("x");
        w.put_u32(0);
        w.put_u64(0);
        assert!(WalRecord::decode(&w.into_bytes()).is_err());
        // An edit batch whose flat length is not a multiple of the arity.
        let mut w = ByteWriter::new();
        w.put_u8(3);
        w.put_str("r");
        w.put_u32(2);
        w.put_u64(3);
        for v in [1, 2, 3] {
            w.put_val(v);
        }
        w.put_u64(0);
        assert!(WalRecord::decode(&w.into_bytes()).is_err());
    }
}
