//! `gj-store`: a paged on-disk relation store with write-ahead logging.
//!
//! This crate gives the engine a durable home for the columnar flat buffers
//! that [`gj_storage::Relation`] already uses in memory, without changing the
//! in-memory representation at all: an extent on disk *is* the `rows × arity`
//! value buffer, so hydration is one checksum pass plus one `from_flat` call.
//!
//! The pieces, bottom-up:
//!
//! * [`Pager`] — whole-page I/O over the data file ([`PAGE_SIZE`] bytes/page),
//!   with the `page_flush` failpoint on every write;
//! * [`BufferPool`] / [`PageGuard`] — a fixed-capacity page cache with pin
//!   counts and a clock replacer; pinned pages are never evicted, dirty pages
//!   are written back on eviction or flush;
//! * [`Wal`] / [`WalRecord`] — checksummed full-replacement redo records with
//!   a torn-tail recovery scan, and the `wal_append` failpoint (whose `Panic`
//!   action deliberately tears a record, simulating a crash mid-append);
//! * [`Store`] — the catalog, the atomic-rename checkpoint protocol, and
//!   ARIES-lite redo recovery (the `recovery_replay` failpoint fires once per
//!   replayed record). Edit records are queued per relation at recovery and
//!   commit, and folded into the relation once, on its first load.
//!
//! `gj-core` builds `Database::open` / `Database::persist` on top: relations
//! hydrate lazily through the pool on first query, so opening a store is cheap
//! regardless of image size.
//!
//! Everything here returns typed [`StoreError`]s — the crate's only panics are
//! the simulated crashes injected by `Panic`-armed failpoints.

mod codec;
mod error;
mod pager;
mod pool;
mod store;
mod wal;

pub use error::StoreError;
pub use pager::{Pager, PAGE_SIZE};
pub use pool::{BufferPool, PageGuard, PoolStats};
pub use store::Store;
pub use wal::{Wal, WalRecord};

#[cfg(test)]
mod tests {
    use super::*;
    use gj_storage::fault::{sites, FailAction, FailpointRegistry};
    use gj_storage::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gj-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn unary(vals: &[i64]) -> Relation {
        Relation::from_flat(1, vals.to_vec())
    }

    #[test]
    fn checkpoint_then_open_roundtrips_relations() {
        let dir = scratch("roundtrip");
        let store = Store::create(&dir, None).unwrap();
        let r1 = unary(&[3, 1, 4, 1, 5]);
        let r2 = Relation::from_flat(2, vec![1, 2, 3, 4, 5, 6]);
        let edge = Relation::from_flat(2, vec![0, 1, 1, 0, 1, 2, 2, 1]);
        store.checkpoint(&[("u", &r1), ("r", &r2), ("edge", &edge)]).unwrap();
        drop(store);

        let store = Store::open(&dir, None).unwrap();
        assert_eq!(store.relation_names(), ["edge", "r", "u"]);
        assert_eq!(store.load_relation("u").unwrap().flat_values(), r1.flat_values());
        assert_eq!(store.load_relation("r").unwrap().flat_values(), r2.flat_values());
        assert_eq!(store.load_relation("edge").unwrap(), edge);
        assert!(matches!(store.load_relation("nope").unwrap_err(), StoreError::MissingRelation(_)));
    }

    #[test]
    fn a_large_extent_spans_pages_and_survives_pool_pressure() {
        let dir = scratch("large");
        let store = Store::create(&dir, None).unwrap();
        // ~8 pages of values: forces multi-page extents and, at checkpoint
        // time, eviction traffic through the 8-frame write pool.
        let vals: Vec<i64> = (0..4096).collect();
        let big = Relation::from_flat(2, vals.clone());
        store.checkpoint(&[("big", &big)]).unwrap();
        drop(store);
        let store = Store::open(&dir, None).unwrap();
        assert_eq!(store.load_relation("big").unwrap().flat_values(), &vals[..]);
        let stats = store.pool_stats();
        assert!(stats.misses > 0, "image reads go through the pool: {stats:?}");
    }

    #[test]
    fn wal_records_survive_reopen_without_checkpoint() {
        let dir = scratch("wal-replay");
        let store = Store::create(&dir, None).unwrap();
        store.log_add_relation("u", &unary(&[7, 8])).unwrap();
        store.log_add_relation("u", &unary(&[9])).unwrap(); // replacement wins
        drop(store);

        let store = Store::open(&dir, None).unwrap();
        assert_eq!(store.relation_names(), ["u"]);
        assert_eq!(store.load_relation("u").unwrap().flat_values(), &[9]);
    }

    #[test]
    fn edit_records_replay_against_the_image_base() {
        let dir = scratch("edit-replay");
        let store = Store::create(&dir, None).unwrap();
        let base = unary(&[10, 20, 30]);
        // Base lives only in the checkpoint image: the edits are queued and
        // folded onto the extent when it is first loaded.
        store.checkpoint(&[("u", &base)]).unwrap();
        store.log_edit("u", &unary(&[25]), &unary(&[10])).unwrap();
        // A second edit chains on the first (WAL order matters).
        store.log_edit("u", &unary(&[40]), &unary(&[25])).unwrap();
        assert_eq!(store.load_relation("u").unwrap().flat_values(), &[20, 30, 40]);
        drop(store);

        let store = Store::open(&dir, None).unwrap();
        assert_eq!(store.load_relation("u").unwrap().flat_values(), &[20, 30, 40]);
        // Edit records are delta-sized: two single-row edits stay far below one
        // full 3-row image rewrite... structurally: the log holds 2 records.
        let (_wal, records) = Wal::open(&dir.join("wal.gj"), None).unwrap();
        assert_eq!(records.len(), 2);
        assert!(matches!(records[0], WalRecord::Edit { .. }));
    }

    #[test]
    fn edits_on_unknown_relations_fail_without_dirtying_the_log() {
        let dir = scratch("edit-unknown");
        let store = Store::create(&dir, None).unwrap();
        let err = store.log_edit("ghost", &unary(&[1]), &unary(&[])).unwrap_err();
        assert!(matches!(err, StoreError::MissingRelation(_)));
        store.checkpoint(&[("u", &unary(&[1]))]).unwrap();
        let pair = Relation::from_flat(2, vec![1, 2]);
        let err = store.log_edit("u", &pair, &Relation::empty(2)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "arity mismatch: {err}");
        assert_eq!(std::fs::metadata(dir.join("wal.gj")).unwrap().len(), 0);
    }

    #[test]
    fn an_edit_record_for_an_unknown_relation_fails_open() {
        let dir = scratch("edit-ghost");
        drop(Store::create(&dir, None).unwrap());
        let (mut wal, _) = Wal::open(&dir.join("wal.gj"), None).unwrap();
        wal.append(&WalRecord::edit("ghost", &unary(&[1]), &unary(&[]))).unwrap();
        drop(wal);
        assert!(matches!(Store::open(&dir, None).unwrap_err(), StoreError::Corrupt(_)));
    }

    /// Up to `max_rows` random rows of `arity` over the values `0..8`.
    fn random_rows(rng: &mut StdRng, arity: usize, max_rows: usize) -> Relation {
        let rows = rng.gen_range(0..max_rows + 1);
        Relation::from_flat(arity, (0..rows * arity).map(|_| rng.gen_range(0..8i64)).collect())
    }

    #[test]
    fn queued_batches_fold_to_the_sequential_result_before_and_after_reopen() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = scratch(&format!("fold-{seed}"));
            let store = Store::create(&dir, None).unwrap();
            let base = random_rows(&mut rng, 2, 40);
            store.checkpoint(&[("r", &base)]).unwrap();
            let mut model = base;
            for _ in 0..rng.gen_range(1..16usize) {
                if rng.gen_bool(0.15) {
                    // A full replacement drops the batches queued before it.
                    let replacement = random_rows(&mut rng, 2, 30);
                    store.log_add_relation("r", &replacement).unwrap();
                    model = replacement;
                    continue;
                }
                // Raw batches, not effective deltas: inserts of present rows,
                // deletes of absent ones, and (often) a row in both.
                let ins = random_rows(&mut rng, 2, 10);
                let mut del = random_rows(&mut rng, 2, 10);
                if let (true, Some(row)) = (rng.gen_bool(0.5), ins.iter().next()) {
                    del =
                        del.with_edits(&Relation::from_flat(2, row.to_vec()), &Relation::empty(2));
                }
                store.log_edit("r", &ins, &del).unwrap();
                model = model.with_edits(&ins, &del);
            }
            assert_eq!(store.load_relation("r").unwrap(), model, "seed {seed}, before the restart");
            drop(store);
            let store = Store::open(&dir, None).unwrap();
            assert_eq!(store.load_relation("r").unwrap(), model, "seed {seed}, after the restart");
        }
    }

    #[test]
    fn recovery_queues_edit_records_without_reading_an_extent() {
        let dir = scratch("lazy-recovery");
        let store = Store::create(&dir, None).unwrap();
        let base = Relation::from_flat(2, (0..4096).collect());
        store.checkpoint(&[("r", &base)]).unwrap();
        drop(store);
        let image_only = Store::open(&dir, None).unwrap().pool_stats();

        let store = Store::open(&dir, None).unwrap();
        let mut model = base;
        for k in 0..32 {
            let ins = Relation::from_flat(2, vec![5000 + k, k]);
            let del = Relation::from_flat(2, vec![2 * k, 2 * k + 1]);
            store.log_edit("r", &ins, &del).unwrap();
            model = model.with_edits(&ins, &del);
        }
        assert_eq!(store.pool_stats().misses, image_only.misses, "a commit reads no extent");
        drop(store);

        let store = Store::open(&dir, None).unwrap();
        let opened = store.pool_stats();
        assert_eq!(
            (opened.hits, opened.misses),
            (image_only.hits, image_only.misses),
            "replaying 32 edit records fetches no page beyond the header and catalog"
        );
        assert_eq!(store.load_relation("r").unwrap(), model);
        assert!(store.pool_stats().misses > opened.misses, "the first load reads the extent");
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_keeps_state() {
        let dir = scratch("ckpt-truncate");
        let store = Store::create(&dir, None).unwrap();
        let r = unary(&[1, 2, 3]);
        store.log_add_relation("u", &r).unwrap();
        store.checkpoint(&[("u", &r)]).unwrap();
        assert_eq!(std::fs::metadata(dir.join("wal.gj")).unwrap().len(), 0);
        assert_eq!(store.load_relation("u").unwrap().flat_values(), r.flat_values());
        drop(store);
        let store = Store::open(&dir, None).unwrap();
        assert_eq!(store.load_relation("u").unwrap().flat_values(), r.flat_values());
    }

    #[test]
    fn recovery_replay_trip_is_a_typed_open_error_and_retry_succeeds() {
        let dir = scratch("replay-trip");
        let store = Store::create(&dir, None).unwrap();
        store.log_add_relation("u", &unary(&[1])).unwrap();
        store.log_add_relation("v", &unary(&[2])).unwrap();
        drop(store);

        let fp = Arc::new(FailpointRegistry::new());
        fp.arm_after(sites::RECOVERY_REPLAY, FailAction::Trip, 1, 1);
        let err = Store::open(&dir, Some(Arc::clone(&fp))).unwrap_err();
        assert_eq!(err, StoreError::Fault(sites::RECOVERY_REPLAY));
        assert_eq!(fp.fired().as_deref(), Some(sites::RECOVERY_REPLAY));

        // Recovery is read-only until it completes: a clean retry sees all.
        let store = Store::open(&dir, None).unwrap();
        assert_eq!(store.relation_names(), ["u", "v"]);
    }

    #[test]
    fn corrupt_header_is_a_typed_error() {
        let dir = scratch("corrupt");
        drop(Store::create(&dir, None).unwrap());
        let data = dir.join("data.gj");
        let mut bytes = std::fs::read(&data).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&data, bytes).unwrap();
        assert!(matches!(Store::open(&dir, None).unwrap_err(), StoreError::Corrupt(_)));
    }

    #[test]
    fn a_version_1_image_is_rejected_with_a_typed_error() {
        let dir = scratch("version-1");
        drop(Store::create(&dir, None).unwrap());
        let data = dir.join("data.gj");
        let mut bytes = std::fs::read(&data).unwrap();
        // The header is the 8-byte magic, then the version word.
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&data, bytes).unwrap();
        assert_eq!(
            Store::open(&dir, None).unwrap_err(),
            StoreError::Corrupt("unsupported store version 1".to_string())
        );
    }

    #[test]
    fn a_graph_record_of_format_1_fails_open_and_is_not_taken_for_a_torn_tail() {
        let dir = scratch("graph-record");
        drop(Store::create(&dir, None).unwrap());
        // Tag 2, then a node count and an empty edge list, framed with a valid
        // checksum exactly as format 1 appended it.
        let mut payload = vec![2u8];
        payload.extend_from_slice(&4u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&codec::fnv1a32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let wal = dir.join("wal.gj");
        std::fs::write(&wal, &frame).unwrap();
        let err = Store::open(&dir, None).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("unknown tag 2")), "{err}");
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), frame.len() as u64);
    }

    #[test]
    fn an_extent_past_the_end_of_the_image_is_corrupt() {
        let dir = scratch("truncated");
        let store = Store::create(&dir, None).unwrap();
        store.checkpoint(&[("u", &Relation::from_flat(1, (0..4096).collect()))]).unwrap();
        drop(store);
        let data = dir.join("data.gj");
        let len = std::fs::metadata(&data).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&data).unwrap();
        file.set_len(len - 2 * PAGE_SIZE as u64).unwrap();
        drop(file);
        let store = Store::open(&dir, None).unwrap();
        let err = store.load_relation("u").unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("past the end")), "{err}");
    }

    #[test]
    fn corrupt_extent_is_caught_by_its_checksum() {
        let dir = scratch("bitrot");
        let store = Store::create(&dir, None).unwrap();
        let vals: Vec<i64> = (0..2048).collect();
        store.checkpoint(&[("u", &Relation::from_flat(1, vals))]).unwrap();
        drop(store);
        let data = dir.join("data.gj");
        let mut bytes = std::fs::read(&data).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip a bit in the final extent page
        std::fs::write(&data, bytes).unwrap();
        let store = Store::open(&dir, None).unwrap();
        assert!(matches!(store.load_relation("u").unwrap_err(), StoreError::Corrupt(_)));
    }
}
