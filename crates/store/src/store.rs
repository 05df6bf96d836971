//! The store proper: catalog, checkpoint protocol, and WAL recovery.
//!
//! ## On-disk layout
//!
//! A store is a directory holding two files:
//!
//! * `data.gj` — the checkpoint image, in [`PAGE_SIZE`] pages:
//!   * page 0: header (`"GJSTORE1"` magic, version, page size, catalog length,
//!     catalog checksum);
//!   * pages 1..=k: the serialized catalog (name, arity, rows, extent location
//!     and checksum per relation);
//!   * remaining pages: extents — each relation's `rows × arity` flat values as
//!     little-endian `i64`s. A graph is stored as its `"edge"` relation.
//! * `wal.gj` — the write-ahead log of mutations since the image was taken
//!   (format in [`crate::wal`]).
//!
//! ## Crash safety
//!
//! * **Mutations** ([`Store::log_add_relation`] / [`Store::log_edit`])
//!   append a checksummed redo record to the WAL *before* the in-memory apply;
//!   a crash mid-append leaves a torn tail the next recovery scan discards, so
//!   the store reopens to exactly the pre- or post-mutation state, never a torn
//!   one.
//! * **Checkpoints** ([`Store::checkpoint`]) write a complete fresh image to
//!   `data.gj.tmp` (every page through a deliberately small buffer pool, so
//!   eviction writeback runs under real traffic), then atomically rename it
//!   over `data.gj`, then truncate the WAL. The rename is the commit point: a
//!   crash before it leaves the old image + intact WAL; a crash after it leaves
//!   the new image, against which replaying the old WAL is harmless because
//!   redo records are idempotent full replacements.
//! * **Recovery** ([`Store::open`]) reads the image catalog lazily (extents
//!   stay on disk until first use), replays the WAL's valid prefix in order,
//!   and truncates the torn tail. Replay only builds in-memory state, so a
//!   crash *during* recovery loses nothing: the next open replays again. A
//!   full-replacement record (`AddRelation`) becomes the relation's new base
//!   and drops its queued edits. An edit record is checked against the
//!   relation's arity and *queued* on that relation; no extent is read and
//!   nothing is rebuilt. Commits ([`Store::log_edit`]) queue the same
//!   way, so a durable edit costs O(delta) at commit and at recovery.
//! * **Loading** ([`Store::load_relation`]) folds a relation's base (the image
//!   extent or a full-replacement record) with every queued edit batch in one
//!   pass over the base, equal to applying the batches one by one.

use crate::codec::{fnv1a32, fnv1a32_extend, ByteReader, ByteWriter, FNV1A32_START};
use crate::error::StoreError;
use crate::pager::{Pager, PAGE_SIZE};
use crate::pool::{BufferPool, PoolStats};
use crate::wal::{Wal, WalRecord};
use gj_storage::fault::{sites, FailpointHit, FailpointRegistry};
use gj_storage::{Relation, Val};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const MAGIC: [u8; 8] = *b"GJSTORE1";
/// Version 2 dropped the graph extent of version 1: a graph is its `"edge"`
/// relation. A version-1 image is rejected as [`StoreError::Corrupt`].
const VERSION: u32 = 2;
/// Frames in the read pool of an open store.
const OPEN_POOL_FRAMES: usize = 64;
/// Frames in the write pool used during a checkpoint — small on purpose, so
/// image writes overflow the pool and exercise clock eviction + writeback.
const CHECKPOINT_POOL_FRAMES: usize = 8;

/// Location + integrity data for one relation extent in the image.
#[derive(Debug, Clone)]
struct RelationEntry {
    arity: u32,
    rows: u64,
    first_page: u32,
    crc: u32,
}

/// The image catalog: every relation's extent, by name.
type Catalog = BTreeMap<String, RelationEntry>;

/// One logged edit batch, kept until the relation is loaded or checkpointed.
#[derive(Debug)]
struct EditBatch {
    ins: Relation,
    del: Relation,
}

#[derive(Debug)]
struct StoreState {
    pool: BufferPool,
    catalog: Catalog,
    wal: Wal,
    /// Relations whose base a full-replacement WAL record replaced.
    overrides: BTreeMap<String, Relation>,
    /// Edit batches logged on each relation since its base, in log order.
    pending: BTreeMap<String, Vec<EditBatch>>,
}

/// A disk-backed relation store (see the module docs for the protocol).
///
/// All methods take `&self`; the store is shared behind an `Arc` by the lazy
/// relation loaders `gj-core` installs. Locks are poison-tolerant — a panic
/// injected by the fault harness never wedges the store.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    failpoints: Option<Arc<FailpointRegistry>>,
    state: Mutex<StoreState>,
}

impl Store {
    /// Creates an empty store directory (overwriting any existing image).
    pub fn create(
        dir: impl AsRef<Path>,
        failpoints: Option<Arc<FailpointRegistry>>,
    ) -> Result<Store, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create store dir", e))?;
        write_image(dir, failpoints.clone(), &[])?;
        let wal_path = dir.join("wal.gj");
        std::fs::write(&wal_path, b"").map_err(|e| StoreError::io("create wal", e))?;
        Store::open(dir, failpoints)
    }

    /// Opens an existing store: reads the header + catalog, replays the WAL's
    /// valid prefix (each record passes the `recovery_replay` failpoint), and
    /// truncates any torn tail. Edit records are queued, not applied, so no
    /// extent is read here.
    pub fn open(
        dir: impl AsRef<Path>,
        failpoints: Option<Arc<FailpointRegistry>>,
    ) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let pager = Pager::open(&dir.join("data.gj"), failpoints.clone())?;
        let pool = BufferPool::new(pager, OPEN_POOL_FRAMES);
        let catalog = read_catalog(&pool)?;
        let (wal, records) = Wal::open(&dir.join("wal.gj"), failpoints.clone())?;

        let mut state =
            StoreState { pool, catalog, wal, overrides: BTreeMap::new(), pending: BTreeMap::new() };
        for record in records {
            if let Some(fp) = &failpoints {
                match fp.hit(sites::RECOVERY_REPLAY) {
                    Some(FailpointHit::Trip) => {
                        return Err(StoreError::Fault(sites::RECOVERY_REPLAY))
                    }
                    Some(FailpointHit::Panic) => {
                        // gj-lint: allow(no-panic-in-engines) — fault-injection failpoint: the panic IS the simulated crash under test
                        panic!("failpoint panic: {}", sites::RECOVERY_REPLAY);
                    }
                    None => {}
                }
            }
            state.replay(record)?;
        }
        Ok(Store { dir, failpoints, state: Mutex::new(state) })
    }

    /// The store's directory on disk.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn lock_state(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Names of every relation visible in the store (image catalog plus any
    /// WAL-replayed replacements), in sorted order.
    pub fn relation_names(&self) -> Vec<String> {
        let state = self.lock_state();
        let mut names: Vec<String> = state.catalog.keys().cloned().collect();
        for name in state.overrides.keys() {
            if !state.catalog.contains_key(name) {
                names.push(name.clone());
            }
        }
        names.sort();
        names
    }

    /// Materializes one relation: its base (the WAL-replayed replacement if the
    /// log replaced it, otherwise the image extent read through the buffer pool
    /// and checksum-verified) folded with the edit batches logged since.
    pub fn load_relation(&self, name: &str) -> Result<Relation, StoreError> {
        self.lock_state()
            .relation(name)?
            .ok_or_else(|| StoreError::MissingRelation(name.to_string()))
    }

    /// Durably records `add_relation(name, relation)`: WAL append first, then
    /// the in-memory apply. On any error (including an injected fault) nothing
    /// is applied.
    pub fn log_add_relation(&self, name: &str, relation: &Relation) -> Result<(), StoreError> {
        let mut state = self.lock_state();
        state.wal.append(&WalRecord::add_relation(name, relation))?;
        state.replace(name.to_string(), relation.clone());
        Ok(())
    }

    /// Durably records an incremental edit batch on `name`: checks that the
    /// relation exists with the batch's arity, appends an [`WalRecord::Edit`]
    /// record sized by the delta, and queues the batch for the next
    /// [`load_relation`](Self::load_relation). Nothing is read or rebuilt, so a
    /// commit costs O(delta).
    ///
    /// An unknown relation returns [`StoreError::MissingRelation`] and an arity
    /// mismatch [`StoreError::Corrupt`], both before the log is touched. The
    /// relation's extent is not read here: `Database::commit_edits` stages the
    /// batch against the hydrated relation first, so an unreadable extent fails
    /// the commit before anything is appended.
    pub fn log_edit(&self, name: &str, ins: &Relation, del: &Relation) -> Result<(), StoreError> {
        let mut state = self.lock_state();
        state.check_edit(name, ins.arity())?;
        state.check_edit(name, del.arity())?;
        state.wal.append(&WalRecord::edit(name, ins, del))?;
        state.queue(name.to_string(), ins.clone(), del.clone());
        Ok(())
    }

    /// Writes a fresh checkpoint image containing exactly `relations`, commits
    /// it by atomic rename, then truncates the WAL. See the module docs for the
    /// crash-safety argument.
    pub fn checkpoint(&self, relations: &[(&str, &Relation)]) -> Result<(), StoreError> {
        let mut state = self.lock_state();
        write_image(&self.dir, self.failpoints.clone(), relations)?;
        // The rename committed: rebuild the read side over the new image.
        let pager = Pager::open(&self.dir.join("data.gj"), self.failpoints.clone())?;
        let pool = BufferPool::new(pager, OPEN_POOL_FRAMES);
        let catalog = read_catalog(&pool)?;
        state.pool = pool;
        state.catalog = catalog;
        state.overrides.clear();
        state.pending.clear();
        state.wal.truncate()
    }

    /// Buffer-pool traffic counters for the current image's read pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.lock_state().pool.stats()
    }
}

impl StoreState {
    /// Applies one redo record during recovery, with the same semantics as the
    /// `log_*` method that appended it.
    fn replay(&mut self, record: WalRecord) -> Result<(), StoreError> {
        match record {
            WalRecord::AddRelation { name, arity, values } => {
                self.replace(name, Relation::from_flat(arity as usize, values));
            }
            WalRecord::Edit { name, arity, ins, del } => {
                let arity = arity as usize;
                self.check_edit(&name, arity).map_err(|err| match err {
                    StoreError::MissingRelation(name) => StoreError::Corrupt(format!(
                        "wal edit record for unknown relation '{name}'"
                    )),
                    other => other,
                })?;
                let (ins, del) = (Relation::from_flat(arity, ins), Relation::from_flat(arity, del));
                self.queue(name, ins, del);
            }
        }
        Ok(())
    }

    /// Makes `relation` the new base of `name`; edits queued on the old base go.
    fn replace(&mut self, name: String, relation: Relation) {
        self.pending.remove(&name);
        self.overrides.insert(name, relation);
    }

    fn queue(&mut self, name: String, ins: Relation, del: Relation) {
        self.pending.entry(name).or_default().push(EditBatch { ins, del });
    }

    /// Checks, without reading it, that relation `name` exists (as a
    /// replacement or in the image) and has `arity` columns.
    fn check_edit(&self, name: &str, arity: usize) -> Result<(), StoreError> {
        let have = match self.overrides.get(name) {
            Some(r) => Some(r.arity()),
            None => self.catalog.get(name).map(|e| e.arity as usize),
        };
        match have {
            None => Err(StoreError::MissingRelation(name.to_string())),
            Some(have) if have != arity => Err(StoreError::Corrupt(format!(
                "edit batch of arity {arity} for relation '{name}' of arity {have}"
            ))),
            Some(_) => Ok(()),
        }
    }

    /// Relation `name` as the log leaves it, or `None` when the store lacks it.
    fn relation(&self, name: &str) -> Result<Option<Relation>, StoreError> {
        let base = match self.overrides.get(name) {
            Some(base) => base.clone(),
            None => match load_image_relation(&self.pool, &self.catalog, name)? {
                Some(base) => base,
                None => return Ok(None),
            },
        };
        let batches = self.pending.get(name).map_or(&[][..], Vec::as_slice);
        Ok(Some(fold(base, batches)))
    }
}

/// Applies `batches` (in log order) to `base` in one pass over `base`.
///
/// For each row, the last batch that names it decides: it is absent if that
/// batch deletes it (a delete wins inside a batch) and present if it inserts
/// it; rows no batch names keep their membership in `base`. So the batches
/// reduce to one net insert set and one net delete set, and a single
/// [`Relation::with_edits`] gives the same relation as applying the batches one
/// by one.
fn fold(base: Relation, batches: &[EditBatch]) -> Relation {
    if batches.is_empty() {
        return base;
    }
    // (row, rank): a later batch ranks higher; inside a batch a delete (odd
    // rank) outranks an insert (even rank).
    let mut named: Vec<(&[Val], usize)> = Vec::new();
    for (k, batch) in batches.iter().enumerate() {
        named.extend(batch.ins.iter().map(|row| (row, 2 * k)));
        named.extend(batch.del.iter().map(|row| (row, 2 * k + 1)));
    }
    named.sort_unstable_by(|x, y| x.0.cmp(y.0).then(y.1.cmp(&x.1)));
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    for (i, &(row, rank)) in named.iter().enumerate() {
        if i > 0 && named[i - 1].0 == row {
            continue; // outranked by the entry before it
        }
        if rank % 2 == 0 {
            ins.extend_from_slice(row);
        } else {
            del.extend_from_slice(row);
        }
    }
    let arity = base.arity();
    base.with_edits(&Relation::from_flat(arity, ins), &Relation::from_flat(arity, del))
}

/// Materializes one relation from the checkpoint image (checksum-verified), or
/// `None` when the catalog does not list it.
fn load_image_relation(
    pool: &BufferPool,
    catalog: &Catalog,
    name: &str,
) -> Result<Option<Relation>, StoreError> {
    let Some(entry) = catalog.get(name) else { return Ok(None) };
    let total =
        extent_len(pool, entry.first_page, entry.rows, 8 * u64::from(entry.arity), "relation")?;
    let mut values: Vec<Val> = Vec::with_capacity((total / 8) as usize);
    read_extent(pool, entry.first_page, total, entry.crc, "relation", |bytes| {
        values.extend(
            bytes
                .chunks_exact(8)
                .map(|c| Val::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])),
        );
    })?;
    Ok(Some(Relation::from_flat(entry.arity as usize, values)))
}

/// The byte length of an extent of `items` items of `item_bytes` each, checked
/// against the image: a catalog entry whose extent would run past the end of
/// the file is [`StoreError::Corrupt`], so the length can size an allocation.
fn extent_len(
    pool: &BufferPool,
    first_page: u32,
    items: u64,
    item_bytes: u64,
    what: &'static str,
) -> Result<u64, StoreError> {
    let available = u64::from(pool.pager().num_pages()?.saturating_sub(first_page));
    match items.checked_mul(item_bytes) {
        Some(total) if total.div_ceil(PAGE_SIZE as u64) <= available => Ok(total),
        _ => Err(StoreError::Corrupt(format!("{what} extent runs past the end of the image"))),
    }
}

/// Streams the `total` bytes starting at `first_page` through the pool into
/// `decode`, one page at a time, and verifies the extent checksum at the end.
/// No copy of the whole extent is made; on a mismatch the caller drops what
/// `decode` built.
fn read_extent(
    pool: &BufferPool,
    first_page: u32,
    total: u64,
    crc: u32,
    what: &'static str,
    mut decode: impl FnMut(&[u8]),
) -> Result<(), StoreError> {
    let mut hash = FNV1A32_START;
    let mut remaining = total as usize;
    let mut page = first_page;
    while remaining > 0 {
        let guard = pool.fetch(page)?;
        let take = remaining.min(PAGE_SIZE);
        hash = fnv1a32_extend(hash, &guard[..take]);
        decode(&guard[..take]);
        remaining -= take;
        page += 1;
    }
    if hash != crc {
        return Err(StoreError::Corrupt(format!("{what} extent checksum mismatch")));
    }
    Ok(())
}

/// Serializes the catalog. Byte length is independent of the page-number
/// fields (fixed-width), which `write_image` relies on to lay out extents.
fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(catalog.len() as u32);
    for (name, e) in catalog {
        w.put_str(name);
        w.put_u32(e.arity);
        w.put_u64(e.rows);
        w.put_u32(e.first_page);
        w.put_u32(e.crc);
    }
    w.into_bytes()
}

fn decode_catalog(bytes: &[u8]) -> Result<Catalog, StoreError> {
    let mut r = ByteReader::new(bytes, "catalog");
    let mut catalog = Catalog::default();
    let count = r.get_u32()?;
    for _ in 0..count {
        let name = r.get_str()?;
        let entry = RelationEntry {
            arity: r.get_u32()?,
            rows: r.get_u64()?,
            first_page: r.get_u32()?,
            crc: r.get_u32()?,
        };
        if entry.arity == 0 {
            return Err(StoreError::Corrupt(format!("catalog: relation '{name}' has arity 0")));
        }
        catalog.insert(name, entry);
    }
    Ok(catalog)
}

/// Reads and validates the header + catalog of an image through `pool`.
fn read_catalog(pool: &BufferPool) -> Result<Catalog, StoreError> {
    let header = pool.fetch(0)?;
    let mut r = ByteReader::new(&header[..], "header");
    let mut magic = [0u8; 8];
    for b in &mut magic {
        *b = r.get_u8()?;
    }
    if magic != MAGIC {
        return Err(StoreError::Corrupt("bad magic (not a gj-store data file)".to_string()));
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(StoreError::Corrupt(format!("unsupported store version {version}")));
    }
    let page_size = r.get_u32()?;
    if page_size as usize != PAGE_SIZE {
        return Err(StoreError::Corrupt(format!(
            "page size mismatch (file {page_size}, build {PAGE_SIZE})"
        )));
    }
    let catalog_len = r.get_u64()? as usize;
    let catalog_crc = r.get_u32()?;
    drop(header);

    let mut bytes = Vec::with_capacity(catalog_len);
    let mut page = 1u32;
    while bytes.len() < catalog_len {
        let guard = pool.fetch(page)?;
        let take = (catalog_len - bytes.len()).min(PAGE_SIZE);
        bytes.extend_from_slice(&guard[..take]);
        page += 1;
    }
    if fnv1a32(&bytes) != catalog_crc {
        return Err(StoreError::Corrupt("catalog checksum mismatch".to_string()));
    }
    decode_catalog(&bytes)
}

/// Writes a complete image for `relations` to `<dir>/data.gj.tmp`
/// and atomically renames it over `<dir>/data.gj`. Every page write passes the
/// `page_flush` failpoint (via the pager), so a simulated crash can land on any
/// individual page; until the rename, the old image is untouched.
fn write_image(
    dir: &Path,
    failpoints: Option<Arc<FailpointRegistry>>,
    relations: &[(&str, &Relation)],
) -> Result<(), StoreError> {
    // Lay the image out from sizes alone: the catalog's byte length does not
    // depend on its page numbers or checksums (fixed-width fields). Extents
    // follow the catalog in name order.
    let mut catalog = Catalog::default();
    let mut extent_of: BTreeMap<&str, &Relation> = BTreeMap::new();
    for &(name, relation) in relations {
        let entry = RelationEntry {
            arity: relation.arity() as u32,
            rows: relation.len() as u64,
            first_page: 0,
            crc: 0,
        };
        catalog.insert(name.to_string(), entry);
        extent_of.insert(name, relation);
    }
    let catalog_pages = encode_catalog(&catalog).len().div_ceil(PAGE_SIZE).max(1) as u32;
    let mut next_page = 1 + catalog_pages;
    for entry in catalog.values_mut() {
        entry.first_page = next_page;
        next_page += (entry.rows * u64::from(entry.arity) * 8).div_ceil(PAGE_SIZE as u64) as u32;
    }

    // Encode each extent page by page, checksumming as it goes.
    let tmp = dir.join("data.gj.tmp");
    let pool = BufferPool::new(Pager::create(&tmp, failpoints)?, CHECKPOINT_POOL_FRAMES);
    for (name, entry) in &mut catalog {
        let Some(relation) = extent_of.get(name.as_str()) else { continue };
        let words = relation.flat_values().iter().map(|v| v.to_le_bytes());
        entry.crc = write_extent(&pool, entry.first_page, words)?;
    }
    let catalog_bytes = encode_catalog(&catalog);
    for (i, chunk) in catalog_bytes.chunks(PAGE_SIZE).enumerate() {
        pool.write_page(1 + i as u32, chunk)?;
    }
    let mut header = ByteWriter::new();
    header.put_bytes(&MAGIC);
    header.put_u32(VERSION);
    header.put_u32(PAGE_SIZE as u32);
    header.put_u64(catalog_bytes.len() as u64);
    header.put_u32(fnv1a32(&catalog_bytes));
    pool.write_page(0, &header.into_bytes())?;
    pool.flush_all()?;
    drop(pool);
    std::fs::rename(&tmp, dir.join("data.gj")).map_err(|e| StoreError::io("commit image", e))
}

/// Writes the 8-byte `words` of one extent through `pool` from `first_page`
/// on, one page at a time (the last page may be short), and returns the
/// extent's checksum.
fn write_extent(
    pool: &BufferPool,
    first_page: u32,
    words: impl Iterator<Item = [u8; 8]>,
) -> Result<u32, StoreError> {
    let mut buf = [0u8; PAGE_SIZE];
    let (mut len, mut page, mut hash) = (0usize, first_page, FNV1A32_START);
    for word in words {
        buf[len..len + 8].copy_from_slice(&word);
        len += 8;
        if len == PAGE_SIZE {
            hash = fnv1a32_extend(hash, &buf);
            pool.write_page(page, &buf)?;
            page += 1;
            len = 0;
        }
    }
    if len > 0 {
        hash = fnv1a32_extend(hash, &buf[..len]);
        pool.write_page(page, &buf[..len])?;
    }
    Ok(hash)
}
