//! The on-disk tier of the mapping cache.
//!
//! A [`DiskTier`] persists two kinds of record in append-only *segment
//! files* under a cache directory: the served summary of every full mapping,
//! and the post-transform artifacts of every simplified kernel — the output
//! of the costly clustering, partitioning, scheduling and allocation phases.
//! The open hands the summaries to the cache's summary level, so a
//! restarted service answers a plain map request without decoding anything.
//! A request that needs the mapping itself (verification, simulation, a
//! batch) re-runs only frontend and transform, and the post-transform record
//! supplies the rest.  The tier sits **below** the in-memory LRU: the memory
//! tier is probed first, the disk tier only on a memory miss, and every
//! post-transform load is promoted back into memory.
//!
//! # Two kinds of segment file
//!
//! The two record kinds go to two kinds of file, so that opening the tier
//! reads only what a restarted service answers from.  This is the split
//! WiscKey makes between its key log and its value log, and Bitcask between
//! its hint files and its data files.
//!
//! * `seg-NNNNNNNN.fpfa` files hold the summaries, about 0.4 KB per kernel
//!   (most of it source text).  They are scanned when the tier opens.
//! * `post-NNNNNNNN.fpfa` files hold the post-transform records, tens of KB
//!   each.  They are scanned once, at the first post-transform load or
//!   store, before it reads or appends anything.  The open creates no post
//!   file; the first post-transform store does.  Summary stores and
//!   [`stats`] never start that scan, so a service that answers from
//!   summaries alone never reads a post-transform byte.
//!
//! Both kinds share the format below and are scanned the same way.  A
//! directory an earlier build wrote has `seg-` files only, holding both
//! record kinds.  It warm-starts as before: the open indexes its
//! post-transform records too, they load, and later post-transform stores
//! go to `post-` files.  A summary record in a `post-` file is corrupt.
//!
//! [`stats`]: DiskTier::stats
//!
//! # On-disk format (v2)
//!
//! A segment file is the 8-byte magic `FPFASEG2` followed by records:
//!
//! ```text
//! [payload_len: u32 LE][checksum(payload): u64 LE][payload]
//! payload = [tag: u8][config: u64 LE][key_len: u32 LE][key bytes]
//!           tag 1: [summary: 7 x u64 LE][ignored bytes]
//!           tag 2: [value bytes]
//! ```
//!
//! `tag` is 1 for a full mapping's summary, 2 for post-transform artifacts;
//! `key` is the full source text (tag 1) or structural detail string
//! (tag 2), stored verbatim so hash collisions can never alias kernels.  A
//! tag-1 record holds the mapping's served [`MappingSummary`] (digest,
//! operations, clusters, levels, cycles, tiles, inter-tile transfers).  This
//! tier writes nothing after it and ignores whatever follows it, so segments
//! whose tag-1 records also carry an encoded mapping (as earlier versions
//! wrote them) still warm-start.  A tag-2 value is a [`crate::codec`]
//! payload.  Records for the same key supersede earlier ones (append-only
//! updates); superseded bytes are *dead*, and so are the bytes after a
//! tag-1 record's summary.  Each file kind is compacted on its own, once
//! its dead bytes outweigh its live ones, at the next store: every live
//! record of that kind of file is copied into a fresh file of the same
//! kind, and a tag-1 record is written summary-only.
//!
//! The checksum reads the payload as 8-byte little-endian words (the tail
//! zero-padded) in four lanes, each folding every fourth word with xor,
//! multiply and rotate; the lanes are then folded together with the
//! payload length.  Every step is a bijection of its lane for a fixed word,
//! so any change confined to one word — every single-byte flip — changes
//! the checksum.
//!
//! # Warm start
//!
//! [`DiskTier::open`] streams every `seg-` file through one reusable record
//! buffer: each record is checksum-verified and indexed by location, and
//! the config fingerprint, source text and summary of each full-mapping
//! record are listed in scan order.  The tier keeps no summaries itself: it
//! hands that list over once, to the summary level of the
//! [`MappingCache`](crate::cache::MappingCache) it is attached to, which
//! keeps the newest [`SUMMARY_CAPACITY`](crate::cache::SUMMARY_CAPACITY)
//! and answers from memory after a verbatim compare of the source text,
//! never on a hash match alone.  A summary the level lets go of is answered
//! through the kernel's post-transform record instead; when that map hands
//! the same summary back, the tier reads the record its index holds for
//! the key and appends nothing if the source and summary match verbatim.
//! [`PersistStats::warm_start_entries`] counts the entries the open's scan
//! indexed, plus those the deferred scan of the `post-` files adds;
//! [`PersistStats::scanned_bytes`] counts the bytes both scans read.
//!
//! A file that does not start with the current magic — an older format
//! such as `FPFASEG1`, or an empty file left by a crash between creating a
//! segment and writing its magic — cannot be read.  It is counted as
//! corrupt and deleted, and appends go to a fresh file: its records are
//! re-mapped cold and stored again in the current format.
//!
//! # Corruption policy
//!
//! Every record is checksum-verified on scan, and a post-transform record
//! again on load, where its value is also validated by the versioned codec.
//! Any mismatch — bit flip, truncated tail, unknown version — makes that record
//! a **typed miss** (counted in [`PersistStats::corrupt_skipped`]): the
//! caller falls through to a cold mapping, and corrupt bytes are never
//! served.  Damage in a `seg-` file is counted at open; damage in a `post-`
//! file is counted at the first post-transform load or store, when those
//! files are scanned.  Nothing in this module panics on malformed input.
//!
//! An append that fails part-way (a full disk, say) is cut off by
//! truncating the file back to its valid length, so later records land
//! where the index says.  A compaction that fails deletes its partial file
//! and leaves the old files authoritative.  Nothing is synced to disk: this
//! is a cache, so a record a crash loses is only mapped again, and the
//! scan's checksums discard whatever a crash tears.
//!
//! # One writer per directory
//!
//! A tier indexes records at offsets its own appends computed, so two tiers
//! on one directory would index each other's records wrongly.
//! [`DiskTier::open`] takes an exclusive advisory lock on the directory's
//! `LOCK` file for the tier's life, as LevelDB does; a second open fails
//! with [`io::ErrorKind::WouldBlock`].  The lock is held on the open file,
//! so a stale or copied `LOCK` file locks nothing.  Scans, [`clear`] and
//! compaction leave the file alone.
//!
//! [`clear`]: DiskTier::clear

use crate::cache::{MappingKey, PostTransformArtifacts, PostTransformKey};
use crate::codec;
use crate::summary::MappingSummary;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Magic prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"FPFASEG2";
/// The file whose advisory lock the open tier holds.
const LOCK_FILE: &str = "LOCK";
/// Record tag: the summary of a full mapping.
const TAG_MAPPING: u8 = 1;
/// Record tag: post-transform artifacts.
const TAG_POST: u8 = 2;
/// Frame header size: payload length (u32) + payload checksum (u64).
const FRAME_HEADER: u64 = 12;
/// Payload bytes before the key: tag (u8), config (u64), key length (u32).
const KEY_PREFIX: usize = 13;
/// Encoded size of a [`MappingSummary`]: seven little-endian `u64`s.
const SUMMARY_LEN: usize = 56;
/// Compaction floor: never compact below this many dead bytes.
const COMPACT_MIN_DEAD: u64 = 1 << 20;
/// Read-ahead of the warm-start scan.
const SCAN_READ_AHEAD: usize = 64 * 1024;
/// Multiplier of the checksum lanes (odd, so multiplying is a bijection).
const CHECKSUM_MUL: u64 = 0x9e37_79b1_85eb_ca87;
/// Initial checksum lane states (hex digits of pi).
const CHECKSUM_LANES: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

fn mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(CHECKSUM_MUL).rotate_left(31)
}

/// The frame checksum (see the module docs).  Also the in-memory hash of
/// index keys.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_LANES;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(
                *lane,
                u64::from_le_bytes(word.try_into().expect("8-byte word")),
            );
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = mix(*lane, u64::from_le_bytes(padded));
    }
    lanes
        .iter()
        .fold(bytes.len() as u64, |acc, &lane| mix(acc, lane))
}

/// The two kinds of segment file (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// `seg-` files: summaries, scanned at open.
    Seg,
    /// `post-` files: post-transform records, scanned on first use.
    Post,
}

impl Kind {
    fn prefix(self) -> &'static str {
        match self {
            Kind::Seg => "seg-",
            Kind::Post => "post-",
        }
    }

    /// The id of a file of this kind named `name`, if it is one.
    fn id_of(self, name: &str) -> Option<u64> {
        name.strip_prefix(self.prefix())?
            .strip_suffix(".fpfa")?
            .parse()
            .ok()
    }
}

fn segment_path(dir: &Path, kind: Kind, id: u64) -> PathBuf {
    dir.join(format!("{}{id:08}.fpfa", kind.prefix()))
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte field"))
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4-byte field"))
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of the disk tier's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PersistStats {
    /// Post-transform records read back and decoded from disk (summary
    /// answers decode nothing and are not counted).
    pub loads: u64,
    /// Records appended to disk.
    pub stores: u64,
    /// Records skipped because their bytes failed a checksum, framing or
    /// codec check, and unreadable segment files deleted by a scan — each
    /// one became a typed miss, never a wrong answer.
    pub corrupt_skipped: u64,
    /// Entries indexed by the scan of the `seg-` files at open, plus those
    /// the deferred scan of the `post-` files added.
    pub warm_start_entries: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Bytes read from segment files by the scan at open and by the
    /// deferred scan of the `post-` files.
    pub scanned_bytes: u64,
}

#[derive(Debug, Default)]
struct PersistCounters {
    loads: AtomicU64,
    stores: AtomicU64,
    corrupt_skipped: AtomicU64,
    warm_start_entries: AtomicU64,
    compactions: AtomicU64,
    scanned_bytes: AtomicU64,
}

impl PersistCounters {
    fn corrupt(&self) {
        self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Index key: record tag, config fingerprint and the hash of the key
/// string.  Collisions are tolerated — the key string stored in the record
/// is compared verbatim on load, so a collision is a miss, never an alias.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct RecordKey {
    tag: u8,
    config: u64,
    key_hash: u64,
}

impl RecordKey {
    fn new(tag: u8, config: u64, key: &[u8]) -> Self {
        RecordKey {
            tag,
            config,
            key_hash: checksum(key),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct RecordLoc {
    /// The kind of file the record is in.
    kind: Kind,
    seg: u64,
    /// Offset of the frame header within the segment.
    offset: u64,
    /// Payload length (excluding the frame header).
    payload_len: u32,
    /// Trailing payload bytes that are dead from the start: whatever an
    /// earlier version wrote after a full-mapping record's summary.
    tail: u32,
}

impl RecordLoc {
    fn frame_len(&self) -> u64 {
        FRAME_HEADER + u64::from(self.payload_len)
    }

    /// The bytes that stay live while the record is indexed.
    fn live_len(&self) -> u64 {
        self.frame_len() - u64::from(self.tail)
    }
}

/// The fields of one checksum-verified payload.
struct Record<'a> {
    tag: u8,
    config: u64,
    key: &'a [u8],
    /// Present on full-mapping records only.
    summary: Option<MappingSummary>,
    /// A post-transform record's codec payload; on a full-mapping record,
    /// the ignored bytes after the summary.
    value: &'a [u8],
}

impl<'a> Record<'a> {
    /// Checks `payload` against its frame checksum and splits it into its
    /// fields; `None` on any mismatch.
    fn verified(payload: &'a [u8], sum: u64) -> Option<Self> {
        if checksum(payload) != sum || payload.len() < KEY_PREFIX {
            return None;
        }
        let tag = payload[0];
        let config = read_u64(&payload[1..]);
        let key_len = read_u32(&payload[9..]) as usize;
        let (key, rest) = payload[KEY_PREFIX..].split_at_checked(key_len)?;
        let (summary, value) = match tag {
            TAG_MAPPING => {
                let (words, value) = rest.split_at_checked(SUMMARY_LEN)?;
                let [digest, operations, clusters, levels, cycles, tiles, inter_tile_transfers] =
                    std::array::from_fn(|i| read_u64(&words[i * 8..]));
                let summary = MappingSummary {
                    digest,
                    operations,
                    clusters,
                    levels,
                    cycles,
                    tiles,
                    inter_tile_transfers,
                };
                (Some(summary), value)
            }
            TAG_POST => (None, rest),
            _ => return None,
        };
        Some(Record {
            tag,
            config,
            key,
            summary,
            value,
        })
    }
}

/// Encodes one complete frame (header and payload); `None` when the payload
/// outgrows the `u32` length field.
fn encode_frame(
    tag: u8,
    config: u64,
    key: &str,
    summary: Option<&MappingSummary>,
    value: &[u8],
) -> Option<Vec<u8>> {
    let summary_len = summary.map_or(0, |_| SUMMARY_LEN);
    let payload_len = u32::try_from(KEY_PREFIX + key.len() + summary_len + value.len()).ok()?;
    let key_len = u32::try_from(key.len()).ok()?;
    let mut frame = Vec::with_capacity(FRAME_HEADER as usize + payload_len as usize);
    frame.extend_from_slice(&payload_len.to_le_bytes());
    frame.extend_from_slice(&[0; 8]); // The checksum, once the payload is in.
    frame.push(tag);
    frame.extend_from_slice(&config.to_le_bytes());
    frame.extend_from_slice(&key_len.to_le_bytes());
    frame.extend_from_slice(key.as_bytes());
    if let Some(s) = summary {
        let words = [
            s.digest,
            s.operations,
            s.clusters,
            s.levels,
            s.cycles,
            s.tiles,
            s.inter_tile_transfers,
        ];
        for word in words {
            frame.extend_from_slice(&word.to_le_bytes());
        }
    }
    frame.extend_from_slice(value);
    let sum = checksum(&frame[FRAME_HEADER as usize..]);
    frame[4..12].copy_from_slice(&sum.to_le_bytes());
    Some(frame)
}

/// The full-mapping records an open found, in scan order: config
/// fingerprint, verbatim source text and summary.
type Found = Vec<(u64, Arc<str>, MappingSummary)>;

/// The open files of one kind and their byte accounting.
#[derive(Debug)]
struct Log {
    kind: Kind,
    /// Open files by id.
    files: HashMap<u64, File>,
    /// The append target: the highest id, created by the first append when
    /// it is not open.
    active: u64,
    active_len: u64,
    live_bytes: u64,
    dead_bytes: u64,
}

impl Log {
    fn empty(kind: Kind, active: u64) -> Self {
        Log {
            kind,
            files: HashMap::new(),
            active,
            active_len: 0,
            live_bytes: 0,
            dead_bytes: 0,
        }
    }

    fn wants_compaction(&self) -> bool {
        self.dead_bytes >= COMPACT_MIN_DEAD && self.dead_bytes > self.live_bytes
    }
}

#[derive(Debug)]
struct TierInner {
    index: HashMap<RecordKey, RecordLoc>,
    seg: Log,
    post: Log,
    /// Ids of the `post-` files found at open, until they are scanned.
    unscanned_posts: Option<Vec<u64>>,
}

impl TierInner {
    fn log(&mut self, kind: Kind) -> &mut Log {
        match kind {
            Kind::Seg => &mut self.seg,
            Kind::Post => &mut self.post,
        }
    }

    /// Points `key` at a newly written record, accounting its dead tail and
    /// the live bytes of whatever record it supersedes as dead bytes.
    fn index_record(&mut self, key: RecordKey, loc: RecordLoc) {
        let log = self.log(loc.kind);
        log.live_bytes += loc.live_len();
        log.dead_bytes += u64::from(loc.tail);
        if let Some(old) = self.index.insert(key, loc) {
            self.unlive(old);
        }
    }

    /// Whether the record indexed under `key` holds this very source text
    /// and summary, read back and compared verbatim, the way a load compares
    /// its key.
    fn holds_summary(
        &mut self,
        key: RecordKey,
        config: u64,
        source: &str,
        summary: MappingSummary,
    ) -> bool {
        let Some(&loc) = self.index.get(&key) else {
            return false;
        };
        let frame = read_frame(self, loc).ok();
        frame
            .as_deref()
            .and_then(verified_frame)
            .is_some_and(|record| {
                record.config == config
                    && record.key == source.as_bytes()
                    && record.summary == Some(summary)
            })
    }

    /// Accounts the live bytes of a record leaving the index as dead.
    fn unlive(&mut self, loc: RecordLoc) {
        let log = self.log(loc.kind);
        log.live_bytes = log.live_bytes.saturating_sub(loc.live_len());
        log.dead_bytes += loc.live_len();
    }

    /// Drops `key`'s entry if it still points at `loc`.
    fn forget(&mut self, key: RecordKey, loc: RecordLoc) {
        if self.index.get(&key) == Some(&loc) {
            self.index.remove(&key);
            self.unlive(loc);
        }
    }
}

// ---------------------------------------------------------------------------
// The tier
// ---------------------------------------------------------------------------

/// The persistent, content-addressed cache tier.  Every method but the
/// hand-over of the open's summaries takes `&self`.  The segment files and
/// their index live behind one mutex, which only the cold path
/// (memory-tier misses and inserts) ever touches.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    /// The open `LOCK` file, whose advisory lock this tier holds until it
    /// is dropped.
    _lock: File,
    inner: Mutex<TierInner>,
    /// The summaries the open found, until the cache takes them over.
    found: Found,
    counters: PersistCounters,
}

impl DiskTier {
    /// Opens (creating if needed) a cache directory and warm-starts from the
    /// `seg-` files already present: every record is checksum-verified and
    /// indexed, and every full-mapping record's summary is listed for the
    /// cache to take over; corrupt or truncated records are skipped and
    /// counted, and unreadable files are deleted.  The `post-` files are
    /// only listed here; the first post-transform load or store scans them.
    ///
    /// # Errors
    /// An [`io::ErrorKind::WouldBlock`] error naming the directory when
    /// another tier holds it (see the module docs), and I/O errors creating
    /// or listing the directory, its lock file or a fresh segment —
    /// corrupt segment *contents* never fail the open.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskTier> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(fs::TryLockError::WouldBlock) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "cache directory {} is already open in another cache tier",
                        dir.display()
                    ),
                ))
            }
            Err(fs::TryLockError::Error(e)) => return Err(e),
        }
        let (mut seg_ids, mut post_ids) = (Vec::new(), Vec::new());
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = Kind::Seg.id_of(name) {
                seg_ids.push(id);
            } else if let Some(id) = Kind::Post.id_of(name) {
                post_ids.push(id);
            }
        }
        let counters = PersistCounters::default();
        let mut inner = TierInner {
            index: HashMap::new(),
            seg: Log::empty(Kind::Seg, 0),
            post: Log::empty(Kind::Post, 0),
            unscanned_posts: Some(post_ids),
        };
        let mut found = Found::new();
        scan_log(
            &dir,
            Kind::Seg,
            seg_ids,
            &mut inner,
            Some(&mut found),
            &counters,
        );
        if !inner.seg.files.contains_key(&inner.seg.active) {
            new_file(&dir, &mut inner.seg)?;
        }
        counters
            .warm_start_entries
            .store(inner.index.len() as u64, Ordering::Relaxed);
        Ok(DiskTier {
            dir,
            _lock: lock,
            inner: Mutex::new(inner),
            found,
            counters,
        })
    }

    /// Hands over the summaries the open found, oldest record first (a
    /// later record for the same source and configuration supersedes an
    /// earlier one); empty after the first call.
    pub(crate) fn take_summaries(&mut self) -> Found {
        std::mem::take(&mut self.found)
    }

    /// The cache directory this tier persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of records currently indexed: summaries and post-transform
    /// artifacts (those in `post-` files once they are scanned).
    pub fn entry_count(&self) -> usize {
        self.lock().index.len()
    }

    /// A snapshot of the tier's counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            loads: self.counters.loads.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            corrupt_skipped: self.counters.corrupt_skipped.load(Ordering::Relaxed),
            warm_start_entries: self.counters.warm_start_entries.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            scanned_bytes: self.counters.scanned_bytes.load(Ordering::Relaxed),
        }
    }

    /// Stores the summary of a full mapping under its content key (best
    /// effort: an I/O error leaves the tier consistent and the entry simply
    /// unpersisted).  The cache stores only a summary its summary level did
    /// not already hold, and the tier appends nothing when it holds that
    /// very summary already: the level lets go of summaries past its bound,
    /// and a later map of such a kernel hands the same summary back.
    pub(crate) fn store_summary(&self, key: &MappingKey, summary: MappingSummary) {
        self.store_value(TAG_MAPPING, key.config, key.source(), Some(summary), &[]);
    }

    /// Loads post-transform artifacts by structural key: reads the record,
    /// verifies its frame and compares the stored key string verbatim, then
    /// decodes the value straight from the read buffer.  The disk read
    /// (and, the first time, the scan of the `post-` files) holds the index
    /// lock; verifying and decoding do not.  Any corruption along the way
    /// is a counted miss.
    pub fn load_post_transform(&self, key: &PostTransformKey) -> Option<PostTransformArtifacts> {
        let record_key = RecordKey::new(TAG_POST, key.config, key.detail().as_bytes());
        let (loc, frame) = {
            let mut inner = self.lock();
            self.scan_posts(&mut inner);
            let loc = *inner.index.get(&record_key)?;
            (loc, read_frame(&mut inner, loc))
        };
        let Some(record) = frame.as_deref().ok().and_then(verified_frame) else {
            // Unreadable or checksum-mismatched on a re-read: drop the
            // entry so we stop probing it.
            self.discard(record_key, loc);
            return None;
        };
        if record.tag != TAG_POST
            || record.config != key.config
            || record.key != key.detail().as_bytes()
        {
            return None; // A hash collision with a different key: a plain miss.
        }
        match codec::decode_post_transform(record.value) {
            Ok(artifacts) => {
                self.counters.loads.fetch_add(1, Ordering::Relaxed);
                Some(artifacts)
            }
            Err(_) => {
                self.discard(record_key, loc);
                None
            }
        }
    }

    /// Stores post-transform artifacts under their structural key.
    pub fn store_post_transform(&self, key: &PostTransformKey, artifacts: &PostTransformArtifacts) {
        let value = codec::encode_post_transform(artifacts);
        self.store_value(TAG_POST, key.config, key.detail(), None, &value);
    }

    /// Drops every persisted entry: deletes all segment files of both
    /// kinds, scanned or not.  The server's cache-reset path calls this so
    /// a reset daemon is cold on disk too, not just in memory.  Returns how
    /// many indexed entries were dropped.
    pub fn clear(&self) -> usize {
        let mut inner = self.lock();
        let removed = inner.index.len();
        let unscanned = inner.unscanned_posts.take().unwrap_or_default();
        let next = |log: &Log, extra: &[u64]| {
            let mut highest = log.active;
            for &id in log.files.keys().chain(extra) {
                let _ = fs::remove_file(segment_path(&self.dir, log.kind, id));
                highest = highest.max(id);
            }
            // Fresh ids above every old one, in case a removal failed.
            highest + 1
        };
        let seg_next = next(&inner.seg, &[]);
        let post_next = next(&inner.post, &unscanned);
        *inner = TierInner {
            index: HashMap::new(),
            seg: Log::empty(Kind::Seg, seg_next),
            post: Log::empty(Kind::Post, post_next),
            unscanned_posts: None,
        };
        removed
    }

    fn lock(&self) -> MutexGuard<'_, TierInner> {
        // Same poison policy as the memory shards: a panic mid-operation can
        // at worst lose one record, never tear the index structures we
        // re-derive from disk anyway.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Scans the `post-` files found at open, the first time a
    /// post-transform load or store needs them.
    fn scan_posts(&self, inner: &mut TierInner) {
        let Some(ids) = inner.unscanned_posts.take() else {
            return;
        };
        let before = inner.index.len();
        scan_log(&self.dir, Kind::Post, ids, inner, None, &self.counters);
        self.counters
            .warm_start_entries
            .fetch_add((inner.index.len() - before) as u64, Ordering::Relaxed);
    }

    /// Removes an entry whose record failed a check on load — unless a
    /// newer record for the same key has replaced it meanwhile.
    fn discard(&self, key: RecordKey, loc: RecordLoc) {
        self.lock().forget(key, loc);
        self.counters.corrupt();
    }

    fn store_value(
        &self,
        tag: u8,
        config: u64,
        key_str: &str,
        summary: Option<MappingSummary>,
        value: &[u8],
    ) {
        let Some(frame) = encode_frame(tag, config, key_str, summary.as_ref(), value) else {
            return;
        };
        let record_key = RecordKey::new(tag, config, key_str.as_bytes());
        let mut inner = self.lock();
        if summary.is_some_and(|s| inner.holds_summary(record_key, config, key_str, s)) {
            return;
        }
        let kind = if tag == TAG_POST {
            self.scan_posts(&mut inner);
            Kind::Post
        } else {
            Kind::Seg
        };
        let log = inner.log(kind);
        if !log.files.contains_key(&log.active) && new_file(&self.dir, log).is_err() {
            return;
        }
        let (seg, offset) = (log.active, log.active_len);
        let file = log.files.get_mut(&seg).expect("the append target is open");
        if append(file, &frame).is_err() {
            // Cut off whatever part of the frame reached the file, so the
            // next record lands where the index will say.  If even that
            // fails, later records go to a fresh file and the next open
            // chops this one's tail.
            if file.set_len(offset).is_err() {
                log.active += 1;
            }
            return;
        }
        let loc = RecordLoc {
            kind,
            seg,
            offset,
            payload_len: (frame.len() as u64 - FRAME_HEADER) as u32,
            tail: 0,
        };
        log.active_len += loc.frame_len();
        inner.index_record(record_key, loc);
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        for kind in [Kind::Seg, Kind::Post] {
            if inner.log(kind).wants_compaction() {
                self.compact(&mut inner, kind);
            }
        }
    }

    /// Rewrites every live record in files of `kind` into a fresh file of
    /// that kind and deletes the old ones, reclaiming the dead bytes of
    /// superseded records and of the tails after full-mapping summaries
    /// (such a record is rewritten summary-only).  A record that no longer
    /// verifies is dropped from the index (its summary, verified when it
    /// was read or stored, stays answerable from the cache's summary
    /// level).
    fn compact(&self, inner: &mut TierInner, kind: Kind) {
        let next = inner.log(kind).active + 1;
        let mut entries: Vec<(RecordKey, RecordLoc)> = inner
            .index
            .iter()
            .filter(|(_, loc)| loc.kind == kind)
            .map(|(k, v)| (*k, *v))
            .collect();
        // Rewritten in store order, so the next open still lists the
        // summaries oldest first and the cache keeps the newest.
        entries.sort_unstable_by_key(|(_, loc)| (loc.seg, loc.offset));
        let mut frames = Vec::with_capacity(entries.len());
        for (key, loc) in entries {
            let Ok(frame) = read_frame(inner, loc) else {
                inner.forget(key, loc);
                self.counters.corrupt();
                continue;
            };
            let trimmed = match verified_frame(&frame) {
                None => {
                    inner.forget(key, loc);
                    self.counters.corrupt();
                    continue;
                }
                Some(Record {
                    config,
                    key,
                    summary: Some(summary),
                    value,
                    ..
                }) if !value.is_empty() => std::str::from_utf8(key).ok().and_then(|source| {
                    encode_frame(TAG_MAPPING, config, source, Some(&summary), &[])
                }),
                Some(_) => None,
            };
            frames.push((key, trimmed.unwrap_or(frame)));
        }
        let mut fresh = Log::empty(kind, next);
        if new_file(&self.dir, &mut fresh).is_err() {
            return; // Keep serving from the uncompacted files.
        }
        let file = fresh.files.get_mut(&next).expect("fresh segment");
        let mut placed = Vec::with_capacity(frames.len());
        let mut offset = fresh.active_len;
        for (key, frame) in &frames {
            if append(file, frame).is_err() {
                // The old files stay authoritative.  Delete the partial
                // copy: left behind, it would block the next compaction's
                // file and, as the newest file, shadow newer records at
                // the next open.
                drop(fresh);
                let _ = fs::remove_file(segment_path(&self.dir, kind, next));
                return;
            }
            let loc = RecordLoc {
                kind,
                seg: next,
                offset,
                payload_len: (frame.len() as u64 - FRAME_HEADER) as u32,
                tail: 0,
            };
            offset += loc.frame_len();
            placed.push((*key, loc));
        }
        fresh.live_bytes = offset - fresh.active_len;
        fresh.active_len = offset;
        inner.index.extend(placed);
        let old = std::mem::replace(inner.log(kind), fresh);
        for id in old.files.into_keys() {
            let _ = fs::remove_file(segment_path(&self.dir, kind, id));
        }
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Appends all of `bytes` to `file`, which is open in append mode.  Tests
/// can make a chosen append stop short, as a full disk would.
fn append(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    #[cfg(test)]
    {
        if tests::write_stops_short() {
            file.write_all(&bytes[..bytes.len() / 2])?;
            return Err(io::Error::other("write stopped short"));
        }
    }
    file.write_all(bytes)
}

/// Creates `log`'s append target and writes the magic.  A file whose magic
/// did not make it is deleted again.
fn new_file(dir: &Path, log: &mut Log) -> io::Result<()> {
    let path = segment_path(dir, log.kind, log.active);
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create_new(true)
        .open(&path)?;
    if let Err(e) = append(&mut file, SEGMENT_MAGIC) {
        drop(file);
        let _ = fs::remove_file(&path);
        return Err(e);
    }
    log.files.insert(log.active, file);
    log.active_len = SEGMENT_MAGIC.len() as u64;
    Ok(())
}

/// Reads one record's frame (header and payload) without verifying it.
fn read_frame(inner: &mut TierInner, loc: RecordLoc) -> io::Result<Vec<u8>> {
    let file = inner
        .log(loc.kind)
        .files
        .get_mut(&loc.seg)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "segment closed"))?;
    file.seek(SeekFrom::Start(loc.offset))?;
    let mut frame = vec![0u8; loc.frame_len() as usize];
    file.read_exact(&mut frame)?;
    Ok(frame)
}

/// The record in a frame read back from disk, if its length field and
/// checksum still hold.
fn verified_frame(frame: &[u8]) -> Option<Record<'_>> {
    let (header, payload) = frame.split_at_checked(FRAME_HEADER as usize)?;
    if read_u32(header) as usize != payload.len() {
        return None;
    }
    Record::verified(payload, read_u64(&header[4..]))
}

/// Scans the files `ids` of one kind in id order through one reusable
/// record buffer, so later records supersede earlier ones.  Each file's
/// torn tail is chopped so appends resume exactly where its valid records
/// end, and a file without the current magic is deleted: appending to it
/// would lose every record at the next open.  The highest id becomes the
/// append target, or the next id when that file was unreadable.  Summary
/// records are listed in `found`; with `None` (the `post-` files) they are
/// corrupt.
fn scan_log(
    dir: &Path,
    kind: Kind,
    mut ids: Vec<u64>,
    inner: &mut TierInner,
    mut found: Option<&mut Found>,
    counters: &PersistCounters,
) {
    ids.sort_unstable();
    let mut record = Vec::new();
    for &id in &ids {
        let path = segment_path(dir, kind, id);
        let Ok(file) = OpenOptions::new().read(true).append(true).open(&path) else {
            counters.corrupt();
            continue;
        };
        let scanned = scan_segment(
            &file,
            kind,
            id,
            inner,
            found.as_deref_mut(),
            counters,
            &mut record,
        );
        let read = (&file).stream_position().unwrap_or(0);
        counters.scanned_bytes.fetch_add(read, Ordering::Relaxed);
        let Some(scanned_len) = scanned else {
            counters.corrupt();
            drop(file);
            let _ = fs::remove_file(&path);
            continue;
        };
        if file.metadata().is_ok_and(|m| m.len() > scanned_len) {
            let _ = file.set_len(scanned_len);
        }
        let log = inner.log(kind);
        log.files.insert(id, file);
        log.active = id;
        log.active_len = scanned_len;
    }
    let log = inner.log(kind);
    if let Some(&highest) = ids.last() {
        if !log.files.contains_key(&highest) {
            log.active = highest + 1;
            log.active_len = 0;
        }
    }
}

/// Scans segment file `seg` of `kind`, streaming it through `record`:
/// checksum-verifies every record, indexes the valid ones, lists the
/// summary of every full-mapping record, accounts the bytes after it as
/// dead and counts corruption.  Returns the length of the valid prefix (the
/// resume offset for appends), or `None` when the file does not start with
/// the current magic.
fn scan_segment(
    file: &File,
    kind: Kind,
    seg: u64,
    inner: &mut TierInner,
    mut found: Option<&mut Found>,
    counters: &PersistCounters,
    record: &mut Vec<u8>,
) -> Option<u64> {
    let file_len = file.metadata().ok()?.len();
    let mut reader = BufReader::with_capacity(SCAN_READ_AHEAD, file);
    let mut magic = [0u8; SEGMENT_MAGIC.len()];
    if reader.read_exact(&mut magic).is_err() || &magic != SEGMENT_MAGIC {
        return None;
    }
    let mut offset = SEGMENT_MAGIC.len() as u64;
    let mut header = [0u8; FRAME_HEADER as usize];
    while offset < file_len {
        // A torn header, a truncated payload and a corrupt length field all
        // look alike: framing beyond this point is unreliable, so the rest
        // of the segment is dead.
        let payload_len = (offset + FRAME_HEADER <= file_len
            && reader.read_exact(&mut header).is_ok())
        .then(|| read_u32(&header))
        .filter(|&len| offset + FRAME_HEADER + u64::from(len) <= file_len);
        let Some(payload_len) = payload_len else {
            counters.corrupt();
            break;
        };
        record.resize(payload_len as usize, 0);
        if reader.read_exact(record).is_err() {
            counters.corrupt();
            break;
        }
        let loc = RecordLoc {
            kind,
            seg,
            offset,
            payload_len,
            tail: 0,
        };
        offset += loc.frame_len();
        // A record whose payload is bad while the framing held is skipped
        // alone; the scan goes on.
        let Some(verified) = Record::verified(record, read_u64(&header[4..])) else {
            counters.corrupt();
            continue;
        };
        let mut tail = 0;
        if let Some(summary) = verified.summary {
            let (Some(found), Ok(source)) =
                (found.as_deref_mut(), std::str::from_utf8(verified.key))
            else {
                counters.corrupt();
                continue;
            };
            found.push((verified.config, source.into(), summary));
            tail = verified.value.len() as u32;
        }
        inner.index_record(
            RecordKey::new(verified.tag, verified.config, verified.key),
            RecordLoc { tail, ..loc },
        );
    }
    Some(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{config_fingerprint, MappingCache, Retain, SUMMARY_CAPACITY};
    use crate::flow::FlowToggles;
    use crate::pipeline::{Mapper, MappingResult};
    use fpfa_arch::{ArrayConfig, TileConfig};
    use std::cell::Cell;

    thread_local! {
        /// Appends this thread makes before one stops short, when armed.
        static APPENDS_BEFORE_SHORT: Cell<Option<u32>> = const { Cell::new(None) };
    }

    /// Lets the next `n` appends on this thread through and makes the one
    /// after them write half its bytes and fail.
    fn stop_write_short_after(n: u32) {
        APPENDS_BEFORE_SHORT.with(|left| left.set(Some(n)));
    }

    /// Whether the append being made is the one that stops short.
    pub(super) fn write_stops_short() -> bool {
        APPENDS_BEFORE_SHORT.with(|left| match left.get() {
            Some(0) => {
                left.set(None);
                true
            }
            Some(n) => {
                left.set(Some(n - 1));
                false
            }
            None => false,
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fpfa-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fingerprint() -> u64 {
        config_fingerprint(
            &TileConfig::paper(),
            &ArrayConfig::single_tile(),
            &FlowToggles::default(),
        )
    }

    fn file_len(path: &Path) -> u64 {
        fs::metadata(path).unwrap().len()
    }

    /// A cache over a tier opened on `dir`: its summary level answers from
    /// what the open handed over, and it stores a summary through to the
    /// tier unless the level already holds it.
    fn cache_over(dir: &Path) -> MappingCache {
        MappingCache::with_capacity(8).with_disk_tier(DiskTier::open(dir).unwrap())
    }

    fn tier_of(cache: &MappingCache) -> &DiskTier {
        cache.disk_tier().expect("a disk tier")
    }

    /// The summary with its cycle count moved by one.
    fn changed(summary: MappingSummary) -> MappingSummary {
        MappingSummary {
            cycles: summary.cycles + 1,
            ..summary
        }
    }

    /// The `post-` files in `dir`, by name.
    fn post_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| {
                let name = path.file_name().unwrap().to_str().unwrap();
                Kind::Post.id_of(name).is_some()
            })
            .collect();
        files.sort();
        files
    }

    /// The post-transform key and artifacts of a finished mapping, the key
    /// rebuilt from its simplified CDFG and layout exactly as the cached
    /// flow derives it.
    fn post_transform_of(result: &MappingResult) -> (PostTransformKey, PostTransformArtifacts) {
        let simplified = crate::flow::stages::SimplifiedKernel {
            simplified: (*result.simplified).clone(),
            layout: result.layout.clone(),
        };
        (
            PostTransformKey::new(&simplified, fingerprint()),
            PostTransformArtifacts::of(result),
        )
    }

    /// The post-transform keys and artifacts of [`SRC`], [`OTHER`] and
    /// [`THIRD`].
    fn three_post_records() -> Vec<(PostTransformKey, PostTransformArtifacts)> {
        [SRC, OTHER, THIRD]
            .iter()
            .map(|source| post_transform_of(&Mapper::new().map_source(source).unwrap()))
            .collect()
    }

    const SRC: &str = "void main() { int a[3]; int r; r = a[0] + a[1] * a[2]; }";
    const OTHER: &str = "void main() { int b[2]; int r; r = b[0] - b[1]; }";
    const THIRD: &str = "void main() { int c[4]; int r; r = c[0] * c[1] + c[2] * c[3]; }";

    #[test]
    fn store_survives_reopen() {
        let dir = temp_dir("reopen");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let summary = MappingSummary::of(&result);
        {
            let cache = cache_over(&dir);
            assert_eq!(cache.persist_stats().warm_start_entries, 0);
            cache.keep_summary(&key, summary);
            assert_eq!(cache.persist_stats().stores, 1);
            // The same summary again appends nothing.
            cache.keep_summary(&key, summary);
            assert_eq!(cache.persist_stats().stores, 1);
        }
        let cache = cache_over(&dir);
        assert_eq!(cache.persist_stats().warm_start_entries, 1);
        assert_eq!(tier_of(&cache).entry_count(), 1);
        // The summary answers from memory: nothing is read or decoded.
        assert_eq!(cache.summary(key.config, SRC), Some(summary));
        assert_eq!(cache.persist_stats().loads, 0);
        // Only the exact source text under the same config matches.
        assert_eq!(cache.summary(key.config, &format!("{SRC} ")), None);
        assert_eq!(cache.summary(key.config ^ 1, SRC), None);
        // A persisted summary holds off an equal store after the reopen; a
        // different one supersedes it.
        cache.keep_summary(&key, summary);
        assert_eq!(cache.persist_stats().stores, 0);
        cache.keep_summary(&key, changed(summary));
        assert_eq!(cache.persist_stats().stores, 1);
        assert_eq!(cache.summary(key.config, SRC), Some(changed(summary)));
        assert_eq!(tier_of(&cache).entry_count(), 1);
        drop(cache);
        assert_eq!(
            cache_over(&dir).summary(key.config, SRC),
            Some(changed(summary))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_summary_the_level_let_go_of_is_not_appended_again() {
        let dir = temp_dir("evicted");
        let cache = cache_over(&dir);
        let keys: Vec<MappingKey> = (0..=SUMMARY_CAPACITY)
            .map(|i| MappingKey::new(&format!("void main() {{ int r; r = {i}; }}"), fingerprint()))
            .collect();
        let summary = |i: usize| MappingSummary {
            digest: i as u64,
            operations: 1,
            clusters: 1,
            levels: 1,
            cycles: 1,
            tiles: 1,
            inter_tile_transfers: 0,
        };
        for (i, key) in keys.iter().enumerate() {
            cache.keep_summary(key, summary(i));
        }
        let stored = keys.len() as u64;
        assert_eq!(cache.persist_stats().stores, stored);
        // The first summary left the level past its bound; the tier still
        // holds it, so keeping it again appends nothing.
        assert_eq!(cache.summary(keys[0].config, keys[0].source()), None);
        cache.keep_summary(&keys[0], summary(0));
        assert_eq!(cache.persist_stats().stores, stored);
        assert_eq!(
            cache.summary(keys[0].config, keys[0].source()),
            Some(summary(0))
        );
        // The second one left the level in turn; a changed summary of it is
        // appended.
        cache.keep_summary(&keys[1], changed(summary(1)));
        assert_eq!(cache.persist_stats().stores, stored + 1);
        drop(cache);
        let reopened = cache_over(&dir);
        assert_eq!(tier_of(&reopened).entry_count(), keys.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_records_with_trailing_bytes_still_answer() {
        // Earlier versions wrote the encoded mapping after a full-mapping
        // record's summary; such a segment still warm-starts and answers.
        let dir = temp_dir("trailing");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let summary = MappingSummary::of(&result);
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.store_value(TAG_MAPPING, key.config, SRC, Some(summary), &[0xA5; 300]);
        }
        let cache = cache_over(&dir);
        let tier = tier_of(&cache);
        let stats = tier.stats();
        assert_eq!(stats.warm_start_entries, 1);
        assert_eq!(stats.corrupt_skipped, 0);
        assert_eq!(cache.summary(key.config, SRC), Some(summary));
        // The trailing bytes are dead from the open on; the rest is live.
        let frame_len = FRAME_HEADER + (KEY_PREFIX + SRC.len() + SUMMARY_LEN + 300) as u64;
        assert_eq!(tier.lock().seg.dead_bytes, 300);
        assert_eq!(tier.lock().seg.live_bytes, frame_len - 300);
        // The summary matches, so keeping the same mapping appends nothing.
        cache.keep_mapping(key.clone(), &Arc::new(result), Retain::Summary);
        assert_eq!(tier.stats().stores, 0);
        // A different summary supersedes the record: its trailing bytes are
        // not counted a second time.
        cache.keep_summary(&key, changed(summary));
        assert_eq!(tier.stats().stores, 1);
        assert_eq!(tier.lock().seg.dead_bytes, frame_len);
        assert_eq!(tier.lock().seg.live_bytes, frame_len - 300);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_has_one_tier_at_a_time() {
        // Two tiers appending to one directory index records at offsets
        // their own appends computed: without the lock, a second tier read
        // back none of its own records.
        let dir = temp_dir("one-writer");
        let records = three_post_records();
        let first = DiskTier::open(&dir).unwrap();
        let refused = DiskTier::open(&dir).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::WouldBlock);
        assert!(
            refused.to_string().contains(&dir.display().to_string()),
            "{refused}"
        );
        for (key, artifacts) in &records {
            first.store_post_transform(key, artifacts);
        }
        drop(first);

        let reopened = DiskTier::open(&dir).unwrap();
        for (key, _) in &records {
            assert!(reopened.load_post_transform(key).is_some());
        }
        assert_eq!(reopened.stats().corrupt_skipped, 0);

        // The lock is held on the open file, not by the file's existence: a
        // copy of the directory, lock file included, opens while the
        // original is held, and serves the same records.
        let copy = temp_dir("one-writer-copy");
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        assert!(copy.join(LOCK_FILE).is_file());
        let copied = DiskTier::open(&copy).unwrap();
        for (key, _) in &records {
            assert!(copied.load_post_transform(key).is_some());
        }
        drop((reopened, copied));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&copy);
    }

    #[test]
    fn tailed_summary_records_compact_to_their_summaries() {
        // A segment as earlier versions wrote it: every full-mapping record
        // carries an encoded mapping after its summary.  Those tails are
        // dead from the open on, and the first store compacts them away.
        let dir = temp_dir("tails");
        fs::create_dir_all(&dir).unwrap();
        let config = fingerprint();
        let result = Mapper::new().map_source(SRC).unwrap();
        let summary = MappingSummary::of(&result);
        let tail = [0xA5; 4096];
        let sources: Vec<String> = (0..300).map(|i| format!("{SRC} // {i}")).collect();
        let mut segment = SEGMENT_MAGIC.to_vec();
        for source in &sources {
            segment
                .extend(encode_frame(TAG_MAPPING, config, source, Some(&summary), &tail).unwrap());
        }
        fs::write(segment_path(&dir, Kind::Seg, 0), &segment).unwrap();

        let cache = cache_over(&dir);
        let tier = tier_of(&cache);
        let (live, dead) = {
            let inner = tier.lock();
            (inner.seg.live_bytes, inner.seg.dead_bytes)
        };
        assert_eq!(dead, (sources.len() * tail.len()) as u64);
        assert_eq!(
            live + dead,
            segment.len() as u64 - SEGMENT_MAGIC.len() as u64
        );
        assert!(dead >= COMPACT_MIN_DEAD && dead > live);
        // Opening does not compact; the next store does.
        assert_eq!(tier.stats().compactions, 0);
        cache.keep_summary(&MappingKey::new(SRC, config), summary);
        assert_eq!(tier.stats().compactions, 1);
        assert_eq!(tier.lock().seg.dead_bytes, 0);

        // One segment is left beside the lock file, and it holds
        // summary-sized records only, in the order they were stored.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);
        assert!(dir.join(LOCK_FILE).is_file());
        let bytes = fs::read(segment_path(&dir, Kind::Seg, tier.lock().seg.active)).unwrap();
        let mut at = SEGMENT_MAGIC.len();
        let mut records = Vec::new();
        while at < bytes.len() {
            let frame_len = FRAME_HEADER as usize + read_u32(&bytes[at..]) as usize;
            let record = verified_frame(&bytes[at..at + frame_len]).unwrap();
            assert_eq!(record.tag, TAG_MAPPING);
            assert!(record.value.is_empty(), "a tail survived at byte {at}");
            records.push(std::str::from_utf8(record.key).unwrap().to_owned());
            at += frame_len;
        }
        let stored: Vec<&str> = sources.iter().map(String::as_str).chain([SRC]).collect();
        assert_eq!(records, stored);
        for source in &sources {
            assert_eq!(cache.summary(config, source), Some(summary));
        }
        assert_eq!(cache.summary(config, SRC), Some(summary));

        // The compacted segment warm-starts with every summary and no dead
        // bytes.
        drop(cache);
        let cache = cache_over(&dir);
        let tier = tier_of(&cache);
        assert_eq!(tier.stats().warm_start_entries, sources.len() as u64 + 1);
        assert_eq!(tier.stats().corrupt_skipped, 0);
        assert_eq!(tier.lock().seg.dead_bytes, 0);
        for source in &sources {
            assert_eq!(cache.summary(config, source), Some(summary));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_flip_in_a_record_is_a_typed_miss() {
        let dir = temp_dir("flips");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let summary = MappingSummary::of(&result);
        let (post_key, artifacts) = post_transform_of(&result);
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.store_summary(&key, summary);
            tier.store_post_transform(&post_key, &artifacts);
        }
        // After each file's magic, one record: the summary (header, key
        // prefix, key, summary and nothing more) in the `seg-` file, the
        // post-transform record in the `post-` file.
        let seg_path = segment_path(&dir, Kind::Seg, 0);
        let post_path = segment_path(&dir, Kind::Post, 0);
        let seg = fs::read(&seg_path).unwrap();
        let post = fs::read(&post_path).unwrap();
        assert_eq!(
            seg.len(),
            SEGMENT_MAGIC.len() + FRAME_HEADER as usize + KEY_PREFIX + SRC.len() + SUMMARY_LEN
        );
        assert!(post.len() > SEGMENT_MAGIC.len() + FRAME_HEADER as usize);
        for at in SEGMENT_MAGIC.len()..seg.len() {
            let mut bytes = seg.clone();
            bytes[at] ^= 1 << (at % 8);
            fs::write(&seg_path, &bytes).unwrap();
            let cache = cache_over(&dir);
            let stats = cache.persist_stats();
            assert_eq!(stats.warm_start_entries, 0, "flip at byte {at}");
            assert!(stats.corrupt_skipped >= 1, "flip at byte {at}");
            assert_eq!(cache.summary(key.config, SRC), None, "flip at byte {at}");
        }
        fs::write(&seg_path, &seg).unwrap();
        for at in SEGMENT_MAGIC.len()..post.len() {
            let mut bytes = post.clone();
            bytes[at] ^= 1 << (at % 8);
            fs::write(&post_path, &bytes).unwrap();
            let cache = cache_over(&dir);
            let tier = tier_of(&cache);
            // The open never reads the post file: the summary answers and
            // nothing is counted yet.
            assert_eq!(tier.stats().corrupt_skipped, 0, "flip at byte {at}");
            assert_eq!(
                cache.summary(key.config, SRC),
                Some(summary),
                "flip at byte {at}"
            );
            assert!(
                tier.load_post_transform(&post_key).is_none(),
                "flip at byte {at}"
            );
            let stats = tier.stats();
            assert_eq!(stats.warm_start_entries, 1, "flip at byte {at}");
            assert!(stats.corrupt_skipped >= 1, "flip at byte {at}");
        }
        // The unflipped files still answer both ways.
        fs::write(&post_path, &post).unwrap();
        let cache = cache_over(&dir);
        assert_eq!(cache.summary(key.config, SRC), Some(summary));
        assert_eq!(
            tier_of(&cache).load_post_transform(&post_key),
            Some(artifacts)
        );
        assert_eq!(cache.persist_stats().corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_segments_are_replaced_not_appended_to() {
        // What a crash between creating a segment and writing its magic
        // leaves, and a segment of the previous format.
        for (tag, contents) in [
            ("empty", &b""[..]),
            (
                "v1",
                &b"FPFASEG1\x04\0\0\0\0\0\0\0\0\0\0\0\x01\x02\x03\x04"[..],
            ),
        ] {
            let dir = temp_dir(&format!("magic-{tag}"));
            fs::create_dir_all(&dir).unwrap();
            fs::write(segment_path(&dir, Kind::Seg, 0), contents).unwrap();
            let result = Mapper::new().map_source(SRC).unwrap();
            let key = MappingKey::new(SRC, fingerprint());
            {
                let tier = DiskTier::open(&dir).unwrap();
                assert_eq!(tier.stats().corrupt_skipped, 1, "{tag}");
                assert!(!segment_path(&dir, Kind::Seg, 0).exists(), "{tag}");
                tier.store_summary(&key, MappingSummary::of(&result));
            }
            let cache = cache_over(&dir);
            let stats = cache.persist_stats();
            assert_eq!(stats.warm_start_entries, 1, "{tag}");
            assert_eq!(stats.corrupt_skipped, 0, "{tag}");
            assert_eq!(
                cache.summary(key.config, SRC),
                Some(MappingSummary::of(&result))
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn clear_truncates_the_tier() {
        let dir = temp_dir("clear");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let (post_key, artifacts) = post_transform_of(&result);
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.store_summary(&key, MappingSummary::of(&result));
            tier.store_post_transform(&post_key, &artifacts);
        }
        let cache = cache_over(&dir);
        let tier = tier_of(&cache);
        assert_eq!(tier.entry_count(), 1);
        assert!(cache.summary(key.config, SRC).is_some());
        // The `post-` file is not scanned yet, and clear deletes it anyway;
        // the cache's clear empties its summary level too.
        cache.clear();
        assert_eq!(tier.entry_count(), 0);
        assert_eq!(cache.summary(key.config, SRC), None);
        assert!(post_files(&dir).is_empty());
        assert_eq!(tier.load_post_transform(&post_key), None);
        // A reopened tier is empty too.
        drop(cache);
        let mut tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.load_post_transform(&post_key), None);
        assert_eq!(tier.stats().warm_start_entries, 0);
        assert!(tier.take_summaries().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_typed_misses() {
        let dir = temp_dir("corrupt");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let seg_path;
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.store_summary(&key, MappingSummary::of(&result));
            seg_path = segment_path(tier.dir(), Kind::Seg, tier.lock().seg.active);
        }
        // Flip a byte in the middle of the stored record.
        let mut bytes = fs::read(&seg_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg_path, &bytes).unwrap();

        let cache = cache_over(&dir);
        // The warm-start scan already rejects the record.
        assert_eq!(cache.persist_stats().warm_start_entries, 0);
        assert!(cache.persist_stats().corrupt_skipped >= 1);
        assert_eq!(cache.summary(key.config, SRC), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_keeps_earlier_records() {
        let dir = temp_dir("truncate");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let other_result = Mapper::new().map_source(OTHER).unwrap();
        let other_key = MappingKey::new(OTHER, fingerprint());
        let seg_path;
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.store_summary(&key, MappingSummary::of(&result));
            tier.store_summary(&other_key, MappingSummary::of(&other_result));
            seg_path = segment_path(tier.dir(), Kind::Seg, tier.lock().seg.active);
        }
        // Chop bytes off the tail, tearing the second record.
        let bytes = fs::read(&seg_path).unwrap();
        fs::write(&seg_path, &bytes[..bytes.len() - 40]).unwrap();

        let cache = cache_over(&dir);
        assert_eq!(cache.persist_stats().warm_start_entries, 1);
        assert!(cache.persist_stats().corrupt_skipped >= 1);
        assert!(cache.summary(key.config, SRC).is_some());
        assert_eq!(cache.summary(other_key.config, OTHER), None);
        // The tier keeps accepting stores after recovering a torn tail.
        cache.keep_summary(&other_key, MappingSummary::of(&other_result));
        drop(cache);
        let cache = cache_over(&dir);
        assert_eq!(cache.persist_stats().corrupt_skipped, 0);
        assert_eq!(
            cache.summary(other_key.config, OTHER),
            Some(MappingSummary::of(&other_result))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseding_stores_trigger_compaction() {
        let dir = temp_dir("compact");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let (post_key, artifacts) = post_transform_of(&result);
        let tier = DiskTier::open(&dir).unwrap();
        tier.store_summary(&key, MappingSummary::of(&result));
        let record_bytes = {
            let before = tier.lock().post.live_bytes;
            tier.store_post_transform(&post_key, &artifacts);
            tier.lock().post.live_bytes - before
        };
        // Re-store the same key until the dead bytes pass the floor.
        let rewrites = (COMPACT_MIN_DEAD / record_bytes.max(1)) + 2;
        for _ in 0..rewrites {
            tier.store_post_transform(&post_key, &artifacts);
        }
        let stats = tier.stats();
        assert!(
            stats.compactions >= 1,
            "no compaction after {rewrites} rewrites"
        );
        assert!(tier.lock().post.dead_bytes < COMPACT_MIN_DEAD);
        // Both survivors are intact, on disk and in the reopened index.
        assert_eq!(tier.load_post_transform(&post_key), Some(artifacts.clone()));
        drop(tier);
        let cache = cache_over(&dir);
        assert_eq!(
            cache.summary(key.config, SRC),
            Some(MappingSummary::of(&result))
        );
        assert_eq!(
            tier_of(&cache).load_post_transform(&post_key),
            Some(artifacts)
        );
        assert_eq!(cache.persist_stats().warm_start_entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn post_transform_roundtrips_through_disk() {
        let dir = temp_dir("post");
        let result = Mapper::new().map_source(SRC).unwrap();
        let (key, artifacts) = post_transform_of(&result);
        let tier = DiskTier::open(&dir).unwrap();
        // The open creates no `post-` file; the first store does.
        assert!(post_files(&dir).is_empty());
        tier.store_post_transform(&key, &artifacts);
        assert_eq!(post_files(&dir), [segment_path(&dir, Kind::Post, 0)]);
        let loaded = tier.load_post_transform(&key).unwrap();
        assert_eq!(loaded, artifacts);
        // A reopened tier reads the `seg-` file at open and the `post-` file
        // on first use, every byte of each.
        drop(tier);
        let seg_len = file_len(&segment_path(&dir, Kind::Seg, 0));
        let post_len = file_len(&segment_path(&dir, Kind::Post, 0));
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.stats().scanned_bytes, seg_len);
        assert_eq!(tier.load_post_transform(&key), Some(artifacts));
        assert_eq!(tier.stats().scanned_bytes, seg_len + post_len);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_post_files_are_found_at_the_first_post_transform_load() {
        let dir = temp_dir("garbage-posts");
        let result = Mapper::new().map_source(SRC).unwrap();
        let key = MappingKey::new(SRC, fingerprint());
        let (post_key, artifacts) = post_transform_of(&result);
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.store_summary(&key, MappingSummary::of(&result));
            tier.store_post_transform(&post_key, &artifacts);
        }
        // Garbage after the magic of the one `post-` file, and a second
        // `post-` file that is garbage throughout.
        let post_path = segment_path(&dir, Kind::Post, 0);
        let mut bytes = fs::read(&post_path).unwrap();
        bytes[SEGMENT_MAGIC.len()..].fill(0xA5);
        fs::write(&post_path, &bytes).unwrap();
        fs::write(segment_path(&dir, Kind::Post, 7), [0x5A; 3000]).unwrap();
        let seg_len = file_len(&segment_path(&dir, Kind::Seg, 0));

        let cache = cache_over(&dir);
        let tier = tier_of(&cache);
        assert_eq!(
            tier.stats(),
            PersistStats {
                warm_start_entries: 1,
                scanned_bytes: seg_len,
                ..PersistStats::default()
            }
        );
        assert_eq!(
            cache.summary(key.config, SRC),
            Some(MappingSummary::of(&result))
        );
        // A summary store does not scan the `post-` files either.
        let other = Mapper::new().map_source(OTHER).unwrap();
        cache.keep_summary(
            &MappingKey::new(OTHER, fingerprint()),
            MappingSummary::of(&other),
        );
        let stats = tier.stats();
        assert_eq!((stats.corrupt_skipped, stats.scanned_bytes), (0, seg_len));
        // The first post-transform load does: a typed miss that counts the
        // broken framing of one file and the missing magic of the other,
        // which is deleted.
        assert_eq!(tier.load_post_transform(&post_key), None);
        let stats = tier.stats();
        assert_eq!(stats.corrupt_skipped, 2);
        assert_eq!(stats.warm_start_entries, 1);
        assert!(stats.scanned_bytes > seg_len);
        assert!(!segment_path(&dir, Kind::Post, 7).exists());
        // The tier stores again, and a reopened tier loads the new record.
        tier.store_post_transform(&post_key, &artifacts);
        drop(cache);
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.load_post_transform(&post_key), Some(artifacts));
        assert_eq!(tier.stats().corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_post_tail_is_chopped_before_the_next_append() {
        let dir = temp_dir("torn-post");
        let records = three_post_records();
        {
            let tier = DiskTier::open(&dir).unwrap();
            for (key, artifacts) in &records[..2] {
                tier.store_post_transform(key, artifacts);
            }
        }
        // Tear the second record.
        let post_path = segment_path(&dir, Kind::Post, 0);
        let bytes = fs::read(&post_path).unwrap();
        fs::write(&post_path, &bytes[..bytes.len() - 40]).unwrap();

        let tier = DiskTier::open(&dir).unwrap();
        let (key, artifacts) = &records[2];
        tier.store_post_transform(key, artifacts);
        assert_eq!(tier.stats().corrupt_skipped, 1);
        drop(tier);
        let tier = DiskTier::open(&dir).unwrap();
        for (i, (key, artifacts)) in records.iter().enumerate() {
            let expected = (i != 1).then(|| artifacts.clone());
            assert_eq!(tier.load_post_transform(key), expected, "record {i}");
        }
        let stats = tier.stats();
        assert_eq!(stats.corrupt_skipped, 0);
        assert_eq!(stats.warm_start_entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_single_file_directory_from_an_earlier_build_warm_starts() {
        // Earlier builds kept both record kinds in `seg-` files.
        let dir = temp_dir("one-file");
        fs::create_dir_all(&dir).unwrap();
        let config = fingerprint();
        let result = Mapper::new().map_source(SRC).unwrap();
        let summary = MappingSummary::of(&result);
        let (post_key, artifacts) = post_transform_of(&result);
        let value = codec::encode_post_transform(&artifacts);
        let mut segment = SEGMENT_MAGIC.to_vec();
        segment.extend(encode_frame(TAG_MAPPING, config, SRC, Some(&summary), &[]).unwrap());
        segment.extend(encode_frame(TAG_POST, config, post_key.detail(), None, &value).unwrap());
        let seg_path = segment_path(&dir, Kind::Seg, 0);
        fs::write(&seg_path, &segment).unwrap();

        let cache = cache_over(&dir);
        let tier = tier_of(&cache);
        let stats = tier.stats();
        assert_eq!(stats.warm_start_entries, 2);
        assert_eq!(stats.scanned_bytes, segment.len() as u64);
        assert_eq!(cache.summary(config, SRC), Some(summary));
        assert_eq!(tier.load_post_transform(&post_key), Some(artifacts.clone()));
        assert!(post_files(&dir).is_empty());
        // The next post-transform store lands in a `post-` file.
        let other = Mapper::new().map_source(OTHER).unwrap();
        let (other_key, other_artifacts) = post_transform_of(&other);
        tier.store_post_transform(&other_key, &other_artifacts);
        assert_eq!(post_files(&dir), [segment_path(&dir, Kind::Post, 0)]);
        assert_eq!(fs::read(&seg_path).unwrap(), segment);
        drop(cache);
        let cache = cache_over(&dir);
        let tier = tier_of(&cache);
        assert_eq!(cache.summary(config, SRC), Some(summary));
        assert_eq!(tier.load_post_transform(&post_key), Some(artifacts));
        assert_eq!(tier.load_post_transform(&other_key), Some(other_artifacts));
        assert_eq!(tier.stats().corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_is_cut_off_and_later_records_survive() {
        let dir = temp_dir("short-append");
        let records = three_post_records();
        let tier = DiskTier::open(&dir).unwrap();
        tier.store_post_transform(&records[0].0, &records[0].1);
        // The second record's write stops half-way, as on a full disk.
        stop_write_short_after(0);
        tier.store_post_transform(&records[1].0, &records[1].1);
        tier.store_post_transform(&records[2].0, &records[2].1);
        assert_eq!(tier.stats().stores, 2);
        let check = |tier: &DiskTier| {
            for (i, (key, artifacts)) in records.iter().enumerate() {
                let expected = (i != 1).then(|| artifacts.clone());
                assert_eq!(tier.load_post_transform(key), expected, "record {i}");
            }
            assert_eq!(tier.stats().corrupt_skipped, 0);
        };
        // The third record sits where the index says, in this process and
        // after a reopen.
        check(&tier);
        drop(tier);
        check(&DiskTier::open(&dir).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_compaction_leaves_no_partial_file() {
        // The store that compacts makes append 0 (its own record); the
        // compaction then writes the fresh file's magic (1) and its two
        // records (2 and 3).
        for stop_after in 1..=3 {
            let dir = temp_dir(&format!("short-compact-{stop_after}"));
            let records = three_post_records();
            let ((key, artifacts), (kept_key, kept)) = (&records[0], &records[1]);
            let tier = DiskTier::open(&dir).unwrap();
            tier.store_post_transform(kept_key, kept);
            let value = codec::encode_post_transform(artifacts);
            let frame = encode_frame(TAG_POST, key.config, key.detail(), None, &value).unwrap();
            let record_len = frame.len() as u64;
            // Re-store one key until the next store compacts.
            loop {
                tier.store_post_transform(key, artifacts);
                let inner = tier.lock();
                let dead = inner.post.dead_bytes + record_len;
                if dead >= COMPACT_MIN_DEAD && dead > inner.post.live_bytes {
                    break;
                }
            }
            stop_write_short_after(stop_after);
            tier.store_post_transform(key, artifacts);
            assert_eq!(tier.stats().compactions, 0, "stop after {stop_after}");
            assert_eq!(
                post_files(&dir),
                [segment_path(&dir, Kind::Post, 0)],
                "stop after {stop_after}"
            );
            assert_eq!(tier.load_post_transform(key), Some(artifacts.clone()));
            // The next store compacts.
            tier.store_post_transform(key, artifacts);
            assert_eq!(tier.stats().compactions, 1, "stop after {stop_after}");
            drop(tier);
            let tier = DiskTier::open(&dir).unwrap();
            assert_eq!(tier.load_post_transform(key), Some(artifacts.clone()));
            assert_eq!(tier.load_post_transform(kept_key), Some(kept.clone()));
            assert_eq!(tier.stats().corrupt_skipped, 0);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
