//! Serializable engine checkpoints: snapshot a running [`Simulation`]
//! at a round boundary, persist it, and resume later — on the same or a
//! different shard count — with byte-identical reports, digests and
//! event streams.
//!
//! A [`Checkpoint`] captures *every* piece of engine state that can
//! influence future draws and deliveries:
//!
//! * RNG stream positions — the trial fault stream (xoshiro256++ state
//!   plus the Box–Muller spare of the skew sampler), every per-link
//!   chaos stream, and every per-tile Byzantine stream;
//! * who has seen what: each message's audience window, whole;
//! * per-tile send buffers (each copy a body and its TTL, expiry counts)
//!   and round-robin egress cursors;
//! * per-tile clock domains (residual skew, slip totals);
//! * the arrival arenas (`next` and `later` delay lines): each frame's
//!   arrival link and wire entry — the `Inflight` frontier bookkeeping is
//!   rebuilt exactly from these on restore;
//! * adversary progress (replay ammunition per Byzantine tile; the
//!   partition/crash schedules themselves are pure functions of the
//!   round and need no state);
//! * the report-so-far, the terminated spreads, and the
//!   round/id/started/completed cursors.
//!
//! **Written once.** A flood holds thousands of copies of a few messages
//! and tens of thousands of frames of a few wire entries. Format v2
//! writes each distinct body (id, source, destination, payload) and each
//! distinct clean wire entry (a body and a TTL) once, where it is first
//! used, and numbers them in that order; every later use is its number.
//! Equal contents share a number whatever allocation holds them, so a
//! resumed simulation, whose copies share the bodies the restore made,
//! numbers them alike and recaptures the same bytes. An upset copy is
//! written where its frame is: a copy the CRC catches as its source's
//! number and the fault stream's position before the draw, a copy the CRC
//! misses as its bytes. Capture encodes no clean frame, and restore
//! decodes none: it reads the definitions into vectors and rebuilds every
//! entry by number.
//!
//! What is deliberately **not** captured: custom IP-core state.
//! [`IpCore`](noc_fabric::IpCore) is an open trait object; callers that
//! map stateful IPs must re-map equivalently-stateful IPs before
//! resuming (the `started` flag is restored, so `on_start` never fires
//! twice). All golden workloads inject via
//! [`Simulation::inject`](crate::Simulation::inject) and are unaffected.
//!
//! The wire format is a hand-rolled versioned little-endian binary
//! encoding (magic + version header). The encoding of a checkpoint is
//! deterministic — hash-ordered collections are sorted before writing —
//! so two checkpoints of identical engine state are byte-identical.
//!
//! A [`Checkpoint`] value *is* that encoding: one owned byte string
//! whose structure has been checked, and no tree of fields beside it.
//! Capture writes the bytes straight from engine state,
//! [`Checkpoint::from_bytes`] walks every length prefix and inline
//! definition of its input and keeps one copy of it (its only
//! allocation, whatever the prefixes claim), and resume reads the state
//! back out of the bytes.
//!
//! # Examples
//!
//! ```
//! use noc_fabric::NodeId;
//! use stochastic_noc::{Checkpoint, SimulationBuilder};
//!
//! let mut sim = SimulationBuilder::square_grid(4).ttl(8).seed(1).build();
//! sim.inject(NodeId(0), NodeId(15), b"snapshot me".to_vec());
//! sim.step();
//! let bytes = sim.checkpoint().to_bytes();
//!
//! let restored = Checkpoint::from_bytes(&bytes).unwrap();
//! let mut resumed = SimulationBuilder::square_grid(4)
//!     .ttl(8)
//!     .seed(1)
//!     .resume(&restored)
//!     .unwrap();
//! assert_eq!(resumed.round(), 1);
//! let straight = sim.run();
//! assert_eq!(format!("{straight:?}"), format!("{:?}", resumed.run()));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use noc_fabric::{MessageId, NodeId, WireCodec, MAX_NODES, MAX_PAYLOAD_BYTES};

use crate::body::{Body, Held};
use crate::wire::{EntryKinds, Upset, Wire, WireEntry, WireTable};

/// Magic bytes opening every serialized checkpoint.
const MAGIC: &[u8; 8] = b"NOCSIMCK";

/// Current wire-format version. Bump on any layout change; readers
/// reject versions they do not understand instead of misparsing.
const VERSION: u32 = 2;

/// Error decoding, validating, or (for the convenience file helpers)
/// reading/writing a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the encoded structure did.
    Truncated,
    /// The stream does not open with the checkpoint magic.
    BadMagic,
    /// The stream's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// Bytes remained after the encoded structure ended.
    TrailingBytes(usize),
    /// The checkpoint was taken under another configuration: its digest
    /// differs from the simulation's it is being restored into (topology,
    /// config, fault model, crash schedule, adversary, seed, codec,
    /// technology, egress limits or forwarding overrides).
    ConfigMismatch,
    /// The checkpoint's configuration matches, but its body does not fit
    /// the simulation or contradicts itself (lengths, ranges, sets).
    Mismatch(&'static str),
    /// A file read/write failed (message carries the `io::Error` text).
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after checkpoint"),
            Self::ConfigMismatch => write!(
                f,
                "checkpoint was taken under another configuration (its digest differs)"
            ),
            Self::Mismatch(what) => {
                write!(f, "checkpoint does not match this simulation: {what}")
            }
            Self::Io(msg) => write!(f, "checkpoint i/o error: {msg}"),
        }
    }
}

impl Error for CheckpointError {}

/// Byte offsets of the two header words the accessors read: the magic
/// and the version come first, then the digest, then the round.
const DIGEST_AT: usize = MAGIC.len() + 4;
const ROUND_AT: usize = DIGEST_AT + 8;
const BODY_AT: usize = ROUND_AT + 8;

/// A round-boundary snapshot of a [`Simulation`](crate::Simulation).
///
/// Capture one with
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint) (valid at
/// any round boundary — i.e. whenever you hold `&self` outside
/// [`step`](crate::Simulation::step)), serialize with
/// [`Checkpoint::to_bytes`]/[`Checkpoint::save`], and resume with
/// [`SimulationBuilder::resume`](crate::SimulationBuilder::resume) on a
/// builder configured identically (the shard count and event sink are
/// free to differ — neither is observable).
///
/// The value is its encoding: one owned, structurally validated v2 byte
/// string. Equality is byte equality, which the deterministic encoding
/// makes state equality.
#[derive(Clone, PartialEq)]
pub struct Checkpoint {
    /// Written by [`Writer`] or accepted by [`validate`], so every
    /// length prefix and optional inside it has been bounds-checked.
    bytes: Vec<u8>,
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("round", &self.round())
            .field("digest", &format_args!("{:#x}", self.config_digest()))
            .field("len", &self.bytes.len())
            .finish()
    }
}

impl Checkpoint {
    fn header_word(&self, at: usize) -> u64 {
        let mut le = [0u8; 8];
        le.copy_from_slice(&self.bytes[at..at + 8]);
        u64::from_le_bytes(le)
    }

    /// The round boundary this checkpoint was taken at (number of
    /// rounds fully executed before capture).
    pub fn round(&self) -> u64 {
        self.header_word(ROUND_AT)
    }

    /// Digest of the simulation's defining configuration tuple. Two
    /// checkpoints are resumable into the same builder iff their
    /// digests agree.
    pub fn config_digest(&self) -> u64 {
        self.header_word(DIGEST_AT)
    }

    /// Bytes in the encoding.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// A reader over everything after the header, for
    /// `Simulation::restore_from`.
    pub(crate) fn body(&self) -> Reader<'_> {
        Reader {
            data: &self.bytes,
            pos: BODY_AT,
        }
    }

    /// The versioned binary wire format — a copy of the bytes this value
    /// holds. The encoding is deterministic: the same engine state always
    /// produces the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Decodes a checkpoint previously produced by
    /// [`Checkpoint::to_bytes`]: checks the structure and keeps one copy
    /// of `data`, the only allocation whatever the length prefixes say.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on a bad magic, an unsupported
    /// version, truncation, or trailing bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CheckpointError> {
        validate(data)?;
        Ok(Self {
            bytes: data.to_vec(),
        })
    }

    /// Writes the serialized checkpoint to `path`, atomically: the bytes
    /// go to `<path>.tmp` beside the target, are synced, and are renamed
    /// over it, so a file that exists under `path` is complete.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the write or the rename fails;
    /// the temporary is removed and `path` is left as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let write = || {
            let mut file = File::create(&tmp)?;
            file.write_all(&self.bytes)?;
            file.sync_all()?;
            fs::rename(&tmp, path)
        };
        write().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            CheckpointError::Io(e.to_string())
        })
    }

    /// Reads and decodes a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the read fails, or any decode
    /// error from [`Checkpoint::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = fs::read(path.as_ref()).map_err(|e| CheckpointError::Io(e.to_string()))?;
        validate(&bytes)?;
        Ok(Self { bytes })
    }
}

/// A body or clean-entry reference that is no number yet: the definition
/// follows in place and takes the next number.
pub(crate) const NEW: u32 = u32::MAX;
/// A frame's entry word for an upset copy the CRC catches: its source's
/// clean-entry reference and the fault stream's position follow.
pub(crate) const CAUGHT: u32 = u32::MAX - 1;
/// A frame's entry word for an upset copy the CRC misses: its bytes
/// follow.
pub(crate) const MISSED: u32 = u32::MAX - 2;

/// Walks format v2 over `data` without keeping anything: magic, version,
/// every length prefix, every optional tag and inline definition, the end
/// of the stream. The layout is the order `Simulation::checkpoint`
/// writes; each [`Reader::count`] argument is the smallest encoding of
/// one item.
fn validate(data: &[u8]) -> Result<(), CheckpointError> {
    let mut r = Reader { data, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    // Digest, round, next id, started, completed, injector stream.
    r.take(8 + 8 + 8 + 1 + 1 + 32)?;
    r.opt_u64()?; // Gaussian spare
    r.take(3 * 8)?; // injection tally
    let link_streams = r.count(32)?;
    r.take(link_streams * 32)?;
    let tile_streams = r.count(8 + 32)?;
    r.take(tile_streams * (8 + 32))?;
    for _ in 0..r.count(8 + 8 + 8)? {
        r.take(8 + 8)?; // tile, message id
        r.bytes()?; // replay frame
    }
    r.bytes()?; // tile liveness
    r.bytes()?; // link liveness
    let clocks = r.count(8 + 8)?;
    r.take(clocks * (8 + 8))?;
    for _ in 0..r.count(1)? {
        r.opt_u64()?; // egress cursor
    }
    for _ in 0..r.count(8 + 4 + 8)? {
        r.take(8 + 4)?; // id, first word
        let words = r.count(8)?;
        r.take(words * 8)?;
    }
    for _ in 0..r.count(4 + 8)? {
        for _ in 0..r.short_count(4 + 1)? {
            r.body_ref()?;
            r.take(1)?; // ttl
        }
        r.take(8)?; // expiry count
    }
    for _arena in 0..2 {
        for _tile in 0..r.count(4)? {
            for _frame in 0..r.short_count(4 + 4)? {
                // The arrival link, then the entry word.
                match (r.u64()? >> 32) as u32 {
                    CAUGHT => {
                        r.clean_ref()?;
                        r.take(32)?; // fault stream position
                    }
                    MISSED => {
                        r.bytes()?;
                    }
                    NEW => r.clean_def()?,
                    _ => {}
                }
            }
        }
    }
    let terminated = r.count(8)?;
    r.take(terminated * 8)?;
    r.take(8 + 1 + 14 * 8)?; // report counters
    for _ in 0..r.count(4 * 8 + 1 + 8)? {
        r.take(4 * 8)?; // id, source, destination, injected round
        r.opt_u64()?; // delivered round
        r.take(8)?; // frame bits
    }
    match data.len() - r.pos {
        0 => Ok(()),
        extra => Err(CheckpointError::TrailingBytes(extra)),
    }
}

/// What a capture writes, counted from above, so that [`Writer::new`]
/// reserves the checkpoint in one block rather than growing it through
/// a chain of doublings, whose copies and freed blocks the allocator
/// must place anew every cycle. Each count is one kind of v2 record, and
/// [`Extent::bytes`] prices it at the most format v2 writes of it: a
/// per-tile slot, a copy and a frame at their fixed widths, a wire entry
/// by its kind, and a body definition once per body that can exist.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    /// Tiles: a liveness byte, a clock, an egress cursor's tag, a
    /// buffer's count, an expiry count and two arena counts each.
    pub(crate) tiles: usize,
    /// Links: one liveness byte each.
    pub(crate) links: usize,
    /// Egress cursors set: an id each.
    pub(crate) cursors: usize,
    /// Buffered copies: a body reference and a TTL each.
    pub(crate) copies: usize,
    /// Frames in flight: an arrival link and an entry word each.
    pub(crate) frames: usize,
    /// The wire entries the frames may name, by kind: each is defined at
    /// most once, after the word of the frame that first names it.
    pub(crate) entries: EntryKinds,
    /// Bodies that can exist, each defined at most once: equal contents
    /// share a number, and every content was minted by an inject, a
    /// Byzantine forge, or an upset the CRC missed (see
    /// `Simulation::extent`).
    pub(crate) bodies: usize,
    /// Audience windows, and the words in them.
    pub(crate) windows: usize,
    pub(crate) window_words: usize,
    /// Replay slots: a tile, an id and a frame's bytes each.
    pub(crate) replays: usize,
    /// Chaos and Byzantine streams: a tile and a generator state each.
    pub(crate) streams: usize,
    /// Message records, and terminated spreads.
    pub(crate) records: usize,
    pub(crate) terminated: usize,
    /// The longest frame any message encodes to, which bounds a body's
    /// payload and a replay slot's bytes.
    pub(crate) frame_bytes: usize,
}

impl Extent {
    /// Bytes a capture of this extent writes at most.
    pub(crate) fn bytes(&self) -> usize {
        const WORD: usize = 8;
        // Magic, version, digest and round; the next id and two flags; the
        // fault stream, its Gaussian spare and tally; thirteen section
        // counts; the report's round, flag and fourteen counters.
        const FIXED: usize = 28 + 10 + (32 + 9 + 3 * WORD) + 13 * WORD + (WORD + 1 + 14 * WORD);
        // Liveness, clock, egress cursor tag, buffer count, expiry count
        // and two arena counts.
        const TILE: usize = 1 + 2 * WORD + 1 + 4 + WORD + 2 * 4;
        // A body reference and a TTL.
        const COPY: usize = 4 + 1;
        // An arrival link and an entry word.
        const FRAME: usize = 4 + 4;
        // After its entry word: a clean entry's body reference and TTL, a
        // caught copy's source reference and stream position, a missed
        // copy's length (its bytes are counted apart).
        const CLEAN_ENTRY: usize = 4 + 1;
        const CAUGHT_ENTRY: usize = 4 + 4 * WORD;
        const MISSED_ENTRY: usize = WORD;
        // Id, source, destination and the payload's length, after the
        // reference word that defines it.
        const BODY: usize = 4 * WORD;
        // Id, first word and word count.
        const WINDOW: usize = 2 * WORD + 4;
        // Tile, id and the frame's length.
        const REPLAY: usize = 3 * WORD;
        // A tile and a generator state.
        const STREAM: usize = 5 * WORD;
        // Id, source, destination, injected round, delivered round and
        // frame bits.
        const RECORD: usize = 6 * WORD + 1;
        let EntryKinds {
            clean,
            caught,
            missed,
            missed_bytes,
        } = self.entries;
        FIXED
            + TILE * self.tiles
            + self.links
            + WORD * self.cursors
            + COPY * self.copies
            + FRAME * self.frames
            + CLEAN_ENTRY * clean
            + CAUGHT_ENTRY * caught
            + MISSED_ENTRY * missed
            + missed_bytes
            + (BODY + self.frame_bytes) * self.bodies
            + WINDOW * self.windows
            + WORD * self.window_words
            + (REPLAY + self.frame_bytes) * self.replays
            + STREAM * self.streams
            + RECORD * self.records
            + WORD * self.terminated
    }
}

/// Little-endian binary writer of format v2 over a growable buffer.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Opens a checkpoint, reserving what `extent` may take: magic,
    /// version and the two header words.
    pub(crate) fn new(config_digest: u64, round: u64, extent: &Extent) -> Self {
        let mut w = Self {
            buf: Vec::with_capacity(extent.bytes()),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u32(VERSION);
        w.u64(config_digest);
        w.u64(round);
        w
    }

    /// The finished checkpoint; what a `Writer` wrote needs no
    /// validation.
    pub(crate) fn finish(self) -> Checkpoint {
        Checkpoint { bytes: self.buf }
    }

    #[inline]
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    #[inline]
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A length prefix.
    #[inline]
    pub(crate) fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A length prefix of a per-tile list, which a 32-bit count holds.
    #[inline]
    pub(crate) fn short_count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    #[inline]
    pub(crate) fn rng_state(&mut self, state: [u64; 4]) {
        for word in state {
            self.u64(word);
        }
    }

    #[inline]
    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    #[inline]
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.count(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// A length-prefixed byte string that `fill` appends in place, so it
    /// is never built anywhere else first.
    #[inline]
    pub(crate) fn bytes_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let at = self.buf.len();
        self.count(0);
        fill(&mut self.buf);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    pub(crate) fn bools(&mut self, bools: &[bool]) {
        self.count(bools.len());
        self.buf.extend(bools.iter().map(|&b| u8::from(b)));
    }
}

/// Bounds-checked little-endian reader over a byte slice: every read
/// borrows from the slice, so nothing is copied or allocated.
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes; dropping the result skips them.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        Ok(self.u8()? != 0)
    }

    #[inline]
    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        let mut le = [0u8; 4];
        le.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(le))
    }

    #[inline]
    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        let mut le = [0u8; 8];
        le.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(le))
    }

    /// A count prefix, accepted only when that many items of at least
    /// `min_item` bytes each fit in what remains — so a loop or a
    /// reservation sized by it is backed by bytes that are there.
    #[inline]
    pub(crate) fn count(&mut self, min_item: usize) -> Result<usize, CheckpointError> {
        let count = self.u64()?;
        self.backed(count, min_item)
    }

    /// A [`Writer::short_count`] prefix, accepted as [`Reader::count`]
    /// accepts one.
    #[inline]
    pub(crate) fn short_count(&mut self, min_item: usize) -> Result<usize, CheckpointError> {
        let count = self.u32()?;
        self.backed(u64::from(count), min_item)
    }

    #[inline]
    fn backed(&self, count: u64, min_item: usize) -> Result<usize, CheckpointError> {
        self.holds(count, min_item)
            .then_some(count as usize)
            .ok_or(CheckpointError::Truncated)
    }

    /// Whether `count` items of at least `min_item` bytes each fit in
    /// what remains.
    #[inline]
    pub(crate) fn holds(&self, count: u64, min_item: usize) -> bool {
        count
            .checked_mul(min_item as u64)
            .is_some_and(|total| total <= (self.data.len() - self.pos) as u64)
    }

    #[inline]
    pub(crate) fn rng_state(&mut self) -> Result<[u64; 4], CheckpointError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }

    #[inline]
    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// A length-prefixed byte string, borrowed from the checkpoint.
    #[inline]
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// Skips a body reference and the definition it may carry.
    fn body_ref(&mut self) -> Result<(), CheckpointError> {
        if self.u32()? == NEW {
            self.take(3 * 8)?; // id, source, destination
            self.bytes()?; // payload
        }
        Ok(())
    }

    /// Skips a clean-entry reference and the definition it may carry.
    fn clean_ref(&mut self) -> Result<(), CheckpointError> {
        if self.u32()? == NEW {
            self.clean_def()?;
        }
        Ok(())
    }

    /// Skips a clean entry's definition: its body and TTL.
    fn clean_def(&mut self) -> Result<(), CheckpointError> {
        self.body_ref()?;
        self.take(1).map(drop) // ttl
    }
}

/// Capture's numbering of what format v2 writes once: the bodies and the
/// clean wire entries, each numbered where it is first written. Equal
/// contents get one number whichever allocation holds them.
pub(crate) struct Numbering<'a> {
    wires: &'a WireTable,
    /// The bodies numbered so far, by number.
    bodies: Vec<&'a Body>,
    /// The first body numbered with each id the engine assigned, by id:
    /// the one most copies of the message share.
    first_of: Vec<u32>,
    /// Each clean entry numbered so far, by its body's number and TTL.
    clean: BTreeMap<(u32, u8), u32>,
    /// The number of each wire entry met so far, by generation age and
    /// index; [`NEW`] where none has been met.
    met: [Vec<u32>; 3],
}

impl<'a> Numbering<'a> {
    /// Nothing numbered yet, of an engine that has assigned `ids` ids and
    /// keeps its in-flight entries in `wires`.
    pub(crate) fn new(ids: u64, wires: &'a WireTable) -> Self {
        Numbering {
            wires,
            bodies: Vec::new(),
            first_of: vec![NEW; ids as usize],
            clean: BTreeMap::new(),
            met: wires.generation_lens().map(|len| vec![NEW; len]),
        }
    }

    /// Where `body`'s id sits in `first_of`, if the engine assigned it.
    fn first_of(&self, body: &Body) -> Option<usize> {
        let at = usize::try_from(body.id.0).ok();
        at.filter(|&at| at < self.first_of.len())
    }

    /// The number of a body equal to `body`, if one is numbered: the
    /// first numbered with its id when it is that allocation, else the
    /// lowest-numbered equal one (a variant, or a header an upset made).
    #[inline]
    fn find(&self, body: &Body) -> Option<u32> {
        if let Some(at) = self.first_of(body) {
            let first = self.first_of[at];
            if first != NEW && std::ptr::eq(self.bodies[first as usize], body) {
                return Some(first);
            }
        }
        let equal = |known: &&Body| std::ptr::eq(*known, body) || **known == *body;
        self.bodies.iter().position(equal).map(|at| at as u32)
    }

    /// Writes a buffered copy: its body's reference and its TTL.
    #[inline]
    pub(crate) fn copy(&mut self, w: &mut Writer, held: &'a Held) {
        match self.find(&held.body) {
            // One write, the way most copies go.
            Some(number) => {
                let [a, b, c, d] = number.to_le_bytes();
                w.buf.extend_from_slice(&[a, b, c, d, held.ttl]);
            }
            None => {
                self.body(w, &held.body);
                w.u8(held.ttl);
            }
        }
    }

    /// Writes a reference to `body`: its number, or [`NEW`] and the
    /// definition that takes the next one. Returns the number.
    #[inline]
    fn body(&mut self, w: &mut Writer, body: &'a Body) -> u32 {
        if let Some(number) = self.find(body) {
            w.u32(number);
            return number;
        }
        let number = self.bodies.len() as u32;
        w.u32(NEW);
        w.u64(body.id.0);
        w.u64(body.source.index() as u64);
        w.u64(body.destination.index() as u64);
        w.bytes(&body.payload);
        if let Some(at) = self.first_of(body) {
            if self.first_of[at] == NEW {
                self.first_of[at] = number;
            }
        }
        self.bodies.push(body);
        number
    }

    /// Writes a frame that arrives over `via` on `wire`: the link, then
    /// the entry.
    #[inline]
    pub(crate) fn frame(&mut self, w: &mut Writer, via: u32, wire: Wire) {
        // Most frames name a clean entry met before: the link and its
        // number in one word, without a look at the entry.
        let (age, index) = self.wires.slot(wire);
        let known = self.met[age][index];
        if known != NEW {
            w.u64(u64::from(via) | u64::from(known) << 32);
        } else {
            w.u32(via);
            self.entry(w, wire);
        }
    }

    /// Writes the entry on `wire`: a clean entry's reference, or the upset
    /// copy in place — a caught one as [`CAUGHT`], its source's reference
    /// and the fault stream's position before the draw, a missed one as
    /// [`MISSED`] and its bytes.
    fn entry(&mut self, w: &mut Writer, wire: Wire) {
        let (age, index) = self.wires.slot(wire);
        debug_assert!(age < 2, "a frame names an entry `Extent` does not count");
        let known = self.met[age][index];
        if known != NEW {
            w.u32(known);
            return;
        }
        let wires = self.wires;
        match wires.entry(wire) {
            WireEntry::Clean { held, .. } => {
                self.met[age][index] = self.clean(w, held);
            }
            WireEntry::Upset(Upset::Caught { base, state }) => {
                w.u32(CAUGHT);
                self.entry(w, *base);
                w.rng_state(*state);
            }
            WireEntry::Upset(Upset::Scrambled { bytes, .. }) => {
                w.u32(MISSED);
                w.bytes(bytes);
            }
        }
    }

    /// Writes a reference to a clean entry that carries `held`: the number
    /// of one with equal contents, or [`NEW`] and the definition that takes
    /// the next number. Returns the number.
    fn clean(&mut self, w: &mut Writer, held: &'a Held) -> u32 {
        let body = self.find(&held.body);
        if let Some(&number) = body.and_then(|body| self.clean.get(&(body, held.ttl))) {
            w.u32(number);
            return number;
        }
        let number = self.clean.len() as u32;
        w.u32(NEW);
        let body = self.body(w, &held.body);
        w.u8(held.ttl);
        self.clean.insert((body, held.ttl), number);
        number
    }
}

/// What a restore has read of the v2 definitions so far: the bodies and
/// the clean entries, by number. Every reference is checked against what
/// is defined, and every definition against the wire format.
#[derive(Default)]
pub(crate) struct Defined {
    bodies: Vec<Arc<Body>>,
    /// For each body, the number of the first body defined with its id:
    /// what copies of either are told apart by.
    keys: Vec<u32>,
    first_of: BTreeMap<MessageId, u32>,
    /// For each such number, the tile a copy of its id was last read at,
    /// plus one.
    buffered_at: Vec<u32>,
    /// The wire entry each clean-entry number stands for.
    clean: Vec<Wire>,
}

impl Defined {
    /// Reads a body reference, and the definition it may carry: the
    /// body's number.
    fn body(&mut self, r: &mut Reader<'_>) -> Result<u32, CheckpointError> {
        let number = r.u32()?;
        if number != NEW {
            return if (number as usize) < self.bodies.len() {
                Ok(number)
            } else {
                Err(CheckpointError::Mismatch("a body number past its table"))
            };
        }
        let (id, source, destination) = (r.u64()?, r.u64()?, r.u64()?);
        let payload = r.bytes()?;
        // Checked against the wire format, not the topology: an
        // undetected upset can leave any 16-bit node index in a header.
        if source >= MAX_NODES as u64
            || destination >= MAX_NODES as u64
            || payload.len() > MAX_PAYLOAD_BYTES
        {
            return Err(CheckpointError::Mismatch(
                "a body does not fit the wire format",
            ));
        }
        let number = self.bodies.len() as u32;
        let id = MessageId(id);
        self.keys.push(*self.first_of.entry(id).or_insert(number));
        self.buffered_at.push(0);
        self.bodies.push(Arc::new(Body {
            id,
            source: NodeId(source as usize),
            destination: NodeId(destination as usize),
            payload: Arc::from(payload),
        }));
        Ok(number)
    }

    /// A copy at `ttl` of body `number`, which [`Defined::body`] returned.
    fn held(&self, number: u32, ttl: u8) -> Held {
        Held {
            body: Arc::clone(&self.bodies[number as usize]),
            ttl,
        }
    }

    /// Reads a copy buffered at `tile`, the buffers read in tile order. A
    /// buffer holds one copy of each id: a second one is refused.
    #[inline]
    pub(crate) fn copy(
        &mut self,
        r: &mut Reader<'_>,
        tile: usize,
    ) -> Result<Held, CheckpointError> {
        let body = self.body(r)?;
        let at = &mut self.buffered_at[self.keys[body as usize] as usize];
        if *at == tile as u32 + 1 {
            return Err(CheckpointError::Mismatch(
                "buffered message repeats or was never seen",
            ));
        }
        *at = tile as u32 + 1;
        Ok(self.held(body, r.u8()?))
    }

    /// Reads the rest of a frame's entry whose first word is `word`, and
    /// the definitions it may carry, registering in `wires` what it
    /// defines: the handle the frame names.
    #[inline]
    pub(crate) fn entry(
        &mut self,
        word: u32,
        r: &mut Reader<'_>,
        wires: &mut WireTable,
        codec: &WireCodec,
    ) -> Result<Wire, CheckpointError> {
        match word {
            CAUGHT => {
                let base = match r.u32()? {
                    CAUGHT | MISSED => Err(CheckpointError::Mismatch(
                        "a caught copy's source is not clean",
                    )),
                    word => self.clean(word, r, wires),
                }?;
                let state = r.rng_state()?;
                Ok(wires.push(WireEntry::Upset(Upset::Caught { base, state })))
            }
            MISSED => {
                let bytes = Arc::from(r.bytes()?);
                Ok(wires.push(WireEntry::scrambled(codec, bytes)))
            }
            word => self.clean(word, r, wires),
        }
    }

    /// Reads the rest of a clean-entry reference whose first word is
    /// `word`, and the definition it may carry: the entry's handle.
    #[inline]
    fn clean(
        &mut self,
        word: u32,
        r: &mut Reader<'_>,
        wires: &mut WireTable,
    ) -> Result<Wire, CheckpointError> {
        if word != NEW {
            let wire = self.clean.get(word as usize).copied();
            return wire.ok_or(CheckpointError::Mismatch("an entry number past its table"));
        }
        let body = self.body(r)?;
        let held = self.held(body, r.u8()?);
        let wire = wires.push(WireEntry::clean(held));
        self.clean.push(wire);
        Ok(wire)
    }
}

/// FNV-1a over a byte stream — the digest primitive behind
/// [`Checkpoint::config_digest`]. Stable across processes and
/// platforms; not cryptographic (it guards against honest mistakes,
/// not adversaries). Text written through [`fmt::Write`] is hashed as it
/// is formatted, never held.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulationBuilder;
    use noc_fabric::NodeId;
    use noc_faults::{AdversarialScenario, ByzantineMode, ErrorModel, FaultModel};

    /// What the tests below need to know of a v2 byte string: where its
    /// length prefixes sit (and how wide each is) and what the sections
    /// hold. Written out independently of [`validate`], as a second
    /// statement of format v2.
    #[derive(Debug, Default)]
    struct Shape {
        prefixes: Vec<(usize, usize)>,
        /// Where the first window's first-word field sits.
        first_window: usize,
        /// Where each reference that is a number sits: a copy's body, a
        /// frame's clean entry, a caught copy's source.
        copy_refs: Vec<usize>,
        frame_refs: Vec<usize>,
        caught_refs: Vec<usize>,
        spare: bool,
        replay_frames: usize,
        windows: usize,
        buffered: usize,
        bodies: usize,
        entries: usize,
        clean: usize,
        caught: usize,
        missed: usize,
        records: usize,
    }

    fn shape(data: &[u8]) -> Shape {
        fn count(r: &mut Reader<'_>, shape: &mut Shape, min_item: usize) -> usize {
            shape.prefixes.push((r.pos, 8));
            r.count(min_item).unwrap()
        }
        fn short_count(r: &mut Reader<'_>, shape: &mut Shape, min_item: usize) -> usize {
            shape.prefixes.push((r.pos, 4));
            r.short_count(min_item).unwrap()
        }
        fn bytes(r: &mut Reader<'_>, shape: &mut Shape) {
            let len = count(r, shape, 1);
            r.take(len).unwrap();
        }
        fn body(r: &mut Reader<'_>, shape: &mut Shape) {
            if r.u32().unwrap() == NEW {
                shape.bodies += 1;
                r.take(24).unwrap();
                bytes(r, shape);
            }
        }
        fn clean_def(r: &mut Reader<'_>, shape: &mut Shape) {
            shape.entries += 1;
            body(r, shape);
            r.take(1).unwrap();
        }
        let mut s = Shape::default();
        let mut r = Reader {
            data,
            pos: BODY_AT + 8 + 1 + 1 + 32,
        };
        s.spare = r.opt_u64().unwrap().is_some();
        r.take(24).unwrap();
        let link_streams = count(&mut r, &mut s, 32);
        r.take(link_streams * 32).unwrap();
        let tile_streams = count(&mut r, &mut s, 40);
        r.take(tile_streams * 40).unwrap();
        s.replay_frames = count(&mut r, &mut s, 24);
        for _ in 0..s.replay_frames {
            r.take(16).unwrap();
            bytes(&mut r, &mut s);
        }
        bytes(&mut r, &mut s);
        bytes(&mut r, &mut s);
        let clocks = count(&mut r, &mut s, 16);
        r.take(clocks * 16).unwrap();
        for _ in 0..count(&mut r, &mut s, 1) {
            r.opt_u64().unwrap();
        }
        s.windows = count(&mut r, &mut s, 20);
        s.first_window = r.pos + 8;
        for _ in 0..s.windows {
            r.take(12).unwrap();
            let words = count(&mut r, &mut s, 8);
            r.take(words * 8).unwrap();
        }
        for _ in 0..count(&mut r, &mut s, 12) {
            let live = short_count(&mut r, &mut s, 5);
            s.buffered += live;
            for _ in 0..live {
                if r.data[r.pos..r.pos + 4] != NEW.to_le_bytes() {
                    s.copy_refs.push(r.pos);
                }
                body(&mut r, &mut s);
                r.take(1).unwrap();
            }
            r.take(8).unwrap();
        }
        for _ in 0..2 {
            for _ in 0..count(&mut r, &mut s, 4) {
                for _ in 0..short_count(&mut r, &mut s, 8) {
                    r.take(4).unwrap();
                    let at = r.pos;
                    match r.u32().unwrap() {
                        CAUGHT => {
                            s.caught += 1;
                            match r.u32().unwrap() {
                                NEW => clean_def(&mut r, &mut s),
                                _ => s.caught_refs.push(r.pos - 4),
                            }
                            r.take(32).unwrap();
                        }
                        MISSED => {
                            s.missed += 1;
                            bytes(&mut r, &mut s);
                        }
                        NEW => {
                            s.clean += 1;
                            clean_def(&mut r, &mut s);
                        }
                        _ => {
                            s.clean += 1;
                            s.frame_refs.push(at);
                        }
                    }
                }
            }
        }
        let terminated = count(&mut r, &mut s, 8);
        r.take(terminated * 8).unwrap();
        r.take(8 + 1 + 14 * 8).unwrap();
        s.records = count(&mut r, &mut s, 41);
        for _ in 0..s.records {
            r.take(32).unwrap();
            r.opt_u64().unwrap();
            r.take(8).unwrap();
        }
        assert_eq!(r.pos, data.len(), "the shape walk must end at the end");
        s
    }

    /// A 4×4 gossip under upsets and clock skew with a replaying
    /// Byzantine tile.
    fn busy_builder() -> SimulationBuilder {
        let model = FaultModel::builder()
            .p_upset(0.3)
            .sigma_synch(0.2)
            .error_model(ErrorModel::RandomErrorVector)
            .build()
            .unwrap();
        let adversary = AdversarialScenario::builder()
            .byzantine_tile(5)
            .byzantine_mode(ByzantineMode::Replay)
            .byzantine_activation(0.5)
            .build()
            .unwrap();
        SimulationBuilder::square_grid(4)
            .forward_probability(0.6)
            .ttl(12)
            .max_rounds(40)
            .fault_model(model)
            .adversary(adversary)
            .seed(3)
    }

    /// [`busy_builder`] stepped until one checkpoint holds every kind of
    /// section: audience windows, buffered messages, caught and clean
    /// frames in flight, a replay frame and a Box–Muller spare.
    fn busy_checkpoint() -> Checkpoint {
        let mut sim = busy_builder().build();
        sim.inject(NodeId(0), NodeId(15), b"corner to corner".to_vec());
        sim.inject(NodeId(10), NodeId(1), b"x".to_vec());
        while sim.round() < 40 {
            sim.step();
            let ck = sim.checkpoint();
            let s = shape(&ck.bytes);
            if s.spare && s.replay_frames > 0 && s.buffered > 0 && s.caught > 0 && s.clean > 0 {
                assert_eq!((s.records, s.windows), (2, 2));
                // Every body and clean entry is written once, however many
                // copies and frames name it.
                assert!(s.bodies < s.buffered && s.entries < s.clean, "{s:?}");
                assert_eq!(ck.round(), sim.round());
                return ck;
            }
        }
        panic!("no round of the workload holds every kind of section");
    }

    #[test]
    fn decoding_then_encoding_is_the_identity() {
        let ck = busy_checkpoint();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.round(), ck.round());
        assert_eq!(back.config_digest(), ck.config_digest());
        let debug = format!("{back:?}");
        assert!(
            debug.len() < 120 && debug.contains(&format!("len: {}", bytes.len())),
            "Debug prints the header and the length, not the bytes: {debug}"
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = busy_checkpoint().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        );
    }

    /// Format v1 included: there is no reader for it.
    #[test]
    fn rejects_unsupported_version() {
        let mut bytes = busy_checkpoint().to_bytes();
        for version in [1, 99] {
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(version));
            assert_eq!(
                Checkpoint::from_bytes(&bytes),
                Err(CheckpointError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn rejects_every_truncation() {
        let bytes = busy_checkpoint().to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Checkpoint::from_bytes(&bytes[..cut]),
                Err(CheckpointError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = busy_checkpoint().to_bytes();
        bytes.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::TrailingBytes(1))
        );
    }

    /// A length prefix is the one field that sizes a loop or a
    /// reservation. Overwritten with a count nothing could back, or with
    /// the largest count the old cap (8 × the remaining bytes) let
    /// through, every prefix of the checkpoint — a tile's copy and frame
    /// counts among them — is refused as `Truncated` by arithmetic on
    /// what remains, before resume reads it, not by an allocation. With one item too many the
    /// walk usually runs off the end; where the shifted bytes happen to
    /// be well-formed v2 again, resume refuses what they say.
    #[test]
    fn hostile_length_prefixes_are_refused() {
        let bytes = busy_checkpoint().to_bytes();
        let prefixes = shape(&bytes).prefixes;
        assert!(prefixes.len() > 60, "{} prefixes", prefixes.len());
        let with = |at: usize, width: usize, hostile: u64| {
            let mut mutated = bytes.clone();
            mutated[at..at + width].copy_from_slice(&hostile.to_le_bytes()[..width]);
            Checkpoint::from_bytes(&mutated)
        };
        for &(at, width) in &prefixes {
            let mut word = [0; 8];
            word[..width].copy_from_slice(&bytes[at..at + width]);
            let count = u64::from_le_bytes(word);
            let widest = u64::MAX >> (64 - 8 * width);
            let remaining = (bytes.len() - at - width) as u64;
            for hostile in [widest, (remaining * 8).min(widest)] {
                assert_eq!(
                    with(at, width, hostile),
                    Err(CheckpointError::Truncated),
                    "prefix at {at}: {count} -> {hostile}"
                );
            }
            match with(at, width, count + 1) {
                Err(CheckpointError::Truncated | CheckpointError::TrailingBytes(_)) => {}
                Ok(ck) => assert!(
                    matches!(
                        busy_builder().resume(&ck).err(),
                        Some(CheckpointError::Mismatch(_))
                    ),
                    "prefix at {at}: {count} + 1 decoded and resumed"
                ),
                other => panic!("prefix at {at}: {count} + 1 gave {other:?}"),
            }
        }
    }

    /// A reference past what is defined, a window past the fabric, and a
    /// caught copy whose source is an upset copy are well-formed bytes
    /// that no capture writes: resume refuses each as a `Mismatch`.
    #[test]
    fn references_and_windows_no_capture_writes_are_refused() {
        let bytes = busy_checkpoint().to_bytes();
        let s = shape(&bytes);
        let kinds = [&s.copy_refs, &s.frame_refs, &s.caught_refs];
        assert!(kinds.iter().all(|refs| !refs.is_empty()), "{s:?}");
        let resume = |at: usize, word: u32| {
            let mut mutated = bytes.clone();
            mutated[at..at + 4].copy_from_slice(&word.to_le_bytes());
            let ck = Checkpoint::from_bytes(&mutated).expect("still well-formed");
            busy_builder().resume(&ck).err()
        };
        let refused = |why| Some(CheckpointError::Mismatch(why));
        for past in [s.bodies as u32, MISSED - 1] {
            assert_eq!(
                resume(s.copy_refs[0], past),
                refused("a body number past its table")
            );
        }

        for past in [s.entries as u32, MISSED - 1] {
            assert_eq!(
                resume(s.frame_refs[0], past),
                refused("an entry number past its table")
            );
            assert_eq!(
                resume(s.caught_refs[0], past),
                refused("an entry number past its table")
            );
        }
        for upset in [CAUGHT, MISSED] {
            assert_eq!(
                resume(s.caught_refs[0], upset),
                refused("a caught copy's source is not clean")
            );
        }
        // A 4×4 fabric is one word of tiles.
        assert_eq!(resume(s.first_window, 0), None);
        assert_eq!(
            resume(s.first_window, 1),
            refused("an audience window reaches past the fabric")
        );
    }

    /// A buffer holds one copy of each message. Two injected at one tile
    /// are two bodies, each defined where its copy is written; with the
    /// second copy naming the first body instead, the tile would hold two
    /// copies of one message, and resume refuses it.
    #[test]
    fn a_second_copy_of_one_message_at_one_tile_is_refused() {
        let builder = || SimulationBuilder::square_grid(2).ttl(4).seed(1);
        let mut sim = builder().build();
        sim.inject(NodeId(0), NodeId(3), b"a".to_vec());
        sim.inject(NodeId(0), NodeId(3), b"b".to_vec());
        let bytes = sim.checkpoint().to_bytes();
        // The second body's definition: id 1, source 0, destination 3 and
        // its one-byte payload.
        let mut second = NEW.to_le_bytes().to_vec();
        for word in [1u64, 0, 3, 1] {
            second.extend_from_slice(&word.to_le_bytes());
        }
        second.push(b'b');
        let at = (0..bytes.len() - second.len())
            .find(|&at| bytes[at..at + second.len()] == second[..])
            .unwrap();
        let mut twin = bytes[..at].to_vec();
        twin.extend_from_slice(&0u32.to_le_bytes());
        twin.extend_from_slice(&bytes[at + second.len()..]);
        let twin = Checkpoint::from_bytes(&twin).expect("still well-formed");
        assert_eq!(
            builder().resume(&twin).err(),
            Some(CheckpointError::Mismatch(
                "buffered message repeats or was never seen"
            ))
        );
        assert!(builder()
            .resume(&Checkpoint::from_bytes(&bytes).unwrap())
            .is_ok());
    }

    #[test]
    fn save_renames_a_complete_file_into_place() {
        let ck = busy_checkpoint();
        let dir = std::env::temp_dir().join(format!("noc-checkpoint-save-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("run.ckpt");
        // Saving over an older file replaces it whole.
        fs::write(&target, b"stale").unwrap();
        ck.save(&target).unwrap();
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["run.ckpt"], "the target and no temporary");
        assert_eq!(fs::read(&target).unwrap(), ck.to_bytes());
        assert_eq!(Checkpoint::load(&target).unwrap(), ck);

        let missing = dir.join("no-such-dir");
        let saved = ck.save(missing.join("run.ckpt"));
        assert!(matches!(saved, Err(CheckpointError::Io(_))), "{saved:?}");
        assert!(!missing.exists(), "a failed save creates nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(CheckpointError::Mismatch("seed")
            .to_string()
            .contains("seed"));
        assert!(CheckpointError::Io("denied".into())
            .to_string()
            .contains("denied"));
        assert!(CheckpointError::TrailingBytes(3).to_string().contains('3'));
        assert!(CheckpointError::ConfigMismatch
            .to_string()
            .contains("configuration"));
    }
}
