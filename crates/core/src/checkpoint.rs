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
//! * per-tile send buffers (live messages, each written whole with its
//!   body, the ids the tile has seen, expiry counts) and round-robin
//!   egress cursors;
//! * per-tile clock domains (residual skew, slip totals);
//! * the arrival arenas (`next` and `later` delay lines) with each
//!   frame's bytes, scrambled flag and arrival link — the `Inflight`
//!   frontier bookkeeping is rebuilt exactly from these on restore;
//! * adversary progress (replay ammunition per Byzantine tile; the
//!   partition/crash schedules themselves are pure functions of the
//!   round and need no state);
//! * the report-so-far, the informed/terminated bookkeeping, and the
//!   round/id/started/completed cursors.
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
//! [`Checkpoint::from_bytes`] walks every length prefix of its input and
//! keeps one copy of it (its only allocation, whatever the prefixes
//! claim), and resume reads the state back out of the bytes, borrowing
//! every frame and payload.
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

use std::error::Error;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic bytes opening every serialized checkpoint.
const MAGIC: &[u8; 8] = b"NOCSIMCK";

/// Current wire-format version. Bump on any layout change; readers
/// reject versions they do not understand instead of misparsing.
const VERSION: u32 = 1;

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
/// The value is its encoding: one owned, structurally validated v1 byte
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

/// Walks format v1 over `data` without keeping anything: magic, version,
/// every length prefix, every optional tag, the end of the stream. The
/// layout is the order `Simulation::checkpoint` writes; each
/// [`Reader::count`] argument is the smallest encoding of one item.
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
    for _ in 0..r.count(8 + 8 + 8)? {
        for _ in 0..r.count(8 + 8 + 8 + 1 + 8)? {
            r.take(8 + 8 + 8 + 1)?; // id, source, destination, ttl
            r.bytes()?; // payload
        }
        let seen = r.count(8)?;
        r.take(seen * 8 + 8)?; // seen-set, expiry count
    }
    for _arena in 0..2 {
        for _tile in 0..r.count(8)? {
            for _frame in 0..r.count(8 + 1 + 1)? {
                r.bytes()?;
                r.take(1)?; // scrambled
                r.opt_u64()?; // arrival link
            }
        }
    }
    let informed = r.count(8 + 8)?;
    r.take(informed * (8 + 8))?;
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
/// must place anew every cycle. Each count is one kind of v1 record;
/// [`Extent::bytes`] prices it at the most its fields take.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    /// Tiles: a slot in every per-tile table, a clock, a buffer's and a
    /// seen list's counts, an expiry count and two arena counts each.
    pub(crate) tiles: usize,
    /// Links: one liveness byte each.
    pub(crate) links: usize,
    /// Buffered copies: id, source, destination, TTL and payload each.
    pub(crate) copies: usize,
    /// Entries of the seen lists: one id each.
    pub(crate) seen: usize,
    /// Frames in flight and replay slots: bytes, flags and link each.
    pub(crate) frames: usize,
    /// Chaos and Byzantine streams: a tile and a generator state each.
    pub(crate) streams: usize,
    /// Message ids with a record, an informed count or a terminated
    /// spread.
    pub(crate) ids: usize,
    /// The longest frame any copy or frame encodes to.
    pub(crate) frame_bytes: usize,
}

impl Extent {
    /// Bytes a capture of this extent writes at most.
    pub(crate) fn bytes(&self) -> usize {
        const WORD: usize = 8;
        // Header, the fault stream, the section counts and the report's
        // counters.
        const FIXED: usize = 128 * WORD;
        // Liveness, clock, egress cursor, three buffer words and two
        // arena counts.
        const TILE: usize = 9 * WORD;
        // Id, source, destination, TTL and the payload's length.
        const COPY: usize = 5 * WORD + 1;
        // Length, flag and link; a replay slot's tile, id and length.
        const FRAME: usize = 3 * WORD + 3;
        // A tile and a generator state.
        const STREAM: usize = 6 * WORD;
        // A record, an informed count and a terminated id.
        const ID: usize = 9 * WORD;
        FIXED
            + TILE * self.tiles
            + self.links
            + (COPY + self.frame_bytes) * self.copies
            + WORD * self.seen
            + (FRAME + self.frame_bytes) * self.frames
            + STREAM * self.streams
            + ID * self.ids
    }
}

/// Little-endian binary writer of format v1 over a growable buffer.
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
        w.buf.extend_from_slice(&VERSION.to_le_bytes());
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
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A length prefix.
    #[inline]
    pub(crate) fn count(&mut self, n: usize) {
        self.u64(n as u64);
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

    fn u32(&mut self) -> Result<u32, CheckpointError> {
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

    /// What the tests below need to know of a v1 byte string: where its
    /// length prefixes sit and what the sections hold. Written out
    /// independently of [`validate`], as a second statement of format v1.
    #[derive(Debug, Default)]
    struct Shape {
        prefixes: Vec<usize>,
        spare: bool,
        replay_frames: usize,
        buffered: usize,
        scrambled: usize,
        clean: usize,
        records: usize,
    }

    fn shape(data: &[u8]) -> Shape {
        fn count(r: &mut Reader<'_>, shape: &mut Shape, min_item: usize) -> usize {
            shape.prefixes.push(r.pos);
            r.count(min_item).unwrap()
        }
        fn bytes(r: &mut Reader<'_>, shape: &mut Shape) {
            let len = count(r, shape, 1);
            r.take(len).unwrap();
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
        for _ in 0..count(&mut r, &mut s, 24) {
            let live = count(&mut r, &mut s, 33);
            s.buffered += live;
            for _ in 0..live {
                r.take(25).unwrap();
                bytes(&mut r, &mut s);
            }
            let seen = count(&mut r, &mut s, 8);
            r.take(seen * 8 + 8).unwrap();
        }
        for _ in 0..2 {
            for _ in 0..count(&mut r, &mut s, 8) {
                for _ in 0..count(&mut r, &mut s, 10) {
                    bytes(&mut r, &mut s);
                    match r.bool().unwrap() {
                        true => s.scrambled += 1,
                        false => s.clean += 1,
                    }
                    r.opt_u64().unwrap();
                }
            }
        }
        let informed = count(&mut r, &mut s, 16);
        r.take(informed * 16).unwrap();
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
    /// section: buffered messages, scrambled and clean frames in flight,
    /// a replay frame and a Box–Muller spare.
    fn busy_checkpoint() -> Checkpoint {
        let mut sim = busy_builder().build();
        sim.inject(NodeId(0), NodeId(15), b"corner to corner".to_vec());
        sim.inject(NodeId(10), NodeId(1), b"x".to_vec());
        while sim.round() < 40 {
            sim.step();
            let ck = sim.checkpoint();
            let s = shape(&ck.bytes);
            if s.spare && s.replay_frames > 0 && s.buffered > 0 && s.scrambled > 0 && s.clean > 0 {
                assert_eq!(s.records, 2);
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

    #[test]
    fn rejects_unsupported_version() {
        let mut bytes = busy_checkpoint().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
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
    /// through, every prefix of the checkpoint is refused by arithmetic
    /// on what remains, not by an allocation. With one item too many the
    /// walk usually runs off the end; where the shifted bytes happen to
    /// be well-formed v1 again (17 clocks and no egress cursors, when all
    /// 16 cursors were `None`), resume refuses the lengths.
    #[test]
    fn hostile_length_prefixes_are_refused() {
        let bytes = busy_checkpoint().to_bytes();
        let prefixes = shape(&bytes).prefixes;
        assert!(prefixes.len() > 100, "{} prefixes", prefixes.len());
        let with = |at: usize, hostile: u64| {
            let mut mutated = bytes.clone();
            mutated[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            Checkpoint::from_bytes(&mutated)
        };
        for &at in &prefixes {
            let count = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let remaining = (bytes.len() - at - 8) as u64;
            for hostile in [u64::MAX, remaining * 8] {
                assert_eq!(
                    with(at, hostile),
                    Err(CheckpointError::Truncated),
                    "prefix at {at}: {count} -> {hostile}"
                );
            }
            match with(at, count + 1) {
                Err(CheckpointError::Truncated | CheckpointError::TrailingBytes(_)) => {}
                Ok(ck) => assert_eq!(
                    busy_builder().resume(&ck).err(),
                    Some(CheckpointError::Mismatch("per-tile state length")),
                    "prefix at {at}: {count} + 1 decoded"
                ),
                other => panic!("prefix at {at}: {count} + 1 gave {other:?}"),
            }
        }
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
