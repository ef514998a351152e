//! Durable-artifact IO shared by every crate that persists state.
//!
//! These pieces live here because every crate that writes an artifact
//! (weights, checkpoints, datasets, detectors, the stage ledger, wire
//! frames) needs them and this crate is their common root
//! dependency:
//!
//! - [`Envelope`] — the one framing of all six formats: an 8-byte
//!   magic, a body, a CRC-32 trailer ([`seal_record`] / [`open_record`]
//!   frame the ledger's appended records the same way). A truncated,
//!   bit-flipped or foreign file is a **typed [`Refusal`]**, never
//!   silently-wrong numbers. [`crc32`] is called nowhere else.
//! - [`Crc32`] / [`crc32`] — a pure-Rust CRC-32 (IEEE, the zlib
//!   polynomial), the envelope's trailer.
//! - [`fnv1a`] / [`digest`] — FNV-1a over bytes and over the bits of an
//!   `f32` slice: the hash ring's key function and the unit of the
//!   cross-commit bit corpus (`results/bits.txt`).
//! - [`atomic_write`] — the blessed write path for persisted artifacts:
//!   full payload to a same-directory temp file, `sync_all`, then
//!   `rename` over the destination. Readers never observe a torn file;
//!   a crash leaves either the old generation or the new one. Clippy's
//!   `disallowed-methods` (`clippy.toml`) flags `fs::write` and
//!   `File::create`, the writes that would bypass this helper.
//! - [`ByteWriter`] / [`ByteReader`] — little-endian encode/decode
//!   cursors with bounds-checked reads, so format parsers fail with a
//!   clean `io::Error` instead of panicking or over-allocating on
//!   corrupt headers.
//!
//! With the `faults` cargo feature the `faults` module adds the
//! workspace's one fault schedule (`Schedule`, "act on the N-th event",
//! which serve's and net's fault plans are built on) and a deterministic
//! IO fault-injection layer (short writes, torn renames, bit-flips) that
//! wounds [`atomic_write`] on scripted write sequence numbers —
//! production builds carry zero injection code.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) slicing-by-8 tables,
/// built at compile time: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][i]` is byte `i`'s remainder after `k` more zero bytes,
/// so eight table lookups advance the checksum by eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

#[expect(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "const loops: `i` runs over 0..256 and `k` over 1..8, the tables' extents"
)]
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 hasher (IEEE polynomial, zlib-compatible).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the running checksum: eight bytes per step
    /// through the slicing-by-8 tables, then the last `len % 8` one at
    /// a time — the same remainder as a byte at a time throughout.
    #[expect(
        clippy::indexing_slicing,
        reason = "`& 0xFF` and `>> 24` keep every index inside a 256-entry table"
    )]
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
        let (words, tail) = bytes.as_chunks::<8>();
        let mut crc = self.state;
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
            let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
            let hi = u32::from_le_bytes([b4, b5, b6, b7]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[(lo >> 8 & 0xFF) as usize]
                ^ t5[(lo >> 16 & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[(hi >> 8 & 0xFF) as usize]
                ^ t1[(hi >> 16 & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &b in tail {
            crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64-bit: tiny, dependency-free, and plenty uniform for hash
/// rings and change detection. Not an integrity check — on-disk
/// formats use [`crc32`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// [`fnv1a`] over the little-endian `to_bits` of every value: equal
/// digests mean equal bits (`-0.0` and `0.0` differ, as do NaN
/// payloads), on any host. The currency of `results/bits.txt`.
pub fn digest(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a_fold(h, &v.to_bits().to_le_bytes()))
}

/// The temp-file path `atomic_write` stages into: same directory as the
/// destination (so the rename cannot cross filesystems), marked with
/// the writing process id.
fn staging_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_owned());
    path.with_file_name(format!(".{name}.tmp.{}", std::process::id()))
}

/// `true` for staging files left behind by a crashed [`atomic_write`];
/// recovery scans must skip them.
pub fn is_staging_file(path: &Path) -> bool {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .is_some_and(|n| n.starts_with('.') && n.contains(".tmp."))
}

/// Durably replaces `path` with `bytes`: writes the full payload to a
/// same-directory temp file, fsyncs it, then renames it over the
/// destination. A crash at any point leaves either the previous file
/// intact or the complete new one — never a torn mixture (plus at most
/// an orphan `.tmp` staging file, which [`is_staging_file`] identifies).
///
/// This is the only sanctioned write path for persisted artifacts; the
/// `direct-overwrite` lint enforces it workspace-wide.
///
/// # Errors
///
/// Propagates create/write/sync/rename failures.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path);
    #[cfg(feature = "faults")]
    if let Some(outcome) = faults::intercept_write(path, &tmp, bytes)? {
        return outcome;
    }
    write_staged(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Writes and fsyncs the staged temp file (shared with the fault layer).
#[expect(
    clippy::disallowed_methods,
    reason = "the staging half of atomic_write: a fresh temp file, renamed only once synced"
)]
fn write_staged(tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

/// Reads a whole file, rejecting staging leftovers.
///
/// # Errors
///
/// Propagates read failures; an [`io::ErrorKind::InvalidData`] error is
/// returned for a staging file (a crashed write's leftovers must never
/// be loaded as an artifact).
pub fn read_artifact(path: &Path) -> io::Result<Vec<u8>> {
    if is_staging_file(path) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "refusing to read a staging (.tmp) file as an artifact",
        ));
    }
    let mut buf = Vec::default();
    fs::File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Little-endian binary encoder used by every on-disk format.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty encoder.
    pub fn new() -> Self {
        ByteWriter {
            buf: Vec::default(),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Makes room for `additional` more bytes in one growth step.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Overwrites the little-endian `u32` at byte `at` — a length prefix
    /// whose value is known only once the record after it is written.
    /// Out of range, it writes nothing.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        let slot = at.checked_add(4).and_then(|end| self.buf.get_mut(at..end));
        if let Some(slot) = slot {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a `u32` count or length prefix. A count past `u32::MAX`
    /// saturates, so a decoder refuses the record rather than misreading
    /// a wrapped prefix.
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// Appends a length-prefixed (`u32`) UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_count(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` before the first write.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, yielding the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder. Every read that would run past
/// the end fails with [`io::ErrorKind::UnexpectedEof`] — corrupt or
/// truncated input becomes a typed error, never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// The bytes not yet consumed.
    fn unread(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    fn short(&self, n: usize) -> io::Error {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "truncated record: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ),
        )
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let (head, _) = self
            .unread()
            .split_at_checked(n)
            .ok_or_else(|| self.short(n))?;
        self.pos += n;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let head = *self
            .unread()
            .first_chunk::<N>()
            .ok_or_else(|| self.short(N))?;
        self.pos += N;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_u8(&mut self) -> io::Result<u8> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64` that must fit in `usize`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer,
    /// [`io::ErrorKind::InvalidData`] for a value past `usize::MAX`.
    pub fn get_usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "u64 field overflows usize"))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Reads `n` little-endian `f32`s. The `n · 4` bytes must be present
    /// before anything is allocated, so a hostile `n` costs no more than
    /// the bytes that carry it.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        let raw = self.take(n.saturating_mul(4))?;
        Ok(raw
            .as_chunks()
            .0
            .iter()
            .map(|c| f32::from_le_bytes(*c))
            .collect())
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string written by
    /// [`ByteWriter::put_str`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] on truncation,
    /// [`io::ErrorKind::InvalidData`] for non-UTF-8 payloads.
    pub fn get_str(&mut self) -> io::Result<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 string record"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.unread().len()
    }
}

/// Where a format's CRC-32 trailer starts counting; both scopes are on
/// disk (DESIGN.md §12.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcScope {
    /// The body alone: everything between the magic and the trailer.
    AfterMagic,
    /// The magic and the body: everything before the trailer.
    FromStart,
}

/// One artifact format's framing: an 8-byte magic, a body, then a
/// little-endian CRC-32 trailer. Every persisted or wire-framed artifact
/// in the workspace is one of these, so a truncated, torn, bit-flipped
/// or foreign file is a [`Refusal`] before one body byte is parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// The first eight bytes of every instance.
    pub magic: &'static [u8; 8],
    /// What the trailer covers; fixed per format.
    pub crc: CrcScope,
}

/// Why [`Envelope::open`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Too short to hold a magic and a trailer.
    TooShort {
        /// Bytes offered.
        len: usize,
    },
    /// Another format's magic, or none: the eight bytes found, so a
    /// caller can refuse a retired or sibling format by name.
    BadMagic {
        /// The leading eight bytes.
        found: [u8; 8],
    },
    /// The trailer does not match the bytes it covers.
    CrcMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC of the bytes as received.
        computed: u32,
    },
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::TooShort { len } => {
                write!(f, "too small for a magic and a CRC trailer ({len} bytes)")
            }
            Refusal::BadMagic { found } => write!(f, "bad magic \"{}\"", found.escape_ascii()),
            Refusal::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch: trailer {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl Envelope {
    /// An encoder already holding the magic: write the body into it,
    /// then [`seal`](Envelope::seal) it.
    pub fn writer(&self) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_bytes(self.magic);
        w
    }

    /// Appends the CRC-32 trailer to an encoder begun by
    /// [`writer`](Envelope::writer), yielding the finished artifact.
    pub fn seal(&self, mut w: ByteWriter) -> Vec<u8> {
        w.put_u32(crc32(self.covered(&w.buf)));
        w.buf
    }

    /// Checks the magic alone: for a reader that must vet a header
    /// before it reads (or allocates for) the rest.
    ///
    /// # Errors
    ///
    /// [`Refusal::TooShort`] under eight bytes, else
    /// [`Refusal::BadMagic`] for any other magic.
    pub fn check_magic(&self, bytes: &[u8]) -> Result<(), Refusal> {
        match bytes.first_chunk::<8>() {
            None => Err(Refusal::TooShort { len: bytes.len() }),
            Some(found) if found != self.magic => Err(Refusal::BadMagic { found: *found }),
            Some(_) => Ok(()),
        }
    }

    /// Verifies magic and trailer, in that order, and returns the body
    /// between them.
    ///
    /// # Errors
    ///
    /// A [`Refusal`]; nothing of the body has been interpreted.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], Refusal> {
        self.check_magic(bytes)?;
        let (framed, trailer) = bytes
            .split_last_chunk::<4>()
            .filter(|(framed, _)| framed.len() >= self.magic.len())
            .ok_or(Refusal::TooShort { len: bytes.len() })?;
        let stored = u32::from_le_bytes(*trailer);
        let computed = crc32(self.covered(framed));
        if stored != computed {
            return Err(Refusal::CrcMismatch { stored, computed });
        }
        Ok(framed.get(self.magic.len()..).unwrap_or_default())
    }

    /// The bytes of `framed` (magic + body) the trailer covers.
    fn covered<'a>(&self, framed: &'a [u8]) -> &'a [u8] {
        match self.crc {
            CrcScope::FromStart => framed,
            CrcScope::AfterMagic => framed.get(self.magic.len()..).unwrap_or_default(),
        }
    }
}

/// Frames one record of an append-only journal: a `u32` length, the
/// payload, and the payload's CRC-32. A crash mid-append leaves a torn
/// record that [`open_record`] refuses, never a wrong one.
pub fn seal_record(payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_count(payload.len());
    w.put_bytes(payload);
    w.put_u32(crc32(payload));
    w.into_bytes()
}

/// Splits the first record written by [`seal_record`] off `bytes`:
/// its payload and the bytes after it. `None` for a torn record, a
/// length past `max_payload` or a CRC mismatch — everything from there
/// on is untrusted.
pub fn open_record(bytes: &[u8], max_payload: usize) -> Option<(&[u8], &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    if len > max_payload {
        return None;
    }
    let (payload, rest) = rest.split_at_checked(len)?;
    let (crc, rest) = rest.split_first_chunk::<4>()?;
    (u32::from_le_bytes(*crc) == crc32(payload)).then_some((payload, rest))
}

#[cfg(feature = "faults")]
pub mod faults {
    //! Deterministic fault injection: one [`Schedule`] core, and the IO
    //! plan built on it.
    //!
    //! A [`Schedule`] counts events (writes here; batches, dequeues
    //! and scores in `serve::faults`; responses in
    //! `net::faults`) from 1, on a counter every clone shares, and hands
    //! back the actions scripted on each one. An [`IoFaultPlan`] scripts
    //! which [`atomic_write`](super::atomic_write) calls are wounded:
    //!
    //! - **short write**: the process "crashes" after writing only half
    //!   the payload to the *staging* file — the destination is never
    //!   touched, and the orphan `.tmp` is left behind for recovery
    //!   scans to skip;
    //! - **torn rename**: the replace step is non-atomic — only a prefix
    //!   of the payload reaches the destination before the "crash", so
    //!   the destination itself is now truncated garbage that only an
    //!   integrity trailer can catch;
    //! - **bit flip**: the write fully succeeds, then one bit of the
    //!   destination file is flipped (silent media corruption).
    //!
    //! IO plans are armed per-thread ([`arm`]/[`disarm`]), so concurrently
    //! running tests never wound each other's writes.

    use std::cell::RefCell;
    use std::fs;
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// "Act on the N-th event": actions scripted on 1-based sequence
    /// numbers, and the event counter. Clones share the counter, so one
    /// schedule is one global sequence however many threads consult it.
    #[derive(Debug, Clone)]
    pub struct Schedule<A> {
        scripted: Vec<(u64, A)>,
        seq: Arc<AtomicU64>,
    }

    impl<A> Default for Schedule<A> {
        fn default() -> Self {
            Schedule {
                scripted: Vec::default(),
                seq: Arc::default(),
            }
        }
    }

    impl<A> Schedule<A> {
        /// Scripts `action` on event number `seq`; an event may carry
        /// several.
        pub fn on(&mut self, seq: u64, action: A) {
            self.scripted.push((seq, action));
        }

        /// Counts one event: its sequence number, and the actions
        /// scripted on it in the order they were scripted.
        pub fn tick(&self) -> (u64, impl Iterator<Item = &A>) {
            let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
            let due = self.scripted.iter().filter(move |(s, _)| *s == seq);
            (seq, due.map(|(_, action)| action))
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum IoFault {
        ShortWrite,
        TornRename(usize),
        BitFlip(usize),
    }

    /// A scripted set of IO faults on `atomic_write`'s write sequence.
    #[derive(Debug, Clone, Default)]
    pub struct IoFaultPlan {
        writes: Schedule<IoFault>,
    }

    impl IoFaultPlan {
        /// An empty plan injecting nothing.
        pub fn new() -> Self {
            Self::default()
        }

        /// Write number `seq` (1-based) crashes after staging only half
        /// the payload; the destination is untouched.
        #[must_use]
        pub fn short_write_on(mut self, seq: u64) -> Self {
            self.writes.on(seq, IoFault::ShortWrite);
            self
        }

        /// Write number `seq` tears during the replace: only the first
        /// `keep_bytes` of the payload reach the destination.
        #[must_use]
        pub fn torn_rename_on(mut self, seq: u64, keep_bytes: usize) -> Self {
            self.writes.on(seq, IoFault::TornRename(keep_bytes));
            self
        }

        /// Write number `seq` succeeds, then bit 0 of `byte_offset` in
        /// the destination file is flipped (offsets past the end wrap).
        #[must_use]
        pub fn bit_flip_on(mut self, seq: u64, byte_offset: usize) -> Self {
            self.writes.on(seq, IoFault::BitFlip(byte_offset));
            self
        }
    }

    thread_local! {
        static ARMED: RefCell<Option<IoFaultPlan>> = const { RefCell::new(None) };
    }

    /// Arms `plan` for the current thread: subsequent
    /// [`atomic_write`](super::atomic_write) calls consult it.
    pub fn arm(plan: IoFaultPlan) {
        ARMED.with(|a| *a.borrow_mut() = Some(plan));
    }

    /// Disarms the current thread's plan.
    pub fn disarm() {
        ARMED.with(|a| *a.borrow_mut() = None);
    }

    /// The injected-failure error message marker, so tests can tell an
    /// injected crash from a genuine IO failure.
    pub const INJECTED: &str = "injected IO fault";

    /// Consulted by `atomic_write`. `None` → proceed normally;
    /// `Some(result)` → the write was intercepted and `result` is its
    /// outcome. The first fault scripted on a write is the one it gets.
    #[expect(
        clippy::disallowed_methods,
        reason = "injects the torn and rotted files atomic_write exists to prevent"
    )]
    pub(super) fn intercept_write(
        path: &Path,
        tmp: &Path,
        bytes: &[u8],
    ) -> io::Result<Option<io::Result<()>>> {
        let Some(plan) = ARMED.with(|a| a.borrow().clone()) else {
            return Ok(None);
        };
        let (seq, mut due) = plan.writes.tick();
        match due.next().copied() {
            None => Ok(None),
            Some(IoFault::ShortWrite) => {
                // Crash mid-staging: half the payload in the temp file,
                // the destination untouched.
                fs::write(tmp, bytes.split_at(bytes.len() / 2).0)?;
                Ok(Some(Err(io::Error::other(format!(
                    "{INJECTED}: short write (crash while staging, write {seq})"
                )))))
            }
            Some(IoFault::TornRename(keep)) => {
                // Crash mid-replace on a non-atomic filesystem: the
                // destination holds a prefix of the new payload.
                fs::write(path, bytes.get(..keep).unwrap_or(bytes))?;
                Ok(Some(Err(io::Error::other(format!(
                    "{INJECTED}: torn rename (crash while replacing, write {seq})"
                )))))
            }
            Some(IoFault::BitFlip(offset)) => {
                // Silent corruption: the write succeeds, one bit rots.
                super::write_staged(tmp, bytes)?;
                fs::rename(tmp, path)?;
                let mut data = fs::read(path)?;
                let at = offset.checked_rem(data.len());
                if let Some(byte) = at.and_then(|at| data.get_mut(at)) {
                    *byte ^= 1;
                }
                fs::write(path, &data)?;
                Ok(Some(Ok(())))
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "plants a staging file on purpose, to prove it is refused"
)]
mod tests {
    use super::*;

    /// Known-answer test: CRC-32("123456789") is the standard check
    /// value 0xCBF43926.
    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a_known_answers_and_digest_sees_bits() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let bytes: Vec<u8> = [1.5f32, -2.0]
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(digest(&[1.5, -2.0]), fnv1a(&bytes));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
    }

    /// The bytewise loop `Crc32::update` ran before slicing-by-8, kept
    /// as the reference for its checksums.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = (state >> 8) ^ CRC_TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Slicing-by-8 fed in up to three pieces (so every alignment of
        /// the eight-byte steps, and empty pieces) equals the bytewise
        /// reference over the whole, at random lengths up to a request
        /// frame's.
        #[test]
        fn crc32_slicing_by_8_equals_the_bytewise_loop(
            seed in 0u64..1_000_000,
            len in 0usize..13_000,
            cut1 in 0usize..13_000,
            cut2 in 0usize..13_000,
        ) {
            let mut rng = crate::TensorRng::seed_from_u64(seed);
            let bytes: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
            let (a, b) = (cut1.min(len), cut2.min(len));
            let (a, b) = (a.min(b), a.max(b));
            let mut h = Crc32::new();
            for piece in [&bytes[..a], &bytes[a..b], &bytes[b..]] {
                h.update(piece);
            }
            proptest::prop_assert_eq!(h.finish(), crc32_bytewise(&bytes));
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn crc32_streaming_matches_one_shot() {
        let mut h = Crc32::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), crc32(b"hello world"));
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = vec![7u8; 1024];
        let clean = crc32(&data);
        data[513] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn atomic_write_round_trips() {
        let dir = std::env::temp_dir().join("fademl_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"generation 1").unwrap();
        assert_eq!(read_artifact(&path).unwrap(), b"generation 1");
        atomic_write(&path, b"generation 2").unwrap();
        assert_eq!(read_artifact(&path).unwrap(), b"generation 2");
        // No staging leftovers after a clean write.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| is_staging_file(&e.path()))
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn staging_files_are_recognized_and_refused() {
        assert!(is_staging_file(Path::new("/x/.ckpt.bin.tmp.123")));
        assert!(!is_staging_file(Path::new("/x/ckpt.bin")));
        let dir = std::env::temp_dir().join("fademl_io_staging_test");
        fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join(".dead.tmp.999");
        fs::write(&orphan, b"partial").unwrap();
        assert!(read_artifact(&orphan).is_err());
        fs::remove_file(&orphan).ok();
    }

    #[test]
    fn byte_cursor_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.5);
        w.put_f32(1.5);
        w.put_f32(f32::MAX);
        w.put_str("stage/fig7/scenario-3");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap(), -0.5);
        assert_eq!(r.get_f32s(2).unwrap(), [1.5, f32::MAX]);
        assert_eq!(r.get_str().unwrap(), "stage/fig7/scenario-3");
        assert_eq!(r.get_bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn reader_rejects_truncation_without_allocating() {
        // A length prefix pointing far past the buffer must fail
        // cleanly, not attempt a giant allocation.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_bytes(usize::MAX).is_err());
        for n in [2, usize::MAX / 4 + 1, usize::MAX] {
            let mut r = ByteReader::new(&bytes);
            assert!(r.get_f32s(n).is_err());
            assert_eq!(r.remaining(), 4, "a refused read consumes nothing");
        }
    }

    #[test]
    fn envelope_scopes_its_crc_and_types_every_refusal() {
        let seal = |envelope: Envelope, body: &[u8]| {
            let mut w = envelope.writer();
            w.put_bytes(body);
            envelope.seal(w)
        };
        let after = Envelope {
            magic: b"FADEMLT1",
            crc: CrcScope::AfterMagic,
        };
        let from_start = Envelope {
            magic: b"FADEMLT2",
            crc: CrcScope::FromStart,
        };
        let bytes = seal(after, b"body");
        assert_eq!(bytes[12..], crc32(b"body").to_le_bytes());
        let whole = seal(from_start, b"body");
        assert_eq!(whole[12..], crc32(b"FADEMLT2body").to_le_bytes());
        assert_eq!(after.open(&bytes), Ok(&b"body"[..]));
        assert_eq!(from_start.open(&seal(from_start, b"")), Ok(&b""[..]));
        let found = *b"FADEMLT1";
        assert_eq!(from_start.open(&bytes), Err(Refusal::BadMagic { found }));
        assert_eq!(after.open(&bytes[..11]), Err(Refusal::TooShort { len: 11 }));
        for at in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(matches!(after.open(&bad), Err(Refusal::CrcMismatch { .. })));
        }
    }

    #[test]
    fn records_split_off_until_the_first_torn_one() {
        let mut log = seal_record(b"one");
        log.extend_from_slice(&seal_record(b""));
        let whole = log.len();
        log.extend_from_slice(&seal_record(b"torn")[..6]);
        let (first, rest) = open_record(&log, 16).unwrap();
        let (second, rest) = open_record(rest, 16).unwrap();
        assert_eq!((first, second), (&b"one"[..], &b""[..]));
        assert_eq!(rest.len(), log.len() - whole);
        assert_eq!(open_record(rest, 16), None);
        assert_eq!(open_record(&log, 2), None, "over the payload cap");
        log[5] ^= 0x01;
        assert_eq!(open_record(&log, 16), None, "CRC mismatch");
    }
}
