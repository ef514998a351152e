//! Durable-artifact IO shared by every crate that persists state.
//!
//! Four pieces live here because both `fademl-nn` (weights,
//! checkpoints) and `fademl-data` (frozen datasets) need them and this
//! crate is their common root dependency:
//!
//! - [`Crc32`] / [`crc32`] — a pure-Rust CRC-32 (IEEE, the zlib
//!   polynomial) used as the integrity trailer of every on-disk format,
//!   so a truncated or bit-flipped file is a **typed error**, never
//!   silently-wrong numbers.
//! - [`fnv1a`] / [`digest`] — FNV-1a over bytes and over the bits of an
//!   `f32` slice: the hash ring's key function and the unit of the
//!   cross-commit bit corpus (`results/bits.txt`).
//! - [`atomic_write`] — the blessed write path for persisted artifacts:
//!   full payload to a same-directory temp file, `sync_all`, then
//!   `rename` over the destination. Readers never observe a torn file;
//!   a crash leaves either the old generation or the new one. The
//!   workspace lint (`fademl-lint`, rule `direct-overwrite`) flags any
//!   persistence write that bypasses this helper.
//! - [`ByteWriter`] / [`ByteReader`] — little-endian encode/decode
//!   cursors with bounds-checked reads, so format parsers fail with a
//!   clean `io::Error` instead of panicking or over-allocating on
//!   corrupt headers.
//!
//! With the `faults` cargo feature the [`faults`] module adds a
//! deterministic IO fault-injection layer (short writes, torn renames,
//! bit-flips) that wounds [`atomic_write`] on scripted write sequence
//! numbers — production builds carry zero injection code.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
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

    /// Feeds bytes into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ u32::from(b)) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ CRC_TABLE[idx];
        }
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

    /// Appends a length-prefixed (`u32`) UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
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

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "length overflows the buffer")
        })?;
        if end > self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "truncated record: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            ));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] past the end of the buffer.
    pub fn get_f32(&mut self) -> io::Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
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
        self.buf.len() - self.pos
    }
}

#[cfg(feature = "faults")]
pub mod faults {
    //! Deterministic IO fault injection, mirroring `serve::faults`.
    //!
    //! An [`IoFaultPlan`] scripts *which* [`atomic_write`](super::atomic_write)
    //! calls are wounded, by 1-based write sequence number counted by the
    //! plan itself:
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
    //! Plans are armed per-thread ([`arm`]/[`disarm`]), so concurrently
    //! running tests never wound each other's writes.

    use std::cell::RefCell;
    use std::fs;
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A scripted set of IO faults. Clones share the write counter, so
    /// one plan describes one global schedule.
    #[derive(Debug, Clone, Default)]
    pub struct IoFaultPlan {
        short_writes: Vec<u64>,
        torn_renames: Vec<(u64, usize)>,
        bit_flips: Vec<(u64, usize)>,
        write_seq: Arc<AtomicU64>,
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
            self.short_writes.push(seq);
            self
        }

        /// Write number `seq` tears during the replace: only the first
        /// `keep_bytes` of the payload reach the destination.
        #[must_use]
        pub fn torn_rename_on(mut self, seq: u64, keep_bytes: usize) -> Self {
            self.torn_renames.push((seq, keep_bytes));
            self
        }

        /// Write number `seq` succeeds, then bit 0 of `byte_offset` in
        /// the destination file is flipped (offsets past the end wrap).
        #[must_use]
        pub fn bit_flip_on(mut self, seq: u64, byte_offset: usize) -> Self {
            self.bit_flips.push((seq, byte_offset));
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
    /// outcome.
    pub(super) fn intercept_write(
        path: &Path,
        tmp: &Path,
        bytes: &[u8],
    ) -> io::Result<Option<io::Result<()>>> {
        let Some(plan) = ARMED.with(|a| a.borrow().clone()) else {
            return Ok(None);
        };
        let seq = plan.write_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if plan.short_writes.contains(&seq) {
            // Crash mid-staging: half the payload in the temp file, the
            // destination untouched.
            fs::write(tmp, &bytes[..bytes.len() / 2])?;
            return Ok(Some(Err(io::Error::other(format!(
                "{INJECTED}: short write (crash while staging, write {seq})"
            )))));
        }
        if let Some((_, keep)) = plan.torn_renames.iter().find(|(s, _)| *s == seq) {
            // Crash mid-replace on a non-atomic filesystem: the
            // destination holds a prefix of the new payload.
            fs::write(path, &bytes[..(*keep).min(bytes.len())])?;
            return Ok(Some(Err(io::Error::other(format!(
                "{INJECTED}: torn rename (crash while replacing, write {seq})"
            )))));
        }
        if let Some((_, offset)) = plan.bit_flips.iter().find(|(s, _)| *s == seq) {
            // Silent corruption: the write succeeds, one bit rots.
            super::write_staged(tmp, bytes)?;
            fs::rename(tmp, path)?;
            let mut data = fs::read(path)?;
            if !data.is_empty() {
                let at = offset % data.len();
                data[at] ^= 1;
            }
            fs::write(path, &data)?;
            return Ok(Some(Ok(())));
        }
        Ok(None)
    }
}

#[cfg(test)]
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
        w.put_str("stage/fig7/scenario-3");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap(), -0.5);
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
    }
}
