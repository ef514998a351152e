//! Dataset persistence: a small self-describing binary format so a
//! generated [`SignDataset`](crate::SignDataset) can be frozen to disk
//! and shared between machines/runs without re-deriving it from a seed
//! (mirroring how GTSRB itself ships as fixed files).

use std::io::{Read, Write};
use std::path::Path;

use fademl_tensor::io::{atomic_write, crc32, ByteReader, ByteWriter};
use fademl_tensor::{Shape, Tensor};

use crate::{DataError, Result, SignDataset};

const MAGIC: &[u8; 8] = b"FADEMLS1";
/// Magic of the retired CRC-less dataset layout — and of detector
/// artifacts, which is why datasets no longer use it.
const RETIRED_MAGIC: &[u8; 8] = b"FADEMLD1";

fn corrupt(reason: impl Into<String>) -> DataError {
    DataError::Corrupt {
        reason: reason.into(),
    }
}

/// Serializes the dataset to the `FADEMLS1` format (magic, header,
/// labels, pixels, CRC-32 trailer over all of it) — the single encoder
/// behind both [`save_dataset`] and [`save_dataset_to_path`].
pub fn encode_dataset(dataset: &SignDataset) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(MAGIC);
    w.put_u64(dataset.len() as u64);
    w.put_u64(dataset.image_size() as u64);
    for &label in dataset.labels() {
        w.put_u32(label as u32);
    }
    for &x in dataset.images().as_slice() {
        w.put_f32(x);
    }
    let mut bytes = w.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Writes the dataset to `writer` in the FAdeML binary dataset format.
///
/// # Errors
///
/// Returns [`DataError::Io`] on write failure.
pub fn save_dataset<W: Write>(dataset: &SignDataset, mut writer: W) -> Result<()> {
    let io = DataError::from_io;
    writer.write_all(&encode_dataset(dataset)).map_err(io)?;
    writer.flush().map_err(io)?;
    Ok(())
}

/// Atomically writes the dataset to a file path (same-directory temp
/// file + rename), so a crash mid-write never leaves a torn dataset.
///
/// # Errors
///
/// Returns [`DataError::Io`] on create/write/rename failure.
pub fn save_dataset_to_path<P: AsRef<Path>>(dataset: &SignDataset, path: P) -> Result<()> {
    atomic_write(path.as_ref(), &encode_dataset(dataset)).map_err(DataError::from_io)
}

/// Parses and verifies a `FADEMLS1` dataset: the CRC is checked
/// before a single label is interpreted, and the header caps and the
/// exact payload length before anything is allocated.
fn decode_dataset(bytes: &[u8]) -> Result<SignDataset> {
    let Some((body, tail)) = bytes
        .split_last_chunk::<4>()
        .filter(|(body, _)| body.len() >= MAGIC.len())
    else {
        return Err(corrupt(format!(
            "file too small for a dataset ({} bytes)",
            bytes.len()
        )));
    };
    let mut r = ByteReader::new(body);
    let eof = |e: std::io::Error| corrupt(e.to_string());
    let magic = r.get_bytes(MAGIC.len()).map_err(eof)?;
    if magic == RETIRED_MAGIC {
        return Err(corrupt(
            "FADEMLD1 is a detector artifact or the retired CRC-less dataset layout, \
             which is no longer read: regenerate the dataset from its config",
        ));
    }
    if magic != MAGIC {
        return Err(corrupt("not a FAdeML dataset file (bad magic)"));
    }
    let stored = u32::from_le_bytes(*tail);
    let actual = crc32(body);
    if stored != actual {
        return Err(corrupt(format!(
            "CRC mismatch: trailer {stored:#010x}, computed {actual:#010x}"
        )));
    }
    let n = r.get_u64().map_err(eof)? as usize;
    let size = r.get_u64().map_err(eof)? as usize;
    // A light sanity cap keeps a hostile header from asking for a
    // multi-gigabyte allocation; the payload must then be exactly as
    // long as the header says.
    if n > 10_000_000 || size == 0 || size > 4096 {
        return Err(corrupt(format!(
            "implausible dataset header: n = {n}, size = {size}"
        )));
    }
    let numel = n.checked_mul(3 * size * size).filter(|numel| {
        let payload = numel.checked_add(n).and_then(|words| words.checked_mul(4));
        payload == Some(r.remaining())
    });
    let Some(numel) = numel else {
        return Err(corrupt(format!(
            "{} payload bytes do not hold {n} labelled {size}x{size} images",
            r.remaining()
        )));
    };
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(r.get_u32().map_err(eof)? as usize);
    }
    let data: Vec<f32> = r
        .get_bytes(numel * 4)
        .map_err(eof)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let images = Tensor::from_vec(data, Shape::new(vec![n, 3, size, size]))?;
    SignDataset::from_parts(images, labels)
}

/// Reads a dataset previously written by [`save_dataset`].
///
/// # Errors
///
/// Returns [`DataError::Io`] on read failure and [`DataError::Corrupt`]
/// for bad magic (the retired CRC-less layout included), truncation, a
/// CRC mismatch or an implausible header.
pub fn load_dataset<R: Read>(mut reader: R) -> Result<SignDataset> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes).map_err(DataError::from_io)?;
    decode_dataset(&bytes)
}

/// Reads a dataset from a file path. Refuses leftover staging files
/// from interrupted atomic writes.
///
/// # Errors
///
/// Same conditions as [`load_dataset`].
pub fn load_dataset_from_path<P: AsRef<Path>>(path: P) -> Result<SignDataset> {
    let bytes = fademl_tensor::io::read_artifact(path.as_ref()).map_err(DataError::from_io)?;
    decode_dataset(&bytes)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "plants a staging file on purpose, to prove it is refused"
)]
mod tests {
    use super::*;
    use crate::{DatasetConfig, NoiseModel};

    fn dataset() -> SignDataset {
        SignDataset::generate(&DatasetConfig {
            samples_per_class: 2,
            image_size: 12,
            seed: 3,
            noise: NoiseModel::sensor(),
            blur_prob: 0.5,
        })
        .unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        let original = dataset();
        let mut buf = Vec::new();
        save_dataset(&original, &mut buf).unwrap();
        let loaded = load_dataset(buf.as_slice()).unwrap();
        assert_eq!(loaded, original);
    }

    fn assert_corrupt(bytes: &[u8], needle: &str) {
        match load_dataset(bytes) {
            Err(DataError::Corrupt { reason }) => {
                assert!(reason.contains(needle), "wanted {needle:?} in {reason:?}")
            }
            other => panic!("expected Corrupt({needle}), got {other:?}"),
        }
    }

    /// `body` under a valid CRC trailer.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    #[test]
    fn rejects_bad_magic() {
        assert_corrupt(b"NOTADATA\x00\x00\x00\x00\x00\x00\x00\x00", "bad magic");
    }

    #[test]
    fn refuses_the_retired_crcless_layout_by_name() {
        // What `encode_dataset` wrote before: old magic, no trailer.
        let now = encode_dataset(&dataset());
        let mut old = now[..now.len() - 4].to_vec();
        old[..8].copy_from_slice(RETIRED_MAGIC);
        assert_corrupt(&old, "CRC-less");
    }

    #[test]
    fn bit_flips_anywhere_are_detected() {
        let clean = encode_dataset(&dataset());
        for at in (0..clean.len()).step_by(97) {
            let mut bad = clean.clone();
            bad[at] ^= 0x04;
            assert!(
                matches!(load_dataset(bad.as_slice()), Err(DataError::Corrupt { .. })),
                "flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut buf = encode_dataset(&dataset());
        buf.truncate(buf.len() / 3);
        assert_corrupt(&buf, "CRC mismatch");
        assert_corrupt(&buf[..5], "too small");
    }

    #[test]
    fn rejects_implausible_header_and_wrong_payload_length() {
        let mut bomb = MAGIC.to_vec();
        bomb.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd n
        bomb.extend_from_slice(&12u64.to_le_bytes());
        assert_corrupt(&sealed(bomb), "implausible");
        // A plausible header over a payload one pixel short.
        let clean = encode_dataset(&dataset());
        assert_corrupt(&sealed(clean[..clean.len() - 8].to_vec()), "payload bytes");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("fademl_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("signs.fds");
        let original = dataset();
        save_dataset_to_path(&original, &path).unwrap();
        let loaded = load_dataset_from_path(&path).unwrap();
        assert_eq!(loaded, original);
        // The atomic write leaves no staging files behind, and replacing
        // an existing dataset in place also round-trips.
        save_dataset_to_path(&original, &path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| fademl_tensor::io::is_staging_file(&e.path()))
            .collect();
        assert!(leftovers.is_empty(), "staging leftovers: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn refuses_staging_files() {
        let dir = std::env::temp_dir().join("fademl_dataset_staging_test");
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join(".signs.fds.tmp.42");
        std::fs::write(&orphan, encode_dataset(&dataset())).unwrap();
        assert!(load_dataset_from_path(&orphan).is_err());
        std::fs::remove_file(&orphan).ok();
    }
}
