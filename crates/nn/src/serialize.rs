//! Model weight persistence.
//!
//! Weights are stored in a small self-describing binary format (magic +
//! per-parameter shape and little-endian `f32` payload) so a trained
//! victim model can be reused across experiment binaries without
//! pulling a serialization-format dependency into the workspace.
//!
//! Loading is *state-dict style*: the architecture is rebuilt in code and
//! the weights are poured into it positionally, with every shape checked
//! against the target model **before** any tensor data is allocated.
//!
//! The format is `FADEMLW2`: the body is followed by a CRC-32 trailer,
//! so truncation, torn writes and bit-flips are detected before a single
//! weight is interpreted, and [`save_weights_to_path`] writes it
//! atomically (temp file + rename). Its CRC-less predecessor is refused
//! by name: shape checks were its only guard, and nothing writes it.

use std::io::{Read, Write};
use std::path::Path;

use fademl_tensor::io::{atomic_write, read_artifact, ByteReader, CrcScope, Envelope, Refusal};
use fademl_tensor::{Shape, Tensor};

use crate::error::corrupt;
use crate::{NnError, Result, Sequential};

/// The `FADEMLW2` framing: the CRC covers the parameter records only.
const WEIGHTS: Envelope = Envelope {
    magic: b"FADEMLW2",
    crc: CrcScope::AfterMagic,
};
/// Magic of the retired CRC-less format, kept only to refuse it by name.
const MAGIC_V1: &[u8; 8] = b"FADEMLW1";

/// Parsing cap: no real model in this workspace has parameters beyond
/// rank 4, so anything larger is corruption, not data. Checked before
/// the dims vector is allocated.
const MAX_RANK: usize = 8;

/// Serializes all model parameters to the current (`FADEMLW2`) format.
pub fn encode_weights(model: &Sequential) -> Vec<u8> {
    let mut w = WEIGHTS.writer();
    let params = model.params();
    w.put_count(params.len());
    for p in params {
        let dims = p.value.dims();
        w.put_count(dims.len());
        for &d in dims {
            w.put_u64(d as u64);
        }
        for &x in p.value.as_slice() {
            w.put_f32(x);
        }
    }
    WEIGHTS.seal(w)
}

/// Writes all model parameters to `writer` in the `FADEMLW2` format.
///
/// # Errors
///
/// Returns [`NnError::Io`] on write failure.
pub fn save_weights<W: Write>(model: &Sequential, mut writer: W) -> Result<()> {
    writer.write_all(&encode_weights(model))?;
    writer.flush()?;
    Ok(())
}

/// Atomically writes all model parameters to a file path: the bytes are
/// staged in a same-directory temp file, synced, and renamed over the
/// destination, so a crash mid-write leaves either the old file or the
/// new one — never a torn hybrid.
///
/// # Errors
///
/// Returns [`NnError::Io`] on create/write/rename failure.
pub fn save_weights_to_path<P: AsRef<Path>>(model: &Sequential, path: P) -> Result<()> {
    atomic_write(path.as_ref(), &encode_weights(model))?;
    Ok(())
}

/// Parses a weight file into an existing model. The model must have
/// been built with the same architecture — parameter count and every
/// shape are verified against the model before any tensor data is
/// allocated.
///
/// # Errors
///
/// Returns [`NnError::Corrupt`] for bad magic (the retired CRC-less
/// format included), truncation or a CRC mismatch, and
/// [`NnError::ArchMismatch`] when an intact file does not match the
/// model's parameter list.
pub fn decode_weights(bytes: &[u8], model: &mut Sequential) -> Result<()> {
    let body = WEIGHTS.open(bytes).map_err(|refusal| match refusal {
        Refusal::BadMagic { found } if &found == MAGIC_V1 => corrupt(
            "legacy FADEMLW1 weight file: the CRC-less format is no longer read, retrain or re-export",
        ),
        other => corrupt(format!("not a FAdeML weight file: {other}")),
    })?;
    parse_params(body, model)
}

/// Parses the parameter records of a CRC-checked body, where any
/// structural surprise is corruption the CRC somehow missed (reported
/// as such) rather than an I/O condition.
fn parse_params(body: &[u8], model: &mut Sequential) -> Result<()> {
    let rd = |e: std::io::Error| corrupt(e.to_string());
    let mut r = ByteReader::new(body);
    let count = r.get_u32().map_err(rd)? as usize;
    let mut params = model.params_mut();
    if count != params.len() {
        return Err(NnError::ArchMismatch {
            reason: format!(
                "weight file has {count} parameters, model has {}",
                params.len()
            ),
        });
    }
    // First pass: staged values, so a failure mid-file never leaves the
    // model half-overwritten.
    let mut staged: Vec<Tensor> = Vec::with_capacity(count);
    for (i, p) in params.iter().enumerate() {
        let rank = r.get_u32().map_err(rd)? as usize;
        if rank > MAX_RANK {
            return Err(corrupt(format!(
                "parameter {i}: implausible tensor rank {rank}"
            )));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.get_usize().map_err(rd)?);
        }
        if dims != p.value.dims() {
            return Err(NnError::ArchMismatch {
                reason: format!(
                    "parameter {i}: file shape {dims:?} vs model shape {:?}",
                    p.value.dims()
                ),
            });
        }
        let data = r.get_f32s(p.value.numel()).map_err(rd)?;
        staged.push(Tensor::from_vec(data, Shape::new(dims))?);
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the weight records",
            r.remaining()
        )));
    }
    for (p, value) in params.iter_mut().zip(staged) {
        p.value = value;
    }
    Ok(())
}

/// Reads weights from `reader` into an existing model.
///
/// # Errors
///
/// Returns [`NnError::Io`] on read failure, plus the conditions of
/// [`decode_weights`].
pub fn load_weights<R: Read>(model: &mut Sequential, mut reader: R) -> Result<()> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode_weights(&bytes, model)
}

/// Reads weights from a file path into an existing model. Refuses
/// leftover staging files from interrupted atomic writes.
///
/// # Errors
///
/// Same conditions as [`load_weights`].
pub fn load_weights_from_path<P: AsRef<Path>>(model: &mut Sequential, path: P) -> Result<()> {
    let bytes = read_artifact(path.as_ref())?;
    decode_weights(&bytes, model)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "plants a staging file on purpose, to prove it is refused"
)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use fademl_tensor::TensorRng;

    fn model(seed: u64) -> Sequential {
        let mut rng = TensorRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(4, 6, &mut rng))
            .push(Relu::new())
            .push(Dense::new(6, 3, &mut rng))
    }

    /// Parameter records under a valid magic and CRC.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut w = WEIGHTS.writer();
        w.put_bytes(body);
        WEIGHTS.seal(w)
    }

    #[test]
    fn round_trip_preserves_outputs() {
        let source = model(1);
        let mut buf = Vec::new();
        save_weights(&source, &mut buf).unwrap();

        let mut target = model(2); // different init
        let x = Tensor::ones(&[2, 4]);
        assert_ne!(source.forward(&x).unwrap(), target.forward(&x).unwrap());
        load_weights(&mut target, buf.as_slice()).unwrap();
        assert_eq!(source.forward(&x).unwrap(), target.forward(&x).unwrap());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut m = model(1);
        let err = load_weights(&mut m, &b"NOTMAGIC\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, NnError::Corrupt { .. }));
        // The retired CRC-less format is refused by name, intact or not.
        let mut v1 = encode_weights(&m);
        v1[..8].copy_from_slice(MAGIC_V1);
        v1.truncate(v1.len() - 4);
        let before = m.forward(&Tensor::ones(&[2, 4])).unwrap();
        match decode_weights(&v1, &mut m) {
            Err(NnError::Corrupt { reason }) => assert!(reason.contains("FADEMLW1"), "{reason}"),
            other => panic!("expected Corrupt naming the legacy format, got {other:?}"),
        }
        assert_eq!(m.forward(&Tensor::ones(&[2, 4])).unwrap(), before);
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let source = model(1);
        let mut buf = Vec::new();
        save_weights(&source, &mut buf).unwrap();
        // A model with different layer widths must refuse the file.
        let mut rng = TensorRng::seed_from_u64(3);
        let mut other = Sequential::new().push(Dense::new(4, 5, &mut rng));
        assert!(load_weights(&mut other, buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let source = model(1);
        let mut buf = Vec::new();
        save_weights(&source, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut target = model(2);
        // Truncation breaks the CRC trailer: typed corruption, not I/O.
        assert!(matches!(
            load_weights(&mut target, buf.as_slice()),
            Err(NnError::Corrupt { .. })
        ));
    }

    #[test]
    fn bit_flips_anywhere_are_detected() {
        let source = model(1);
        let clean = encode_weights(&source);
        for at in (0..clean.len()).step_by(41) {
            let mut bad = clean.clone();
            bad[at] ^= 0x10;
            let mut target = model(2);
            assert!(
                matches!(
                    decode_weights(&bad, &mut target),
                    Err(NnError::Corrupt { .. })
                ),
                "flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn failed_load_leaves_model_untouched() {
        let clean = encode_weights(&model(1));
        // Chop the records mid-payload under a valid CRC: parsing fails
        // with the first parameters already staged.
        let buf = sealed(&clean[8..clean.len() - 14]);
        let mut target = model(2);
        let x = Tensor::ones(&[2, 4]);
        let before = target.forward(&x).unwrap();
        assert!(load_weights(&mut target, buf.as_slice()).is_err());
        assert_eq!(
            target.forward(&x).unwrap(),
            before,
            "failed load must not half-overwrite the model"
        );
    }

    #[test]
    fn rank_bomb_is_rejected_before_allocating() {
        // A CRC-valid header claiming a rank in the millions must not
        // drive a speculative allocation: typed corruption instead.
        let mut body = Vec::new();
        body.extend_from_slice(&4u32.to_le_bytes()); // matches model param count
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd rank
        let mut m = model(1);
        match decode_weights(&sealed(&body), &mut m) {
            Err(NnError::Corrupt { reason }) => assert!(reason.contains("rank"), "{reason}"),
            other => panic!("expected a rank refusal, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip_is_atomic_and_refuses_staging_files() {
        let dir = std::env::temp_dir().join("fademl_weight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.bin");
        let source = model(1);
        save_weights_to_path(&source, &path).unwrap();
        let mut target = model(2);
        load_weights_from_path(&mut target, &path).unwrap();
        let x = Tensor::ones(&[1, 4]);
        assert_eq!(source.forward(&x).unwrap(), target.forward(&x).unwrap());

        // A leftover staging file is never loadable.
        let staged = dir.join(".weights.bin.tmp.123");
        std::fs::write(&staged, encode_weights(&source)).unwrap();
        assert!(load_weights_from_path(&mut target, &staged).is_err());
        std::fs::remove_file(&staged).ok();
        std::fs::remove_file(&path).ok();
    }
}
