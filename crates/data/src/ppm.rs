//! PPM (portable pixmap) export for visual inspection of rendered
//! signs, noisy acquisitions and adversarial examples.
//!
//! PPM is the simplest raster format that every image viewer and
//! converter understands, and it needs no codec dependency — a natural
//! fit for this workspace's no-external-crates policy.

use std::io::Write;
use std::path::Path;

use fademl_tensor::Tensor;

use crate::{DataError, Result};

/// Encodes a `[3, H, W]` tensor with values in `[0, 1]` as binary PPM
/// (`P6`) bytes.
///
/// Values outside `[0, 1]` are clamped.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] if the tensor is not `[3, H, W]`.
pub fn to_ppm(image: &Tensor) -> Result<Vec<u8>> {
    if image.rank() != 3 || image.dims()[0] != 3 {
        return Err(DataError::InvalidConfig {
            reason: format!("PPM export expects [3, H, W], got {:?}", image.dims()),
        });
    }
    let (h, w) = (image.dims()[1], image.dims()[2]);
    let mut out = Vec::with_capacity(32 + 3 * h * w);
    out.extend_from_slice(format!("P6\n{w} {h}\n255\n").as_bytes());
    let data = image.as_slice();
    let plane = h * w;
    for i in 0..plane {
        for c in 0..3 {
            let v = (data[c * plane + i].clamp(0.0, 1.0) * 255.0).round() as u8;
            out.push(v);
        }
    }
    Ok(out)
}

/// Writes a `[3, H, W]` tensor to a `.ppm` file.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] for a bad shape and
/// [`DataError::Io`] for filesystem failures.
#[expect(
    clippy::disallowed_methods,
    reason = "streaming PPM export of gallery images; a torn image is re-renderable, not a load-bearing artifact"
)]
pub fn save_ppm<P: AsRef<Path>>(image: &Tensor, path: P) -> Result<()> {
    let bytes = to_ppm(image)?;
    let mut file = std::fs::File::create(path).map_err(DataError::from_io)?;
    file.write_all(&bytes).map_err(DataError::from_io)?;
    Ok(())
}

/// Decodes binary PPM (`P6`, maxval 255) bytes back into a `[3, H, W]`
/// tensor with values in `[0, 1]` — the inverse of [`to_ppm`], used in
/// round-trip tests and for loading externally edited images.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] for malformed or truncated data.
pub fn from_ppm(bytes: &[u8]) -> Result<Tensor> {
    let bad = |why: &str| DataError::InvalidConfig {
        reason: format!("invalid PPM: {why}"),
    };
    // Parse the three whitespace-separated header fields after "P6".
    if !bytes.starts_with(b"P6") {
        return Err(bad("missing P6 magic"));
    }
    let mut pos = 2usize;
    let mut fields = Vec::with_capacity(3);
    while fields.len() < 3 {
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if pos < bytes.len() && bytes[pos] == b'#' {
            while pos < bytes.len() && bytes[pos] != b'\n' {
                pos += 1;
            }
            continue;
        }
        let start = pos;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
        if start == pos {
            return Err(bad("truncated header"));
        }
        let value: usize = std::str::from_utf8(&bytes[start..pos])
            .map_err(|_| bad("non-utf8 header"))?
            .parse()
            .map_err(|_| bad("non-numeric header field"))?;
        fields.push(value);
    }
    let (w, h, maxval) = (fields[0], fields[1], fields[2]);
    if maxval != 255 {
        return Err(bad("only maxval 255 is supported"));
    }
    pos += 1; // single whitespace after maxval
    let plane = w * h;
    if bytes.len() < pos + 3 * plane {
        return Err(bad("truncated pixel data"));
    }
    let mut data = vec![0.0f32; 3 * plane];
    for i in 0..plane {
        for c in 0..3 {
            data[c * plane + i] = bytes[pos + 3 * i + c] as f32 / 255.0;
        }
    }
    Ok(Tensor::from_vec(
        data,
        fademl_tensor::Shape::new(vec![3, h, w]),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassId;
    use crate::templates::{render_sign, RenderJitter};

    #[test]
    fn header_and_size() {
        let img = Tensor::full(&[3, 4, 6], 0.5);
        let ppm = to_ppm(&img).unwrap();
        assert!(ppm.starts_with(b"P6\n6 4\n255\n"));
        assert_eq!(ppm.len(), b"P6\n6 4\n255\n".len() + 3 * 24);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(to_ppm(&Tensor::zeros(&[1, 4, 4])).is_err());
        assert!(to_ppm(&Tensor::zeros(&[3, 4])).is_err());
    }

    #[test]
    fn pixel_values_and_clamping() {
        let mut img = Tensor::zeros(&[3, 1, 2]);
        img.set(&[0, 0, 0], 1.0).unwrap(); // red pixel 0
        img.set(&[1, 0, 1], 2.0).unwrap(); // green pixel 1, clamped to 1.0
        img.set(&[2, 0, 1], -1.0).unwrap(); // blue pixel 1, clamped to 0
        let ppm = to_ppm(&img).unwrap();
        let pixels = &ppm[ppm.len() - 6..];
        assert_eq!(pixels, &[255, 0, 0, 0, 255, 0]);
    }

    #[test]
    fn round_trip_is_lossless_at_8_bit() {
        let sign = render_sign(ClassId::STOP, 24, &RenderJitter::default()).unwrap();
        let ppm = to_ppm(&sign).unwrap();
        let back = from_ppm(&ppm).unwrap();
        assert_eq!(back.dims(), sign.dims());
        for (a, b) in sign.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn from_ppm_rejects_malformed() {
        assert!(from_ppm(b"P5\n1 1\n255\nxxx").is_err());
        assert!(from_ppm(b"P6\n2 2\n255\nab").is_err()); // truncated
        assert!(from_ppm(b"P6\n1 1\n65535\n??????").is_err()); // 16-bit
        assert!(from_ppm(b"P6\n").is_err());
    }

    #[test]
    fn from_ppm_skips_comments() {
        let mut bytes = b"P6\n# a comment\n1 1\n255\n".to_vec();
        bytes.extend_from_slice(&[10, 20, 30]);
        let img = from_ppm(&bytes).unwrap();
        assert_eq!(img.dims(), &[3, 1, 1]);
        assert!((img.get(&[0, 0, 0]).unwrap() - 10.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("fademl_ppm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sign.ppm");
        let sign = render_sign(ClassId::SPEED_60, 16, &RenderJitter::default()).unwrap();
        save_ppm(&sign, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let back = from_ppm(&bytes).unwrap();
        assert_eq!(back.dims(), sign.dims());
        std::fs::remove_file(&path).ok();
    }
}
