//! The FAdeML wire protocol: length-prefixed, CRC-framed binary
//! records on a byte stream, built on [`fademl_tensor::io`]'s
//! bounds-checked little-endian codec.
//!
//! ```text
//!  offset  size  field
//!  ──────  ────  ─────────────────────────────────────────────
//!       0     7  magic  "FADEMLN"
//!       7     1  version (currently b'1')
//!       8     1  kind    (1=Request 2=Response 3=Error 4=Goodbye)
//!       9     4  len     payload length, u32 LE
//!      13   len  payload (kind-specific, see below)
//!  13+len     4  crc32   over bytes [8 .. 13+len]  (kind+len+payload)
//! ```
//!
//! A frame is an [`Envelope`] like every persisted artifact: the magic
//! and version are its 8-byte magic, kind + len + payload its body. The
//! CRC covers the kind and length as well as the payload, so a bit-flip
//! anywhere after the version byte is detected. The magic and version
//! sit *outside* the CRC on purpose: they are validated first and gate
//! how the rest of the header is even interpreted.
//!
//! Every length field is capped and checked **before** any allocation
//! sized by it — a hostile peer can declare a 4 GiB payload but the
//! decoder refuses at [`MAX_PAYLOAD`] without reserving a byte. Decode
//! errors are always a typed [`FrameError`], never a panic.

use std::io::{self, Read, Write};

use fademl::{Detection, ThreatModel, Verdict};
use fademl_nn::metrics::Prediction;
use fademl_serve::error::{DeadlineStage, ServeError};
use fademl_tensor::io::{ByteReader, ByteWriter, CrcScope, Envelope, Refusal};
use fademl_tensor::{Shape, Tensor};

use crate::error::NetError;

/// Protocol magic, first bytes of every frame.
pub const WIRE_MAGIC: &[u8; 7] = b"FADEMLN";
/// Current protocol version byte.
pub const WIRE_VERSION: u8 = b'1';
/// The frame's framing: [`WIRE_MAGIC`] and [`WIRE_VERSION`] are its
/// 8-byte magic, and the CRC covers everything after them.
const FRAME: Envelope = Envelope {
    magic: b"FADEMLN1",
    crc: CrcScope::AfterMagic,
};
/// Fixed frame header size: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 13;
/// Hard cap on a frame's payload; declared lengths beyond this are
/// refused before allocation.
pub const MAX_PAYLOAD: usize = 1 << 24;
/// Maximum tensor rank a frame may carry (matches the weight codec).
pub const MAX_TENSOR_RANK: usize = 8;
/// Maximum tensor element count a frame may carry.
pub const MAX_TENSOR_NUMEL: usize = 1 << 21;
/// Maximum length of any string field (tenant keys, error reasons).
pub const MAX_STRING: usize = 4096;
/// Maximum top-k entries in a verdict record.
pub const MAX_TOPK: usize = 64;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_GOODBYE: u8 = 4;

/// Tag opening the optional detection-verdict extension of a Response
/// payload. Responses without a detection verdict end right after the
/// probability tensor — byte-identical to the pre-extension format —
/// and decoders only read the extension when bytes remain, so old
/// payloads parse as `detection: None` and old clients never see the
/// extra bytes unless the verdict actually carries them.
const DETECTION_PRESENT: u8 = 1;

/// Typed decode failure. Mirrors the checkpoint codec's discipline:
/// corrupt, truncated or hostile input becomes one of these — never a
/// panic, never an oversized allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first 7 bytes were not `FADEMLN`.
    BadMagic,
    /// Recognized magic, unknown version byte.
    UnsupportedVersion {
        /// The version byte found on the wire.
        found: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`] (or an
    /// embedded field exceeds its cap).
    TooLarge {
        /// Declared size.
        declared: u64,
        /// The cap it violated.
        cap: u64,
    },
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the complete frame needs.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The CRC trailer does not match the framed bytes.
    CrcMismatch {
        /// CRC stored on the wire.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Recognized header, unknown frame kind.
    UnknownKind {
        /// The kind byte found on the wire.
        kind: u8,
    },
    /// The payload is malformed for its kind (bad enum tag, trailing
    /// bytes, invalid tensor shape, …).
    BadPayload {
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic (not a FAdeML wire stream)"),
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire version {found:#04x}")
            }
            FrameError::TooLarge { declared, cap } => {
                write!(f, "declared length {declared} exceeds cap {cap}")
            }
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            FrameError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            FrameError::BadPayload { reason } => write!(f, "malformed payload: {reason}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A classification request as it travels the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Threat model the image enters under (routing key).
    pub threat: ThreatModel,
    /// Per-request deadline in microseconds; 0 means none.
    pub deadline_us: u64,
    /// Tenant key for quota accounting (may be empty).
    pub tenant: String,
    /// The `[C, H, W]` image to classify.
    pub image: Tensor,
}

/// A successful verdict as it travels the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// The pipeline's verdict.
    pub verdict: Verdict,
}

/// A typed serving error as it travels the wire — load-shedding
/// semantics ([`ServeError::Overloaded`], deadlines, …) survive the
/// network hop intact.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFault {
    /// Correlation id of the request this answers (0 when the fault is
    /// connection-level, e.g. a malformed frame).
    pub id: u64,
    /// The serving error, exactly as the engine raised it.
    pub error: ServeError,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: classify this image.
    Request(WireRequest),
    /// Server → client: the verdict.
    Response(WireResponse),
    /// Server → client: a typed serving error.
    Error(WireFault),
    /// Either direction: orderly end of stream (empty payload).
    Goodbye,
}

/// Encodes one frame to its on-wire bytes.
///
/// # Errors
///
/// [`FrameError::TooLarge`] / [`FrameError::BadPayload`] when a field
/// exceeds its protocol cap (tensor rank or size, string length,
/// top-k entries) — nothing is sent that the decoder would refuse.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, FrameError> {
    let (kind, numel) = match frame {
        Frame::Request(req) => (KIND_REQUEST, req.image.numel()),
        Frame::Response(resp) => (KIND_RESPONSE, resp.verdict.probabilities.numel()),
        Frame::Error(_) => (KIND_ERROR, 0),
        Frame::Goodbye => (KIND_GOODBYE, 0),
    };
    // One buffer, allocated once and written once: the tensor dominates,
    // 1 KiB covers the other fields of any frame short of a near-cap
    // string, the length prefix is patched in after the payload, and the
    // trailer lands in place.
    let mut w = FRAME.writer();
    w.reserve(numel.saturating_mul(4).min(MAX_PAYLOAD) + 1024);
    w.put_u8(kind);
    w.put_u32(0);
    match frame {
        Frame::Request(req) => encode_request(&mut w, req)?,
        Frame::Response(resp) => encode_response(&mut w, resp)?,
        Frame::Error(fault) => encode_fault(&mut w, fault)?,
        Frame::Goodbye => {}
    }
    let payload_len = w.len() - HEADER_LEN;
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge {
            declared: payload_len as u64,
            cap: MAX_PAYLOAD as u64,
        });
    }
    w.patch_u32(
        HEADER_LEN - 4,
        u32::try_from(payload_len).unwrap_or(u32::MAX),
    );
    Ok(FRAME.seal(w))
}

/// A refusal of the envelope as the wire reports it: a recognized
/// magic with another version byte is `UnsupportedVersion`, anything
/// else `BadMagic`.
fn refused(refusal: Refusal) -> FrameError {
    match refusal {
        Refusal::TooShort { len } => FrameError::Truncated {
            needed: HEADER_LEN,
            have: len,
        },
        Refusal::BadMagic { found } => match found.split_last() {
            Some((&version, magic)) if magic == WIRE_MAGIC => {
                FrameError::UnsupportedVersion { found: version }
            }
            _ => FrameError::BadMagic,
        },
        Refusal::CrcMismatch { stored, computed } => FrameError::CrcMismatch { stored, computed },
    }
}

/// Validates a frame header and returns the declared payload length.
/// Shared by the buffer decoder and the stream reader so the length
/// cap is enforced before either allocates.
fn parse_header(header: &[u8]) -> Result<(u8, usize), FrameError> {
    let Some(&[.., kind, l0, l1, l2, l3]) = header.first_chunk::<HEADER_LEN>() else {
        return Err(FrameError::Truncated {
            needed: HEADER_LEN,
            have: header.len(),
        });
    };
    FRAME.check_magic(header).map_err(refused)?;
    let declared = u32::from_le_bytes([l0, l1, l2, l3]);
    let len = usize::try_from(declared).unwrap_or(usize::MAX);
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge {
            declared: u64::from(declared),
            cap: MAX_PAYLOAD as u64,
        });
    }
    Ok((kind, len))
}

/// Decodes one frame from the head of `buf`, returning the frame and
/// the number of bytes it consumed. Strict: payload bytes not consumed
/// by the kind-specific decoder are a [`FrameError::BadPayload`].
///
/// # Errors
///
/// Any [`FrameError`]; never panics, never allocates more than the
/// (capped) declared length.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let (kind, len) = parse_header(buf)?;
    let total = HEADER_LEN + len + 4;
    let framed = buf.get(..total).ok_or(FrameError::Truncated {
        needed: total,
        have: buf.len(),
    })?;
    // CRC check before any payload interpretation.
    let body = FRAME.open(framed).map_err(refused)?;
    let payload = body.get(1 + 4..).unwrap_or_default();
    let frame = match kind {
        KIND_REQUEST => Frame::Request(decode_request(payload)?),
        KIND_RESPONSE => Frame::Response(decode_response(payload)?),
        KIND_ERROR => Frame::Error(decode_fault(payload)?),
        KIND_GOODBYE => {
            if !payload.is_empty() {
                return Err(FrameError::BadPayload {
                    reason: format!("goodbye frame carries {} payload bytes", payload.len()),
                });
            }
            Frame::Goodbye
        }
        other => return Err(FrameError::UnknownKind { kind: other }),
    };
    Ok((frame, total))
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// [`NetError::Frame`] if the frame violates a protocol cap, or the
/// mapped IO error ([`NetError::Disconnected`] / [`NetError::Timeout`]
/// / [`NetError::Io`]) if the stream fails.
pub fn write_frame<W: Write>(stream: &mut W, frame: &Frame) -> Result<(), NetError> {
    let bytes = encode_frame(frame)?;
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .map_err(|err| map_io(err, "writing frame"))
}

/// Reads one complete frame from a stream. The header is read and
/// validated first, so a hostile declared length is refused before the
/// payload buffer is allocated.
///
/// # Errors
///
/// [`NetError::Disconnected`] on EOF (including mid-frame),
/// [`NetError::Timeout`] when the stream's read timeout fires (a
/// slow-loris peer dribbling bytes trips this), [`NetError::Frame`]
/// for malformed bytes, [`NetError::Io`] otherwise.
pub fn read_frame<R: Read>(stream: &mut R) -> Result<Frame, NetError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_ctx(stream, &mut header, "frame header")?;
    let (_, len) = parse_header(&header)?;
    // The whole frame in one buffer: the body is read in behind the
    // header, never concatenated.
    let mut full = vec![0u8; HEADER_LEN + len + 4];
    let (head, rest) = full.split_at_mut(HEADER_LEN);
    head.copy_from_slice(&header);
    read_exact_ctx(stream, rest, "frame body")?;
    let (frame, _) = decode_frame(&full)?;
    Ok(frame)
}

fn read_exact_ctx<R: Read>(stream: &mut R, buf: &mut [u8], what: &str) -> Result<(), NetError> {
    stream.read_exact(buf).map_err(|err| map_io(err, what))
}

fn map_io(err: io::Error, context: &str) -> NetError {
    match err.kind() {
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::BrokenPipe => NetError::Disconnected {
            context: format!("{context}: {err}"),
        },
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout {
            context: context.to_string(),
        },
        _ => NetError::Io(err),
    }
}

// ── payload codecs ──────────────────────────────────────────────────

fn encode_request(w: &mut ByteWriter, req: &WireRequest) -> Result<(), FrameError> {
    check_string(&req.tenant, "tenant")?;
    w.put_u64(req.id);
    w.put_u8(threat_tag(req.threat));
    w.put_u64(req.deadline_us);
    w.put_str(&req.tenant);
    put_tensor(w, &req.image)
}

fn decode_request(payload: &[u8]) -> Result<WireRequest, FrameError> {
    let mut r = ByteReader::new(payload);
    let id = read_payload(r.get_u64())?;
    let threat = threat_from_tag(read_payload(r.get_u8())?)?;
    let deadline_us = read_payload(r.get_u64())?;
    let tenant = get_string(&mut r, "tenant")?;
    let image = get_tensor(&mut r)?;
    expect_drained(&r)?;
    Ok(WireRequest {
        id,
        threat,
        deadline_us,
        tenant,
        image,
    })
}

fn encode_response(w: &mut ByteWriter, resp: &WireResponse) -> Result<(), FrameError> {
    let v = &resp.verdict;
    let k = v.top5.top_classes.len();
    if k != v.top5.top_probs.len() {
        return Err(FrameError::BadPayload {
            reason: "verdict top-k classes and probs disagree in length".into(),
        });
    }
    if k > MAX_TOPK {
        return Err(FrameError::TooLarge {
            declared: k as u64,
            cap: MAX_TOPK as u64,
        });
    }
    w.put_u64(resp.id);
    w.put_u64(v.class as u64);
    w.put_f32(v.confidence);
    w.put_u8(u8::try_from(k).unwrap_or(u8::MAX));
    for (&class, &prob) in v.top5.top_classes.iter().zip(&v.top5.top_probs) {
        w.put_u64(class as u64);
        w.put_f32(prob);
    }
    put_tensor(w, &v.probabilities)?;
    // Version-tolerant trailing extension: only emitted when present,
    // so detection-free responses stay byte-identical to the original
    // format (see DETECTION_PRESENT).
    if let Some(d) = v.detection {
        if !d.score.is_finite() {
            return Err(FrameError::BadPayload {
                reason: "non-finite detection score".into(),
            });
        }
        w.put_u8(DETECTION_PRESENT);
        w.put_f32(d.score);
        w.put_u8(u8::from(d.flagged));
        w.put_u8(u8::from(d.hardened));
    }
    Ok(())
}

fn decode_response(payload: &[u8]) -> Result<WireResponse, FrameError> {
    let mut r = ByteReader::new(payload);
    let id = read_payload(r.get_u64())?;
    let class = usize_field(read_payload(r.get_u64())?, "class")?;
    let confidence = read_payload(r.get_f32())?;
    let k = usize::from(read_payload(r.get_u8())?);
    if k > MAX_TOPK {
        return Err(FrameError::TooLarge {
            declared: k as u64,
            cap: MAX_TOPK as u64,
        });
    }
    let mut top_classes = Vec::with_capacity(k);
    let mut top_probs = Vec::with_capacity(k);
    for _ in 0..k {
        top_classes.push(usize_field(read_payload(r.get_u64())?, "top-k class")?);
        top_probs.push(read_payload(r.get_f32())?);
    }
    let probabilities = get_tensor(&mut r)?;
    // Trailing optional detection extension: absent on old-format
    // payloads, which therefore drain right here and parse as `None`.
    let detection = if r.remaining() > 0 {
        let tag = read_payload(r.get_u8())?;
        if tag != DETECTION_PRESENT {
            return Err(FrameError::BadPayload {
                reason: format!("unknown detection tag {tag}"),
            });
        }
        let score = read_payload(r.get_f32())?;
        if !score.is_finite() {
            return Err(FrameError::BadPayload {
                reason: "non-finite detection score".into(),
            });
        }
        let flagged = bool_field(read_payload(r.get_u8())?, "detection flagged")?;
        let hardened = bool_field(read_payload(r.get_u8())?, "detection hardened")?;
        Some(Detection {
            score,
            flagged,
            hardened,
        })
    } else {
        None
    };
    expect_drained(&r)?;
    Ok(WireResponse {
        id,
        verdict: Verdict {
            class,
            confidence,
            top5: Prediction {
                top_classes,
                top_probs,
            },
            probabilities,
            detection,
        },
    })
}

/// Strict wire boolean: anything but 0/1 is corruption, not truthiness.
fn bool_field(byte: u8, what: &str) -> Result<bool, FrameError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(FrameError::BadPayload {
            reason: format!("{what} byte must be 0/1, got {other}"),
        }),
    }
}

// ServeError tags on the wire. Stable protocol constants — reordering
// the Rust enum must not change these.
const ERR_OVERLOADED: u8 = 1;
const ERR_SHUTTING_DOWN: u8 = 2;
const ERR_PIPELINE: u8 = 3;
const ERR_BATCH_FAILED: u8 = 4;
const ERR_DEADLINE: u8 = 5;
const ERR_INVALID_INPUT: u8 = 6;
const ERR_INVALID_CONFIG: u8 = 7;
const ERR_INTERNAL: u8 = 8;
const ERR_SWAP_FAILED: u8 = 9;

const STAGE_QUEUE: u8 = 1;
const STAGE_BATCH: u8 = 2;

fn encode_fault(w: &mut ByteWriter, fault: &WireFault) -> Result<(), FrameError> {
    w.put_u64(fault.id);
    match &fault.error {
        ServeError::Overloaded { capacity } => {
            w.put_u8(ERR_OVERLOADED);
            w.put_u64(*capacity as u64);
        }
        ServeError::ShuttingDown => w.put_u8(ERR_SHUTTING_DOWN),
        ServeError::Pipeline { message } => {
            w.put_u8(ERR_PIPELINE);
            put_reason(w, message)?;
        }
        ServeError::BatchFailed { reason } => {
            w.put_u8(ERR_BATCH_FAILED);
            put_reason(w, reason)?;
        }
        ServeError::DeadlineExceeded { stage } => {
            w.put_u8(ERR_DEADLINE);
            w.put_u8(match stage {
                DeadlineStage::Queue => STAGE_QUEUE,
                DeadlineStage::Batch => STAGE_BATCH,
            });
        }
        ServeError::InvalidInput { reason } => {
            w.put_u8(ERR_INVALID_INPUT);
            put_reason(w, reason)?;
        }
        ServeError::InvalidConfig { reason } => {
            w.put_u8(ERR_INVALID_CONFIG);
            put_reason(w, reason)?;
        }
        ServeError::Internal { reason } => {
            w.put_u8(ERR_INTERNAL);
            put_reason(w, reason)?;
        }
        ServeError::SwapFailed { reason } => {
            w.put_u8(ERR_SWAP_FAILED);
            put_reason(w, reason)?;
        }
    }
    Ok(())
}

fn decode_fault(payload: &[u8]) -> Result<WireFault, FrameError> {
    let mut r = ByteReader::new(payload);
    let id = read_payload(r.get_u64())?;
    let tag = read_payload(r.get_u8())?;
    let error = match tag {
        ERR_OVERLOADED => ServeError::Overloaded {
            capacity: usize_field(read_payload(r.get_u64())?, "capacity")?,
        },
        ERR_SHUTTING_DOWN => ServeError::ShuttingDown,
        ERR_PIPELINE => ServeError::Pipeline {
            message: get_string(&mut r, "pipeline message")?,
        },
        ERR_BATCH_FAILED => ServeError::BatchFailed {
            reason: get_string(&mut r, "batch-failed reason")?,
        },
        ERR_DEADLINE => {
            let stage = match read_payload(r.get_u8())? {
                STAGE_QUEUE => DeadlineStage::Queue,
                STAGE_BATCH => DeadlineStage::Batch,
                other => {
                    return Err(FrameError::BadPayload {
                        reason: format!("unknown deadline stage tag {other}"),
                    })
                }
            };
            ServeError::DeadlineExceeded { stage }
        }
        ERR_INVALID_INPUT => ServeError::InvalidInput {
            reason: get_string(&mut r, "invalid-input reason")?,
        },
        ERR_INVALID_CONFIG => ServeError::InvalidConfig {
            reason: get_string(&mut r, "invalid-config reason")?,
        },
        ERR_INTERNAL => ServeError::Internal {
            reason: get_string(&mut r, "internal reason")?,
        },
        ERR_SWAP_FAILED => ServeError::SwapFailed {
            reason: get_string(&mut r, "swap-failed reason")?,
        },
        other => {
            return Err(FrameError::BadPayload {
                reason: format!("unknown error tag {other}"),
            })
        }
    };
    expect_drained(&r)?;
    Ok(WireFault { id, error })
}

fn threat_tag(threat: ThreatModel) -> u8 {
    match threat {
        ThreatModel::I => 1,
        ThreatModel::II => 2,
        ThreatModel::III => 3,
    }
}

fn threat_from_tag(tag: u8) -> Result<ThreatModel, FrameError> {
    match tag {
        1 => Ok(ThreatModel::I),
        2 => Ok(ThreatModel::II),
        3 => Ok(ThreatModel::III),
        other => Err(FrameError::BadPayload {
            reason: format!("unknown threat-model tag {other}"),
        }),
    }
}

fn put_tensor(w: &mut ByteWriter, t: &Tensor) -> Result<(), FrameError> {
    if t.rank() > MAX_TENSOR_RANK {
        return Err(FrameError::TooLarge {
            declared: t.rank() as u64,
            cap: MAX_TENSOR_RANK as u64,
        });
    }
    if t.numel() > MAX_TENSOR_NUMEL {
        return Err(FrameError::TooLarge {
            declared: t.numel() as u64,
            cap: MAX_TENSOR_NUMEL as u64,
        });
    }
    w.put_u8(u8::try_from(t.rank()).unwrap_or(u8::MAX));
    for &dim in t.dims() {
        w.put_u32(u32::try_from(dim).unwrap_or(u32::MAX));
    }
    for &value in t.as_slice() {
        w.put_f32(value);
    }
    Ok(())
}

fn get_tensor(r: &mut ByteReader<'_>) -> Result<Tensor, FrameError> {
    let rank = usize::from(read_payload(r.get_u8())?);
    if rank > MAX_TENSOR_RANK {
        return Err(FrameError::TooLarge {
            declared: rank as u64,
            cap: MAX_TENSOR_RANK as u64,
        });
    }
    let mut dims = Vec::with_capacity(rank);
    let mut numel: usize = 1;
    for _ in 0..rank {
        let dim = usize_field(u64::from(read_payload(r.get_u32())?), "dimension")?;
        numel = numel
            .checked_mul(dim)
            .filter(|&n| n <= MAX_TENSOR_NUMEL)
            .ok_or(FrameError::TooLarge {
                declared: u64::MAX,
                cap: MAX_TENSOR_NUMEL as u64,
            })?;
        dims.push(dim);
    }
    // The payload must hold every declared element before the buffer is
    // allocated: a lying header costs no more than its own bytes.
    let data = read_payload(r.get_f32s(numel))?;
    Tensor::from_vec(data, Shape::new(dims)).map_err(|err| FrameError::BadPayload {
        reason: format!("invalid tensor record: {err}"),
    })
}

fn check_string(s: &str, what: &str) -> Result<(), FrameError> {
    if s.len() > MAX_STRING {
        return Err(FrameError::BadPayload {
            reason: format!(
                "{what} string of {} bytes exceeds cap {MAX_STRING}",
                s.len()
            ),
        });
    }
    Ok(())
}

/// Reasons are truncated (never rejected) on encode: an oversized
/// pipeline error message must not prevent the error from reaching the
/// client at all.
fn put_reason(w: &mut ByteWriter, reason: &str) -> Result<(), FrameError> {
    let mut end = reason.len().min(MAX_STRING);
    while end > 0 && !reason.is_char_boundary(end) {
        end -= 1;
    }
    let (head, _) = reason.split_at(end);
    w.put_str(head);
    Ok(())
}

fn get_string(r: &mut ByteReader<'_>, what: &str) -> Result<String, FrameError> {
    let s = r.get_str().map_err(|err| FrameError::BadPayload {
        reason: format!("{what}: {err}"),
    })?;
    check_string(&s, what)?;
    Ok(s)
}

fn usize_field(value: u64, what: &str) -> Result<usize, FrameError> {
    usize::try_from(value).map_err(|_| FrameError::BadPayload {
        reason: format!("{what} value {value} does not fit this platform"),
    })
}

fn read_payload<T>(result: io::Result<T>) -> Result<T, FrameError> {
    result.map_err(|err| FrameError::BadPayload {
        reason: format!("payload record: {err}"),
    })
}

fn expect_drained(r: &ByteReader<'_>) -> Result<(), FrameError> {
    if r.remaining() != 0 {
        return Err(FrameError::BadPayload {
            reason: format!("{} trailing payload bytes", r.remaining()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Tensor {
        let data: Vec<f32> = (0..12).map(|i| i as f32 / 12.0).collect();
        Tensor::from_vec(data, Shape::new(vec![3, 2, 2])).unwrap()
    }

    fn request() -> Frame {
        Frame::Request(WireRequest {
            id: 7,
            threat: ThreatModel::II,
            deadline_us: 250_000,
            tenant: "acme".into(),
            image: image(),
        })
    }

    #[test]
    fn request_round_trips() {
        let frame = request();
        let bytes = encode_frame(&frame).unwrap();
        let (back, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn response_round_trips() {
        let frame = Frame::Response(WireResponse {
            id: 9,
            verdict: Verdict {
                class: 3,
                confidence: 0.75,
                top5: Prediction {
                    top_classes: vec![3, 1, 0],
                    top_probs: vec![0.75, 0.2, 0.05],
                },
                probabilities: image(),
                detection: None,
            },
        });
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(decode_frame(&bytes).unwrap().0, frame);
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = [
            ServeError::Overloaded { capacity: 256 },
            ServeError::ShuttingDown,
            ServeError::Pipeline {
                message: "bad filter".into(),
            },
            ServeError::BatchFailed {
                reason: "worker died".into(),
            },
            ServeError::DeadlineExceeded {
                stage: DeadlineStage::Queue,
            },
            ServeError::DeadlineExceeded {
                stage: DeadlineStage::Batch,
            },
            ServeError::InvalidInput {
                reason: "NaN pixel".into(),
            },
            ServeError::InvalidConfig {
                reason: "zero workers".into(),
            },
            ServeError::Internal {
                reason: "spawn failed".into(),
            },
            ServeError::SwapFailed {
                reason: "CRC".into(),
            },
        ];
        for error in errors {
            let frame = Frame::Error(WireFault {
                id: 1,
                error: error.clone(),
            });
            let bytes = encode_frame(&frame).unwrap();
            assert_eq!(decode_frame(&bytes).unwrap().0, frame, "{error}");
        }
    }

    #[test]
    fn goodbye_round_trips() {
        let bytes = encode_frame(&Frame::Goodbye).unwrap();
        assert_eq!(decode_frame(&bytes).unwrap().0, Frame::Goodbye);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode_frame(&Frame::Goodbye).unwrap();
        bytes[0] ^= 0xFF;
        assert_eq!(decode_frame(&bytes).unwrap_err(), FrameError::BadMagic);
    }

    #[test]
    fn unknown_version_detected() {
        let mut bytes = encode_frame(&Frame::Goodbye).unwrap();
        bytes[7] = b'9';
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::UnsupportedVersion { found: b'9' }
        ));
    }

    #[test]
    fn oversized_declared_length_refused_before_allocation() {
        let mut bytes = encode_frame(&Frame::Goodbye).unwrap();
        // Declare a 4 GiB payload.
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::TooLarge { .. }
        ));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = encode_frame(&request()).unwrap();
        for keep in 0..bytes.len() {
            let err = decode_frame(&bytes[..keep]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_after_version_fails_crc() {
        let bytes = encode_frame(&request()).unwrap();
        for at in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            let err = decode_frame(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::CrcMismatch { .. }
                        | FrameError::TooLarge { .. }
                        | FrameError::Truncated { .. }
                ),
                "flip at {at}: {err}"
            );
        }
    }

    #[test]
    fn oversized_tensor_dims_refused() {
        // Hand-build a request whose tensor claims 2^30 elements.
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u8(1); // threat I
        w.put_u64(0);
        w.put_str("");
        w.put_u8(2); // rank 2
        w.put_u32(1 << 15);
        w.put_u32(1 << 15);
        assert!(matches!(
            decode_frame(&frame_raw(KIND_REQUEST, &w.into_bytes())).unwrap_err(),
            FrameError::TooLarge { .. }
        ));
    }

    #[test]
    fn trailing_payload_bytes_refused() {
        let mut w = ByteWriter::new();
        w.put_u64(3);
        w.put_u8(ERR_SHUTTING_DOWN);
        w.put_u8(0xAA); // junk
        assert!(matches!(
            decode_frame(&frame_raw(KIND_ERROR, &w.into_bytes())).unwrap_err(),
            FrameError::BadPayload { .. }
        ));
    }

    #[test]
    fn long_reason_truncated_on_encode_not_rejected() {
        let frame = Frame::Error(WireFault {
            id: 0,
            error: ServeError::Pipeline {
                message: "x".repeat(MAX_STRING * 2),
            },
        });
        let bytes = encode_frame(&frame).unwrap();
        let (back, _) = decode_frame(&bytes).unwrap();
        let Frame::Error(fault) = back else {
            panic!("wrong kind");
        };
        let ServeError::Pipeline { message } = fault.error else {
            panic!("wrong error");
        };
        assert_eq!(message.len(), MAX_STRING);
    }

    /// Frames `payload` as a `kind` record with a freshly computed CRC,
    /// so payload-level corruption tests get past the frame check and
    /// actually exercise the payload decoder.
    fn frame_raw(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut f = FRAME.writer();
        f.put_u8(kind);
        f.put_count(payload.len());
        f.put_bytes(payload);
        FRAME.seal(f)
    }

    #[test]
    fn envelope_magic_is_the_wire_magic_and_version() {
        assert_eq!(&FRAME.magic[..7], WIRE_MAGIC);
        assert_eq!(FRAME.magic[7], WIRE_VERSION);
        assert_eq!(
            frame_raw(KIND_GOODBYE, &[]),
            encode_frame(&Frame::Goodbye).unwrap()
        );
    }

    fn response_with_detection() -> Frame {
        Frame::Response(WireResponse {
            id: 41,
            verdict: Verdict {
                class: 2,
                confidence: 0.6,
                top5: Prediction {
                    top_classes: vec![2, 4],
                    top_probs: vec![0.6, 0.3],
                },
                probabilities: image(),
                detection: Some(Detection {
                    score: 0.87,
                    flagged: true,
                    hardened: true,
                }),
            },
        })
    }

    /// Byte length of the trailing detection extension: tag + f32
    /// score + flagged + hardened.
    const DETECTION_EXT_LEN: usize = 7;

    #[test]
    fn detection_extension_round_trips_and_absence_is_byte_identical() {
        let with = response_with_detection();
        let bytes = encode_frame(&with).unwrap();
        assert_eq!(decode_frame(&bytes).unwrap().0, with);

        // A detection-free response must stay byte-identical to the
        // pre-extension format: exactly DETECTION_EXT_LEN shorter.
        let Frame::Response(resp) = &with else {
            panic!("wrong kind");
        };
        let mut legacy = resp.clone();
        legacy.verdict.detection = None;
        let legacy_bytes = encode_frame(&Frame::Response(legacy)).unwrap();
        assert_eq!(legacy_bytes.len() + DETECTION_EXT_LEN, bytes.len());
    }

    #[test]
    fn legacy_response_payload_parses_as_no_detection() {
        // Simulate a payload from an old server: take the extended
        // payload and drop the trailing extension bytes.
        let bytes = encode_frame(&response_with_detection()).unwrap();
        let payload = &bytes[HEADER_LEN..bytes.len() - 4];
        let legacy_payload = &payload[..payload.len() - DETECTION_EXT_LEN];
        let (frame, _) = decode_frame(&frame_raw(KIND_RESPONSE, legacy_payload)).unwrap();
        let Frame::Response(resp) = frame else {
            panic!("wrong kind");
        };
        assert_eq!(resp.verdict.detection, None);
        assert_eq!(resp.verdict.class, 2);
    }

    #[test]
    fn truncated_detection_fields_are_refused() {
        // Cutting 1..DETECTION_EXT_LEN-1 bytes leaves a partial
        // extension; even behind a valid frame CRC that is a typed
        // BadPayload, never a panic.
        let bytes = encode_frame(&response_with_detection()).unwrap();
        let payload = &bytes[HEADER_LEN..bytes.len() - 4];
        for cut in 1..DETECTION_EXT_LEN {
            let partial = &payload[..payload.len() - cut];
            let err = decode_frame(&frame_raw(KIND_RESPONSE, partial)).unwrap_err();
            assert!(
                matches!(err, FrameError::BadPayload { .. }),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flipped_detection_fields_are_refused() {
        let bytes = encode_frame(&response_with_detection()).unwrap();
        let payload = bytes[HEADER_LEN..bytes.len() - 4].to_vec();
        let ext_start = payload.len() - DETECTION_EXT_LEN;

        // Unknown extension tag.
        let mut bad = payload.clone();
        bad[ext_start] = 9;
        assert!(matches!(
            decode_frame(&frame_raw(KIND_RESPONSE, &bad)).unwrap_err(),
            FrameError::BadPayload { .. }
        ));

        // Non-finite score (all-ones exponent ⇒ NaN).
        let mut bad = payload.clone();
        bad[ext_start + 3] = 0xFF;
        bad[ext_start + 4] = 0x7F;
        assert!(matches!(
            decode_frame(&frame_raw(KIND_RESPONSE, &bad)).unwrap_err(),
            FrameError::BadPayload { .. }
        ));

        // Flagged / hardened bytes (extension offsets 5 and 6) must be
        // strict booleans.
        for off in [5usize, 6] {
            let mut bad = payload.clone();
            bad[ext_start + off] ^= 0x04;
            assert!(matches!(
                decode_frame(&frame_raw(KIND_RESPONSE, &bad)).unwrap_err(),
                FrameError::BadPayload { .. }
            ));
        }

        // Without recomputing the CRC, any flip in the extension is
        // caught at the frame layer before the payload decoder runs.
        for at in bytes.len() - 4 - DETECTION_EXT_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let err = decode_frame(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::CrcMismatch { .. } | FrameError::Truncated { .. }
                ),
                "flip at {at}: {err}"
            );
        }
    }

    #[test]
    fn non_finite_detection_score_refused_on_encode() {
        let Frame::Response(mut resp) = response_with_detection() else {
            panic!("wrong kind");
        };
        resp.verdict.detection = Some(Detection {
            score: f32::NAN,
            flagged: false,
            hardened: false,
        });
        assert!(matches!(
            encode_frame(&Frame::Response(resp)).unwrap_err(),
            FrameError::BadPayload { .. }
        ));
    }

    #[test]
    fn stream_reader_handles_back_to_back_frames() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_frame(&request()).unwrap());
        buf.extend_from_slice(&encode_frame(&Frame::Goodbye).unwrap());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            Frame::Request(_)
        ));
        assert!(matches!(read_frame(&mut cursor).unwrap(), Frame::Goodbye));
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            NetError::Disconnected { .. }
        ));
    }
}
