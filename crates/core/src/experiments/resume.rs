//! Experiment-level resumability: a per-stage completion ledger so a
//! killed detection or adaptive sweep restarts at the first incomplete
//! stage instead of from scratch.
//!
//! The [`StageLedger`] is an append-only journal: every
//! completed stage is appended as a length-prefixed record carrying its
//! own CRC-32, so a crash mid-append leaves a torn tail that the next
//! open detects, truncates and recomputes — never a silently wrong
//! result. Records also embed a *fingerprint* of everything that
//! influences the stage output (attack parameters, filters, evaluation
//! size, threat model, victim weights); a ledger written under
//! different settings is treated as empty rather than trusted.
//!
//! See `DESIGN.md` §12 for the byte layout and the durability argument.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};

use fademl_filters::FilterSpec;
use fademl_tensor::io::{crc32, ByteReader, ByteWriter, Crc32};
use parking_lot::Mutex;

use super::AttackParams;
use crate::setup::PreparedSetup;
use crate::{FademlError, Result, ThreatModel};

const MAGIC: &[u8; 8] = b"FADEMLL1";

/// Upper bound on a single record payload. Stage values are a few
/// hundred bytes; anything larger is a corrupt length prefix, not data.
const MAX_PAYLOAD: usize = 16 << 20;

fn corrupt(reason: impl Into<String>) -> FademlError {
    FademlError::Corrupt {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

/// An append-only journal of completed experiment stages.
///
/// Concurrency: appends are serialized by an internal lock, so
/// workers sharing a ledger can record stages in parallel.
/// Durability: each append is a single `write` followed by `fsync`; a
/// crash between the two leaves a torn tail that the next [`open`]
/// drops and repairs.
///
/// [`open`]: StageLedger::open
#[derive(Debug)]
pub struct StageLedger {
    path: PathBuf,
    fingerprint: u64,
    entries: Mutex<HashMap<String, Vec<u8>>>,
}

impl StageLedger {
    /// Opens (or lazily creates) the ledger at `path`, keeping only
    /// records whose fingerprint matches `fingerprint`.
    ///
    /// A torn tail from a crashed append is truncated away so later
    /// appends land on a well-formed prefix.
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::Corrupt`] if an existing file is not a
    /// stage ledger at all (bad magic), and [`FademlError::Io`] on
    /// read/repair failures.
    pub fn open<P: AsRef<Path>>(path: P, fingerprint: u64) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut entries = HashMap::new();
        if path.exists() {
            let bytes = fs::read(&path).map_err(FademlError::Io)?;
            let valid_len = scan_records(&bytes, fingerprint, &mut entries)?;
            if valid_len < bytes.len() {
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(FademlError::Io)?;
                file.set_len(valid_len as u64).map_err(FademlError::Io)?;
                file.sync_all().map_err(FademlError::Io)?;
            }
        }
        Ok(StageLedger {
            path,
            fingerprint,
            entries: Mutex::new(entries),
        })
    }

    /// The recorded value for `key`, if a matching-fingerprint record
    /// exists. Later records for the same key win.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.entries.lock().get(key).cloned()
    }

    /// Number of distinct completed stages visible to this fingerprint.
    pub fn completed(&self) -> usize {
        self.entries.lock().len()
    }

    /// Appends one completed stage and syncs it to disk before
    /// returning, so a stage reported as recorded survives a crash.
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::Io`] on append/sync failure and
    /// [`FademlError::InvalidConfig`] for an oversized value.
    pub fn record(&self, key: &str, value: &[u8]) -> Result<()> {
        let mut payload = ByteWriter::new();
        payload.put_u64(self.fingerprint);
        payload.put_str(key);
        payload.put_bytes(value);
        let payload = payload.into_bytes();
        if payload.len() > MAX_PAYLOAD {
            return Err(FademlError::InvalidConfig {
                reason: format!("stage value for {key:?} exceeds {MAX_PAYLOAD} bytes"),
            });
        }
        let mut record = Vec::with_capacity(payload.len() + 8);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        record.extend_from_slice(&crc32(&payload).to_le_bytes());

        // The lock covers the file append so parallel stage workers
        // never interleave partial records.
        let mut entries = self.entries.lock();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(FademlError::Io)?;
        if file.metadata().map_err(FademlError::Io)?.len() == 0 {
            file.write_all(MAGIC).map_err(FademlError::Io)?;
        }
        file.write_all(&record).map_err(FademlError::Io)?;
        file.sync_all().map_err(FademlError::Io)?;
        entries.insert(key.to_owned(), value.to_vec());
        Ok(())
    }
}

/// Walks the record stream, filling `entries` with matching-fingerprint
/// records, and returns the byte length of the well-formed prefix.
/// Anything after the first malformed record is untrusted and dropped.
fn scan_records(
    bytes: &[u8],
    fingerprint: u64,
    entries: &mut HashMap<String, Vec<u8>>,
) -> Result<usize> {
    if bytes.len() < MAGIC.len() {
        // A prefix of the magic is a crash during ledger creation;
        // anything else is a foreign file we must not append to.
        return if MAGIC.starts_with(bytes) {
            Ok(0)
        } else {
            Err(corrupt("not a FAdeML stage ledger (bad magic)"))
        };
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("not a FAdeML stage ledger (bad magic)"));
    }
    let mut offset = MAGIC.len();
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_PAYLOAD || rest.len() < 4 + len + 4 {
            break;
        }
        let payload = &rest[4..4 + len];
        let stored = &rest[4 + len..4 + len + 4];
        if crc32(payload) != u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]) {
            break;
        }
        let mut r = ByteReader::new(payload);
        let parsed = (|| -> std::io::Result<(u64, String, Vec<u8>)> {
            let fp = r.get_u64()?;
            let key = r.get_str()?;
            let value = r.get_bytes(r.remaining())?.to_vec();
            Ok((fp, key, value))
        })();
        match parsed {
            Ok((fp, key, value)) => {
                if fp == fingerprint {
                    entries.insert(key, value);
                }
            }
            // CRC passed but the payload is structurally malformed:
            // treat it and everything after as untrusted.
            Err(_) => break,
        }
        offset += 4 + len + 4;
    }
    Ok(offset)
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// Stable hash over everything that influences a figure's stage
/// outputs: the figure itself, attack hyper-parameters, filter set,
/// evaluation size, threat model, and a signature of the victim's
/// weights. Stages recorded under a different fingerprint are ignored
/// (recomputed) rather than trusted.
pub fn experiment_fingerprint(
    figure: &str,
    prepared: &PreparedSetup,
    params: &AttackParams,
    filters: &[FilterSpec],
    eval_n: usize,
    threat: ThreatModel,
) -> u64 {
    let mut h = DefaultHasher::new();
    figure.hash(&mut h);
    params.epsilon.to_bits().hash(&mut h);
    params.bim_alpha.to_bits().hash(&mut h);
    params.bim_iterations.hash(&mut h);
    params.lbfgs_c.to_bits().hash(&mut h);
    params.lbfgs_iterations.hash(&mut h);
    params.fademl_rounds.hash(&mut h);
    params.fademl_eta.to_bits().hash(&mut h);
    filters.len().hash(&mut h);
    for filter in filters {
        let mut w = ByteWriter::new();
        put_filter(&mut w, *filter);
        w.into_bytes().hash(&mut h);
    }
    eval_n.hash(&mut h);
    let threat_tag: u8 = match threat {
        ThreatModel::I => 1,
        ThreatModel::II => 2,
        ThreatModel::III => 3,
    };
    threat_tag.hash(&mut h);
    // Victim signature: parameter count plus a CRC over a slice of the
    // leading weights — cheap, and any retrained victim changes it.
    let model_params = prepared.model.params();
    model_params.len().hash(&mut h);
    let mut crc = Crc32::new();
    for param in model_params.iter().take(2) {
        for &x in param.value.as_slice().iter().take(256) {
            crc.update(&x.to_bits().to_le_bytes());
        }
    }
    crc.finish().hash(&mut h);
    h.finish()
}

/// The bytes a filter contributes to the fingerprint.
fn put_filter(w: &mut ByteWriter, filter: FilterSpec) {
    match filter {
        FilterSpec::None => w.put_u8(0),
        FilterSpec::Lap { np } => {
            w.put_u8(1);
            w.put_u64(np as u64);
        }
        FilterSpec::Lar { r } => {
            w.put_u8(2);
            w.put_u64(r as u64);
        }
        FilterSpec::Gaussian { sigma } => {
            w.put_u8(3);
            w.put_f32(sigma);
        }
        FilterSpec::Median { window } => {
            w.put_u8(4);
            w.put_u64(window as u64);
        }
        FilterSpec::BitDepth { bits } => {
            w.put_u8(5);
            w.put_u8(bits);
        }
        // Future variants get an opaque tag: the fingerprint still
        // distinguishes them (via the display string).
        other => {
            w.put_u8(255);
            w.put_str(&other.to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// Resumable runs
// ---------------------------------------------------------------------------

/// Outcome of a resumable run.
#[derive(Debug, Clone)]
pub struct ResumeReport<T> {
    /// The sweep's result.
    pub result: T,
    /// Total stages in the sweep.
    pub stages_total: usize,
    /// Stages loaded from the ledger instead of recomputed.
    pub stages_reused: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ExperimentSetup, SetupProfile};
    use fademl_tensor::io::atomic_write;
    use std::sync::OnceLock;

    fn ledger_file(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("fademl_ledger_{tag}_{}.fjl", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    fn prepared() -> &'static PreparedSetup {
        static CELL: OnceLock<PreparedSetup> = OnceLock::new();
        CELL.get_or_init(|| {
            ExperimentSetup::profile(SetupProfile::Smoke)
                .prepare()
                .unwrap()
        })
    }

    fn cheap_params() -> AttackParams {
        AttackParams {
            epsilon: 0.15,
            bim_alpha: 0.03,
            bim_iterations: 4,
            lbfgs_iterations: 5,
            fademl_rounds: 1,
            ..AttackParams::default()
        }
    }

    #[test]
    fn ledger_round_trip_survives_reopen() {
        let path = ledger_file("round");
        let ledger = StageLedger::open(&path, 42).unwrap();
        assert_eq!(ledger.completed(), 0);
        ledger.record("a", b"alpha").unwrap();
        ledger.record("b", b"beta").unwrap();
        ledger.record("a", b"alpha-v2").unwrap(); // last writer wins
        assert_eq!(ledger.get("a").as_deref(), Some(&b"alpha-v2"[..]));

        let reopened = StageLedger::open(&path, 42).unwrap();
        assert_eq!(reopened.completed(), 2);
        assert_eq!(reopened.get("a").as_deref(), Some(&b"alpha-v2"[..]));
        assert_eq!(reopened.get("b").as_deref(), Some(&b"beta"[..]));
        assert_eq!(reopened.get("missing"), None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated_and_repaired() {
        let path = ledger_file("torn");
        let ledger = StageLedger::open(&path, 7).unwrap();
        ledger.record("a", b"one").unwrap();
        ledger.record("b", b"two").unwrap();
        // Crash mid-append: a partial length prefix dangles at the end.
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x07, 0x00]).unwrap();
        drop(file);

        let reopened = StageLedger::open(&path, 7).unwrap();
        assert_eq!(reopened.completed(), 2);
        // The torn bytes were truncated, so a fresh append parses.
        reopened.record("c", b"three").unwrap();
        let again = StageLedger::open(&path, 7).unwrap();
        assert_eq!(again.completed(), 3);
        assert_eq!(again.get("c").as_deref(), Some(&b"three"[..]));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mid_record_corruption_drops_only_the_suffix() {
        let path = ledger_file("rot");
        let ledger = StageLedger::open(&path, 7).unwrap();
        ledger.record("a", b"keep-me").unwrap();
        let keep = fs::metadata(&path).unwrap().len() as usize;
        ledger.record("b", b"rot-me").unwrap();

        let mut bytes = fs::read(&path).unwrap();
        bytes[keep + 6] ^= 0xFF;
        atomic_write(&path, &bytes).unwrap();

        let reopened = StageLedger::open(&path, 7).unwrap();
        assert_eq!(reopened.completed(), 1);
        assert_eq!(reopened.get("a").as_deref(), Some(&b"keep-me"[..]));
        assert_eq!(reopened.get("b"), None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_is_a_typed_corrupt_error() {
        let path = ledger_file("magic");
        atomic_write(&path, b"NOTALEDGERFILE").unwrap();
        match StageLedger::open(&path, 1) {
            Err(FademlError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_gates_reuse() {
        let path = ledger_file("fp");
        let first = StageLedger::open(&path, 1).unwrap();
        first.record("stage", b"under-one").unwrap();

        let other = StageLedger::open(&path, 2).unwrap();
        assert_eq!(other.completed(), 0);
        assert_eq!(other.get("stage"), None);
        other.record("stage", b"under-two").unwrap();

        // Both histories coexist; each fingerprint sees only its own.
        let one = StageLedger::open(&path, 1).unwrap();
        assert_eq!(one.get("stage").as_deref(), Some(&b"under-one"[..]));
        let two = StageLedger::open(&path, 2).unwrap();
        assert_eq!(two.get("stage").as_deref(), Some(&b"under-two"[..]));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let p = prepared();
        let params = cheap_params();
        let base = experiment_fingerprint("fig7", p, &params, &[], 4, ThreatModel::III);
        assert_eq!(
            base,
            experiment_fingerprint("fig7", p, &params, &[], 4, ThreatModel::III)
        );
        assert_ne!(
            base,
            experiment_fingerprint("fig9", p, &params, &[], 4, ThreatModel::III)
        );
        let mut other = params;
        other.epsilon += 0.01;
        assert_ne!(
            base,
            experiment_fingerprint("fig7", p, &other, &[], 4, ThreatModel::III)
        );
        assert_ne!(
            base,
            experiment_fingerprint("fig7", p, &params, &[], 5, ThreatModel::III)
        );
        assert_ne!(
            base,
            experiment_fingerprint("fig7", p, &params, &[], 4, ThreatModel::II)
        );
        assert_ne!(
            base,
            experiment_fingerprint(
                "fig7",
                p,
                &params,
                &[FilterSpec::Lap { np: 8 }],
                4,
                ThreatModel::III
            )
        );
    }
}
