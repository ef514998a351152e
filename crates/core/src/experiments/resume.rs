//! Experiment-level resumability: a per-stage completion ledger so a
//! killed figure sweep restarts at the first incomplete stage instead
//! of from scratch.
//!
//! Each figure experiment decomposes into five independent per-scenario
//! stages. The [`StageLedger`] is an append-only journal: every
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

use fademl_data::ClassId;
use fademl_filters::FilterSpec;
use fademl_tensor::io::{crc32, ByteReader, ByteWriter, Crc32};
use parking_lot::Mutex;

use super::fig5::{self, Fig5Result};
use super::fig6::Fig6Result;
use super::fig7::Fig7Result;
use super::fig9::Fig9Result;
use super::grid::{collect_stages, for_each_parallel, require_filtered, Stage, Sweep};
use super::{AccuracyCell, AccuracyGrid, AttackParams, ScenarioCell};
use crate::setup::PreparedSetup;
use crate::{FademlError, Result, Scenario, ThreatModel};

const MAGIC: &[u8; 8] = b"FADEMLL1";

/// Upper bound on a single record payload. Stage values are a few
/// hundred bytes; anything larger is a corrupt length prefix, not data.
const MAX_PAYLOAD: usize = 16 << 20;

fn corrupt(reason: impl Into<String>) -> FademlError {
    FademlError::Corrupt {
        reason: reason.into(),
    }
}

fn truncated(_: std::io::Error) -> FademlError {
    corrupt("stage value truncated mid-field")
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

/// An append-only journal of completed experiment stages.
///
/// Concurrency: appends are serialized by an internal lock, so the
/// per-scenario workers of a figure run can record stages in parallel.
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

// ---------------------------------------------------------------------------
// Stage value codecs
// ---------------------------------------------------------------------------

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
        // distinguishes them (via the display string) but decode
        // refuses them, so such stages recompute instead of being
        // trusted from an older ledger.
        other => {
            w.put_u8(255);
            w.put_str(&other.to_string());
        }
    }
}

fn get_filter(r: &mut ByteReader) -> Result<FilterSpec> {
    match r.get_u8().map_err(truncated)? {
        0 => Ok(FilterSpec::None),
        1 => Ok(FilterSpec::Lap {
            np: r.get_u64().map_err(truncated)? as usize,
        }),
        2 => Ok(FilterSpec::Lar {
            r: r.get_u64().map_err(truncated)? as usize,
        }),
        3 => Ok(FilterSpec::Gaussian {
            sigma: r.get_f32().map_err(truncated)?,
        }),
        4 => Ok(FilterSpec::Median {
            window: r.get_u64().map_err(truncated)? as usize,
        }),
        5 => Ok(FilterSpec::BitDepth {
            bits: r.get_u8().map_err(truncated)?,
        }),
        tag => Err(corrupt(format!("unknown or unsupported filter tag {tag}"))),
    }
}

fn put_scenario_cell(w: &mut ByteWriter, cell: &ScenarioCell) {
    w.put_u64(cell.scenario_id as u64);
    w.put_str(&cell.attack);
    put_filter(w, cell.filter);
    w.put_u64(cell.tm1_class as u64);
    w.put_f32(cell.tm1_confidence);
    w.put_u64(cell.tm23_class as u64);
    w.put_f32(cell.tm23_confidence);
    w.put_f32(cell.cost);
    w.put_u8(u8::from(cell.success_tm1));
    w.put_u8(u8::from(cell.success_tm23));
    w.put_f32(cell.noise_linf);
}

fn get_scenario_cell(r: &mut ByteReader) -> Result<ScenarioCell> {
    Ok(ScenarioCell {
        scenario_id: r.get_u64().map_err(truncated)? as usize,
        attack: r.get_str().map_err(truncated)?,
        filter: get_filter(r)?,
        tm1_class: r.get_u64().map_err(truncated)? as usize,
        tm1_confidence: r.get_f32().map_err(truncated)?,
        tm23_class: r.get_u64().map_err(truncated)? as usize,
        tm23_confidence: r.get_f32().map_err(truncated)?,
        cost: r.get_f32().map_err(truncated)?,
        success_tm1: r.get_u8().map_err(truncated)? != 0,
        success_tm23: r.get_u8().map_err(truncated)? != 0,
        noise_linf: r.get_f32().map_err(truncated)?,
    })
}

fn put_scenario(w: &mut ByteWriter, scenario: &Scenario) {
    w.put_u64(scenario.id as u64);
    w.put_u32(scenario.source.index() as u32);
    w.put_u32(scenario.target.index() as u32);
}

fn get_scenario(r: &mut ByteReader) -> Result<Scenario> {
    let id = r.get_u64().map_err(truncated)? as usize;
    let source = r.get_u32().map_err(truncated)? as usize;
    let target = r.get_u32().map_err(truncated)? as usize;
    Ok(Scenario {
        id,
        source: ClassId::new(source).map_err(|_| corrupt("scenario source class out of range"))?,
        target: ClassId::new(target).map_err(|_| corrupt("scenario target class out of range"))?,
    })
}

fn put_grid(w: &mut ByteWriter, grid: &AccuracyGrid) {
    put_scenario(w, &grid.scenario);
    w.put_u32(grid.cells.len() as u32);
    for cell in &grid.cells {
        put_filter(w, cell.filter);
        w.put_str(&cell.attack);
        w.put_f32(cell.top5_accuracy);
    }
}

fn get_grid(r: &mut ByteReader) -> Result<AccuracyGrid> {
    let scenario = get_scenario(r)?;
    let count = r.get_u32().map_err(truncated)? as usize;
    if count > r.remaining() {
        return Err(corrupt("accuracy grid claims more cells than bytes"));
    }
    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        cells.push(AccuracyCell {
            filter: get_filter(r)?,
            attack: r.get_str().map_err(truncated)?,
            top5_accuracy: r.get_f32().map_err(truncated)?,
        });
    }
    Ok(AccuracyGrid { scenario, cells })
}

fn put_cells(w: &mut ByteWriter, cells: &[ScenarioCell]) {
    w.put_u32(cells.len() as u32);
    for cell in cells {
        put_scenario_cell(w, cell);
    }
}

fn get_cells(r: &mut ByteReader) -> Result<Vec<ScenarioCell>> {
    let count = r.get_u32().map_err(truncated)? as usize;
    if count > r.remaining() {
        return Err(corrupt("cell list claims more cells than bytes"));
    }
    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        cells.push(get_scenario_cell(r)?);
    }
    Ok(cells)
}

fn finish_decode<T>(r: &ByteReader, value: T) -> Result<T> {
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after stage value"));
    }
    Ok(value)
}

fn encode_cells_value(cells: &[ScenarioCell]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_cells(&mut w, cells);
    w.into_bytes()
}

fn decode_cells_value(bytes: &[u8]) -> Result<Vec<ScenarioCell>> {
    let mut r = ByteReader::new(bytes);
    let cells = get_cells(&mut r)?;
    finish_decode(&r, cells)
}

fn encode_grid_value(grid: &AccuracyGrid) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_grid(&mut w, grid);
    w.into_bytes()
}

fn decode_grid_value(bytes: &[u8]) -> Result<AccuracyGrid> {
    let mut r = ByteReader::new(bytes);
    let grid = get_grid(&mut r)?;
    finish_decode(&r, grid)
}

fn encode_stage_value(stage: &Stage) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_cells(&mut w, &stage.0);
    put_grid(&mut w, &stage.1);
    w.into_bytes()
}

fn decode_stage_value(bytes: &[u8]) -> Result<Stage> {
    let mut r = ByteReader::new(bytes);
    let cells = get_cells(&mut r)?;
    let grid = get_grid(&mut r)?;
    finish_decode(&r, (cells, grid))
}

// ---------------------------------------------------------------------------
// Resumable figure runners
// ---------------------------------------------------------------------------

/// Outcome of a resumable figure run.
#[derive(Debug, Clone)]
pub struct ResumeReport<T> {
    /// The figure result, identical in shape to the non-resumable run.
    pub result: T,
    /// Total per-scenario stages in the sweep.
    pub stages_total: usize,
    /// Stages loaded from the ledger instead of recomputed.
    pub stages_reused: usize,
}

impl<T> ResumeReport<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> ResumeReport<U> {
        ResumeReport {
            result: f(self.result),
            stages_total: self.stages_total,
            stages_reused: self.stages_reused,
        }
    }
}

/// Journals one finished stage; the resumable drivers' `finished` hook.
type Journal<'a, T> = &'a (dyn Fn(&Scenario, &T) -> Result<()> + Sync);

/// One stage per scenario, reusing recorded stages. `compute` runs the
/// pending scenarios and calls the journal it is given on each stage as
/// soon as that stage is whole, so each is appended to the ledger
/// *before* the sweep moves on and a kill at any point preserves every
/// finished stage.
fn resumable_stages<T, D, E, C>(
    ledger: &StageLedger,
    prefix: &str,
    decode: D,
    encode: E,
    compute: C,
) -> Result<(Vec<T>, usize)>
where
    D: Fn(&[u8]) -> Result<T>,
    E: Fn(&T) -> Vec<u8> + Sync,
    C: FnOnce(&[Scenario], Journal<T>) -> Result<Vec<T>>,
{
    let key = |scenario: &Scenario| format!("{prefix}/s{}", scenario.id);
    let slots: Vec<(Scenario, Option<T>)> = Scenario::paper_scenarios()
        .into_iter()
        .map(|scenario| {
            // A record that fails to decode is treated as absent: the
            // worst case is recomputation, never a wrong figure.
            let cached = ledger
                .get(&key(&scenario))
                .and_then(|bytes| decode(&bytes).ok());
            (scenario, cached)
        })
        .collect();
    let reused = slots.iter().filter(|(_, cached)| cached.is_some()).count();
    let pending: Vec<Scenario> = slots
        .iter()
        .filter(|(_, cached)| cached.is_none())
        .map(|(scenario, _)| *scenario)
        .collect();
    let computed = compute(&pending, &|scenario, value| {
        ledger.record(&key(scenario), &encode(value))
    })?;
    let mut fresh = computed.into_iter();
    let results = slots
        .into_iter()
        .map(|(_, cached)| match cached {
            Some(value) => value,
            // Pending scenarios come back in the order they went in.
            None => fresh
                .next()
                .expect("one computed stage per pending scenario"),
        })
        .collect();
    Ok((results, reused))
}

/// Resumable [`fig5`](super::fig5): per-scenario stages journaled to
/// `ledger_path`.
///
/// # Errors
///
/// Propagates attack, pipeline and ledger errors.
pub fn run_fig5_resumable(
    prepared: &PreparedSetup,
    params: &AttackParams,
    ledger_path: &Path,
) -> Result<ResumeReport<Fig5Result>> {
    let fingerprint = experiment_fingerprint("fig5", prepared, params, &[], 0, ThreatModel::III);
    let ledger = StageLedger::open(ledger_path, fingerprint)?;
    let (stages, reused) = resumable_stages(
        &ledger,
        "fig5",
        decode_cells_value,
        |cells| encode_cells_value(cells),
        |pending, journal| {
            for_each_parallel(pending, |scenario| {
                let cells = fig5::scenario_cells(prepared, params, scenario)?;
                journal(scenario, &cells)?;
                Ok(cells)
            })
        },
    )?;
    let stages_total = stages.len();
    Ok(ResumeReport {
        result: Fig5Result {
            cells: stages.into_iter().flatten().collect(),
        },
        stages_total,
        stages_reused: reused,
    })
}

/// Resumable [`fig6`](super::fig6).
///
/// # Errors
///
/// Propagates attack, pipeline and ledger errors.
pub fn run_fig6_resumable(
    prepared: &PreparedSetup,
    params: &AttackParams,
    eval_n: usize,
    ledger_path: &Path,
) -> Result<ResumeReport<Fig6Result>> {
    let filters = [FilterSpec::None];
    let fingerprint =
        experiment_fingerprint("fig6", prepared, params, &filters, eval_n, ThreatModel::III);
    let ledger = StageLedger::open(ledger_path, fingerprint)?;
    let sweep = Sweep::over(prepared, params, &filters, false, eval_n, ThreatModel::III)?;
    // Fig. 6 keeps (and journals) the grid half of a stage only.
    let (stages, reused) = resumable_stages(
        &ledger,
        "fig6",
        |bytes| Ok((Vec::new(), decode_grid_value(bytes)?)),
        |(_, grid)| encode_grid_value(grid),
        |pending, journal| sweep.run(pending, journal),
    )?;
    let (_, grids) = collect_stages(stages);
    let stages_total = grids.len();
    Ok(ResumeReport {
        result: Fig6Result { grids },
        stages_total,
        stages_reused: reused,
    })
}

/// The resumable form of a grid figure's sweep: one journaled
/// [`Stage`] per scenario.
fn grid_figure_resumable(
    figure: &str,
    sweep: &Sweep,
    fingerprint: u64,
    ledger_path: &Path,
) -> Result<ResumeReport<(Vec<ScenarioCell>, Vec<AccuracyGrid>)>> {
    let ledger = StageLedger::open(ledger_path, fingerprint)?;
    let (stages, stages_reused) = resumable_stages(
        &ledger,
        figure,
        decode_stage_value,
        encode_stage_value,
        |pending, journal| sweep.run(pending, journal),
    )?;
    Ok(ResumeReport {
        stages_total: stages.len(),
        stages_reused,
        result: collect_stages(stages),
    })
}

/// Resumable [`fig7`](super::fig7).
///
/// # Errors
///
/// Propagates attack, pipeline and ledger errors; returns an error if
/// `threat` is Threat Model I.
pub fn run_fig7_resumable(
    prepared: &PreparedSetup,
    params: &AttackParams,
    filters: &[FilterSpec],
    eval_n: usize,
    threat: ThreatModel,
    ledger_path: &Path,
) -> Result<ResumeReport<Fig7Result>> {
    require_filtered("Fig. 7", threat)?;
    let fingerprint = experiment_fingerprint("fig7", prepared, params, filters, eval_n, threat);
    let sweep = Sweep::over(prepared, params, filters, false, eval_n, threat)?;
    let report = grid_figure_resumable("fig7", &sweep, fingerprint, ledger_path)?;
    Ok(report.map(|(cells, grids)| Fig7Result {
        cells,
        grids,
        threat,
    }))
}

/// Resumable [`fig9`](super::fig9).
///
/// # Errors
///
/// Propagates attack, pipeline and ledger errors; returns an error if
/// `threat` is Threat Model I.
pub fn run_fig9_resumable(
    prepared: &PreparedSetup,
    params: &AttackParams,
    filters: &[FilterSpec],
    eval_n: usize,
    threat: ThreatModel,
    ledger_path: &Path,
) -> Result<ResumeReport<Fig9Result>> {
    require_filtered("Fig. 9", threat)?;
    let fingerprint = experiment_fingerprint("fig9", prepared, params, filters, eval_n, threat);
    let sweep = Sweep::over(prepared, params, filters, true, eval_n, threat)?;
    let report = grid_figure_resumable("fig9", &sweep, fingerprint, ledger_path)?;
    Ok(report.map(|(cells, grids)| Fig9Result {
        cells,
        grids,
        threat,
    }))
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
    fn stage_value_codecs_round_trip() {
        let filters = [
            FilterSpec::None,
            FilterSpec::Lap { np: 8 },
            FilterSpec::Lar { r: 3 },
            FilterSpec::Gaussian { sigma: 1.25 },
            FilterSpec::Median { window: 3 },
            FilterSpec::BitDepth { bits: 4 },
        ];
        let cells: Vec<ScenarioCell> = filters
            .iter()
            .enumerate()
            .map(|(i, &filter)| ScenarioCell {
                scenario_id: i + 1,
                attack: format!("attack-{i}"),
                filter,
                tm1_class: 14,
                tm1_confidence: 0.75,
                tm23_class: 3,
                tm23_confidence: 0.5,
                cost: 0.125,
                success_tm1: i % 2 == 0,
                success_tm23: i % 2 == 1,
                noise_linf: 0.08,
            })
            .collect();
        let decoded = decode_cells_value(&encode_cells_value(&cells)).unwrap();
        assert_eq!(decoded, cells);

        let grid = AccuracyGrid {
            scenario: Scenario::paper_scenarios()[2],
            cells: vec![
                AccuracyCell {
                    filter: FilterSpec::Lap { np: 16 },
                    attack: "No attack".to_owned(),
                    top5_accuracy: 0.9375,
                },
                AccuracyCell {
                    filter: FilterSpec::None,
                    attack: "FGSM".to_owned(),
                    top5_accuracy: 0.5,
                },
            ],
        };
        let decoded = decode_grid_value(&encode_grid_value(&grid)).unwrap();
        assert_eq!(decoded, grid);

        let stage = (cells, grid);
        let decoded = decode_stage_value(&encode_stage_value(&stage)).unwrap();
        assert_eq!(decoded, stage);

        // Truncation anywhere is a typed error, and trailing garbage is
        // rejected rather than silently ignored.
        let bytes = encode_stage_value(&stage);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                decode_stage_value(&bytes[..cut]),
                Err(FademlError::Corrupt { .. })
            ));
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_stage_value(&padded),
            Err(FademlError::Corrupt { .. })
        ));
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

    #[test]
    fn fig5_resumable_reuses_completed_stages() {
        let path = ledger_file("fig5");
        let first = run_fig5_resumable(prepared(), &cheap_params(), &path).unwrap();
        assert_eq!(first.stages_total, 5);
        assert_eq!(first.stages_reused, 0);
        assert_eq!(first.result.cells.len(), 15);

        let second = run_fig5_resumable(prepared(), &cheap_params(), &path).unwrap();
        assert_eq!(second.stages_reused, 5);
        assert_eq!(second.result.cells, first.result.cells);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn killed_sweep_restarts_at_first_incomplete_stage() {
        let path = ledger_file("fig5_kill");
        let reference = run_fig5_resumable(prepared(), &cheap_params(), &path).unwrap();

        // Simulate a kill partway through: chop the journal mid-record.
        let bytes = fs::read(&path).unwrap();
        atomic_write(&path, &bytes[..bytes.len() * 3 / 5]).unwrap();

        let resumed = run_fig5_resumable(prepared(), &cheap_params(), &path).unwrap();
        assert!(
            resumed.stages_reused >= 1 && resumed.stages_reused < 5,
            "truncation should leave a partial ledger, reused {}",
            resumed.stages_reused
        );
        // The attacks are deterministic under TM-III, so the resumed
        // sweep reproduces the uninterrupted result exactly.
        assert_eq!(resumed.result.cells, reference.result.cells);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fig6_and_fig7_resumable_reuse() {
        let path6 = ledger_file("fig6");
        let first = run_fig6_resumable(prepared(), &cheap_params(), 3, &path6).unwrap();
        assert_eq!(first.stages_reused, 0);
        let second = run_fig6_resumable(prepared(), &cheap_params(), 3, &path6).unwrap();
        assert_eq!(second.stages_reused, 5);
        assert_eq!(second.result.grids, first.result.grids);
        let _ = fs::remove_file(&path6);

        let filters = [FilterSpec::None, FilterSpec::Lap { np: 8 }];
        let path7 = ledger_file("fig7");
        assert!(run_fig7_resumable(
            prepared(),
            &cheap_params(),
            &filters,
            3,
            ThreatModel::I,
            &path7
        )
        .is_err());
        let first = run_fig7_resumable(
            prepared(),
            &cheap_params(),
            &filters,
            3,
            ThreatModel::III,
            &path7,
        )
        .unwrap();
        assert_eq!(first.stages_reused, 0);
        assert_eq!(first.result.cells.len(), 5 * 3 * filters.len());
        let second = run_fig7_resumable(
            prepared(),
            &cheap_params(),
            &filters,
            3,
            ThreatModel::III,
            &path7,
        )
        .unwrap();
        assert_eq!(second.stages_reused, 5);
        assert_eq!(second.result.cells, first.result.cells);
        assert_eq!(second.result.grids, first.result.grids);
        let _ = fs::remove_file(&path7);
    }

    /// Keeps the magic and the first `stages` records of a ledger, as
    /// a kill right after the `stages`-th append would.
    fn truncate_after(path: &Path, stages: usize) {
        let bytes = fs::read(path).unwrap();
        let mut keep = MAGIC.len();
        for _ in 0..stages {
            let len = u32::from_le_bytes(bytes[keep..keep + 4].try_into().unwrap()) as usize;
            keep += 4 + len + 4;
        }
        atomic_write(path, &bytes[..keep]).unwrap();
    }

    /// From an empty ledger, then from one cut after two stages, the
    /// resumable driver returns exactly the plain driver's result.
    fn assert_resumes_to(
        tag: &str,
        want: (&[ScenarioCell], &[AccuracyGrid]),
        resumable: impl Fn(&Path) -> (usize, Vec<ScenarioCell>, Vec<AccuracyGrid>),
    ) {
        let path = ledger_file(tag);
        for expect_reused in [0, 2] {
            let (reused, cells, grids) = resumable(&path);
            assert_eq!(reused, expect_reused);
            assert_eq!((&cells[..], &grids[..]), want);
            truncate_after(&path, 2);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resumable_grid_figures_equal_the_plain_drivers() {
        use super::super::{fig7, fig9};
        let filters = [FilterSpec::Lap { np: 8 }, FilterSpec::Lar { r: 2 }];
        let (p, params, threat) = (prepared(), cheap_params(), ThreatModel::III);

        let want = fig7::run(p, &params, &filters, 3, threat).unwrap();
        assert_resumes_to("fig7_eq", (&want.cells, &want.grids), |path| {
            let got = run_fig7_resumable(p, &params, &filters, 3, threat, path).unwrap();
            (got.stages_reused, got.result.cells, got.result.grids)
        });
        let want = fig9::run(p, &params, &filters, 3, threat).unwrap();
        assert_resumes_to("fig9_eq", (&want.cells, &want.grids), |path| {
            let got = run_fig9_resumable(p, &params, &filters, 3, threat, path).unwrap();
            (got.stages_reused, got.result.cells, got.result.grids)
        });
    }

    #[test]
    fn fig9_resumable_reuses() {
        let filters = [FilterSpec::Lap { np: 8 }];
        let path = ledger_file("fig9");
        let first = run_fig9_resumable(
            prepared(),
            &cheap_params(),
            &filters,
            2,
            ThreatModel::III,
            &path,
        )
        .unwrap();
        assert_eq!(first.stages_reused, 0);
        assert_eq!(first.result.cells.len(), 5 * 3);
        let second = run_fig9_resumable(
            prepared(),
            &cheap_params(),
            &filters,
            2,
            ThreatModel::III,
            &path,
        )
        .unwrap();
        assert_eq!(second.stages_reused, 5);
        assert_eq!(second.result.cells, first.result.cells);
        let _ = fs::remove_file(&path);
    }
}
