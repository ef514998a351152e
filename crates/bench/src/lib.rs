//! The reproduction: every file the `reproduce` binary writes into
//! `results/`, each rendered from one prepared victim.
//!
//! ```text
//! cargo run --release -p fademl-bench --bin reproduce
//! ```
//!
//! [`sections`] evaluates on the victim's whole test split with
//! `AttackParams::default()`, and runs the Fig. 7 and Fig. 9 grids once
//! each: `fig7.txt`, `fig9.txt` and `insights.txt` are all read off those
//! two results.

#![forbid(unsafe_code)]
// Discarded `Result`s, held to zero by clippy outside tests; an
// exemption is an `#[expect(lint, reason = …)]` on the smallest item
// that needs it (DESIGN.md §11).
#![warn(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        reason = "tests discard what they do not check"
    )
)]

use std::time::Instant;

use fademl::defense::{adversarial_fit, robust_accuracy, AdversarialTrainingConfig};
use fademl::experiments::fig7::Fig7Result;
use fademl::experiments::fig9::Fig9Result;
use fademl::experiments::{fig5, fig6, fig7, fig9, AttackParams};
use fademl::insights::KeyInsights;
use fademl::report::{pct, Table};
use fademl::setup::{ExperimentSetup, PreparedSetup};
use fademl::{InferencePipeline, Result, Scenario, ThreatModel};
use fademl_attacks::{
    Attack, AttackGoal, AttackSurface, Bim, CarliniWagner, DeepFool, EotPgd, Fademl, Fgsm, Jsma,
    LbfgsAttack, OnePixel, Zoo,
};
use fademl_data::{NoiseModel, CLASS_COUNT};
use fademl_filters::FilterSpec;
use fademl_nn::metrics::top1_accuracy;
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::Sequential;
use fademl_tensor::{Tensor, TensorRng};

/// One file of `results/`: `<name>.txt` holds `text`.
#[derive(Debug)]
pub struct Section {
    /// File stem.
    pub name: &'static str,
    /// File contents.
    pub text: String,
}

/// Renders all ten sections for the victim `setup` prepared, in file
/// order: fig5, fig6, fig7, fig9, insights, model_info, attack_zoo, hump,
/// hardening, tm2_eot. Each section's wall time goes to stderr.
///
/// # Errors
///
/// Propagates the first experiment error.
pub fn sections(setup: &ExperimentSetup, prepared: &PreparedSetup) -> Result<Vec<Section>> {
    let params = AttackParams::default();
    let filters = FilterSpec::paper_sweep();
    let eval_n = prepared.test.len();
    let mut out = vec![
        section("fig5", || fig5_text(prepared, &params))?,
        section("fig6", || fig6_text(prepared, &params, eval_n))?,
    ];
    let started = Instant::now();
    let blind = fig7::run(prepared, &params, &filters, eval_n, ThreatModel::III)?;
    let aware = fig9::run(prepared, &params, &filters, eval_n, ThreatModel::III)?;
    eprintln!(
        "[reproduce] Fig. 7 and Fig. 9 grids: {:.1} s",
        started.elapsed().as_secs_f64()
    );
    out.extend([
        section("fig7", || Ok(fig7_text(&blind, &filters)))?,
        section("fig9", || Ok(fig9_text(&aware, &blind, &filters)))?,
        section("insights", || insights_text(&blind, &aware))?,
        section("model_info", model_info_text)?,
        section("attack_zoo", || attack_zoo_text(prepared))?,
        section("hump", || hump_text(prepared, &params))?,
        section("hardening", || hardening_text(setup, prepared))?,
        section("tm2_eot", || tm2_eot_text(prepared))?,
    ]);
    Ok(out)
}

/// Renders one section, reporting its wall time on stderr.
fn section(name: &'static str, render: impl FnOnce() -> Result<String>) -> Result<Section> {
    let started = Instant::now();
    let text = render()?;
    eprintln!(
        "[reproduce] {name}: {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(Section { name, text })
}

/// **Fig. 5**: targeted misclassification under Threat Model I.
fn fig5_text(prepared: &PreparedSetup, params: &AttackParams) -> Result<String> {
    let result = fig5::run(prepared, params)?;
    Ok(format!(
        "{}\nTM-I targeted success rate: {:.0}% of {} (attack, scenario) cells\n\
         (paper: all 15 cells succeed with high confidence)\n",
        result.table(),
        result.success_rate() * 100.0,
        result.cells.len()
    ))
}

/// **Fig. 6**: top-5 accuracy, clean vs under each attack, no filter.
fn fig6_text(prepared: &PreparedSetup, params: &AttackParams, eval_n: usize) -> Result<String> {
    let table = fig6::run(prepared, params, eval_n)?.table();
    Ok(format!(
        "{table}\n(paper: attacks cost up to ~10 points of top-5 accuracy)\n"
    ))
}

/// A grid figure's five per-scenario verdict and accuracy tables.
fn scenario_tables(tables: impl Fn(usize) -> [Table; 2]) -> String {
    (1..=5)
        .map(tables)
        .map(|[verdicts, accuracy]| format!("{verdicts}\n{accuracy}\n"))
        .collect()
}

/// **Fig. 7**: the LAP/LAR filters neutralize the classical attacks.
fn fig7_text(blind: &Fig7Result, filters: &[FilterSpec]) -> String {
    format!(
        "{}filtered (TM-II/III) targeted success rate of the classical attacks: {:.0}%\n\
         (paper: the smoothing filters nullify all three attacks)\n",
        scenario_tables(|sid| [
            blind.scenario_table(sid, filters),
            blind.accuracy_table(sid, filters)
        ]),
        blind.filtered_success_rate() * 100.0
    )
}

/// **Fig. 9**: FAdeML survives the same filters, next to the blind rate
/// of Fig. 7 (the success rate counts filtered cells only, so it is
/// the same figure over the same sweep).
fn fig9_text(aware: &Fig9Result, blind: &Fig7Result, filters: &[FilterSpec]) -> String {
    format!(
        "{}filtered (TM-II/III) targeted success rate of FAdeML: {:.0}%\n\
         for comparison, blind classical attacks through the same filters: {:.0}%\n\
         (paper: FAdeML forces misclassification even after smoothing)\n",
        scenario_tables(|sid| [
            aware.scenario_table(sid, filters),
            aware.accuracy_table(sid, filters)
        ]),
        aware.filtered_success_rate() * 100.0,
        blind.filtered_success_rate() * 100.0
    )
}

/// The three Key Insights (§III-C / §IV-B), every accuracy row's peak
/// with ties listed as ties, and a verdict on each shape claim.
fn insights_text(blind: &Fig7Result, aware: &Fig9Result) -> Result<String> {
    let insights = KeyInsights::derive(blind, aware)?;
    let header = [
        "Fig. 7 row",
        "LAP peak (np)",
        "over weakest",
        "over strongest",
        "LAR peak (r)",
        "over weakest",
        "over strongest",
    ];
    let mut peaks = Table::new(
        "insight 2 — where each attacked top-5 row peaks (ties listed; margins in points)",
        header.map(str::to_owned).to_vec(),
    );
    let points = |margin: f32| format!("{:+.1}", margin * 100.0);
    for (lap, lar) in insights.lap_peaks.iter().zip(&insights.lar_peaks) {
        peaks.push_row(vec![
            format!("S{} {}", lap.scenario_id, lap.attack),
            lap.peak.to_string(),
            points(lap.peak.over_weakest),
            points(lap.peak.over_strongest),
            lar.peak.to_string(),
            points(lar.peak.over_weakest),
            points(lar.peak.over_strongest),
        ]);
    }
    let mut claims = Table::new(
        "shape claims (EXPERIMENTS.md)",
        vec!["Claim".into(), "Verdict".into(), "Evidence".into()],
    );
    for claim in insights.claims() {
        let verdict = claim.verdict().to_owned();
        claims.push_row(vec![claim.statement, verdict, claim.evidence]);
    }
    Ok(format!(
        "## Key Insights (paper §III-C / §IV-B)\n{}\n\n\
         insight 1 (filters neutralize gradient attacks): blind filtered success = {:.0}%\n\
         insight 1b (confidence still suffers): mean confidence drop = {:+.1} points\n\
         insight 2 (interior accuracy optimum; paper: LAP 32, LAR 3-4): peaks below\n\
         insight 3 (model the preprocessing!): FAdeML filtered success = {:.0}%\n\n\
         {peaks}\n{claims}",
        insights.summary(),
        insights.blind_filtered_success * 100.0,
        insights.mean_confidence_drop * 100.0,
        insights.fademl_filtered_success * 100.0,
    ))
}

/// The victim architectures (paper Fig. 4 and the experiment profiles)
/// with layer-by-layer parameter counts.
fn model_info_text() -> Result<String> {
    let mut out = String::new();
    for (label, config) in [
        (
            "Paper profile (Fig. 4: Conv1(64)…Conv5(512) + FC)",
            VggConfig::new(VggProfile::Paper, 3, 32, CLASS_COUNT),
        ),
        (
            "Compact profile (experiment default)",
            VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT),
        ),
        (
            "Tiny profile (unit tests)",
            VggConfig::tiny(3, 16, CLASS_COUNT),
        ),
    ] {
        let model = config.build(&mut TensorRng::seed_from_u64(0))?;
        let (channels, size) = (config.in_channels, config.input_size);
        let summary = model.summary();
        out.push_str(&format!(
            "## {label}\ninput: {channels}x{size}x{size}\n{summary}\n\n"
        ));
    }
    Ok(out)
}

/// Every attack of the library head to head on scenario 1, on the bare
/// DNN and through a deployed LAP(16).
fn attack_zoo_text(prepared: &PreparedSetup) -> Result<String> {
    let scenario = Scenario::paper_scenarios()[0];
    let source = prepared.test.first_of_class(scenario.source)?;
    let filter = FilterSpec::Lap { np: 16 };
    let pipeline = InferencePipeline::new(prepared.model.clone(), filter)?;

    let goal = scenario.goal();
    // DeepFool is untargeted by construction.
    let untargeted = AttackGoal::Untargeted {
        source: scenario.source.index(),
    };
    let attacks: Vec<(&str, Box<dyn Attack>, AttackGoal)> = vec![
        ("L-BFGS", Box::new(LbfgsAttack::new(0.02, 20)?), goal),
        ("FGSM", Box::new(Fgsm::new(0.08)?), goal),
        ("BIM", Box::new(Bim::new(0.08, 0.015, 12)?), goal),
        ("C&W", Box::new(CarliniWagner::standard()), goal),
        ("DeepFool", Box::new(DeepFool::standard()), untargeted),
        ("JSMA", Box::new(Jsma::standard()), goal),
        (
            "OnePixel(k=5)",
            Box::new(OnePixel::new(5, 30, 20, 7)?),
            goal,
        ),
        ("ZOO", Box::new(Zoo::new(60, 48, 1e-2, 5e-2, 7)?), goal),
    ];

    let header = [
        "Attack",
        "Goal met (TM-I)",
        "Verdict thru filter",
        "L∞",
        "L2",
        "Queries",
    ];
    let mut table = Table::new(
        format!("attack zoo — {scenario} (filter for TM-III column: {filter})"),
        header.map(str::to_owned).to_vec(),
    );
    for (label, attack, goal) in &attacks {
        let mut surface = AttackSurface::new(prepared.model.clone());
        let adv = attack.run(&mut surface, &source, *goal)?;
        let filtered = pipeline.classify(&adv.adversarial, ThreatModel::III)?;
        let (predicted, confidence) = (adv.predicted, adv.confidence * 100.0);
        table.push_row(vec![
            (*label).to_owned(),
            if adv.success_on_surface {
                format!("yes → {predicted} ({confidence:.0}%)")
            } else {
                format!("no ({predicted} @ {confidence:.0}%)")
            },
            format!("{} ({:.0}%)", filtered.class, filtered.confidence * 100.0),
            format!("{:.3}", adv.noise_linf()),
            format!("{:.2}", adv.noise_l2()),
            adv.queries.to_string(),
        ]);
    }
    let (source, target) = (scenario.source, scenario.target);
    Ok(format!(
        "{table}\n(class {} = source \"{}\", class {} = target \"{}\")\n",
        source.index(),
        source.info().name,
        target.index(),
        target.info().name
    ))
}

/// The fine filter-strength sweep behind insight 2: LAP over
/// np ∈ {1..80} and LAR over r ∈ {1..8}, on clean test images and on
/// the same images carrying scenario 1's BIM noise (the Fig. 7
/// accuracy-series construction).
fn hump_text(prepared: &PreparedSetup, params: &AttackParams) -> Result<String> {
    let clean = &prepared.test;
    let scenario = Scenario::paper_scenarios()[0];
    let source = clean.first_of_class(scenario.source)?;
    let mut surface = AttackSurface::new(prepared.model.clone());
    let bim = Bim::new(params.epsilon, params.bim_alpha, params.bim_iterations)?;
    let noise = bim.run(&mut surface, &source, scenario.goal())?.noise;
    // `[N, C, H, W] + [C, H, W]`: the noise broadcasts over the batch.
    let attacked = clean.images().add(&noise)?.clamp(0.0, 1.0);

    let lap_sweep = [1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80].map(|np| FilterSpec::Lap { np });
    let lar_sweep = [1, 2, 3, 4, 5, 6, 7, 8].map(|r| FilterSpec::Lar { r });
    let mut out = String::new();
    for (family, sweep) in [("LAP(np)", &lap_sweep[..]), ("LAR(r)", &lar_sweep[..])] {
        let filters: Vec<FilterSpec> = std::iter::once(FilterSpec::None)
            .chain(sweep.iter().copied())
            .collect();
        let mut header = vec!["Input".to_owned()];
        header.extend(filters.iter().map(FilterSpec::to_string));
        let n = clean.len();
        let title = format!("hump sweep over {family} — top-5 accuracy, {n} images, TM-III");
        let mut table = Table::new(title, header);
        for (label, images) in [("clean", clean.images()), ("BIM-attacked", &attacked)] {
            let mut row = vec![label.to_owned()];
            for &spec in &filters {
                let pipeline = InferencePipeline::new(prepared.model.clone(), spec)?;
                let acc = pipeline.top_k_accuracy(images, clean.labels(), ThreatModel::III, 5)?;
                row.push(pct(acc));
            }
            table.push_row(row);
        }
        out.push_str(&format!("{table}\n"));
    }
    out.push_str(
        "(paper insight 2: accuracy rises with smoothing to an interior optimum, then falls)\n",
    );
    Ok(out)
}

/// Each paper scenario's adversarial example, crafted by `attack`
/// through `filter ∘ model`, paired with the scenario's target class.
fn craft_through(
    prepared: &PreparedSetup,
    model: &Sequential,
    filter: FilterSpec,
    attack: &dyn Attack,
) -> Result<Vec<(Tensor, usize)>> {
    Scenario::paper_scenarios()
        .iter()
        .map(|scenario| {
            let source = prepared.test.first_of_class(scenario.source)?;
            let mut surface = AttackSurface::with_filter(model.clone(), filter.build()?);
            let adv = attack.run(&mut surface, &source, scenario.goal())?;
            Ok((adv.adversarial, scenario.target.index()))
        })
        .collect()
}

/// The fraction of `crafted` examples `pipeline` reports as their
/// target under `threat`.
fn hit_rate(
    pipeline: &InferencePipeline,
    crafted: &[(Tensor, usize)],
    threat: ThreatModel,
) -> Result<f32> {
    let mut hits = 0usize;
    for (adversarial, target) in crafted {
        if pipeline.classify(adversarial, threat)?.class == *target {
            hits += 1;
        }
    }
    Ok(hits as f32 / crafted.len() as f32)
}

/// FAdeML[BIM], the attack `hardening` and `tm2_eot` pit against LAP(8).
fn fademl_bim() -> Result<Fademl> {
    Ok(Fademl::new(Box::new(Bim::new(0.12, 0.02, 12)?), 2, 1.0)?)
}

/// Training-time hardening against the attacks the filter cannot stop:
/// the victim next to an FGSM-adversarially trained twin built and
/// trained from the same `setup`.
fn hardening_text(setup: &ExperimentSetup, prepared: &PreparedSetup) -> Result<String> {
    let epsilon = 0.05f32;
    let mut hardened = setup.vgg.build(&mut TensorRng::seed_from_u64(setup.seed))?;
    let config = AdversarialTrainingConfig {
        base: setup.train.clone(),
        epsilon,
        adversarial_fraction: 0.5,
    };
    let train = &prepared.train;
    adversarial_fit(&mut hardened, train.images(), train.labels(), &config)?;

    let filter = FilterSpec::Lap { np: 8 };
    let header = [
        "Victim",
        "Clean top-1",
        "FGSM robust top-1",
        "FAdeML success thru filter",
    ];
    let mut table = Table::new(
        format!("training-time hardening vs attacks (FGSM ε = {epsilon}, filter {filter})"),
        header.map(str::to_owned).to_vec(),
    );
    let (images, labels) = (prepared.test.images(), prepared.test.labels());
    for (label, model) in [
        ("plain", &prepared.model),
        ("adversarially trained", &hardened),
    ] {
        let clean = top1_accuracy(model, images, labels)?;
        let robust = robust_accuracy(model, images, labels, epsilon)?;
        let crafted = craft_through(prepared, model, filter, &fademl_bim()?)?;
        let pipeline = InferencePipeline::new(model.clone(), filter)?;
        let fademl = hit_rate(&pipeline, &crafted, ThreatModel::III)?;
        table.push_row(vec![label.to_owned(), pct(clean), pct(robust), pct(fademl)]);
    }
    Ok(format!(
        "{table}\n\
         (the paper's conclusion: filters alone are not enough — this quantifies how far\n \
         training-time hardening closes the gap, and what it costs in clean accuracy)\n"
    ))
}

/// Threat Model II: the pipeline re-acquires the adversarial image with
/// fresh sensor noise. A deterministic filter-aware attack
/// (FAdeML[BIM]) against an expectation-aware one (FAdeML[EOT-PGD]),
/// evaluated deterministically (TM-III) and re-acquired (TM-II).
fn tm2_eot_text(prepared: &PreparedSetup) -> Result<String> {
    let filter = FilterSpec::Lap { np: 8 };
    // A noticeably noisy sensor makes the TM-II/TM-III contrast visible.
    let sensor = NoiseModel {
        gaussian_std: 0.08,
        salt_pepper_prob: 0.01,
    };
    let model = &prepared.model;
    let pipeline = InferencePipeline::new(model.clone(), filter)?.with_acquisition_noise(sensor);
    let eot = EotPgd::new(0.12, 0.02, 12, sensor.gaussian_std, 4, 11)?;
    let attacks = [
        ("FAdeML[BIM]", fademl_bim()?),
        ("FAdeML[EOT-PGD]", Fademl::new(Box::new(eot), 2, 1.0)?),
    ];

    let sigma = sensor.gaussian_std;
    let mut table = Table::new(
        format!(
            "TM-II robustness — targeted success over 5 scenarios (filter {filter}, sensor sigma {sigma})"
        ),
        vec![
            "Attack".into(),
            "TM-III (deterministic)".into(),
            "TM-II (re-acquired, noisy)".into(),
        ],
    );
    for (label, attack) in &attacks {
        let crafted = craft_through(prepared, model, filter, attack)?;
        table.push_row(vec![
            (*label).to_owned(),
            pct(hit_rate(&pipeline, &crafted, ThreatModel::III)?),
            pct(hit_rate(&pipeline, &crafted, ThreatModel::II)?),
        ]);
    }
    Ok(format!(
        "{table}\n\
         (EOT marginalizes the sensor noise inside the attack loop — the standard upgrade\n \
         when the deployed pipeline is randomized rather than deterministic)\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl::setup::SetupProfile;

    /// The rate a `<prefix>N%` line of `text` reports.
    fn rate_after<'a>(text: &'a str, prefix: &str) -> &'a str {
        let line = text
            .lines()
            .find_map(|line| line.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no line starting {prefix:?} in\n{text}"));
        line.trim_end_matches('%')
    }

    #[test]
    fn every_section_renders_on_the_smoke_victim() {
        let setup = ExperimentSetup::profile(SetupProfile::Smoke);
        let prepared = setup.prepare().unwrap();
        // The hardened twin is the only thing `setup` builds here; two
        // epochs render its table as well as twelve, in a sixth of the time.
        let mut twin = setup.clone();
        twin.train.epochs = 2;
        let sections = sections(&twin, &prepared).unwrap();
        let titles = [
            ("fig5", "## Fig. 5 — "),
            ("fig6", "## Fig. 6 — "),
            ("fig7", "## Fig. 7 — scenario 1"),
            ("fig9", "## Fig. 9 — scenario 1"),
            ("insights", "## Key Insights"),
            ("model_info", "## Paper profile"),
            ("attack_zoo", "## attack zoo — "),
            ("hump", "## hump sweep over LAP(np)"),
            ("hardening", "## training-time hardening"),
            ("tm2_eot", "## TM-II robustness"),
        ];
        let names: Vec<&str> = sections.iter().map(|s| s.name).collect();
        assert_eq!(names, titles.map(|(name, _)| name));
        for (section, (name, title)) in sections.iter().zip(titles) {
            assert!(
                section.text.starts_with(title) && section.text.lines().count() > 3,
                "{name} is untitled or empty:\n{}",
                section.text
            );
        }

        // fig9's blind comparison line is fig7's own rate.
        let text = |name: &str| &sections.iter().find(|s| s.name == name).unwrap().text;
        let blind = rate_after(
            text("fig7"),
            "filtered (TM-II/III) targeted success rate of the classical attacks: ",
        );
        let compared = rate_after(
            text("fig9"),
            "for comparison, blind classical attacks through the same filters: ",
        );
        assert_eq!(compared, blind);
        let verdicts = text("insights")
            .lines()
            .filter(|line| line.contains("| held ") || line.contains("| not held "))
            .count();
        assert_eq!(verdicts, 3, "{}", text("insights"));
    }
}
