//! Walks one adversarial image through the paper's three threat models
//! (Fig. 2), showing exactly which pipeline stages touch it and how the
//! verdict changes.
//!
//! ```text
//! cargo run --release --example threat_models
//! ```

use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl::{InferencePipeline, Scenario, ThreatModel};
use fademl_attacks::{Attack, AttackSurface, Fgsm};
use fademl_data::ClassId;
use fademl_filters::FilterSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prepared = ExperimentSetup::profile(SetupProfile::Smoke).prepare()?;
    let pipeline = InferencePipeline::new(prepared.model.clone(), FilterSpec::Lap { np: 8 })?;

    let scenario = Scenario::paper_scenarios()[4]; // no entry → 60 km/h
    let source = prepared.test.first_of_class(scenario.source)?;
    println!("scenario: {scenario}");
    println!("deployed filter: {}\n", pipeline.filter_spec());

    // Craft an adversarial example against the bare DNN.
    let fgsm = Fgsm::new(0.10)?;
    let mut surface = AttackSurface::new(prepared.model.clone());
    let adv = fgsm.run(&mut surface, &source, scenario.goal())?;
    println!(
        "crafted noise: L∞ = {:.3} (visually imperceptible at this scale)\n",
        adv.noise_linf()
    );

    for threat in ThreatModel::ALL {
        let frame = adv.adversarial.unsqueeze_batch();
        let staged = pipeline.stage_input_batch(&frame, threat)?;
        let verdict = pipeline.classify(&adv.adversarial, threat)?;
        let stages = match threat {
            ThreatModel::I => "buffer → DNN (filter bypassed)",
            ThreatModel::II => "sensor (noise!) → filter → buffer → DNN",
            ThreatModel::III => "filter → buffer → DNN",
        };
        let delta = staged.sub(&frame)?.norm_l2();
        println!("{threat}: {stages}");
        println!(
            "  pipeline altered the image by ‖Δ‖₂ = {delta:.3}; verdict: {} ({:.1}%){}",
            name(verdict.class),
            verdict.confidence * 100.0,
            if verdict.class == scenario.target.index() {
                "  ← attack succeeded"
            } else if verdict.class == scenario.source.index() {
                "  ← true class recovered"
            } else {
                ""
            }
        );
    }
    Ok(())
}

fn name(class: usize) -> String {
    ClassId::new(class)
        .map(|c| c.info().name.to_owned())
        .unwrap_or_else(|_| format!("class {class}"))
}
