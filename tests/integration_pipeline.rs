//! End-to-end pipeline integration: SynSign-43 → trained VGG → deployed
//! filter pipeline, across the three threat models.

use std::sync::OnceLock;

use fademl::setup::{ExperimentSetup, PreparedSetup, SetupProfile};
use fademl::{InferencePipeline, ThreatModel};
use fademl_data::{ClassId, NoiseModel};
use fademl_filters::FilterSpec;
use fademl_nn::metrics::{top1_accuracy, top5_accuracy};

fn prepared() -> &'static PreparedSetup {
    static CELL: OnceLock<PreparedSetup> = OnceLock::new();
    CELL.get_or_init(|| {
        ExperimentSetup::profile(SetupProfile::Smoke)
            .prepare()
            .expect("smoke setup trains")
    })
}

#[test]
fn victim_learns_the_synthetic_dataset() {
    let p = prepared();
    assert!(
        p.train_accuracy > 0.7,
        "train accuracy only {:.1}%",
        p.train_accuracy * 100.0
    );
    let top1 = top1_accuracy(&p.model, p.test.images(), p.test.labels()).unwrap();
    let top5 = top5_accuracy(&p.model, p.test.images(), p.test.labels()).unwrap();
    assert!(top1 > 0.4, "test top-1 only {:.1}%", top1 * 100.0);
    assert!(top5 > 0.7, "test top-5 only {:.1}%", top5 * 100.0);
    assert!(top5 >= top1);
}

#[test]
fn unfiltered_pipeline_matches_raw_model() {
    let p = prepared();
    let pipeline = InferencePipeline::new(p.model.clone(), FilterSpec::None).unwrap();
    let acc_pipeline = pipeline
        .top_k_accuracy(p.test.images(), p.test.labels(), ThreatModel::I, 5)
        .unwrap();
    let acc_model = top5_accuracy(&p.model, p.test.images(), p.test.labels()).unwrap();
    assert!((acc_pipeline - acc_model).abs() < 1e-6);
}

#[test]
fn mild_filter_keeps_clean_accuracy_usable() {
    // The defense must not destroy clean behaviour — the precondition
    // for the paper's whole premise.
    let p = prepared();
    let none = InferencePipeline::new(p.model.clone(), FilterSpec::None).unwrap();
    let lap8 = InferencePipeline::new(p.model.clone(), FilterSpec::Lap { np: 8 }).unwrap();
    let base = none
        .top_k_accuracy(p.test.images(), p.test.labels(), ThreatModel::III, 5)
        .unwrap();
    let filtered = lap8
        .top_k_accuracy(p.test.images(), p.test.labels(), ThreatModel::III, 5)
        .unwrap();
    assert!(
        filtered > base - 0.25,
        "LAP(8) destroyed clean accuracy: {base:.2} → {filtered:.2}"
    );
}

#[test]
fn heavy_filter_hurts_more_than_mild_filter() {
    // The falling flank of the paper's hump: LAP(64) on a 16×16 image
    // averages away the glyphs.
    let p = prepared();
    let mild = InferencePipeline::new(p.model.clone(), FilterSpec::Lap { np: 4 }).unwrap();
    let heavy = InferencePipeline::new(p.model.clone(), FilterSpec::Lap { np: 64 }).unwrap();
    let acc_mild = mild
        .top_k_accuracy(p.test.images(), p.test.labels(), ThreatModel::III, 5)
        .unwrap();
    let acc_heavy = heavy
        .top_k_accuracy(p.test.images(), p.test.labels(), ThreatModel::III, 5)
        .unwrap();
    assert!(
        acc_heavy <= acc_mild,
        "LAP(64) ({acc_heavy:.2}) should not beat LAP(4) ({acc_mild:.2})"
    );
}

#[test]
fn threat_models_stage_differently() {
    let p = prepared();
    let pipeline = InferencePipeline::new(p.model.clone(), FilterSpec::Lap { np: 8 }).unwrap();
    let image = p.test.first_of_class(ClassId::STOP).unwrap();
    let image = image.unsqueeze_batch();
    let stage = |threat| pipeline.stage_input_batch(&image, threat).unwrap();
    let (tm1, tm2, tm3) = (
        stage(ThreatModel::I),
        stage(ThreatModel::II),
        stage(ThreatModel::III),
    );
    assert_eq!(tm1, image);
    assert_ne!(tm2, tm3);
    assert_ne!(tm3, image);
}

#[test]
fn acquisition_noise_is_configurable() {
    let p = prepared();
    let pipeline = InferencePipeline::new(p.model.clone(), FilterSpec::Lap { np: 8 })
        .unwrap()
        .with_acquisition_noise(NoiseModel::none());
    let image = p.test.first_of_class(ClassId::STOP).unwrap();
    let image = image.unsqueeze_batch();
    let stage = |threat| pipeline.stage_input_batch(&image, threat).unwrap();
    // With no acquisition noise, TM-II and TM-III coincide.
    assert_eq!(stage(ThreatModel::II), stage(ThreatModel::III));
}

#[test]
fn verdicts_are_deterministic() {
    let p = prepared();
    let pipeline = InferencePipeline::new(p.model.clone(), FilterSpec::Lar { r: 2 }).unwrap();
    let image = p.test.first_of_class(ClassId::SPEED_30).unwrap();
    for threat in ThreatModel::ALL {
        let a = pipeline.classify(&image, threat).unwrap();
        let b = pipeline.classify(&image, threat).unwrap();
        assert_eq!(a, b, "non-deterministic verdict under {threat}");
    }
}

#[test]
fn filtering_noisy_images_helps_when_model_saw_clean_features() {
    // The rising flank of the hump: add heavy extra sensor noise at
    // acquisition, and a smoothing filter should recover accuracy
    // relative to no filter.
    let p = prepared();
    let heavy_noise = NoiseModel {
        gaussian_std: 0.15,
        salt_pepper_prob: 0.05,
    };
    let none = InferencePipeline::new(p.model.clone(), FilterSpec::None)
        .unwrap()
        .with_acquisition_noise(heavy_noise);
    let lar = InferencePipeline::new(p.model.clone(), FilterSpec::Lar { r: 1 })
        .unwrap()
        .with_acquisition_noise(heavy_noise);
    let images = p.test.images();
    let labels = p.test.labels();
    let acc_none = none
        .top_k_accuracy(images, labels, ThreatModel::II, 5)
        .unwrap();
    let acc_lar = lar
        .top_k_accuracy(images, labels, ThreatModel::II, 5)
        .unwrap();
    assert!(
        acc_lar >= acc_none - 0.05,
        "denoising filter should roughly help under heavy noise: none {acc_none:.2} vs LAR(1) {acc_lar:.2}"
    );
}
