//! Attack-efficacy integration tests on a trained victim: the paper's
//! qualitative claims, end to end.

use std::sync::OnceLock;

use fademl::setup::{ExperimentSetup, PreparedSetup, SetupProfile};
use fademl::{InferencePipeline, Scenario, ThreatModel};
use fademl_attacks::{
    Attack, AttackGoal, AttackSurface, Bim, Fademl, Fgsm, ImperceptibilityReport, LbfgsAttack,
};
use fademl_filters::FilterSpec;

fn prepared() -> &'static PreparedSetup {
    static CELL: OnceLock<PreparedSetup> = OnceLock::new();
    CELL.get_or_init(|| {
        ExperimentSetup::profile(SetupProfile::Smoke)
            .prepare()
            .expect("smoke setup trains")
    })
}

fn attack_library() -> Vec<(&'static str, Box<dyn Attack>)> {
    vec![
        ("L-BFGS", Box::new(LbfgsAttack::new(0.01, 20).unwrap())),
        ("FGSM", Box::new(Fgsm::new(0.12).unwrap())),
        ("BIM", Box::new(Bim::new(0.12, 0.02, 12).unwrap())),
    ]
}

#[test]
fn every_attack_flips_some_scenario_on_the_bare_dnn() {
    // The Fig. 5 claim, smoke-sized: on the unfiltered surface each
    // library attack achieves at least one targeted scenario.
    let p = prepared();
    for (label, attack) in attack_library() {
        let mut successes = 0;
        for scenario in Scenario::paper_scenarios() {
            let source = p.test.first_of_class(scenario.source).unwrap();
            let mut surface = AttackSurface::new(p.model.clone());
            let adv = attack.run(&mut surface, &source, scenario.goal()).unwrap();
            if adv.success_on_surface {
                successes += 1;
            }
        }
        assert!(
            successes >= 1,
            "{label} failed every scenario even without a filter"
        );
    }
}

#[test]
fn adversarial_noise_is_imperceptible_by_psnr() {
    let p = prepared();
    let scenario = Scenario::paper_scenarios()[0];
    let source = p.test.first_of_class(scenario.source).unwrap();
    let mut surface = AttackSurface::new(p.model.clone());
    let adv = Fgsm::new(0.05)
        .unwrap()
        .run(&mut surface, &source, scenario.goal())
        .unwrap();
    let report = ImperceptibilityReport::between(&source, &adv.adversarial).unwrap();
    assert!(report.psnr_db > 25.0, "PSNR only {:.1} dB", report.psnr_db);
    assert!(
        report.correlation > 0.9,
        "correlation only {:.3}",
        report.correlation
    );
}

#[test]
fn filters_neutralize_blind_attacks_more_than_they_pass() {
    // Fig. 7's claim: counted over attacks × scenarios, the filtered
    // pipeline flips fewer cells to the target than the bare DNN.
    let p = prepared();
    let pipeline = InferencePipeline::new(p.model.clone(), FilterSpec::Lap { np: 16 }).unwrap();
    let mut tm1_successes = 0;
    let mut filtered_successes = 0;
    for (_, attack) in attack_library() {
        for scenario in Scenario::paper_scenarios() {
            let source = p.test.first_of_class(scenario.source).unwrap();
            let mut surface = AttackSurface::new(p.model.clone());
            let adv = attack.run(&mut surface, &source, scenario.goal()).unwrap();
            let tm1 = pipeline.classify(&adv.adversarial, ThreatModel::I).unwrap();
            let tm3 = pipeline
                .classify(&adv.adversarial, ThreatModel::III)
                .unwrap();
            if tm1.class == scenario.target.index() {
                tm1_successes += 1;
            }
            if tm3.class == scenario.target.index() {
                filtered_successes += 1;
            }
        }
    }
    assert!(
        filtered_successes < tm1_successes,
        "filter neutralized nothing: {filtered_successes} vs {tm1_successes} TM-I successes"
    );
}

#[test]
fn fademl_survives_the_filter_better_than_blind_crafting() {
    // The paper's central quantitative claim, measured as targeted loss
    // through the deployed (filtered) pipeline, aggregated over all
    // five scenarios.
    let p = prepared();
    let filter = FilterSpec::Lap { np: 8 };
    let mut blind_total = 0.0f32;
    let mut aware_total = 0.0f32;
    for scenario in Scenario::paper_scenarios() {
        let source = p.test.first_of_class(scenario.source).unwrap();
        let goal = scenario.goal();

        let bim = Bim::new(0.12, 0.02, 10).unwrap();
        let mut bare = AttackSurface::new(p.model.clone());
        let blind = bim.run(&mut bare, &source, goal).unwrap();

        let fademl = Fademl::new(Box::new(Bim::new(0.12, 0.02, 10).unwrap()), 2, 1.0).unwrap();
        let mut aware_surface =
            AttackSurface::with_filter(p.model.clone(), filter.build().unwrap());
        let aware = fademl.run(&mut aware_surface, &source, goal).unwrap();

        let mut eval = AttackSurface::with_filter(p.model.clone(), filter.build().unwrap());
        let (blind_loss, _) = eval.loss_and_input_grad(&blind.adversarial, goal).unwrap();
        let (aware_loss, _) = eval.loss_and_input_grad(&aware.adversarial, goal).unwrap();
        blind_total += blind_loss;
        aware_total += aware_loss;
    }
    assert!(
        aware_total < blind_total,
        "FAdeML total filtered loss {aware_total:.3} not below blind {blind_total:.3}"
    );
}

#[test]
fn untargeted_attacks_reduce_accuracy() {
    // Fig. 6's mechanism, per-image: untargeted FGSM flips a decent
    // fraction of correctly-classified test images.
    let p = prepared();
    let mut surface = AttackSurface::new(p.model.clone());
    let n = 20.min(p.test.len());
    let mut correct_before = 0;
    let mut correct_after = 0;
    for i in 0..n {
        let (image, label) = p.test.sample(i).unwrap();
        let (pred, _) = surface.predict(&image).unwrap();
        if pred != label {
            continue;
        }
        correct_before += 1;
        let adv = Fgsm::new(0.12)
            .unwrap()
            .run(
                &mut surface,
                &image,
                AttackGoal::Untargeted { source: label },
            )
            .unwrap();
        let (pred_after, _) = surface.predict(&adv.adversarial).unwrap();
        if pred_after == label {
            correct_after += 1;
        }
    }
    assert!(correct_before > 0, "victim got nothing right");
    assert!(
        correct_after < correct_before,
        "untargeted FGSM flipped nothing ({correct_after}/{correct_before})"
    );
}

#[test]
fn extended_attack_library_produces_valid_examples() {
    // The paper's §II-B cites C&W ("CWI"), DeepFool, JSMA, ZOO and the
    // one-pixel attack; all are implemented as extensions. Each must
    // produce a valid image on the trained victim and move the model in
    // its goal's direction.
    use fademl_attacks::{CarliniWagner, DeepFool, Jsma, OnePixel, Zoo};
    let p = prepared();
    let scenario = Scenario::paper_scenarios()[0];
    let source = p.test.first_of_class(scenario.source).unwrap();
    let targeted = scenario.goal();
    let untargeted = AttackGoal::Untargeted {
        source: scenario.source.index(),
    };

    let attacks: Vec<(Box<dyn Attack>, AttackGoal)> = vec![
        (Box::new(CarliniWagner::standard()), targeted),
        (Box::new(DeepFool::standard()), untargeted),
        (Box::new(Jsma::standard()), targeted),
        (
            Box::new(Zoo::new(15, 24, 1e-2, 5e-2, 1).unwrap()),
            untargeted,
        ),
        (Box::new(OnePixel::new(3, 12, 6, 1).unwrap()), untargeted),
    ];
    for (attack, goal) in attacks {
        let mut surface = AttackSurface::new(p.model.clone());
        let adv = attack.run(&mut surface, &source, goal).unwrap();
        assert!(
            adv.adversarial.min().unwrap() >= 0.0
                && adv.adversarial.max().unwrap() <= 1.0
                && !adv.adversarial.has_non_finite(),
            "{} produced an invalid image",
            attack.name()
        );
    }
}

#[test]
fn gradient_free_attacks_also_die_at_the_filter() {
    // The paper's neutralization claim is about gradient noise, but the
    // deployed smoothing pipeline also blunts the sparse attacks: a
    // JSMA example that works on the bare DNN should no longer hit the
    // target through LAP(16) (isolated pixel spikes are exactly what a
    // local average erases).
    use fademl_attacks::Jsma;
    let p = prepared();
    let pipeline = InferencePipeline::new(p.model.clone(), FilterSpec::Lap { np: 16 }).unwrap();
    let scenario = Scenario::paper_scenarios()[0];
    let source = p.test.first_of_class(scenario.source).unwrap();
    let mut surface = AttackSurface::new(p.model.clone());
    let adv = Jsma::standard()
        .run(&mut surface, &source, scenario.goal())
        .unwrap();
    if adv.success_on_surface {
        let filtered = pipeline
            .classify(&adv.adversarial, ThreatModel::III)
            .unwrap();
        assert_ne!(
            filtered.class,
            scenario.target.index(),
            "sparse JSMA noise survived a LAP(16) average"
        );
    }
}

#[test]
fn universal_noise_erodes_accuracy_like_fig6() {
    // The universal-perturbation extension formalizes the Fig. 6
    // transfer mechanism: one shared noise pattern, optimized over a few
    // training images, erodes accuracy on the images it trained on.
    use fademl_attacks::UniversalPerturbation;
    use fademl_nn::metrics::top1_accuracy;
    use fademl_tensor::Tensor;
    let p = prepared();
    let scenario = Scenario::paper_scenarios()[0];
    let n = 10.min(p.test.len());
    let images: Vec<Tensor> = (0..n).map(|i| p.test.sample(i).unwrap().0).collect();
    let labels: Vec<usize> = (0..n).map(|i| p.test.sample(i).unwrap().1).collect();

    let mut surface = AttackSurface::new(p.model.clone());
    let up = UniversalPerturbation::new(0.1, 0.02, 3).unwrap();
    let outcome = up.craft(&mut surface, &images, scenario.goal()).unwrap();
    assert!(outcome.noise.norm_linf() <= 0.1 + 1e-6);

    let perturbed: Vec<Tensor> = images
        .iter()
        .map(|img| img.add(&outcome.noise).unwrap().clamp(0.0, 1.0))
        .collect();
    let clean_acc = top1_accuracy(&p.model, &Tensor::stack(&images).unwrap(), &labels).unwrap();
    let pert_acc = top1_accuracy(&p.model, &Tensor::stack(&perturbed).unwrap(), &labels).unwrap();
    assert!(
        pert_acc <= clean_acc,
        "universal noise should not improve accuracy: {clean_acc:.2} → {pert_acc:.2}"
    );
}

#[test]
fn attack_queries_are_accounted() {
    let p = prepared();
    let scenario = Scenario::paper_scenarios()[1];
    let source = p.test.first_of_class(scenario.source).unwrap();
    let mut surface = AttackSurface::new(p.model.clone());
    let adv = Bim::new(0.1, 0.02, 5)
        .unwrap()
        .run(&mut surface, &source, scenario.goal())
        .unwrap();
    // Each BIM iteration costs one gradient + one predict; plus the
    // final bookkeeping predict.
    assert!(adv.queries >= 2 * adv.iterations as u64);
}
