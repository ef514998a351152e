//! Smoke-scale runs of every figure experiment, asserting the *shape*
//! criteria from DESIGN.md §3.

use std::sync::OnceLock;

use fademl::experiments::{fig5, fig6, fig7, fig9, AttackParams};
use fademl::setup::{ExperimentSetup, PreparedSetup, SetupProfile};
use fademl::ThreatModel;
use fademl_filters::FilterSpec;

fn prepared() -> &'static PreparedSetup {
    static CELL: OnceLock<PreparedSetup> = OnceLock::new();
    CELL.get_or_init(|| {
        ExperimentSetup::profile(SetupProfile::Smoke)
            .prepare()
            .expect("smoke setup trains")
    })
}

fn params() -> AttackParams {
    AttackParams {
        epsilon: 0.15,
        bim_alpha: 0.03,
        bim_iterations: 6,
        lbfgs_c: 0.01,
        lbfgs_iterations: 8,
        fademl_rounds: 2,
        fademl_eta: 1.0,
    }
}

fn filters() -> Vec<FilterSpec> {
    vec![
        FilterSpec::None,
        FilterSpec::Lap { np: 8 },
        FilterSpec::Lar { r: 1 },
    ]
}

#[test]
fn e1_fig5_attacks_succeed_under_tm1() {
    let result = fig5::run(prepared(), &params()).unwrap();
    assert_eq!(result.cells.len(), 15);
    assert!(
        result.success_rate() > 0.5,
        "Fig. 5 shape violated: only {:.0}% of TM-I cells flipped",
        result.success_rate() * 100.0
    );
    assert!(!result.table().render().is_empty());
}

#[test]
fn e2_fig6_attacks_cost_accuracy() {
    // Larger eval sample + stronger budget than the other shape tests:
    // with few images the average is dominated by single borderline
    // samples that any perturbation can flip either way.
    let params = AttackParams {
        epsilon: 0.3,
        bim_alpha: 0.04,
        bim_iterations: 12,
        lbfgs_c: 0.005,
        lbfgs_iterations: 12,
        ..params()
    };
    let result = fig6::run(prepared(), &params, 60).unwrap();
    assert_eq!(result.grids.len(), 5);
    // Average attacked accuracy across all scenarios/attacks is below
    // the clean baseline (the paper reports an up-to-10-point drop).
    let clean: f32 = (1..=5)
        .filter_map(|sid| result.accuracy(sid, "No attack"))
        .sum::<f32>()
        / 5.0;
    let mut attacked = 0.0f32;
    let mut count = 0usize;
    for sid in 1..=5 {
        for a in AttackParams::labels() {
            if let Some(acc) = result.accuracy(sid, a) {
                attacked += acc;
                count += 1;
            }
        }
    }
    let attacked = attacked / count as f32;
    assert!(
        attacked < clean,
        "Fig. 6 shape violated: attacked {attacked:.2} ≥ clean {clean:.2}"
    );
}

#[test]
fn e3_fig7_filters_neutralize_blind_attacks() {
    let result = fig7::run(prepared(), &params(), &filters(), 6, ThreatModel::III).unwrap();
    // The per-scenario demonstration cells: with a filter deployed, the
    // blind attacks' success rate collapses relative to TM-I.
    let tm1_rate = result
        .cells
        .iter()
        .filter(|c| c.filter != FilterSpec::None)
        .filter(|c| c.success_tm1)
        .count() as f32;
    let tm23_rate = result
        .cells
        .iter()
        .filter(|c| c.filter != FilterSpec::None)
        .filter(|c| c.success_tm23)
        .count() as f32;
    assert!(
        tm23_rate <= tm1_rate,
        "Fig. 7 shape violated: filtered successes {tm23_rate} > TM-I successes {tm1_rate}"
    );
    // Accuracy grids exist for all scenarios and stay in range.
    assert_eq!(result.grids.len(), 5);
    for grid in &result.grids {
        for cell in &grid.cells {
            assert!((0.0..=1.0).contains(&cell.top5_accuracy));
        }
    }
}

#[test]
fn e4_fig9_fademl_survives_filters() {
    let p = prepared();
    let small_filters = vec![FilterSpec::Lap { np: 8 }, FilterSpec::Lar { r: 1 }];
    let blind = fig7::run(p, &params(), &small_filters, 4, ThreatModel::III).unwrap();
    let aware = fig9::run(p, &params(), &small_filters, 4, ThreatModel::III).unwrap();
    assert!(
        aware.filtered_success_rate() >= blind.filtered_success_rate(),
        "Fig. 9 shape violated: FAdeML {:.0}% < blind {:.0}%",
        aware.filtered_success_rate() * 100.0,
        blind.filtered_success_rate() * 100.0
    );
    // Tables render for every scenario.
    for sid in 1..=5 {
        assert!(!aware
            .scenario_table(sid, &small_filters)
            .render()
            .is_empty());
        assert!(!aware
            .accuracy_table(sid, &small_filters)
            .render()
            .is_empty());
    }
}

#[test]
fn key_insights_are_derivable_and_directionally_right() {
    use fademl::insights::KeyInsights;
    let p = prepared();
    let small_filters = vec![
        FilterSpec::Lap { np: 8 },
        FilterSpec::Lap { np: 32 },
        FilterSpec::Lar { r: 1 },
        FilterSpec::Lar { r: 3 },
    ];
    let blind = fig7::run(p, &params(), &small_filters, 4, ThreatModel::III).unwrap();
    let aware = fig9::run(p, &params(), &small_filters, 4, ThreatModel::III).unwrap();
    let insights = KeyInsights::derive(&blind, &aware).unwrap();
    // Insight 1: filters drive blind success towards zero.
    assert!(insights.blind_filtered_success < 0.5);
    // Insight 2 machinery produced peaks for every (scenario, attack),
    // each row's maximum among its own strengths.
    assert_eq!(insights.lap_peaks.len(), 15);
    assert_eq!(insights.lar_peaks.len(), 15);
    for row in insights.lap_peaks.iter().chain(&insights.lar_peaks) {
        assert!(!row.peak.params.is_empty());
        assert!(row.peak.over_weakest >= 0.0 && row.peak.over_strongest >= 0.0);
    }
    // Insight 3: filter awareness pays (or at worst ties).
    assert!(insights.fademl_filtered_success >= insights.blind_filtered_success);
    assert!(!insights.summary().is_empty());
    // Claim 1 is exactly "no blind cell survives LAP(16+) / LAR(2+)".
    let [blind_claim, _, _] = insights.claims();
    assert_eq!(
        blind_claim.held,
        insights.strong_filter_survivors.is_empty()
    );
}

#[test]
fn experiments_are_deterministic() {
    // The whole pipeline is seeded: running Fig. 5 twice must give
    // byte-identical tables.
    let a = fig5::run(prepared(), &params()).unwrap();
    let b = fig5::run(prepared(), &params()).unwrap();
    assert_eq!(a.table().render(), b.table().render());
}
