//! **Fig. 5** — Threat Model I: every library attack achieves every
//! targeted misclassification scenario when the adversarial image is
//! written directly into the DNN input buffer (no filter in the way).

use fademl_filters::FilterSpec;

use super::grid::{
    class_name, craft, demonstration_cell, for_each_parallel, scenario_image, ScenarioCell,
};
use super::AttackParams;
use crate::report::{pct, Table};
use crate::setup::PreparedSetup;
use crate::{InferencePipeline, Result, Scenario, ThreatModel};

/// Result of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One cell per (scenario, attack), all with `FilterSpec::None`.
    pub cells: Vec<ScenarioCell>,
}

impl Fig5Result {
    /// Fraction of (attack, scenario) cells where the targeted
    /// misclassification succeeded (the paper reports all 15 succeed).
    pub fn success_rate(&self) -> f32 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().filter(|c| c.success_tm1).count() as f32 / self.cells.len() as f32
    }

    /// Renders the paper-style table: rows = attacks, columns = scenarios.
    pub fn table(&self) -> Table {
        let scenarios = Scenario::paper_scenarios();
        let mut header = vec!["Attack".to_owned()];
        header.extend(scenarios.iter().map(|s| s.label()));
        let mut table = Table::new(
            "Fig. 5 — targeted misclassification under Threat Model I (no filter)",
            header,
        );
        for label in AttackParams::labels() {
            let mut row = vec![label.to_owned()];
            for s in &scenarios {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| c.scenario_id == s.id && c.attack == label);
                row.push(match cell {
                    Some(c) => format!(
                        "{} ({}){}",
                        class_name(c.tm1_class),
                        pct(c.tm1_confidence),
                        if c.success_tm1 { " ✓" } else { " ✗" }
                    ),
                    None => "-".to_owned(),
                });
            }
            table.push_row(row);
        }
        table
    }
}

/// Runs the Fig. 5 experiment: 3 attacks × 5 scenarios, crafted and
/// evaluated on the bare DNN.
///
/// # Errors
///
/// Propagates attack and pipeline errors.
pub fn run(prepared: &PreparedSetup, params: &AttackParams) -> Result<Fig5Result> {
    let per_scenario = for_each_parallel(&Scenario::paper_scenarios(), |scenario| {
        scenario_cells(prepared, params, scenario)
    })?;
    Ok(Fig5Result {
        cells: per_scenario.into_iter().flatten().collect(),
    })
}

/// One scenario of Fig. 5: each library attack, no filter deployed.
fn scenario_cells(
    prepared: &PreparedSetup,
    params: &AttackParams,
    scenario: &Scenario,
) -> Result<Vec<ScenarioCell>> {
    let source = scenario_image(prepared, scenario.source)?;
    let pipeline = InferencePipeline::new(prepared.model.clone(), FilterSpec::None)?;
    (0..AttackParams::labels().len())
        .map(|attack_idx| {
            let adv = craft(prepared, params, attack_idx, None, &source, scenario.goal())?;
            // With FilterSpec::None the threat model only controls
            // acquisition noise; III keeps the evaluation noise-free.
            demonstration_cell(scenario, attack_idx, &pipeline, ThreatModel::III, &adv)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ExperimentSetup, SetupProfile};
    use std::sync::OnceLock;

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
            bim_iterations: 6,
            lbfgs_iterations: 8,
            ..AttackParams::default()
        }
    }

    #[test]
    fn produces_all_fifteen_cells() {
        let result = run(prepared(), &cheap_params()).unwrap();
        assert_eq!(result.cells.len(), 15);
        // Every attack × scenario combination appears exactly once.
        for label in AttackParams::labels() {
            for sid in 1..=5 {
                assert_eq!(
                    result
                        .cells
                        .iter()
                        .filter(|c| c.attack == label && c.scenario_id == sid)
                        .count(),
                    1
                );
            }
        }
    }

    #[test]
    fn attacks_usually_succeed_without_filter() {
        // The smoke victim is small, but the majority of the 15 cells
        // should still flip to the target without a filter in the way.
        let result = run(prepared(), &cheap_params()).unwrap();
        assert!(
            result.success_rate() > 0.5,
            "TM-I success rate only {:.0}%",
            result.success_rate() * 100.0
        );
    }

    #[test]
    fn no_filter_means_views_agree() {
        let result = run(prepared(), &cheap_params()).unwrap();
        for cell in &result.cells {
            assert_eq!(cell.filter, FilterSpec::None);
            assert_eq!(cell.tm1_class, cell.tm23_class);
            assert!(cell.cost.abs() < 1e-5);
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let result = run(prepared(), &cheap_params()).unwrap();
        let table = result.table();
        assert_eq!(table.len(), 3);
        let rendered = table.render();
        assert!(rendered.contains("L-BFGS"));
        assert!(rendered.contains("FGSM"));
        assert!(rendered.contains("BIM"));
        assert!(rendered.contains("S1"));
    }
}
