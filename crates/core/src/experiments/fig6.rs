//! **Fig. 6** — overall top-5 accuracy of the victim on the test set,
//! clean vs under each attack (no pre-processing filter). The paper
//! reports the attacks cost up to ~10 percentage points of top-5
//! accuracy even though each image looks unchanged.

use fademl_filters::FilterSpec;

use super::grid::{collect_stages, AccuracyGrid, Sweep};
use super::AttackParams;
use crate::report::{pct, Table};
use crate::setup::PreparedSetup;
use crate::{Result, Scenario, ThreatModel};

/// Result of the Fig. 6 experiment.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// One unfiltered accuracy grid per scenario.
    pub grids: Vec<AccuracyGrid>,
}

impl Fig6Result {
    /// Accuracy for (scenario id, attack label), if present.
    pub fn accuracy(&self, scenario_id: usize, attack: &str) -> Option<f32> {
        self.grids
            .iter()
            .find(|g| g.scenario.id == scenario_id)
            .and_then(|g| g.accuracy(FilterSpec::None, attack))
    }

    /// Renders the paper-style table: rows = attack condition,
    /// columns = scenarios.
    pub fn table(&self) -> Table {
        let mut header = vec!["Condition".to_owned()];
        header.extend(self.grids.iter().map(|g| g.scenario.label()));
        let mut table = Table::new(
            "Fig. 6 — top-5 accuracy without filtering (clean vs attacked)",
            header,
        );
        let mut conditions = vec!["No attack".to_owned()];
        conditions.extend(AttackParams::labels().iter().map(|s| (*s).to_owned()));
        for condition in conditions {
            let mut row = vec![condition.clone()];
            for grid in &self.grids {
                row.push(
                    grid.accuracy(FilterSpec::None, &condition)
                        .map(pct)
                        .unwrap_or_else(|| "-".to_owned()),
                );
            }
            table.push_row(row);
        }
        table
    }
}

/// Runs the Fig. 6 experiment over the first `eval_n` test images per
/// scenario.
///
/// # Errors
///
/// Propagates attack and pipeline errors.
pub fn run(prepared: &PreparedSetup, params: &AttackParams, eval_n: usize) -> Result<Fig6Result> {
    let filters = [FilterSpec::None];
    let sweep = Sweep::over(prepared, params, &filters, false, eval_n, ThreatModel::III)?;
    let (_, grids) = collect_stages(sweep.run(&Scenario::paper_scenarios())?);
    Ok(Fig6Result { grids })
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
            epsilon: 0.12,
            bim_iterations: 4,
            lbfgs_iterations: 5,
            ..AttackParams::default()
        }
    }

    #[test]
    fn grid_shape_and_ranges() {
        let result = run(prepared(), &cheap_params(), 6).unwrap();
        assert_eq!(result.grids.len(), 5);
        for grid in &result.grids {
            assert_eq!(grid.cells.len(), 4); // no-attack + 3 attacks
            for cell in &grid.cells {
                assert!((0.0..=1.0).contains(&cell.top5_accuracy));
            }
        }
    }

    #[test]
    fn attacks_do_not_increase_accuracy_on_average() {
        // Adversarial perturbation hurts (or at worst roughly ties)
        // top-5 accuracy relative to clean inputs when averaged over all
        // attacks and scenarios. A single (attack, scenario) cell can tie
        // or even flip upward on a tiny sample, so the assertion uses a
        // larger eval sample and a stronger budget than the smoke tests.
        let params = AttackParams {
            epsilon: 0.2,
            bim_iterations: 8,
            lbfgs_iterations: 8,
            ..AttackParams::default()
        };
        let result = run(prepared(), &params, 30).unwrap();
        let mean = |attack: &str| -> f32 {
            let vals: Vec<f32> = (1..=5)
                .filter_map(|sid| result.accuracy(sid, attack))
                .collect();
            vals.iter().sum::<f32>() / vals.len() as f32
        };
        let clean = mean("No attack");
        let attacked: f32 = AttackParams::labels().iter().map(|a| mean(a)).sum::<f32>() / 3.0;
        assert!(
            attacked <= clean + 0.02,
            "mean attacked accuracy {attacked:.3} above clean {clean:.3}"
        );
    }

    #[test]
    fn table_has_four_condition_rows() {
        let result = run(prepared(), &cheap_params(), 4).unwrap();
        let table = result.table();
        assert_eq!(table.len(), 4);
        assert!(table.render().contains("No attack"));
    }
}
